import numpy as np
import pytest

from aschur.linalg import is_m_matrix
from aschur.poisson import GridSpec, assemble, exact_solution


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(dims=())
    with pytest.raises(ValueError):
        GridSpec(dims=(3, 3, 3, 3))
    with pytest.raises(ValueError):
        GridSpec(dims=(0,))
    with pytest.raises(ValueError):
        GridSpec(dims=(3,), spacing=0.0)


def test_assemble_1d_is_tridiagonal():
    prob = assemble(GridSpec(dims=(3,)))
    expected = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    np.testing.assert_array_equal(prob.A.csr.toarray(), expected)
    np.testing.assert_array_equal(prob.b, np.ones(3))


def test_assemble_2d_2x2_adjacency():
    prob = assemble(GridSpec(dims=(2, 2)))
    dense = prob.A.csr.toarray()
    np.testing.assert_array_equal(np.diag(dense), np.full(4, 4.0))
    for i in range(4):
        off = np.delete(dense[i], i)
        assert np.count_nonzero(off) == 2
        assert set(off[off != 0]) == {-1.0}


def test_assemble_single_node():
    prob = assemble(GridSpec(dims=(1,), source=3.0))
    np.testing.assert_array_equal(prob.A.csr.toarray(), [[2.0]])
    np.testing.assert_array_equal(prob.b, [3.0])


def test_assemble_scaling_by_spacing():
    prob = assemble(GridSpec(dims=(4, 3), spacing=0.5))
    dense = prob.A.csr.toarray()
    assert set(np.diag(dense)) == {16.0}
    off = dense[~np.eye(12, dtype=bool)]
    assert set(off[off != 0]) == {-4.0}


def test_assemble_symmetry_is_exact():
    prob = assemble(GridSpec(dims=(5, 4, 3), spacing=0.7))
    dense = prob.A.csr.toarray()
    np.testing.assert_array_equal(dense, dense.T)


def test_assemble_deterministic_bit_identical():
    a = assemble(GridSpec(dims=(6, 5), spacing=0.3, source=2.0))
    b = assemble(GridSpec(dims=(6, 5), spacing=0.3, source=2.0))
    np.testing.assert_array_equal(a.A.values, b.A.values)
    np.testing.assert_array_equal(a.A.col_indices, b.A.col_indices)
    np.testing.assert_array_equal(a.A.row_offsets, b.A.row_offsets)
    np.testing.assert_array_equal(a.b, b.b)


def test_assemble_rejects_oversized_grid():
    with pytest.raises(ValueError):
        assemble(GridSpec(dims=(3000, 4000)))


def test_node_coords_lexicographic_x_fastest():
    prob = assemble(GridSpec(dims=(3, 2)))
    np.testing.assert_array_equal(
        prob.node_coords, [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
    )


@pytest.mark.parametrize("dims", [(9,), (6, 5), (4, 3, 3), (22, 22)])
def test_assembled_matrix_is_m_matrix(dims):
    prob = assemble(GridSpec(dims=dims))
    assert is_m_matrix(prob.A.csr.toarray())


@pytest.mark.parametrize("dims", [(7,), (5, 4), (3, 3, 3)])
def test_row_sums_positive_exactly_at_boundary(dims):
    prob = assemble(GridSpec(dims=dims))
    row_sums = prob.A.csr.toarray().sum(axis=1)
    at_boundary = np.array(
        [any(c == 0 or c == dims[a] - 1 for a, c in enumerate(coord)) for coord in prob.node_coords]
    )
    assert np.all(row_sums >= -1e-12)
    np.testing.assert_array_equal(row_sums > 1e-12, at_boundary)


def test_exact_solution_1d_hand_values():
    prob = assemble(GridSpec(dims=(3,)))
    np.testing.assert_allclose(exact_solution(prob), [1.5, 2.0, 1.5], atol=1e-12)


def test_exact_solution_single_node():
    prob = assemble(GridSpec(dims=(1,), source=2.0))
    np.testing.assert_allclose(exact_solution(prob), [1.0], atol=1e-14)


def test_exact_solution_zero_source():
    prob = assemble(GridSpec(dims=(4, 4), source=0.0))
    np.testing.assert_array_equal(exact_solution(prob), np.zeros(16))


def test_exact_solution_meets_residual_bound():
    prob = assemble(GridSpec(dims=(11, 11), spacing=0.25, source=5.0))
    x = exact_solution(prob)
    resid = np.linalg.norm(prob.A.csr @ x - prob.b)
    assert resid <= 1e-10 * np.linalg.norm(prob.b)


def test_exact_solution_iterative_path_beyond_dense_cap():
    prob = assemble(GridSpec(dims=(47, 47)))  # 2209 unknowns, above the dense cap
    x = exact_solution(prob)
    resid = np.linalg.norm(prob.A.csr @ x - prob.b)
    assert resid <= 1e-10 * np.linalg.norm(prob.b)
