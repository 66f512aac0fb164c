import hashlib
import re

import numpy as np
import pytest

from aschur.linalg import is_m_matrix
from aschur.poisson import GridSpec, assemble, exact_solution
from conftest import lattice_coords


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(dims=())
    with pytest.raises(ValueError):
        GridSpec(dims=(3, 3, 3, 3))
    with pytest.raises(ValueError):
        GridSpec(dims=(0,))
    with pytest.raises(ValueError):
        GridSpec(dims=(3,), spacing=0.0)


def test_grid_spec_rejects_a_solution_it_cannot_represent():
    # |u| <= |g| h^2 (m + 1)^2 / 8: 1.28e308 on 31^2 at h = 1e153, and 1.08e308 on one
    # node at h = 1.2e154, g = 1.5, where |g| h^2 alone overflows.
    GridSpec(dims=(31, 31), spacing=1e153)
    GridSpec(dims=(1,), spacing=1.2e154, source=1.5)
    for dims, spacing, source in (((127, 127), 1e153, 1.0), ((7, 7), 1e-3, 1e154), ((7, 7), 1e-3, -1e160),
                                  ((3,), 1.0, float("nan")), ((3,), 1.0, float("inf"))):
        with pytest.raises(ValueError, match=re.escape(f"source {source}")):
            GridSpec(dims=dims, spacing=spacing, source=source)


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


# SHA-256 of row_offsets, col_indices, values and the rows' lattice coordinates, recorded
# from the sort-based COO assembly; the direct CSR writer must reproduce every bit.
ASSEMBLY_GOLDENS = [
    (
        (9,),
        1.0,
        (
            "ed8a5222513e52fe63d93ff4547ecec46d09deb318df736970580080806eb59a",
            "d1f874e86e6d80c9561267e48893cc115b491b3de5d208471ee11d55a7ab8c67",
            "5046fc2729d21ce21104ae4f72c8877b9fb914f0f939e7da86000be8b997cc14",
            "419ce84f0e9d892643ed1279ee8cdaa70ddc452e676dfe448cbeaaa830c06567",
        ),
    ),
    (
        (6, 5),
        0.3,
        (
            "99da63cdbfb14644b5e1958a12196bae6aafcd85a9df8c1d75ab892e4f843ef6",
            "a98ecfcfebe0a3d4367a334f1c61aca99ca97ca8dcb45232a84f2e55f922dcbe",
            "f4a3972d14a03f1ac2d3b8cfaa09975f43f39627a8e6066c235fd8fe309fb064",
            "15481bb458b7d277e865409aa21e665faff9e2b7aec34ec94b8dd48eb3d0123f",
        ),
    ),
    (
        (5, 4, 3),
        0.7,
        (
            "25d4d2fdf2997e4e1276ccd4527b363cdbf3dc46b374becb4375448992c4f1eb",
            "7393cf01646e10325b9988bd2a9f01d2cad807217bc740ec18ced78ae7e54b12",
            "8601a3f1ee505a74bae5017e1eef46bbc408fea331f5da351320566cfbacc99e",
            "e23ab0b80616f83a3fc20909dde3eedd9cd3db2a5eafebec88fee769617d1836",
        ),
    ),
    (
        (4, 1, 3),
        0.3,
        (
            "8e35efd5c6316fd00c022fe19f399cca5dece79e99bac883bd1998954eb834b0",
            "f21a61505c9a3c84aecf0fc02c5468cca6ba5617195c134284575d93503f2777",
            "9aba1e512e59ee4c5bf9719fe64c9cf7298e48e6a5dbedd061c955154820face",
            "090f0d0375df47ecf247d3bf287d8aba8e56d87b8d74d1e93170e600b68712f1",
        ),
    ),
    (
        (7, 1),
        1.0,
        (
            "ebe9135e846560b5f7304253e00c3ff1cd21f1c6801073fff3628e27040ce84f",
            "948bb120a7eb7e1f1e12d21afa7c585994dbfede6fc9e941f0f1117249451cac",
            "f4ef9165dfe737ac3af41d68bfb2722b93bdebe17bc1d9beb1fdf384b3ae01f8",
            "a4859b0eb3210bdb204f16dc40995942be8134d29e951c82722060adf9372673",
        ),
    ),
    (
        (255, 255),
        1.0,
        (
            "8e27f12f9b6a09ddc012604e979abf9b7ad93ba5b3b2338a81d67279967005bb",
            "37b7936414d09b892cd801fe25d3b4d56a2859f49f766cd4288b2ee9f73724e1",
            "9a16969f6d23c6acc26e10c397cf8f53c7bfc4095fa984b172c17c9942a57f98",
            "21e53f6cddbe651aa20915b7da4d2795067d77a40f64779fc1724e75442b7a82",
        ),
    ),
]


def test_assemble_deterministic_bit_identical():
    a = assemble(GridSpec(dims=(6, 5), spacing=0.3, source=2.0))
    b = assemble(GridSpec(dims=(6, 5), spacing=0.3, source=2.0))
    np.testing.assert_array_equal(a.A.values, b.A.values)
    np.testing.assert_array_equal(a.A.col_indices, b.A.col_indices)
    np.testing.assert_array_equal(a.A.row_offsets, b.A.row_offsets)
    np.testing.assert_array_equal(a.b, b.b)


@pytest.mark.parametrize(
    "dims,spacing,digests", ASSEMBLY_GOLDENS, ids=[f"{'x'.join(map(str, g[0]))}-h{g[1]}" for g in ASSEMBLY_GOLDENS]
)
def test_assemble_matches_golden_bits(dims, spacing, digests):
    prob = assemble(GridSpec(dims=dims, spacing=spacing))
    arrays = (prob.A.row_offsets, prob.A.col_indices, prob.A.values, lattice_coords(dims))
    assert [a.dtype for a in arrays] == [np.int64, np.int64, np.float64, np.int64]
    assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays) == digests


def test_assemble_rejects_oversized_grid():
    with pytest.raises(ValueError):
        assemble(GridSpec(dims=(3000, 4000)))


def test_node_coords_lexicographic_x_fastest():
    # The rows run x fastest: two rows couple exactly when their lattice coordinates are neighbours.
    coords = lattice_coords((3, 2))
    np.testing.assert_array_equal(coords, [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]])
    dense = assemble(GridSpec(dims=(3, 2))).A.csr.toarray()
    np.testing.assert_array_equal(dense < 0, np.abs(coords[:, None] - coords[None]).sum(axis=2) == 1)


@pytest.mark.parametrize("dims", [(9,), (6, 5), (4, 3, 3), (22, 22)])
def test_assembled_matrix_is_m_matrix(dims):
    prob = assemble(GridSpec(dims=dims))
    assert is_m_matrix(prob.A.csr.toarray())


@pytest.mark.parametrize("dims", [(7,), (5, 4), (3, 3, 3)])
def test_row_sums_positive_exactly_at_boundary(dims):
    prob = assemble(GridSpec(dims=dims))
    row_sums = prob.A.csr.toarray().sum(axis=1)
    at_boundary = np.array(
        [any(c == 0 or c == dims[a] - 1 for a, c in enumerate(coord)) for coord in lattice_coords(dims)]
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


def test_exact_solution_beyond_dense_cap_meets_residual_bound():
    prob = assemble(GridSpec(dims=(47, 47)))  # 2209 unknowns, above the dense cap
    x = exact_solution(prob)
    resid = np.linalg.norm(prob.A.csr @ x - prob.b)
    assert resid <= 1e-10 * np.linalg.norm(prob.b)
