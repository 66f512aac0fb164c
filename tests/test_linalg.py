import numpy as np
import pytest
import scipy.io
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from aschur.linalg import (
    SparseMatrix,
    comparison_matrix,
    is_h_matrix,
    is_m_matrix,
    matvec,
    spectral_radius_nonneg,
    weighted_max_norm,
)


def tridiag(n, lo=-1.0, di=2.0, hi=-1.0):
    return np.diag(np.full(n, di)) + np.diag(np.full(n - 1, lo), -1) + np.diag(np.full(n - 1, hi), 1)


# -- SparseMatrix structure -------------------------------------------------


def test_sparse_roundtrip_dense():
    a = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
    m = scipy.sparse.csr_matrix(a)
    s = SparseMatrix(3, 3, m.indptr, m.indices, m.data)
    assert s.csr.nnz == 4
    np.testing.assert_array_equal(s.csr.toarray(), a)


def test_matvec_is_the_csr_product_bit_for_bit():
    K = scipy.sparse.random(30, 20, density=0.2, format="csr", random_state=0)
    x = np.random.default_rng(0).standard_normal(20)
    np.testing.assert_array_equal(matvec(K, x), K @ x)
    for bad in (np.ones(19), np.ones(21), np.ones((20, 1))):
        with pytest.raises(ValueError, match="vector of shape"):
            matvec(K, bad)


def test_sparse_rejects_bad_offsets():
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [0, 2], [0, 1], [1.0, 1.0])
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [0, 2, 1], [0, 1], [1.0, 1.0])


def test_sparse_rejects_unsorted_or_duplicate_columns():
    with pytest.raises(ValueError):
        SparseMatrix(1, 3, [0, 2], [2, 0], [1.0, 1.0])
    with pytest.raises(ValueError):
        SparseMatrix(1, 3, [0, 2], [1, 1], [1.0, 1.0])


def test_sparse_rejects_out_of_range_column():
    with pytest.raises(ValueError):
        SparseMatrix(1, 2, [0, 1], [5], [1.0])


def test_sparse_empty_rows_are_fine():
    s = SparseMatrix(3, 3, [0, 1, 1, 1], [0], [4.0])
    np.testing.assert_array_equal(s.csr.toarray()[0], [4.0, 0.0, 0.0])
    assert s.csr.toarray()[1:].sum() == 0


# -- weighted norms -----------------------------------------------------------


def test_weighted_max_norm_symmetric_unit_weights():
    assert weighted_max_norm(np.array([[0.0, 0.5], [0.5, 0.0]]), np.ones(2)) == 0.5


def test_weighted_max_norm_general_weights():
    a = np.array([[0.0, 2.0], [0.125, 0.0]])
    assert weighted_max_norm(a, np.array([2.0, 0.5])) == pytest.approx(0.5)


def test_weighted_max_norm_identity_any_weights():
    assert weighted_max_norm(np.eye(2), np.array([3.0, 7.0])) == 1.0


def test_weighted_max_norm_rejects_nonpositive_weight():
    with pytest.raises(ValueError):
        weighted_max_norm(np.eye(2), np.array([1.0, 0.0]))


def test_weighted_max_norm_on_sparse_matches_dense():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(5, 5)) * (rng.random((5, 5)) < 0.5)
    w = rng.random(5) + 0.1
    assert weighted_max_norm(scipy.sparse.csr_matrix(a), w) == pytest.approx(weighted_max_norm(a, w))


def test_comparison_matrix_rejects_non_square():
    with pytest.raises(ValueError):
        comparison_matrix(np.ones((2, 3)))


# -- comparison matrix --------------------------------------------------------


def test_comparison_matrix_definition():
    out = comparison_matrix(np.array([[2.0, -1.0], [1.0, 3.0]]))
    np.testing.assert_array_equal(out, [[2.0, -1.0], [-1.0, 3.0]])


def test_comparison_matrix_negative_diagonal():
    out = comparison_matrix(np.array([[-2.0, 0.0], [0.0, -2.0]]))
    np.testing.assert_array_equal(out, [[2.0, 0.0], [0.0, 2.0]])


def test_comparison_matrix_fixed_point_on_tridiagonal():
    a = tridiag(4)
    np.testing.assert_array_equal(comparison_matrix(a), a)


def test_comparison_matrix_sparse_matches_dense():
    # The predicates take dense arrays: a sparse matrix goes in through ``toarray()``, and is
    # refused rather than misread when passed as it is.
    a = np.array([[2.0, -1.0, 0.0], [1.0, -3.0, 2.0], [0.0, 0.5, 1.0]])
    m = scipy.sparse.csr_matrix(a)
    s = SparseMatrix(3, 3, m.indptr, m.indices, m.data)
    np.testing.assert_array_equal(comparison_matrix(s.csr.toarray()), comparison_matrix(a))
    with pytest.raises(ValueError):
        comparison_matrix(m)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_comparison_matrix_idempotent(n, seed):
    a = np.random.default_rng(seed).normal(size=(n, n))
    c = comparison_matrix(a)
    np.testing.assert_array_equal(comparison_matrix(c), c)


# -- M/H-matrix predicates -----------------------------------------------------


def test_is_m_matrix_tridiagonal():
    assert is_m_matrix(tridiag(3))


def test_is_m_matrix_negative_inverse_entries():
    assert not is_m_matrix(np.array([[1.0, -2.0], [-2.0, 1.0]]))


def test_is_m_matrix_identity():
    assert is_m_matrix(np.eye(4))


def test_is_m_matrix_singular_returns_false():
    assert not is_m_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_is_m_matrix_positive_offdiagonal_fails():
    assert not is_m_matrix(np.array([[2.0, 1.0], [0.0, 2.0]]))


def test_is_m_matrix_rejects_oversized():
    with pytest.raises(ValueError):
        is_m_matrix(np.eye(2001))


def test_is_h_matrix_sign_flipped_dominant():
    assert is_h_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))


def test_is_h_matrix_fails_when_comparison_fails():
    assert not is_h_matrix(np.array([[1.0, -2.0], [-2.0, 1.0]]))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_strict_diagonal_dominance_implies_h(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    margin = 0.1 + rng.random(n)
    diag_sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    np.fill_diagonal(a, diag_sign * (np.abs(a).sum(axis=1) - np.abs(np.diag(a)) + margin))
    assert is_h_matrix(a)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_m_matrix_implies_h_matrix(n, seed):
    rng = np.random.default_rng(seed)
    off = -np.abs(rng.normal(size=(n, n)))
    np.fill_diagonal(off, 0.0)
    a = off + np.diag(np.abs(off).sum(axis=1) + 0.1 + rng.random(n))
    assert is_m_matrix(a)
    assert is_h_matrix(a)


# -- spectral radius -----------------------------------------------------------


def test_spectral_radius_permutation():
    assert spectral_radius_nonneg(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0, abs=1e-9)


def test_spectral_radius_quadratic_formula_case():
    a = np.array([[0.2, 0.3], [0.1, 0.4]])
    assert spectral_radius_nonneg(a) == pytest.approx(0.5, abs=1e-9)


def test_spectral_radius_scalar():
    assert spectral_radius_nonneg(np.array([[0.25]])) == 0.25


def test_spectral_radius_rejects_negative_entries():
    with pytest.raises(ValueError):
        spectral_radius_nonneg(np.array([[0.0, -1.0], [0.0, 0.0]]))


def test_spectral_radius_acyclic_is_zero():
    assert spectral_radius_nonneg(np.array([[0.0, 1.0], [0.0, 0.0]])) == 0.0


def test_spectral_radius_matches_eig_oracle_on_small_randoms():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        a = np.abs(rng.normal(size=(n, n))) * (rng.random((n, n)) < 0.6)
        want = float(np.max(np.abs(np.linalg.eigvals(a))))
        assert spectral_radius_nonneg(a) == pytest.approx(want, abs=1e-6)


def test_contraction_norm_exists_when_radius_below_one():
    # A weight vector built from the dominant eigenvector of |A| certifies
    # the radius bound as a weighted max norm below one.
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        a = rng.normal(size=(n, n))
        target = 0.2 + 0.7 * rng.random()
        a *= target / max(spectral_radius_nonneg(np.abs(a)), 1e-12)
        absa = np.abs(a)
        w = np.ones(n)
        for _ in range(4000):
            w_new = absa @ w + 0.05 * np.max(absa.sum(axis=1)) * w
            nw = np.linalg.norm(w_new)
            if nw == 0:
                break
            w_new = w_new / nw
            if np.linalg.norm(w_new - w) < 1e-15:
                w = w_new
                break
            w = w_new
        w = np.maximum(w, 1e-12)
        assert weighted_max_norm(a, w) < 1.0 + 1e-8


# -- matrix market ----------------------------------------------------------------


def test_matrix_market_roundtrip(tmp_path):
    # The CLI's matrix export: 17 significant digits read back bit for bit.
    rng = np.random.default_rng(17)
    dense = rng.normal(size=(6, 5)) * (rng.random((6, 5)) < 0.4)
    path = tmp_path / "matrix.mtx"
    scipy.io.mmwrite(str(path), scipy.sparse.csr_matrix(dense).tocoo(), precision=17)
    back = scipy.io.mmread(path)
    assert back.shape == dense.shape
    np.testing.assert_array_equal(back.toarray(), dense)
