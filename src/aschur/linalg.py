"""Shared linear-algebra kernels: the assembled matrix's CSR record, weighted
norms, matrix-class predicates and the spectral radius of a nonnegative matrix.

Vectors and dense matrices are plain float64 numpy arrays (1-D, and 2-D in
row-major order).  Sparse blocks are scipy CSR matrices in canonical form
(sorted indices, no duplicates): scipy's CSR kernel accumulates each row
left to right in that one fixed order, so products are reproducible bit for
bit.  ``SparseMatrix`` is the assembled operator's record: its int64 arrays
are checked for canonical structure once, on construction, and ``csr``
views them as a scipy matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse
from scipy.sparse._sparsetools import csr_matvec, csr_row_index, csr_sort_indices, get_csr_submatrix

__all__ = [
    "SparseMatrix",
    "SingularMatrixError",
    "matvec",
    "weighted_max_norm",
    "comparison_matrix",
    "is_m_matrix",
    "is_h_matrix",
    "spectral_radius_nonneg",
]

# The one desk-scale bound on every dense step (the matrix-class predicates,
# the explicit local complement and the certificates); refuse anything bigger
# instead of silently grinding.
DENSE_OP_LIMIT = 2000


class SingularMatrixError(ValueError):
    """Raised when an interior factorization meets a singular block."""


@dataclass(frozen=True)
class SparseMatrix:
    """The assembled matrix as CSR arrays with canonical structure.

    Invariants checked on construction: ``row_offsets`` is nondecreasing with
    ``nrows + 1`` entries ending at ``len(values)``; column indices lie in
    ``[0, ncols)`` and are strictly increasing within each row (which also
    rules out duplicates).  Explicit zeros are permitted.
    """

    nrows: int
    ncols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "row_offsets", np.asarray(self.row_offsets, dtype=np.int64))
        object.__setattr__(self, "col_indices", np.asarray(self.col_indices, dtype=np.int64))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.nrows < 0 or self.ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        offs = self.row_offsets
        if offs.shape != (self.nrows + 1,):
            raise ValueError("row_offsets must have nrows + 1 entries")
        if offs[0] != 0 or offs[-1] != len(self.values):
            raise ValueError("row_offsets must start at 0 and end at nnz")
        if np.any(np.diff(offs) < 0):
            raise ValueError("row_offsets must be nondecreasing")
        if len(self.col_indices) != len(self.values):
            raise ValueError("col_indices and values must have equal length")
        if self.col_indices.size:
            if self.col_indices.min() < 0 or self.col_indices.max() >= self.ncols:
                raise ValueError("column index out of range")
        if self.col_indices.size > 1:
            # Strictly increasing columns inside each row: the only allowed
            # decreases in the concatenated index stream are at row starts.
            interior = np.ones(len(self.col_indices) - 1, dtype=bool)
            starts = offs[1:-1]
            starts = starts[(starts > 0) & (starts < len(self.col_indices))]
            interior[starts - 1] = False
            if np.any(np.diff(self.col_indices)[interior] <= 0):
                raise ValueError("columns must be strictly increasing within each row")

    @cached_property
    def csr(self) -> scipy.sparse.csr_matrix:
        """The record as a scipy CSR matrix, sharing its values array."""
        m = scipy.sparse.csr_matrix(
            (self.values, self.col_indices, self.row_offsets),
            shape=(self.nrows, self.ncols),
            copy=False,
        )
        m.has_sorted_indices = True
        return m


def matvec(K: scipy.sparse.csr_matrix, x: np.ndarray, start: np.ndarray | None = None) -> np.ndarray:
    """``K @ x`` through scipy's CSR kernel alone: the same sums, without the operator dispatch (~4 us a call).
    With ``start``, ``start + K @ x``: each row's sum starts at its entry of ``start`` instead of 0.0."""
    m, n = K.shape
    if x.shape != (n,) or start is not None and start.shape != (m,):  # the kernel reads x and y unchecked
        raise ValueError(f"vector of shape {x.shape}, start {getattr(start, 'shape', None)}, for a {(m, n)} matrix")
    y = np.zeros(m) if start is None else start.copy()
    csr_matvec(m, n, K.indptr, K.indices, K.data, x, y)
    return y


def gather_rows(M: scipy.sparse.csr_matrix, rows: np.ndarray, columns: np.ndarray | None = None) -> tuple:
    """Rows ``rows`` of M as CSR arrays ``(data, indices, indptr)``; with ``columns``, column j renamed
    ``columns[j]`` and each row sorted, so a permutation's inverse gives canonical ``M[order][:, order]``:
    scipy's row-index and sort kernels, bit for bit its fancy indexing and sort, without the matrices."""
    rows = rows.astype(M.indptr.dtype, copy=False)  # the kernel takes its index type from ``rows``
    ptr = np.append(0, np.cumsum(M.indptr[rows + 1] - M.indptr[rows])).astype(M.indptr.dtype)
    idx, val = np.empty(ptr[-1], dtype=M.indices.dtype), np.empty(ptr[-1], dtype=M.data.dtype)
    csr_row_index(len(rows), rows, M.indptr, M.indices, M.data, idx, val)
    if columns is not None:
        idx = columns[idx]
        csr_sort_indices(len(rows), ptr, idx, val)
    return val, idx, ptr


def submatrix(M: tuple, n_col: int, r0: int, r1: int, c0: int, c1: int) -> tuple:
    """Rows ``r0:r1`` and columns ``c0:c1`` of the CSR arrays ``M = (data, indices, indptr)`` with ``n_col``
    columns, as CSR arrays: scipy's slicing kernel (its arrays run the other way), without the matrix."""
    return get_csr_submatrix(len(M[2]) - 1, n_col, *M[::-1], r0, r1, c0, c1)[::-1]


def weighted_max_norm(a, w) -> float:
    """max_i (1/w_i) sum_j |a_ij| w_j for a square dense or scipy sparse matrix and weights w > 0."""
    w = np.asarray(w, dtype=np.float64)
    nrows, ncols = np.shape(a)
    if nrows != ncols:
        raise ValueError("weighted_max_norm needs a square matrix")
    if w.shape != (ncols,):
        raise ValueError("weight length must match the matrix dimension")
    if np.any(w <= 0):
        raise ValueError("weights must be strictly positive")
    if nrows == 0:
        return 0.0
    return float(np.max((abs(a) @ w) / w))


def comparison_matrix(a) -> np.ndarray:
    """|diagonal| on the diagonal, -|entry| off it, of a dense square matrix."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("comparison_matrix needs a square matrix")
    out = -np.abs(a)
    np.fill_diagonal(out, np.abs(np.diag(a)))
    return out


def is_m_matrix(a) -> bool:
    """Nonpositive off-diagonals, and the solution v of ``a v = 1`` finite and positive.

    For a Z-matrix this is the nonsingular M-matrix property (Berman & Plemmons 1994,
    ch. 6, I27).  One dense solve: at most ``DENSE_OP_LIMIT`` square; singular yields False.
    """
    d = np.asarray(a, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("is_m_matrix needs a square matrix")
    if d.shape[0] > DENSE_OP_LIMIT:
        raise ValueError(f"dense solves limited to {DENSE_OP_LIMIT}x{DENSE_OP_LIMIT} matrices")
    if np.any(d - np.diag(np.diag(d)) > 0):
        return False
    try:
        v = np.linalg.solve(d, np.ones(d.shape[0]))
    except np.linalg.LinAlgError:
        return False
    return bool(np.all(v > 0) and np.isfinite(v).all())


def is_h_matrix(a) -> bool:
    """True when the comparison matrix of ``a`` passes the M-matrix test."""
    return is_m_matrix(comparison_matrix(a))


def spectral_radius_nonneg(a) -> float:
    """Spectral radius of a dense nonnegative matrix, from all its eigenvalues.

    Every caller is bounded by ``DENSE_OP_LIMIT``, so one dense eigenvalue
    solve is exact to rounding and bounded in cost, near ties included.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("spectral_radius_nonneg needs a square matrix")
    if a.size and a.min() < 0:
        raise ValueError("matrix must be entrywise nonnegative")
    return float(np.abs(np.linalg.eigvals(a)).max(initial=0.0))
