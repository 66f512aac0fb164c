"""Shared linear-algebra kernels: CSR matrices, weighted norms,
matrix-class predicates and a nonnegative power iteration.

Vectors and dense matrices are plain float64 numpy arrays (1-D, and 2-D in
row-major order).  ``SparseMatrix`` is a validated CSR container; its matvec
delegates to scipy's CSR kernel, which accumulates each row left to right in
a single fixed order, so results are reproducible bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.io
import scipy.sparse

__all__ = [
    "SparseMatrix",
    "SingularMatrixError",
    "PowerIterationError",
    "spmv",
    "weighted_max_norm",
    "weighted_row_sums",
    "comparison_matrix",
    "is_m_matrix",
    "is_h_matrix",
    "spectral_radius_nonneg",
    "submatrix",
    "read_matrix_market",
    "write_matrix_market",
]

# Dense inversion (used by the matrix-class predicates) is a desk-scale
# oracle; refuse anything bigger instead of silently grinding.
DENSE_OP_LIMIT = 2000


class SingularMatrixError(ValueError):
    """Raised when an interior factorization meets a singular block."""


class PowerIterationError(RuntimeError):
    """Power iteration did not settle; carries the last estimate."""

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class SparseMatrix:
    """CSR matrix with canonical structure.

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
        if self.nrows >= 0 and (offs[0] != 0 or offs[-1] != len(self.values)):
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

    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @cached_property
    def _csr(self) -> scipy.sparse.csr_matrix:
        m = scipy.sparse.csr_matrix(
            (self.values, self.col_indices, self.row_offsets),
            shape=(self.nrows, self.ncols),
            copy=False,
        )
        m.has_sorted_indices = True
        return m

    @cached_property
    def _abs_csr(self) -> scipy.sparse.csr_matrix:
        m = self._csr.copy()
        np.abs(m.data, out=m.data)
        return m

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.nrows, self.ncols))
        rows = np.repeat(np.arange(self.nrows), np.diff(self.row_offsets))
        out[rows, self.col_indices] = self.values
        return out

    @classmethod
    def from_dense(cls, a) -> "SparseMatrix":
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError("expected a 2-D array")
        rows, cols = np.nonzero(a)
        offsets = np.zeros(a.shape[0] + 1, dtype=np.int64)
        np.add.at(offsets, rows + 1, 1)
        np.cumsum(offsets, out=offsets)
        return cls(a.shape[0], a.shape[1], offsets, cols, a[rows, cols])

    @classmethod
    def from_scipy(cls, m) -> "SparseMatrix":
        csr = scipy.sparse.csr_matrix(m)
        csr.sum_duplicates()
        csr.sort_indices()
        return cls(csr.shape[0], csr.shape[1], csr.indptr, csr.indices, csr.data)

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls(n, n, np.arange(n + 1), np.arange(n), np.ones(n))

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "SparseMatrix":
        return cls(nrows, ncols, np.zeros(nrows + 1, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))


def _as_dense(a) -> np.ndarray:
    if isinstance(a, SparseMatrix):
        return a.to_dense()
    return np.asarray(a, dtype=np.float64)


def _require_finite(x: np.ndarray, what: str) -> np.ndarray:
    if x.size and not np.isfinite(x).all():
        raise FloatingPointError(f"{what} contains non-finite entries")
    return x


def spmv(a: SparseMatrix, x) -> np.ndarray:
    """CSR matrix-vector product with fixed left-to-right row accumulation."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (a.ncols,):
        raise ValueError(f"dimension mismatch: matrix is {a.nrows}x{a.ncols}, vector has {x.shape}")
    y = a._csr @ x
    return _require_finite(y, "spmv result")


def _abs_matvec(a, w: np.ndarray) -> np.ndarray:
    if isinstance(a, SparseMatrix):
        return a._abs_csr @ w
    return np.abs(np.asarray(a, dtype=np.float64)) @ w


def weighted_max_norm(a, w) -> float:
    """max_i (1/w_i) sum_j |a_ij| w_j for a square matrix and weights w > 0."""
    w = np.asarray(w, dtype=np.float64)
    nrows, ncols = a.shape if isinstance(a, SparseMatrix) else np.asarray(a).shape
    if nrows != ncols:
        raise ValueError("weighted_max_norm needs a square matrix")
    if w.shape != (ncols,):
        raise ValueError("weight length must match the matrix dimension")
    if np.any(w <= 0):
        raise ValueError("weights must be strictly positive")
    if nrows == 0:
        return 0.0
    return float(np.max(_abs_matvec(a, w) / w))


def weighted_row_sums(a, w, v) -> np.ndarray:
    """Row sums of |a| weighted by w on columns and normalized by v > 0 on rows."""
    w = np.asarray(w, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nrows, ncols = a.shape if isinstance(a, SparseMatrix) else np.asarray(a).shape
    if w.shape != (ncols,) or v.shape != (nrows,):
        raise ValueError("weight lengths must match matrix dimensions")
    if np.any(v <= 0):
        raise ValueError("row normalizers must be strictly positive")
    return _abs_matvec(a, w) / v


def comparison_matrix(a):
    """|diagonal| on the diagonal, -|entry| off it; preserves input kind."""
    if isinstance(a, SparseMatrix):
        if a.nrows != a.ncols:
            raise ValueError("comparison_matrix needs a square matrix")
        rows = np.repeat(np.arange(a.nrows), np.diff(a.row_offsets))
        vals = -np.abs(a.values)
        diag = rows == a.col_indices
        vals[diag] = -vals[diag]
        return SparseMatrix(a.nrows, a.ncols, a.row_offsets, a.col_indices, vals)
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("comparison_matrix needs a square matrix")
    out = -np.abs(a)
    np.fill_diagonal(out, np.abs(np.diag(a)))
    return out


def is_m_matrix(a, tol: float = 1e-10) -> bool:
    """Nonpositive off-diagonals and an entrywise nonnegative inverse.

    Uses dense inversion, so the matrix must be at most
    ``DENSE_OP_LIMIT`` square.  A singular matrix yields False.
    """
    d = _as_dense(a)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("is_m_matrix needs a square matrix")
    n = d.shape[0]
    if n > DENSE_OP_LIMIT:
        raise ValueError(f"dense inversion limited to {DENSE_OP_LIMIT}x{DENSE_OP_LIMIT} matrices")
    if n == 0:
        return True
    off = d - np.diag(np.diag(d))
    if np.any(off > tol):
        return False
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inv = np.linalg.inv(d)
    except np.linalg.LinAlgError:
        return False
    if not np.isfinite(inv).all():
        return False
    return bool(np.all(inv >= -tol))


def is_h_matrix(a, tol: float = 1e-10) -> bool:
    """True when the comparison matrix of ``a`` passes the M-matrix test."""
    return is_m_matrix(comparison_matrix(_as_dense(a)), tol)


def _power_shifted(block: np.ndarray, tol: float, max_iters: int) -> float:
    """Rayleigh power iteration on block + cI, c > 0.

    For a nonnegative block the radius shifts by exactly c, and on an
    irreducible block the shift breaks modulus ties from periodic structure
    (a bipartite pattern carries -rho next to rho), so the quotient cannot
    stall on a spurious plateau.
    """
    n = block.shape[0]
    shift = 0.05 * float(np.max(block.sum(axis=1)))
    if shift == 0.0:
        return 0.0
    x = np.ones(n)
    x[0] += 1e-12
    lam_prev = None
    lam = 0.0
    for _ in range(max_iters):
        y = block @ x + shift * x
        lam = float(x @ y) / float(x @ x)
        x = y / float(np.linalg.norm(y))
        if lam_prev is not None and abs(lam - lam_prev) <= tol * max(abs(lam), 1e-300):
            return max(lam - shift, 0.0)
        lam_prev = lam
    raise PowerIterationError(
        f"power iteration: no convergence in {max_iters} iterations (last estimate {lam - shift})",
        estimate=lam - shift,
    )


def spectral_radius_nonneg(a, tol: float = 1e-12, max_iters: int = 50_000) -> float:
    """Power-iteration estimate of the spectral radius of a nonnegative matrix.

    The sparsity pattern is condensed into strongly connected components;
    the radius is the maximum over the per-component diagonal blocks, which
    are irreducible and therefore safe for power iteration (acyclic parts
    contribute nothing).  Starts from the all-ones vector with a 1e-12 bump
    on the first entry and stops once the relative change of the Rayleigh
    quotient falls below ``tol``.  Raises ``PowerIterationError`` carrying
    the last estimate on non-convergence.
    """
    if isinstance(a, SparseMatrix):
        if a.nrows != a.ncols:
            raise ValueError("spectral_radius_nonneg needs a square matrix")
        if a.values.size and a.values.min() < 0:
            raise ValueError("matrix must be entrywise nonnegative")
        n = a.nrows
        pattern = a._csr
        dense = None
    else:
        dense = np.asarray(a, dtype=np.float64)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError("spectral_radius_nonneg needs a square matrix")
        if dense.size and dense.min() < 0:
            raise ValueError("matrix must be entrywise nonnegative")
        n = dense.shape[0]
        pattern = scipy.sparse.csr_matrix(dense) if n else None
    if n == 0:
        return 0.0
    as_dense = dense if dense is not None else a.to_dense()
    n_comp, labels = scipy.sparse.csgraph.connected_components(pattern, directed=True, connection="strong")
    rho = 0.0
    for comp in range(n_comp):
        idx = np.flatnonzero(labels == comp)
        if len(idx) == 1:
            rho = max(rho, float(as_dense[idx[0], idx[0]]))
        else:
            block = as_dense[np.ix_(idx, idx)]
            rho = max(rho, _power_shifted(block, tol, max_iters))
    return rho


def submatrix(a: SparseMatrix, rows, cols) -> SparseMatrix:
    """Row/column gather of a CSR matrix, kept in canonical form."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    sub = a._csr[rows][:, cols] if rows.size and cols.size else scipy.sparse.csr_matrix((len(rows), len(cols)))
    return SparseMatrix.from_scipy(sub)


def write_matrix_market(path, a: SparseMatrix) -> None:
    """Coordinate-format dump with 17 significant digits."""
    scipy.io.mmwrite(str(path), a._csr.tocoo(), precision=16)


def read_matrix_market(path) -> SparseMatrix:
    m = scipy.io.mmread(str(path))
    return SparseMatrix.from_scipy(m)
