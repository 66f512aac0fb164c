"""Finite-difference assembly of -lap(u) = g on a 1/2/3-D box.

Homogeneous Dirichlet data on the whole boundary, uniform spacing h,
constant source g.  Nodes are the interior lattice points in lexicographic
order with the x index running fastest.  Each row carries 2d/h^2 on the
diagonal and -1/h^2 per existing lattice neighbor, so the matrix is a
symmetric M-matrix by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .linalg import SparseMatrix

__all__ = ["GridSpec", "AssembledProblem", "assemble", "exact_solution"]

MAX_UNKNOWNS = 10**7
DENSE_SOLVE_LIMIT = 2000


@dataclass(frozen=True)
class GridSpec:
    """Interior node counts per axis, uniform spacing, constant source."""

    dims: tuple[int, ...]
    spacing: float = 1.0
    source: float = 1.0

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not 1 <= len(dims) <= 3:
            raise ValueError("grids must have 1 to 3 axes")
        if any(d < 1 for d in dims):
            raise ValueError("every grid extent must be at least 1")
        if not (self.spacing > 0 and math.isfinite(self.spacing)):
            raise ValueError("spacing must be positive and finite")
        if not math.isfinite(self.source):
            raise ValueError("source must be finite")
        if self.n > MAX_UNKNOWNS:
            raise ValueError(f"grid too large: {self.n} unknowns exceed the {MAX_UNKNOWNS} cap")

    @property
    def n(self) -> int:
        return math.prod(self.dims)


@dataclass(frozen=True)
class AssembledProblem:
    A: SparseMatrix
    b: np.ndarray
    grid: GridSpec
    node_coords: np.ndarray  # (n, d) integer lattice coordinates per row


def assemble(grid: GridSpec) -> AssembledProblem:
    """Build the scaled 3/5/7-point Laplacian system for ``grid``."""
    dims = grid.dims
    d = len(dims)
    n = grid.n

    idx = np.arange(n, dtype=np.int64)
    coords = np.empty((n, d), dtype=np.int64)
    rem = idx
    for a in range(d):
        coords[:, a] = rem % dims[a]
        rem = rem // dims[a]

    h2 = grid.spacing * grid.spacing
    diag_val = (2.0 * d) / h2
    off_val = -1.0 / h2

    rows = [idx]
    cols = [idx]
    vals = [np.full(n, diag_val)]
    stride = 1
    for a in range(d):
        lo = coords[:, a] > 0
        hi = coords[:, a] < dims[a] - 1
        rows.extend([idx[lo], idx[hi]])
        cols.extend([idx[lo] - stride, idx[hi] + stride])
        vals.extend([np.full(int(lo.sum()), off_val), np.full(int(hi.sum()), off_val)])
        stride *= dims[a]

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.add.at(offsets, rows + 1, 1)
    np.cumsum(offsets, out=offsets)

    A = SparseMatrix(n, n, offsets, cols, vals)
    b = np.full(n, float(grid.source))
    return AssembledProblem(A=A, b=b, grid=grid, node_coords=coords)


def exact_solution(problem: AssembledProblem) -> np.ndarray:
    """Reference solve: dense solve up to 2000 unknowns, CG to 1e-12 beyond.

    Acts as the oracle for every solver test; the result is checked to
    satisfy ||Ax - b|| <= 1e-10 ||b|| before being returned.
    """
    A, b = problem.A.csr, problem.b
    n = A.shape[0]
    if n <= DENSE_SOLVE_LIMIT:
        x = np.linalg.solve(A.toarray(), b)
    else:
        x = _cg(A, b, rtol=1e-12, max_iters=20 * n)
    resid = float(np.linalg.norm(A @ x - b))
    if resid > 1e-10 * max(float(np.linalg.norm(b)), 1e-300):
        raise RuntimeError(f"reference solve too inaccurate: residual {resid}")
    return x


def _cg(A: scipy.sparse.csr_matrix, b: np.ndarray, rtol: float, max_iters: int) -> np.ndarray:
    target = rtol * float(np.linalg.norm(b))
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    for _ in range(max_iters):
        if math.sqrt(rs) <= target:
            break
        Ap = A @ p
        alpha = rs / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x
