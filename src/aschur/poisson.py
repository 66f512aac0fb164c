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
import scipy.sparse.linalg

from .linalg import SparseMatrix

__all__ = ["GridSpec", "AssembledProblem", "assemble", "exact_solution"]

MAX_UNKNOWNS = 10**7


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
        if not (self.spacing > 0 and self.spacing * self.spacing > 0 and all(0 < v < math.inf for v in self.stencil)):
            raise ValueError(f"spacing {self.spacing}: must be positive, stencil entries 2d/h^2, 1/h^2 finite, nonzero")
        if not math.isfinite(self.n * self.source * self.source):
            raise ValueError(f"source {self.source}: the squared norm n * source^2 of b must be finite")
        # The discrete maximum principle bounds |u| by |g| h^2 (m + 1)^2 / 8 on the
        # narrowest axis m; the smallest factor times the largest first cannot overflow early.
        low, mid, high = sorted((abs(self.source), self.spacing * self.spacing, (min(dims) + 1) ** 2 / 8))
        if not math.isfinite(low * high * mid):
            raise ValueError(f"source {self.source} at spacing {self.spacing}: the bound on |u| must be finite")
        if self.n > MAX_UNKNOWNS:
            raise ValueError(f"grid too large: {self.n} unknowns exceed the {MAX_UNKNOWNS} cap")

    @property
    def n(self) -> int:
        return math.prod(self.dims)

    @property
    def stencil(self) -> tuple[float, float]:
        """The diagonal entry 2d/h^2 and the magnitude 1/h^2 of a neighbour entry."""
        h2 = self.spacing * self.spacing
        return (2.0 * len(self.dims)) / h2, 1.0 / h2


@dataclass(frozen=True)
class AssembledProblem:
    A: SparseMatrix
    b: np.ndarray
    grid: GridSpec
    node_coords: np.ndarray  # (n, d) integer lattice coordinates per row


def assemble(grid: GridSpec) -> AssembledProblem:
    """Build the scaled 3/5/7-point Laplacian system for ``grid``."""
    dims, n, d = grid.dims, grid.n, len(grid.dims)
    coords = np.indices(dims[::-1]).reshape(d, n)[::-1].T  # x fastest, as the rows run
    strides = np.cumprod((1,) + dims[:-1], dtype=np.int64)

    # A row's stencil columns node - s_{d-1}, ..., node, ..., node + s_{d-1}
    # ascend (an axis of extent 1 repeats a stride, but its neighbours always
    # lie outside the box), so masking out-of-box neighbours leaves each row
    # in canonical CSR order.  The mask is full but on the box's faces.
    steps = np.concatenate((-strides[::-1], [0], strides))
    inside = np.ones(dims[::-1] + (2 * d + 1,), dtype=bool)
    for a in range(d):  # grid axis a is array axis d - 1 - a
        face = np.moveaxis(inside, d - 1 - a, 0)
        face[0, ..., d - 1 - a] = face[-1, ..., d + 1 + a] = False
    inside = inside.reshape(n, 2 * d + 1)
    cols = np.add.outer(np.arange(n), steps)[inside]
    diag, off = grid.stencil
    vals = np.where(np.broadcast_to(steps == 0, inside.shape)[inside], diag, -off)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(inside, axis=1), out=offsets[1:])

    A = SparseMatrix(n, n, offsets, cols, vals)
    b = np.full(n, float(grid.source))
    return AssembledProblem(A=A, b=b, grid=grid, node_coords=coords)


def exact_solution(problem: AssembledProblem) -> np.ndarray:
    """Reference solve: one sparse direct solve (scipy's ``spsolve``) at every size.

    Acts as the oracle for every solver test; the result is checked to
    satisfy ||Ax - b|| <= 1e-10 ||b|| before being returned.
    """
    A, b = problem.A.csr, problem.b
    x = scipy.sparse.linalg.spsolve(A.tocsc(), b)
    resid = float(np.linalg.norm(A @ x - b))
    if resid > 1e-10 * max(float(np.linalg.norm(b)), 1e-300):
        raise RuntimeError(f"reference solve too inaccurate: residual {resid}")
    return x
