"""Correctness checks computed apart from the program under test.

Nothing here imports ``aschur``.  The reference Laplacian is a Kronecker
sum of 1-D second-difference matrices, the interface set is derived from
the separator-plane rule, interiors are completed with a sparse solve on
the reference matrix, and the reference solution comes from a sparse
direct solve.  Every bound is stated in terms of the solver tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg


def laplacian(dims) -> scipy.sparse.csr_matrix:
    """-lap on the interior lattice, unit spacing, x index fastest, Dirichlet boundary."""
    eyes = [scipy.sparse.identity(n, format="csr") for n in dims]
    total = None
    for a, n in enumerate(dims):
        second = scipy.sparse.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1], format="csr")
        # Kronecker factors run from the slowest axis (last) to the fastest.
        term = scipy.sparse.identity(1, format="csr")
        for b in reversed(range(len(dims))):
            term = scipy.sparse.kron(term, second if b == a else eyes[b], format="csr")
        total = term if total is None else total + term
    return total.tocsr()


def interface_nodes(dims, splits) -> np.ndarray:
    """Sorted row ids on a separator plane: balanced slabs, extra nodes first."""
    on_sep = np.zeros(int(np.prod(dims)), dtype=bool)
    coords = np.indices(tuple(reversed(dims))).reshape(len(dims), -1)[::-1]
    for a, (n, s) in enumerate(zip(dims, splits)):
        base, rem = divmod(n - (s - 1), s)
        sizes = [base + (1 if k < rem else 0) for k in range(s)]
        planes = [sum(sizes[: k + 1]) + k for k in range(s - 1)]
        on_sep |= np.isin(coords[a], planes)
    return np.flatnonzero(on_sep)


def lambda_min(dims) -> float:
    """Smallest eigenvalue of the unit-spacing Dirichlet Laplacian, in closed form."""
    return sum(4.0 * math.sin(math.pi / (2 * (n + 1))) ** 2 for n in dims)


def _factor(A):
    # Minimum-degree ordering on A + A^T keeps the 31^3 fill near 13M entries;
    # the default column ordering needs over twice that and three times the time.
    return scipy.sparse.linalg.splu(
        A.tocsc(), permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True}
    )


@dataclass
class Reference:
    """Independent matrix, interface split and direct solution of one problem."""

    A: scipy.sparse.csr_matrix
    b: np.ndarray
    gamma: np.ndarray
    interior: np.ndarray
    A_IG: scipy.sparse.csr_matrix
    lu_II: object
    x_star: np.ndarray
    lam_min: float

    @classmethod
    def build(cls, dims, splits, source: float) -> "Reference":
        A = laplacian(dims)
        b = np.full(A.shape[0], float(source))
        gamma = interface_nodes(dims, splits)
        interior = np.setdiff1d(np.arange(A.shape[0]), gamma)
        x_star = _factor(A).solve(b)
        return cls(
            A=A, b=b, gamma=gamma, interior=interior, A_IG=A[interior][:, gamma].tocsr(),
            lu_II=_factor(A[interior][:, interior]), x_star=x_star, lam_min=lambda_min(dims),
        )

    def problem_errors(self, A_parts, b, gamma) -> list[str]:
        """Differences between the program's assembly/partition and this one."""
        errors = []
        offsets, cols, vals = A_parts
        n = self.A.shape[0]
        A_prog = scipy.sparse.csr_matrix((vals, cols, offsets), shape=(n, n))
        diff = abs(A_prog - self.A)
        if diff.nnz and diff.max() > 1e-12 * abs(self.A).max():
            errors.append(f"assembled matrix differs from the Kronecker-sum Laplacian by {diff.max():.3e}")
        if b.shape != self.b.shape or not np.array_equal(b, self.b):
            errors.append("assembled right-hand side differs from the constant source")
        if not np.array_equal(np.asarray(gamma), self.gamma):
            errors.append("partition interface differs from the separator-plane node set")
        return errors

    def complete(self, x_g: np.ndarray) -> np.ndarray:
        """Full solution vector with interiors from the reference interior solve."""
        x = np.empty(self.A.shape[0])
        x[self.gamma] = x_g
        x[self.interior] = self.lu_II.solve(self.b[self.interior] - self.A_IG @ x_g)
        return x

    def solve_errors(self, x_g, tol: float) -> list[str]:
        """Residual and error-bound checks of one interface solution."""
        x_g = np.asarray(x_g, dtype=np.float64)
        if x_g.shape != self.gamma.shape or not np.isfinite(x_g).all():
            return [f"interface vector of shape {x_g.shape} is malformed or not finite"]
        errors = []
        resid = float(np.linalg.norm(self.b - self.A @ self.complete(x_g)))
        if not resid <= tol:
            errors.append(f"full residual {resid:.3e} exceeds tol {tol:g}")
        err = float(np.linalg.norm(x_g - self.x_star[self.gamma]))
        if not err <= tol / self.lam_min:
            errors.append(f"interface error {err:.3e} exceeds tol/lambda_min {tol / self.lam_min:.3e}")
        return errors


def method_errors(op: dict, tol: float) -> list[str]:
    """Report-level properties each solver kind must satisfy."""
    errors = []
    if not op["converged"] or op["status"] != "converged":
        errors.append(f"status {op['status']!r}")
    if op["kind"].startswith("async"):
        confirmed = [exact for _, exact in op["detection_events"] if exact <= tol]
        if len(confirmed) != 1 or op["detection_residual"] is None:
            errors.append(f"{len(confirmed)} confirmed detections, expected exactly one")
    if op["kind"] in ("async-faulted", "cg-restart") and op["faults_injected"] != op["faults_planned"]:
        errors.append(f"{op['faults_injected']} faults injected, {op['faults_planned']} planned")
    return errors
