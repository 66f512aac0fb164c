"""Synchronous interface solvers and shared residual plumbing.

Both the relaxation sweep and conjugate gradients act on the assembled
interface operator matrix-free: every application fans out over the
subdomains in a fixed index order and sums the prolonged results, so the
outcome does not depend on how the fan-out is scheduled.  The stopping test
is always the Euclidean residual of the full system with interiors
recovered from the current interface vector.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .decomp import (
    Decomposition,
    InterfaceMap,
    LocalSubdomain,
    assemble_schur_explicit,
    build_interface_map,
    extract_local,
)
from .linalg import lu_solve, spmv
from .poisson import AssembledProblem

__all__ = [
    "SolveReport",
    "SchurSystem",
    "BreakdownError",
    "compute_d",
    "schur_apply",
    "recover_interior",
    "assemble_full_solution",
    "global_residual",
    "interface_rhs",
    "apply_interface_operator",
    "assemble_interface_operator",
    "sync_relaxation",
    "cg_schur",
    "write_residual_history",
]

DIVERGENCE_LIMIT = 1e12


class BreakdownError(RuntimeError):
    """Conjugate gradients met a nonpositive curvature direction."""


@dataclass
class SolveReport:
    """Outcome of one solver run.

    ``iterations_k`` counts outer iterations (detector rounds for the
    asynchronous solver); ``per_worker_k`` the per-subdomain update counts,
    with ``k_max`` their maximum.  ``final_residual`` is always recomputed
    from scratch after the run, never taken from loop state.
    """

    solver: str
    converged: bool
    iterations_k: int
    per_worker_k: list[int]
    k_max: int
    residual_history: list[tuple[int, float]]
    final_residual: float
    wall_time: float
    status: str = "converged"
    faults_injected: int = 0
    sim_steps: int = 0
    detection_residual: float | None = None
    detection_events: list[tuple[float, float]] | None = None

    def __post_init__(self):
        if self.per_worker_k and self.k_max != max(self.per_worker_k):
            raise ValueError("k_max must equal max(per_worker_k)")
        if self.iterations_k > 0 and not self.residual_history:
            raise ValueError("residual history must not be empty after iterating")


@dataclass(frozen=True)
class SchurSystem:
    """Problem, partition and per-subdomain blocks bundled for the solvers."""

    problem: AssembledProblem
    decomp: Decomposition
    subdomains: tuple[LocalSubdomain, ...]
    imap: InterfaceMap
    d_locals: tuple[np.ndarray, ...] = field(default=None)

    def __post_init__(self):
        if self.d_locals is None:
            object.__setattr__(self, "d_locals", tuple(compute_d(s) for s in self.subdomains))

    @classmethod
    def build(cls, problem: AssembledProblem, decomp: Decomposition) -> "SchurSystem":
        subdomains = tuple(extract_local(problem, decomp, i) for i in range(decomp.p))
        return cls(problem=problem, decomp=decomp, subdomains=subdomains, imap=build_interface_map(decomp))

    @property
    def p(self) -> int:
        return self.decomp.p

    @property
    def n_interface(self) -> int:
        return self.imap.n_interface


def compute_d(local: LocalSubdomain) -> np.ndarray:
    """Local interface right-hand side after interior elimination."""
    if local.n_gamma == 0:
        return np.zeros(0)
    if local.n_interior == 0:
        return local.b_G.copy()
    return local.b_G - spmv(local.A_GI, lu_solve(local.lu, local.b_I))


def schur_apply(local: LocalSubdomain, x_l: np.ndarray) -> np.ndarray:
    """Matrix-free product with the local interface complement."""
    x_l = np.asarray(x_l, dtype=np.float64)
    if x_l.shape != (local.n_gamma,):
        raise ValueError("local interface vector has the wrong length")
    if local.n_gamma == 0:
        return np.zeros(0)
    y = local.A_GG @ x_l
    if local.n_interior:
        y = y - spmv(local.A_GI, lu_solve(local.lu, spmv(local.A_IG, x_l)))
    return y


def recover_interior(local: LocalSubdomain, x_l: np.ndarray) -> np.ndarray:
    """Interior values consistent with the given local interface vector."""
    if local.n_interior == 0:
        return np.zeros(0)
    rhs = local.b_I.copy()
    if local.n_gamma:
        rhs = rhs - spmv(local.A_IG, np.asarray(x_l, dtype=np.float64))
    return lu_solve(local.lu, rhs)


def assemble_full_solution(
    problem: AssembledProblem,
    decomp: Decomposition,
    subdomains,
    x_g: np.ndarray,
) -> np.ndarray:
    x = np.zeros(problem.A.nrows)
    x[decomp.interface] = x_g
    for local in subdomains:
        x[local.interior_rows] = recover_interior(local, x_g[local.gamma_positions])
    return x


def global_residual(
    problem: AssembledProblem,
    decomp: Decomposition,
    subdomains,
    x_g: np.ndarray,
) -> float:
    """Euclidean norm of b - A x with interiors recovered from x_g."""
    x = assemble_full_solution(problem, decomp, subdomains, x_g)
    return float(np.linalg.norm(problem.b - problem.A._csr @ x))


def interface_rhs(system: SchurSystem) -> np.ndarray:
    d = np.zeros(system.n_interface)
    for local, d_l in zip(system.subdomains, system.d_locals):
        d[local.gamma_positions] += d_l
    return d


def apply_interface_operator(system: SchurSystem, v: np.ndarray) -> np.ndarray:
    """Assembled interface operator applied matrix-free, fixed subdomain order."""
    out = np.zeros(system.n_interface)
    for local in system.subdomains:
        out[local.gamma_positions] += schur_apply(local, v[local.gamma_positions])
    return out


def assemble_interface_operator(system: SchurSystem) -> tuple[np.ndarray, np.ndarray]:
    """Dense assembled interface operator and right-hand side (desk scale)."""
    n = system.n_interface
    S = np.zeros((n, n))
    d = np.zeros(n)
    for local, d_l in zip(system.subdomains, system.d_locals):
        S_l, _ = assemble_schur_explicit(local)
        pos = local.gamma_positions
        S[np.ix_(pos, pos)] += S_l
        d[pos] += d_l
    return S, d


def _start_vector(system: SchurSystem, x0) -> np.ndarray:
    if x0 is None:
        return np.zeros(system.n_interface)
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (system.n_interface,):
        raise ValueError("initial interface vector has the wrong length")
    return x0.copy()


def _sync_report(system: SchurSystem, x, solver: str, status: str, k: int, history, t0: float, faults: int = 0):
    """Report of a bulk-synchronous solver; the final residual is recomputed from x."""
    final = global_residual(system.problem, system.decomp, system.subdomains, x)
    return SolveReport(
        solver=solver, converged=status == "converged", iterations_k=k, per_worker_k=[k] * system.p, k_max=k,
        residual_history=history, final_residual=final, wall_time=time.perf_counter() - t0, status=status,
        faults_injected=faults, sim_steps=k,
    )


def sync_relaxation(
    system: SchurSystem,
    split,
    tol: float,
    k_max: int,
    x0=None,
    iterate_sink: list | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Weighted interface relaxation with a bulk-synchronous exchange.

    Every sweep forms, per subdomain, the local share of the next iterate
    (identity share of the current local values plus the scaled local
    interface defect) and sums the prolonged shares.  Stops on the global
    residual or at ``k_max`` sweeps; residuals above 1e12 abort as diverged.
    """
    _check_tol(tol)
    t0 = time.perf_counter()
    x = _start_vector(system, x0)
    minv = [
        1.0 / split.m_diag[local.gamma_positions] if local.n_gamma else np.zeros(0)
        for local in system.subdomains
    ]
    history = [(0, global_residual(system.problem, system.decomp, system.subdomains, x))]
    k = 0
    status = "k-max"
    if history[0][1] <= tol:
        status = "converged"
    else:
        while k < k_max:
            x_next = np.zeros_like(x)
            for local, m_l, d_l in zip(system.subdomains, minv, system.d_locals):
                x_l = x[local.gamma_positions]
                y_l = local.weights * x_l + m_l * (d_l - schur_apply(local, x_l))
                x_next[local.gamma_positions] += y_l
            x = x_next
            k += 1
            if iterate_sink is not None:
                iterate_sink.append(x.copy())
            r = global_residual(system.problem, system.decomp, system.subdomains, x)
            history.append((k, r))
            if r <= tol:
                status = "converged"
                break
            if r > DIVERGENCE_LIMIT:
                status = "diverged"
                break
    return x, _sync_report(system, x, "sync", status, k, history, t0)


def cg_schur(
    system: SchurSystem,
    tol: float,
    k_max: int,
    x0=None,
) -> tuple[np.ndarray, SolveReport]:
    """Unpreconditioned conjugate gradients on the interface operator.

    The residual used for stopping is the recomputed global one, checked
    every iteration.  A nonpositive curvature value raises BreakdownError.
    """
    return _restarted_cg(system, tol, k_max, x0, [], solver="cg")


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")


def _check_victims(victims, p: int) -> None:
    bad = [v for v in victims if not 0 <= v < p]
    if bad:
        raise ValueError(f"fault victim {max(bad)} out of range for {p} workers")


def _restarted_cg(system: SchurSystem, tol: float, k_max: int, x0, restarts, solver: str):
    """The conjugate-gradient loop behind ``cg_schur`` and ``cg_with_restart``.

    ``restarts`` lists (trigger, victims) pairs in trigger order.  Once the
    cumulative iteration count reaches the next trigger, the victims'
    interface entries return to their start values and the iteration
    restarts from the true residual; the count carries on.
    """
    _check_tol(tol)
    _check_victims([v for _, victims in restarts for v in victims], system.p)
    t0 = time.perf_counter()
    x = _start_vector(system, x0)
    x_init = x.copy()
    d = interface_rhs(system)
    history = [(0, global_residual(system.problem, system.decomp, system.subdomains, x))]
    k = 0
    faults = 0
    status = "converged" if history[0][1] <= tol else "k-max"
    while status == "k-max" and k < k_max:
        r = d - apply_interface_operator(system, x)
        p_dir = r.copy()
        rs = float(r @ r)
        while k < k_max:
            Sp = apply_interface_operator(system, p_dir)
            curvature = float(p_dir @ Sp)
            if curvature <= 0:
                raise BreakdownError(f"nonpositive curvature {curvature} at iteration {k}")
            alpha = rs / curvature
            x += alpha * p_dir
            r -= alpha * Sp
            k += 1
            resid = global_residual(system.problem, system.decomp, system.subdomains, x)
            history.append((k, resid))
            if resid <= tol:
                status = "converged"
                break
            if resid > DIVERGENCE_LIMIT:
                status = "diverged"
                break
            if faults < len(restarts) and k >= restarts[faults][0]:
                for v in restarts[faults][1]:
                    pos = system.subdomains[v].gamma_positions
                    x[pos] = x_init[pos]
                faults += 1
                break
            rs_new = float(r @ r)
            p_dir = r + (rs_new / rs) * p_dir
            rs = rs_new
    return x, _sync_report(system, x, solver, status, k, history, t0, faults)


def write_residual_history(report: SolveReport, path) -> None:
    """CSV dump of the residual history, columns iteration,residual."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "residual"])
        for k, r in report.residual_history:
            writer.writerow([k, f"{r:.17g}"])
