"""Synchronous interface solvers and shared residual plumbing.

Both the relaxation sweep and conjugate gradients act on the assembled
interface operator matrix-free, in its stacked form: every application is
``A_GG v - A_GI inv(A_II) A_IG v``, three CSR products (``linalg.matvec``)
and one interior solve over all subdomains at once, restricted to the
interior rows that couple to the interface (``blocks.coupled``: A_IG v is
zero elsewhere and A_GI reads nothing else).  It makes one product per
distinct block of the block-diagonal A_II: a GEMM with the coupled rows and
columns of its inverse when small, else SuperLU, so no work loops over the
subdomains.
A solver's exact residual is the Euclidean residual of the full system
with interiors recovered from the current interface vector.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .decomp import (
    Decomposition,
    InterfaceMap,
    LocalSpace,
    StackedBlocks,
    build_interface_map,
    cut_local_space,
    stack_blocks,
)
from .linalg import DENSE_OP_LIMIT, matvec
from .poisson import AssembledProblem

__all__ = [
    "SolveReport",
    "SchurSystem",
    "BreakdownError",
    "assemble_full_solution",
    "global_residual",
    "apply_interface_operator",
    "sync_relaxation",
    "cg_schur",
    "write_residual_history",
]

DIVERGENCE_LIMIT = 1e12


class BreakdownError(RuntimeError):
    """Conjugate gradients met a negative curvature direction."""


@dataclass
class SolveReport:
    """Outcome of one solver run.

    ``iterations_k`` counts outer iterations (detector rounds for the
    asynchronous solver); ``per_worker_k`` the per-subdomain update counts,
    with ``k_max`` their maximum.  Sync and CG stop on, and record, a cheap
    residual (the interface defect, the recurrence residual) confirmed by
    the exact one; ``final_residual`` is the exact residual of the returned
    iterate: the confirming value on a converged run (the iterate has not
    moved since), else recomputed from scratch.
    ``stale_discarded`` counts the detection messages the asynchronous run
    dropped as stale after faults; the other solvers send none.
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
    stale_discarded: int = 0

    def __post_init__(self):
        if self.per_worker_k and self.k_max != max(self.per_worker_k):
            raise ValueError("k_max must equal max(per_worker_k)")
        if self.iterations_k > 0 and not self.residual_history:
            raise ValueError("residual history must not be empty after iterating")


@dataclass(frozen=True)
class SchurSystem:
    """Problem, partition, stacked blocks, ``c = inv(A_II) b_I`` on the coupled interior rows
    and ``d = b_G - A_GI c``.

    Built on first use: the ``local_space``, the async workers' blocks cut from
    the stacked ones, with the transport's ``links`` tables, and ``subdomains``,
    every local complement formed once from them over the stacked slots for the
    desk-scale update matrix, certificates and oracles.  ``blocks.lu`` is the one
    interior solver, one factor per distinct subdomain block, that the complements
    and the global certificate read too; sync and CG build none of the rest.
    """

    problem: AssembledProblem
    decomp: Decomposition
    imap: InterfaceMap
    blocks: StackedBlocks
    c: np.ndarray
    d: np.ndarray

    @classmethod
    def build(cls, problem: AssembledProblem, decomp: Decomposition) -> "SchurSystem":
        blocks = stack_blocks(problem, decomp)
        c = blocks.lu.solve(blocks.b_I)[blocks.coupled]
        return cls(problem=problem, decomp=decomp, imap=build_interface_map(decomp), blocks=blocks, c=c,
                   d=blocks.b_G - matvec(blocks.A_GI, c))

    @cached_property
    def local_space(self) -> LocalSpace:
        return cut_local_space(self.blocks, self.decomp, self.imap)

    @cached_property
    def links(self):
        from .runtime import LinkTables  # the transport's own tables; runtime imports this module

        return LinkTables(self.decomp, self.imap)

    @cached_property
    def subdomains(self) -> np.ndarray:
        """The stacked local complements: slot rows and G columns, G the largest local interface, with
        ``S_i = A_GG - A_GI inv(A_II) A_IG`` (A_GG weighted) in the first ``|Gamma_i|`` columns of subdomain
        i's rows.  Row s of Z holds, per subdomain, the ``A_IG`` column of its s-th slot; one ``solve_coupled``
        of Z's rows and one product with ``A_GI`` give every row.  Refused when an interior or a local
        interface exceeds ``DENSE_OP_LIMIT`` rows (desk scale)."""
        m, G = (max(map(len, ids)) for ids in (self.decomp.parts, self.decomp.local_interfaces))
        if max(m, G) > DENSE_OP_LIMIT:
            raise ValueError(f"local blocks of {m} + {G} rows exceed the explicit cap")
        space, offsets = self.local_space, self.imap.offsets
        K_G, A_GI, n_slots, n_c = space.K_G, space.A_GI, len(self.imap.positions), len(self.c)
        slot = (np.arange(n_slots) - np.repeat(offsets[:-1], np.diff(offsets)))[K_G.indices]  # place in its subdomain
        rows, cut = np.repeat(np.arange(K_G.shape[0]), np.diff(K_G.indptr)), K_G.indptr[n_c]
        Z, S = np.zeros((G, n_c)), np.zeros((n_slots, G))
        Z[slot[:cut], rows[:cut]] = K_G.data[:cut]  # the coupled rows of A_IG, one row per slot place
        S[rows[cut:] - n_c, slot[cut:]] = K_G.data[cut:]  # A_GG
        S -= A_GI @ self.blocks.lu.solve_coupled(Z).T
        return S

    @property
    def p(self) -> int:
        return self.decomp.p

    @property
    def n_interface(self) -> int:
        return self.imap.n_interface


def _require_finite(x: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(x).all():
        raise FloatingPointError(f"{what} contains non-finite entries")
    return x


def assemble_full_solution(system: SchurSystem, x_g: np.ndarray) -> np.ndarray:
    """Full solution vector with every interior recovered from x_g in one solve."""
    blk = system.blocks
    x = np.empty(system.problem.A.nrows)
    x[system.decomp.interface] = x_g
    rhs = blk.b_I.copy()
    rhs[blk.coupled] -= matvec(blk.A_IG, x_g)  # A_IG x_g is an exact zero on every other row
    x[blk.interior] = blk.lu.solve(rhs)
    return _require_finite(x, "full solution")


def global_residual(system: SchurSystem, x_g: np.ndarray) -> float:
    """Euclidean norm of b - A x with interiors recovered from x_g."""
    x = assemble_full_solution(system, x_g)
    return float(np.linalg.norm(system.problem.b - matvec(system.problem.A.csr, x)))


def apply_interface_operator(system: SchurSystem, v: np.ndarray) -> np.ndarray:
    """Assembled interface operator applied matrix-free: one stacked solve on the coupled interior rows."""
    blk = system.blocks
    out = matvec(blk.A_GG, v)
    out -= matvec(blk.A_GI, blk.lu.solve_coupled(matvec(blk.A_IG, v)))
    return _require_finite(out, "interface operator result")


def _sync_report(system: SchurSystem, x, solver: str, status: str, k: int, history, t0: float, exact,
                 faults: int = 0):
    """Report of a bulk-synchronous solver; ``exact`` is x's confirmed residual on a converged run."""
    return SolveReport(
        solver=solver, converged=status == "converged", iterations_k=k, per_worker_k=[k] * system.p, k_max=k,
        residual_history=history, final_residual=exact if status == "converged" else global_residual(system, x),
        wall_time=time.perf_counter() - t0,
        status=status, faults_injected=faults, sim_steps=k,
    )


def sync_relaxation(
    system: SchurSystem,
    split,
    tol: float,
    k_max: int,
) -> tuple[np.ndarray, SolveReport]:
    """Weighted interface relaxation with a bulk-synchronous exchange.

    The summed local shares (identity share plus scaled local defect) are
    ``x + inv(M) (d - S x)``, as the identity shares sum to one and M is
    diagonal; ``|d - S x|`` is the residual of x, so a sweep costs one
    interior solve.  Stops when the exact residual confirms a defect <= tol,
    at ``k_max`` sweeps, or, diverged, at a defect that is not finite or above
    1e12 times the larger of the first defect and tol.
    """
    _check_tol(tol)
    t0 = time.perf_counter()
    x = np.zeros(system.n_interface)
    minv = 1.0 / split.m_diag
    g = system.d - apply_interface_operator(system, x)
    history = [(0, math.sqrt(float(g @ g)))]  # np.linalg.norm's sum for a real vector
    k = 0
    status, exact = "k-max", None
    while True:
        r = history[-1][1]
        if r <= tol and (exact := global_residual(system, x)) <= tol:
            status = "converged"
            break
        if _diverged(history, tol):
            status = "diverged"
            break
        if k == k_max:
            break
        x += minv * g
        k += 1
        g = system.d - apply_interface_operator(system, x)
        history.append((k, math.sqrt(float(g @ g))))
    return x, _sync_report(system, x, "sync", status, k, history, t0, exact)


def cg_schur(
    system: SchurSystem,
    tol: float,
    k_max: int,
) -> tuple[np.ndarray, SolveReport]:
    """Unpreconditioned conjugate gradients on the interface operator.

    Stops on the recurrence residual: once it drops to ``tol`` or below,
    the exact residual of the iterate confirms the stop, or CG restarts
    from the true residual; a zero curvature ends it ``stalled`` (see
    ``_restarted_cg``), as does an overflowing ``S p`` or ``p @ S p``.  A
    negative curvature value raises BreakdownError.
    """
    return _restarted_cg(system, tol, k_max, [], solver="cg")


def _diverged(history: list[tuple[int, float]], tol: float) -> bool:
    """The last residual is not finite, or exceeds DIVERGENCE_LIMIT times the larger of the first and tol."""
    r = history[-1][1]
    return not math.isfinite(r) or r > DIVERGENCE_LIMIT * max(history[0][1], tol)


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")


def _check_victims(victims, p: int) -> None:
    bad = [v for v in victims if not 0 <= v < p]
    if bad:
        raise ValueError(f"fault victim {max(bad)} out of range for {p} workers")


@np.errstate(over="ignore", invalid="ignore")  # an overflowing step ends stalled, not in a warning
def _restarted_cg(system: SchurSystem, tol: float, k_max: int, restarts, solver: str):
    """The conjugate-gradient loop behind ``cg_schur`` and ``cg_with_restart``.

    ``restarts`` lists (trigger, victims) pairs in trigger order.  Once the
    cumulative iteration count reaches one or more triggers, all their victims'
    interface entries return to zero, where every run starts, and CG
    restarts from the true residual, as it does when the exact residual
    does not confirm a recurrence residual at or below tol; the count
    carries on.  A zero curvature ``p @ S p`` ends the run ``stalled``: the
    operator is positive definite, so p is zero (a restart found an exact
    interface solution the full residual does not confirm) or the product
    underflowed, and no step can move x.  A product ``S p`` or curvature
    that overflowed ends it ``stalled`` too: no step length is representable.
    """
    _check_tol(tol)
    _check_victims([v for _, victims in restarts for v in victims], system.p)
    t0 = time.perf_counter()
    x = np.zeros(system.n_interface)
    exact = global_residual(system, x)
    history = [(0, exact)]
    k = 0
    faults = 0
    status = "converged" if history[0][1] <= tol else "diverged" if _diverged(history, tol) else "k-max"
    while status == "k-max" and k < k_max:
        r = system.d - apply_interface_operator(system, x)
        p_dir = r.copy()
        rs = float(r @ r)
        while k < k_max:
            try:
                Sp = apply_interface_operator(system, p_dir)
            except FloatingPointError:  # S p overflowed
                status = "stalled"
                break
            curvature = float(p_dir @ Sp)
            if curvature == 0 or not math.isfinite(curvature):
                status = "stalled"
                break
            if curvature < 0:
                raise BreakdownError(f"negative curvature {curvature} at iteration {k}")
            alpha = rs / curvature
            x += alpha * p_dir
            r -= alpha * Sp
            k += 1
            rs_new = float(r @ r)
            resid = math.sqrt(rs_new)
            history.append((k, resid))
            if resid <= tol and (exact := global_residual(system, x)) <= tol:
                status = "converged"
                break
            if _diverged(history, tol):
                status = "diverged"
                break
            if faults < len(restarts) and k >= restarts[faults][0]:
                while faults < len(restarts) and k >= restarts[faults][0]:  # every trigger k has reached
                    for v in restarts[faults][1]:
                        x[system.imap.gamma_positions[v]] = 0.0
                    faults += 1
                break
            if resid <= tol:  # a stop the exact residual did not confirm: restart from the true residual
                break
            p_dir *= rs_new / rs
            p_dir += r  # IEEE addition commutes: the bits of r + beta * p_dir
            rs = rs_new
    return x, _sync_report(system, x, solver, status, k, history, t0, exact, faults)


def write_residual_history(report: SolveReport, path) -> None:
    """CSV dump of the residual history, columns iteration,residual."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "residual"])
        for k, r in report.residual_history:
            writer.writerow([k, f"{r:.17g}"])
