"""Diagonal interface splitting and its convergence certificates.

The interface operator is split against M = alpha * diag(A_GG) with
alpha >= 1.  Certificates are desk-scale spectral-radius checks:

* ``certify_async``: radius of the summed entrywise absolute values of the
  update blocks ``diag(w_i) - inv(M_i) S_i`` of ``decomp.update_matrix``, the
  matrix the explicit asynchronous step multiplies.  Below one, the relaxation
  converges under arbitrary bounded delays and arbitrary update orders.
* ``certify_global``: radius of |I - inv(M) A| for the block-diagonal M
  holding the interior blocks and the interface diagonal, its interior
  rows solved with the system's one interior factorization.  Below one it
  implies the asynchronous condition whenever the per-subdomain blocks
  carry compatible signs, which the multiplicity weighting guarantees.
* ``certify_h_conditions``: H-matrix test for A together with the
  splitting identity comp(M) - |M - A_GG| = comp(A_GG).  Off the diagonal
  both sides are -|a_ij| exactly, so the identity reduces to
  m >= diag(A_GG); both hold for any alpha >= 1 when the diagonal is
  positive, and jointly imply ``certify_global`` < 1.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .decomp import Decomposition, InterfaceMap, update_matrix
from .linalg import DENSE_OP_LIMIT, is_h_matrix, spectral_radius_nonneg
from .poisson import AssembledProblem
from .solvers import SchurSystem

__all__ = [
    "InterfaceSplitting",
    "CertificateSet",
    "interface_diagonal",
    "build_splitting",
    "certify_async",
    "certify_global",
    "certify_h_conditions",
    "certify",
    "problem_hash",
]


@dataclass(frozen=True)
class InterfaceSplitting:
    """Diagonal splitting m = alpha * diag(A_GG) over the global interface."""

    alpha: float
    m_diag: np.ndarray


@dataclass(frozen=True)
class CertificateSet:
    rho_async: float
    rho_global: float
    a_is_h: bool
    h_split_ok: bool
    input_hash: str


def interface_diagonal(problem: AssembledProblem, decomp: Decomposition) -> np.ndarray:
    """Diagonal of the assembled interface block, in interface order."""
    return problem.A.csr.diagonal()[decomp.interface]


def build_splitting(a_gg_diag, alpha: float = 1.0) -> InterfaceSplitting:
    """Scale the interface diagonal by alpha >= 1; a smaller alpha voids the
    splitting-identity certificate and is rejected."""
    a_gg_diag = np.asarray(a_gg_diag, dtype=np.float64)
    if np.any(a_gg_diag <= 0):
        raise ValueError("interface diagonal must be strictly positive")
    if not (np.isfinite(alpha) and alpha >= 1.0):
        raise ValueError(f"alpha must be finite and at least 1, got {alpha}")
    return InterfaceSplitting(alpha=float(alpha), m_diag=alpha * a_gg_diag)


def certify_async(S: np.ndarray, imap: InterfaceMap, split: InterfaceSplitting) -> float:
    """Spectral radius of the summed |Q_i|, Q the update matrix (``decomp.update_matrix``) of the stacked
    complement ``SchurSystem.subdomains``: one ``bincount`` of ``|Q.data|`` at its cells' interface positions."""
    Q = update_matrix(S, imap, split.m_diag)
    n, pos = imap.n_interface, imap.positions
    at = np.repeat(pos, np.diff(Q.indptr)) * n + pos[Q.indices]
    return spectral_radius_nonneg(np.bincount(at, np.abs(Q.data), n * n).reshape(n, n))


def certify_global(system: SchurSystem, split: InterfaceSplitting) -> float:
    """Spectral radius of T = |I - inv(M) A| with block-diagonal M: every interior block unchanged and the
    scaled diagonal on the interface rows.  T's interior rows are ``|inv(A_II) A_IG|`` on the interface
    columns, from one ``blocks.lu.solve`` of A_IG's columns as a row stack, and zero on the interior ones,
    where inv(M) A is the identity; its interface rows are ``|e_g - A[g, :] / m_g|``.  Dense: desk scale only.
    """
    problem, interior, interface = system.problem, system.blocks.interior, system.decomp.interface
    n = problem.A.nrows
    if n > DENSE_OP_LIMIT:
        raise ValueError(f"certificates are limited to {DENSE_OP_LIMIT} unknowns")
    Ad = problem.A.csr.toarray()
    T = np.zeros_like(Ad)
    T[np.ix_(interior, interface)] = np.abs(system.blocks.lu.solve(Ad[np.ix_(interior, interface)].T).T)
    T[interface, :] = np.abs((interface[:, None] == np.arange(n)) - Ad[interface, :] / split.m_diag[:, None])
    return spectral_radius_nonneg(T)


def certify_h_conditions(
    problem: AssembledProblem, decomp: Decomposition, split: InterfaceSplitting
) -> tuple[bool, bool]:
    """(A is an H-matrix, splitting identity holds on the interface block)."""
    if problem.A.nrows > DENSE_OP_LIMIT:
        raise ValueError(f"certificates are limited to {DENSE_OP_LIMIT} unknowns")
    a_is_h = is_h_matrix(problem.A.csr.toarray())
    return a_is_h, bool(np.all(split.m_diag >= interface_diagonal(problem, decomp)))


def certify(system: SchurSystem, split: InterfaceSplitting) -> CertificateSet:
    """Evaluate all certificates of the splitting on the system's problem and partition."""
    a_is_h, h_split_ok = certify_h_conditions(system.problem, system.decomp, split)
    return CertificateSet(
        rho_async=certify_async(system.subdomains, system.imap, split),
        rho_global=certify_global(system, split),
        a_is_h=a_is_h,
        h_split_ok=h_split_ok,
        input_hash=problem_hash(system.problem, system.decomp, split.alpha),
    )


def problem_hash(problem: AssembledProblem, decomp: Decomposition, alpha: float | None = None) -> str:
    """Stable digest of the (problem, decomposition[, alpha]) inputs."""
    h = hashlib.sha256()
    h.update(np.asarray(problem.grid.dims, dtype=np.int64).tobytes())
    h.update(np.float64(problem.grid.spacing).tobytes())
    h.update(np.float64(problem.grid.source).tobytes())
    h.update(problem.A.row_offsets.tobytes())
    h.update(problem.A.col_indices.tobytes())
    h.update(problem.A.values.tobytes())
    h.update(problem.b.tobytes())
    h.update(np.asarray(decomp.splits, dtype=np.int64).tobytes())
    for part in decomp.parts:
        h.update(part.tobytes())
    h.update(decomp.interface.tobytes())
    if alpha is not None:
        h.update(np.float64(alpha).tobytes())
    return h.hexdigest()
