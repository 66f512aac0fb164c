"""Diagonal interface splitting and its convergence certificates.

The interface operator is split against M = alpha * diag(A_GG) with
alpha >= 1.  Certificates are desk-scale spectral-radius checks:

* ``certify_async``: radius of the sum of entrywise absolute values of the
  per-subdomain update blocks.  Below one, the relaxation converges under
  arbitrary bounded delays and arbitrary update orders.
* ``certify_global``: radius of |I - inv(M) A| for the block-diagonal M
  holding the interior blocks and the interface diagonal.  Below one it
  implies the asynchronous condition whenever the per-subdomain blocks
  carry compatible signs, which the multiplicity weighting guarantees.
* ``certify_h_conditions``: H-matrix test for A together with the exact
  splitting identity comp(M) - |M - A_GG| = comp(A_GG); both hold for any
  alpha >= 1 when the diagonal is positive, and jointly imply
  ``certify_global`` < 1.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .decomp import Decomposition, InterfaceMap, LocalSubdomain, assemble_schur_explicit, submatrix
from .linalg import comparison_matrix, is_h_matrix, lu_factorize, lu_solve, spectral_radius_nonneg
from .poisson import AssembledProblem

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

CERTIFICATE_SIZE_LIMIT = 2000
MATRIX_EQ_TOL = 1e-12


@dataclass(frozen=True)
class InterfaceSplitting:
    """Diagonal splitting m = alpha * diag(A_GG) over the global interface."""

    alpha: float
    m_diag: np.ndarray
    certificates: "CertificateSet | None" = None


@dataclass(frozen=True)
class CertificateSet:
    rho_async: float
    rho_global: float
    a_is_h: bool
    h_split_ok: bool
    input_hash: str


def interface_diagonal(problem: AssembledProblem, decomp: Decomposition) -> np.ndarray:
    """Diagonal of the assembled interface block, in interface order."""
    return problem.A._csr.diagonal()[decomp.interface]


def build_splitting(a_gg_diag, alpha: float = 1.0, allow_small_alpha: bool = False) -> InterfaceSplitting:
    """Scale the interface diagonal by alpha.

    alpha < 1 voids the splitting-identity certificate, so it is rejected
    unless ``allow_small_alpha`` is set.
    """
    a_gg_diag = np.asarray(a_gg_diag, dtype=np.float64)
    if np.any(a_gg_diag <= 0):
        raise ValueError("interface diagonal must be strictly positive")
    if alpha < 1.0 and not allow_small_alpha:
        raise ValueError("alpha < 1 requires allow_small_alpha=True; certificates may fail")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return InterfaceSplitting(alpha=float(alpha), m_diag=alpha * a_gg_diag)


def async_update_blocks(
    subdomains: list[LocalSubdomain] | tuple[LocalSubdomain, ...],
    split: InterfaceSplitting,
) -> list[np.ndarray]:
    """Per-subdomain dense update blocks diag(w) - inv(M) S, on local indices."""
    blocks = []
    for local in subdomains:
        S, _ = assemble_schur_explicit(local)
        minv = 1.0 / split.m_diag[local.gamma_positions] if local.n_gamma else np.zeros(0)
        blocks.append(np.diag(local.weights) - minv[:, None] * S)
    return blocks


def certify_async(
    subdomains: list[LocalSubdomain] | tuple[LocalSubdomain, ...],
    imap: InterfaceMap,
    split: InterfaceSplitting,
) -> float:
    """Spectral radius of the summed absolute per-subdomain update blocks."""
    n = imap.n_interface
    if n == 0:
        return 0.0
    T = np.zeros((n, n))
    for local, Q in zip(subdomains, async_update_blocks(subdomains, split)):
        pos = local.gamma_positions
        T[np.ix_(pos, pos)] += np.abs(Q)
    return spectral_radius_nonneg(T)


def certify_global(problem: AssembledProblem, decomp: Decomposition, split: InterfaceSplitting) -> float:
    """Spectral radius of |I - inv(M) A| with block-diagonal M.

    M carries every interior block unchanged and the scaled diagonal on the
    interface rows; inv(M) A is formed densely, one interior block solve at
    a time, so the problem must stay at desk scale.
    """
    n = problem.A.nrows
    if n > CERTIFICATE_SIZE_LIMIT:
        raise ValueError(f"certificates are limited to {CERTIFICATE_SIZE_LIMIT} unknowns")
    Ad = problem.A.to_dense()
    X = np.zeros_like(Ad)
    for rows in decomp.parts:
        if rows.size:
            lu = lu_factorize(Ad[np.ix_(rows, rows)])
            X[rows, :] = lu_solve(lu, Ad[rows, :])
    gamma = decomp.interface
    if gamma.size:
        X[gamma, :] = Ad[gamma, :] / split.m_diag[:, None]
    T = np.abs(np.eye(n) - X)
    return spectral_radius_nonneg(T)


def certify_h_conditions(
    problem: AssembledProblem, decomp: Decomposition, split: InterfaceSplitting
) -> tuple[bool, bool]:
    """(A is an H-matrix, splitting identity holds on the interface block)."""
    n = problem.A.nrows
    if n > CERTIFICATE_SIZE_LIMIT:
        raise ValueError(f"certificates are limited to {CERTIFICATE_SIZE_LIMIT} unknowns")
    a_is_h = is_h_matrix(problem.A)
    gamma = decomp.interface
    if gamma.size == 0:
        return a_is_h, True
    A_GG = submatrix(problem.A, gamma, gamma).to_dense()
    M = np.diag(split.m_diag)
    lhs = comparison_matrix(M) - np.abs(M - A_GG)
    h_split_ok = bool(np.max(np.abs(lhs - comparison_matrix(A_GG))) <= MATRIX_EQ_TOL)
    return a_is_h, h_split_ok


def certify(
    problem: AssembledProblem,
    decomp: Decomposition,
    subdomains: list[LocalSubdomain] | tuple[LocalSubdomain, ...],
    imap: InterfaceMap,
    split: InterfaceSplitting,
) -> InterfaceSplitting:
    """Evaluate all certificates and return the splitting with them attached."""
    a_is_h, h_split_ok = certify_h_conditions(problem, decomp, split)
    certs = CertificateSet(
        rho_async=certify_async(subdomains, imap, split),
        rho_global=certify_global(problem, decomp, split),
        a_is_h=a_is_h,
        h_split_ok=h_split_ok,
        input_hash=problem_hash(problem, decomp, split.alpha),
    )
    return replace(split, certificates=certs)


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
