"""Shared desk-scale problem suite: 1/2/3-D grids, 2 to 8 subdomains."""

from dataclasses import dataclass

import numpy as np
import pytest
import scipy.sparse

from aschur import GridSpec, SchurSystem, assemble, build_splitting, interface_diagonal, partition, sync_relaxation
from aschur.decomp import Decomposition
from aschur.poisson import AssembledProblem
from aschur.splitting import InterfaceSplitting

# name, dims, spacing, source, splits
SUITE_SPECS = [
    ("1d-3-p2", (3,), 1.0, 1.0, (2,)),
    ("1d-7-p2", (7,), 1.0, 1.0, (2,)),
    ("1d-15-p4", (15,), 0.5, 2.0, (4,)),
    ("1d-31-p8", (31,), 1.0, 1.0, (8,)),
    ("2d-7x7-p2", (7, 7), 1.0, 1.0, (2, 1)),
    ("2d-7x7-p4", (7, 7), 1.0, 1.0, (2, 2)),
    ("2d-9x9-p3", (9, 9), 0.5, 1.0, (3, 1)),
    ("2d-15x15-p4", (15, 15), 1.0, 1.0, (2, 2)),
    ("2d-15x15-p8", (15, 15), 1.0, 1.0, (4, 2)),
    ("2d-13x13-p6", (13, 13), 1.0, 3.0, (3, 2)),
    ("3d-5x5x5-p2", (5, 5, 5), 1.0, 1.0, (2, 1, 1)),
    ("3d-5x5x5-p8", (5, 5, 5), 1.0, 1.0, (2, 2, 2)),
    ("3d-7x7x5-p4", (7, 7, 5), 1.0, 1.0, (2, 2, 1)),
]

SUITE_NAMES = [entry[0] for entry in SUITE_SPECS]


@dataclass(frozen=True)
class SuiteCase:
    name: str
    problem: AssembledProblem
    decomp: Decomposition
    system: SchurSystem
    split: InterfaceSplitting  # alpha = 1


def _build_case(entry) -> SuiteCase:
    name, dims, spacing, source, splits = entry
    problem = assemble(GridSpec(dims=dims, spacing=spacing, source=source))
    decomp = partition(problem, splits)
    system = SchurSystem.build(problem, decomp)
    split = build_splitting(interface_diagonal(problem, decomp), alpha=1.0)
    return SuiteCase(name=name, problem=problem, decomp=decomp, system=system, split=split)


@pytest.fixture(scope="session")
def suite():
    return {entry[0]: _build_case(entry) for entry in SUITE_SPECS}


@pytest.fixture(scope="session")
def tiny_1d(suite):
    """The two-subdomain single-interface case with hand-checkable numbers."""
    return suite["1d-3-p2"]


def sync_iterates(system: SchurSystem, split: InterfaceSplitting, sweeps: int) -> list[np.ndarray]:
    """The first ``sweeps`` relaxation iterates from zero, the k-th from a run of k sweeps."""
    return [sync_relaxation(system, split, tol=1e-300, k_max=k)[0] for k in range(1, sweeps + 1)]


@dataclass(frozen=True)
class ReferenceSubdomain:
    """One subdomain's blocks and right-hand side pieces, each gathered from A and b on its own
    (canonical CSR; A_GG dense, and it and b_G multiplicity-weighted): the inputs of the
    dense-solve oracles, built without the stacked blocks or the local space."""

    A_II: scipy.sparse.csr_matrix
    A_IG: scipy.sparse.csr_matrix
    A_GI: scipy.sparse.csr_matrix
    A_GG: np.ndarray
    b_I: np.ndarray
    b_G: np.ndarray
    weights: np.ndarray
    interior_rows: np.ndarray
    gamma_rows: np.ndarray
    gamma_positions: np.ndarray

    @property
    def n_interior(self) -> int:
        return len(self.interior_rows)

    @property
    def n_gamma(self) -> int:
        return len(self.gamma_rows)


def reference_subdomains(system: SchurSystem, owned: np.ndarray | None = None) -> list[ReferenceSubdomain]:
    """Per subdomain, its blocks from four gathers of A.  ``owned`` is the (p, n_interface) mask of
    the interface entries each subdomain owns, read from ``decomp.owners`` by default; the owner
    and pair counts that weight b_G and A_GG are its column sums and products."""
    dec, A, b = system.decomp, system.problem.A.csr, system.problem.b
    if owned is None:
        owned = (dec.owners == np.arange(dec.p)[:, None, None]).any(axis=2)
    subs = []
    for i in range(dec.p):
        rows_I, gpos = dec.parts[i], np.flatnonzero(owned[i])
        rows_G = dec.interface[gpos]
        inside = owned[:, gpos].astype(float)
        weights = 1.0 / inside.sum(axis=0)
        subs.append(ReferenceSubdomain(
            A_II=A[rows_I][:, rows_I], A_IG=A[rows_I][:, rows_G], A_GI=A[rows_G][:, rows_I],
            A_GG=A[rows_G][:, rows_G].toarray() / (inside.T @ inside), b_I=b[rows_I], b_G=b[rows_G] * weights,
            weights=weights, interior_rows=rows_I, gamma_rows=rows_G, gamma_positions=gpos,
        ))
    return subs


def dense_complement(local: ReferenceSubdomain) -> tuple[np.ndarray, np.ndarray]:
    """S = A_GG - A_GI inv(A_II) A_IG and d = b_G - A_GI inv(A_II) b_I by one dense solve: the oracle
    of the complement records ``SchurSystem.subdomains``, independent of the interior factors."""
    a_gi = local.A_GI.toarray()
    X = np.linalg.solve(local.A_II.toarray(), np.column_stack([local.A_IG.toarray(), local.b_I]))
    return local.A_GG - a_gi @ X[:, :-1], local.b_G - a_gi @ X[:, -1]


def assemble_interface_operator(system: SchurSystem) -> tuple[np.ndarray, np.ndarray]:
    """Dense assembled interface operator and right-hand side (desk scale),
    summed from the per-subdomain complements, apart from the stacked form."""
    n = system.n_interface
    S = np.zeros((n, n))
    d = np.zeros(n)
    for local in system.subdomains:
        pos = local.gamma_positions
        S[np.ix_(pos, pos)] += local.S
        d[pos] += local.d
    return S, d
