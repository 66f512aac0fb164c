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
class SlicedSubdomain:
    """One subdomain's blocks and right-hand side pieces, sliced from the local space (canonical CSR;
    A_GG dense, and it and b_G multiplicity-weighted): the inputs of the dense-solve oracles."""

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


def sliced_subdomains(system: SchurSystem) -> list[SlicedSubdomain]:
    """Per subdomain, its blocks sliced from ``system.local_space`` with scipy's indexing."""
    space, dec = system.local_space, system.decomp
    n_I = space.K_I.shape[1]
    ends_I = np.cumsum([0] + [len(part) for part in dec.parts])
    subs = []
    for i in range(dec.p):
        rows_I = slice(ends_I[i], ends_I[i + 1])
        own = slice(space.offsets[i], space.offsets[i + 1])
        rows_G = slice(n_I + own.start, n_I + own.stop)
        subs.append(SlicedSubdomain(
            A_II=space.K_I[rows_I, rows_I], A_IG=space.K_G[rows_I, own], A_GI=space.K_I[rows_G, rows_I],
            A_GG=space.K_G[rows_G, own].toarray(), b_I=space.b[rows_I], b_G=space.b[rows_G],
            weights=space.weights[own], interior_rows=dec.parts[i], gamma_rows=dec.local_interfaces[i],
            gamma_positions=space.positions[own],
        ))
    return subs


def dense_complement(local: SlicedSubdomain) -> tuple[np.ndarray, np.ndarray]:
    """S = A_GG - A_GI inv(A_II) A_IG and d = b_G - A_GI inv(A_II) b_I by one dense solve: the oracle
    of the complement records ``SchurSystem.subdomains``, independent of the interior factors."""
    a_gi = local.A_GI.toarray()
    X = np.linalg.solve(local.A_II.toarray(), np.column_stack([local.A_IG.toarray(), local.b_I]))
    return local.A_GG - a_gi @ X[:, :-1], local.b_G - a_gi @ X[:, -1]
