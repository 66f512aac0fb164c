"""Shared desk-scale problem suite: 1/2/3-D grids, 2 to 8 subdomains."""

from dataclasses import dataclass

import numpy as np
import pytest

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
