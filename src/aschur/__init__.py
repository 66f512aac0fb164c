"""Asynchronous primal Schur domain-decomposition solver with a simulated
cluster runtime, desk-scale convergence certificates and an experiment CLI."""

from .decomp import (
    Decomposition,
    InterfaceMap,
    LocalSubdomain,
    build_interface_map,
    partition,
)
from .linalg import (
    SparseMatrix,
    comparison_matrix,
    is_h_matrix,
    is_m_matrix,
    spectral_radius_nonneg,
    weighted_max_norm,
)
from .poisson import AssembledProblem, GridSpec, assemble, exact_solution
from .runtime import (
    AsyncSimulator,
    DelayModel,
    FaultEvent,
    FaultPlan,
    RuntimeConfig,
    async_solve,
    cg_with_restart,
)
from .solvers import (
    SchurSystem,
    SolveReport,
    cg_schur,
    global_residual,
    sync_relaxation,
)
from .splitting import (
    CertificateSet,
    InterfaceSplitting,
    build_splitting,
    certify,
    certify_async,
    certify_global,
    certify_h_conditions,
    interface_diagonal,
)

__version__ = "0.1.0"
