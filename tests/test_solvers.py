import math
import warnings
from functools import cached_property

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from aschur.decomp import partition
from aschur.linalg import SparseMatrix, matvec
from aschur.poisson import GridSpec, assemble, exact_solution
from aschur.solvers import (
    SchurSystem,
    SolveReport,
    apply_interface_operator,
    assemble_full_solution,
    cg_schur,
    global_residual,
    sync_relaxation,
    write_residual_history,
)
from aschur.splitting import InterfaceSplitting, build_splitting, interface_diagonal
from conftest import (
    assemble_interface_operator,
    dense_complement,
    local_complements,
    reference_subdomains,
    sync_iterates,
)


def fit_rate(history, tail=10):
    """Geometric factor of the residual history tail."""
    vals = [r for _, r in history if r > 0]
    vals = vals[-tail:]
    return (vals[-1] / vals[0]) ** (1.0 / (len(vals) - 1))


def test_compute_d_1d(tiny_1d):
    for _, d in local_complements(tiny_1d.system):
        np.testing.assert_allclose(d, [1.0], atol=1e-14)


def test_compute_d_zero_rhs(tiny_1d):
    problem = assemble(GridSpec(dims=(3,), source=0.0))
    for _, d in local_complements(SchurSystem.build(problem, tiny_1d.decomp)):
        np.testing.assert_array_equal(d, [0.0])


def test_compute_d_decoupled(tiny_1d):
    # Without the interface-to-interior entries (A_GI = 0), each d is its weighted b_G exactly.
    from dataclasses import replace

    dense = tiny_1d.problem.A.csr.toarray()
    dense[np.ix_([1], [0, 2])] = 0.0
    m = scipy.sparse.csr_matrix(dense)
    problem = replace(tiny_1d.problem, A=SparseMatrix(3, 3, m.indptr, m.indices, m.data))
    system = SchurSystem.build(problem, tiny_1d.decomp)
    for (_, d), ref in zip(local_complements(system), reference_subdomains(system), strict=True):
        assert ref.A_GI.nnz == 0
        np.testing.assert_array_equal(d, ref.b_G)


def test_schur_apply_1d(tiny_1d):
    # each of the two subdomains contributes 1/2 to the interface complement
    system = tiny_1d.system
    np.testing.assert_allclose(apply_interface_operator(system, np.array([1.0])), [1.0], atol=1e-14)
    np.testing.assert_array_equal(apply_interface_operator(system, np.zeros(1)), [0.0])


def test_schur_apply_matches_explicit_operator(suite):
    rng = np.random.default_rng(2)
    for case in suite.values():
        S, _ = assemble_interface_operator(case.system)
        x = rng.normal(size=case.system.n_interface)
        assert _close(apply_interface_operator(case.system, x), S @ x), case.name


def test_sync_relaxation_1d_geometric_sequence(tiny_1d):
    seq = [float(v[0]) for v in sync_iterates(tiny_1d.system, tiny_1d.split, 4)]
    x, report = sync_relaxation(tiny_1d.system, tiny_1d.split, tol=1e-8, k_max=200)
    np.testing.assert_allclose(seq, [1.0, 1.5, 1.75, 1.875], atol=1e-14)
    np.testing.assert_allclose(x, [2.0], atol=1e-7)
    assert report.converged
    assert fit_rate(report.residual_history) == pytest.approx(0.5, abs=0.02)


def test_sync_relaxation_over_relaxed_ends_diverged(tiny_1d):
    # alpha below 1 is rejected by build_splitting; built by hand, the sweep
    # multiplies the error by -4 and ends on the divergence ratio.
    split = InterfaceSplitting(alpha=0.05, m_diag=0.05 * tiny_1d.split.m_diag)
    x, report = sync_relaxation(tiny_1d.system, split, tol=1e-8, k_max=1000)
    assert report.status == "diverged" and not report.converged
    assert report.residual_history[-1][1] > 1e12 * report.residual_history[0][1]
    assert report.iterations_k < 1000 and np.isfinite(x).all()


def test_cg_from_overflowing_start_ends_diverged(tiny_1d, monkeypatch):
    from aschur import solvers

    # CG's first residual is the exact one; an overflowing one ends the run before any step.
    monkeypatch.setattr(solvers, "global_residual", lambda *args: math.inf)
    x, report = cg_schur(tiny_1d.system, tol=1e-8, k_max=50)
    assert report.status == "diverged" and report.iterations_k == 0
    assert report.residual_history == [(0, math.inf)]
    np.testing.assert_array_equal(x, [0.0])


def test_cg_restarts_when_its_recurrence_residual_underflows(monkeypatch):
    from aschur import solvers

    # At source 1e10 the exact residual stalls near 1e-4 while the recurrence
    # residual keeps falling below tol.  Each unconfirmed stop restarts CG from
    # the true residual, so the 200 iterations compute the exact residual 41
    # times, not once per iteration after the first unconfirmed stop.
    calls = []
    monkeypatch.setattr(solvers, "global_residual", lambda *args: calls.append(1) or global_residual(*args))
    problem = assemble(GridSpec(dims=(7, 7), source=1e10))
    x, report = cg_schur(SchurSystem.build(problem, partition(problem, (2, 2))), tol=1e-6, k_max=200)
    assert report.status == "k-max" and report.iterations_k == 200
    assert len(calls) == 41
    assert np.isfinite(x).all() and 1e-6 < report.final_residual < 1e-3


@pytest.mark.parametrize("dims,spacing,source,tol,iterations", [
    # One step solves the single interface unknown exactly, but the full
    # residual of b ~ source cannot reach tol: a restart could not move.
    ((9,), 1.0, 1e12, 1e-6, 1), ((31,), 1.0, 1e8, 1e-6, 1),
    # Each step shrinks the interface residual by about 1e-15 until p @ S p,
    # with S entries near 1e-20, underflows to zero.  No recurrence residual
    # falls to tol 1e-300 before, so no unconfirmed stop restarts CG.
    ((24,), 1e10, 1e10, 1e-300, 11),
], ids=["9-at-1e12", "31-at-1e8", "24-at-h-1e10"])
def test_cg_ends_stalled_where_no_step_can_move(dims, spacing, source, tol, iterations):
    problem = assemble(GridSpec(dims=dims, spacing=spacing, source=source))
    x, report = cg_schur(SchurSystem.build(problem, partition(problem, (2,))), tol=tol, k_max=50)
    assert report.status == "stalled" and not report.converged and report.iterations_k == iterations
    assert np.isfinite(x).all() and report.final_residual > 1e-6


@pytest.mark.parametrize("dims,splits,spacing,source,operator_overflows", [
    # S entries near 8e306 and a first direction of the residual's scale:
    # S p is finite, but p @ S p overflows.
    ((20, 20), (4, 4), 1e-153, 1.0, False),
    # At source 1e100, S p itself overflows.
    ((40,), (4,), 3e-153, 1e100, True),
], ids=["curvature", "operator"])
def test_cg_ends_stalled_where_its_step_overflows(dims, splits, spacing, source, operator_overflows):
    from aschur.runtime import RuntimeConfig, cg_with_restart

    problem = assemble(GridSpec(dims=dims, spacing=spacing, source=source))
    system = SchurSystem.build(problem, partition(problem, splits))
    with np.errstate(over="ignore", invalid="ignore"):
        if operator_overflows:  # CG's first direction is d
            with pytest.raises(FloatingPointError, match="interface operator"):
                apply_interface_operator(system, system.d)
        else:
            assert system.d @ apply_interface_operator(system, system.d) == math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # CG handles the overflow: it prints no RuntimeWarning
        runs = [cg_schur(system, tol=1e-6, k_max=50), cg_with_restart(system, RuntimeConfig(tol=1e-6, k_max=50))]
    for x, report in runs:
        assert report.status == "stalled" and not report.converged and report.iterations_k == 0
        assert np.isfinite(x).all() and math.isfinite(report.final_residual)


def _sourceless_tiny_1d():
    """tiny_1d's grid and partition at source 0, whose solution is the zero start, and its splitting."""
    problem = assemble(GridSpec(dims=(3,), source=0.0))
    decomp = partition(problem, (2,))
    return SchurSystem.build(problem, decomp), build_splitting(interface_diagonal(problem, decomp), alpha=1.0)


def test_sync_relaxation_zero_iterations_at_exact_start():
    system, split = _sourceless_tiny_1d()
    x, report = sync_relaxation(system, split, tol=1e-6, k_max=50)
    assert report.iterations_k == 0
    assert report.converged
    np.testing.assert_array_equal(x, [0.0])


def test_sync_relaxation_single_subdomain_immediate():
    prob = assemble(GridSpec(dims=(6,)))
    dec = partition(prob, (1,))
    system = SchurSystem.build(prob, dec)
    from aschur.splitting import InterfaceSplitting

    split = InterfaceSplitting(alpha=1.0, m_diag=np.zeros(0))
    x, report = sync_relaxation(system, split, tol=1e-12, k_max=10)
    assert report.converged
    assert report.iterations_k == 0  # interior solve alone is exact
    assert report.final_residual <= 1e-12


def test_sync_relaxation_matches_assembled_recursion(suite):
    # local-form sweeps equal the dense fixed-point recursion built from the
    # assembled operator; tolerance scales with the iterate magnitude
    for name in ("1d-7-p2", "2d-7x7-p4", "3d-5x5x5-p8"):
        case = suite[name]
        S, d = assemble_interface_operator(case.system)
        minv = 1.0 / case.split.m_diag
        sink = sync_iterates(case.system, case.split, 50)
        x_ref = np.zeros(case.system.n_interface)
        for k in range(50):
            x_ref = x_ref + minv * (d - S @ x_ref)
            scale = max(1.0, float(np.max(np.abs(x_ref))))
            assert np.max(np.abs(sink[k] - x_ref)) <= 1e-12 * scale


def test_sync_observed_rate_bounded_by_certificate(suite):
    from aschur.splitting import certify_async

    for name in ("1d-7-p2", "2d-9x9-p3", "3d-7x7x5-p4"):
        case = suite[name]
        x, report = sync_relaxation(case.system, case.split, tol=1e-10, k_max=4000)
        assert report.converged
        rho = certify_async(case.system.subdomains, case.system.imap, case.split)
        assert fit_rate(report.residual_history) <= rho + 0.05


def test_cg_1d_single_iteration(tiny_1d):
    x, report = cg_schur(tiny_1d.system, tol=1e-10, k_max=50)
    assert report.iterations_k == 1
    np.testing.assert_allclose(x, [2.0], atol=1e-10)


def test_cg_zero_iterations_at_exact_start():
    x, report = cg_schur(_sourceless_tiny_1d()[0], tol=1e-6, k_max=50)
    assert report.iterations_k == 0
    assert report.converged


@pytest.mark.parametrize("solver", ["sync", "cg"])
@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_tolerance_must_be_finite_and_positive(tiny_1d, solver, tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        if solver == "sync":
            sync_relaxation(tiny_1d.system, tiny_1d.split, tol=tol, k_max=5)
        else:
            cg_schur(tiny_1d.system, tol=tol, k_max=5)


def test_cg_iteration_count_at_most_interface_size(suite):
    for case in suite.values():
        x, report = cg_schur(case.system, tol=1e-8, k_max=2 * max(case.system.n_interface, 1))
        assert report.converged
        assert report.iterations_k <= case.system.n_interface or case.system.n_interface == 0


def test_cg_and_sync_agree(suite):
    for name in ("1d-15-p4", "2d-7x7-p2", "3d-5x5x5-p2"):
        case = suite[name]
        x_cg, rep_cg = cg_schur(case.system, tol=1e-8, k_max=500)
        x_sync, rep_sync = sync_relaxation(case.system, case.split, tol=1e-8, k_max=5000)
        assert rep_cg.converged and rep_sync.converged
        assert np.max(np.abs(x_cg - x_sync)) <= 1e-6


def test_recover_interior_1d(tiny_1d):
    # rows 0 and 2 are the two interiors, row 1 the interface
    system = tiny_1d.system
    np.testing.assert_allclose(assemble_full_solution(system, np.array([2.0])), [1.5, 2.0, 1.5], atol=1e-12)
    np.testing.assert_allclose(assemble_full_solution(system, np.zeros(1)), [0.5, 0.0, 0.5], atol=1e-12)


def test_recover_interior_zero_data(tiny_1d):
    from dataclasses import replace

    blocks = replace(tiny_1d.system.blocks, b_I=np.zeros(2))
    system = replace(tiny_1d.system, blocks=blocks)
    np.testing.assert_array_equal(assemble_full_solution(system, np.zeros(1)), [0.0, 0.0, 0.0])


def test_recover_interior_composed_with_interface_solve(suite):
    for case in suite.values():
        S, d = assemble_interface_operator(case.system)
        x_g = np.linalg.solve(S, d) if case.system.n_interface else np.zeros(0)
        direct = exact_solution(case.problem)
        x = assemble_full_solution(case.system, x_g)
        for rows in case.decomp.parts:
            ref = direct[rows]
            assert np.linalg.norm(x[rows] - ref) <= 1e-8 * max(np.linalg.norm(ref), 1e-30)


def test_global_residual_oracle_and_zero(tiny_1d):
    direct = exact_solution(tiny_1d.problem)
    x_g = direct[tiny_1d.decomp.interface]
    r = global_residual(tiny_1d.system, x_g)
    assert r <= 1e-10 * np.linalg.norm(tiny_1d.problem.b)
    r0 = global_residual(tiny_1d.system, np.zeros(1))
    # interiors are recovered exactly, so only the interface defect d remains
    assert r0 == pytest.approx(2.0, abs=1e-12)
    assert global_residual(tiny_1d.system, np.array([2.0])) <= 1e-12


def test_interface_rhs_matches_assembled(suite):
    for case in suite.values():
        S, d = assemble_interface_operator(case.system)
        np.testing.assert_allclose(case.system.d, d, atol=1e-14)


def test_report_invariants_enforced():
    with pytest.raises(ValueError):
        SolveReport(
            solver="sync", converged=True, iterations_k=3, per_worker_k=[3, 3], k_max=5,
            residual_history=[(0, 1.0)], final_residual=0.0, wall_time=0.0,
        )
    with pytest.raises(ValueError):
        SolveReport(
            solver="sync", converged=True, iterations_k=3, per_worker_k=[3, 3], k_max=3,
            residual_history=[], final_residual=0.0, wall_time=0.0,
        )


def test_residual_history_csv(tmp_path, tiny_1d):
    _, report = sync_relaxation(tiny_1d.system, tiny_1d.split, tol=1e-8, k_max=100)
    path = tmp_path / "hist.csv"
    write_residual_history(report, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,residual"
    assert len(lines) == len(report.residual_history) + 1
    k, r = lines[1].split(",")
    assert int(k) == 0 and float(r) > 0


# -- the stacked functions against the per-subdomain loops they replace --


def _loop_operator(system, v):
    out = np.zeros(system.n_interface)
    for loc in reference_subdomains(system):
        x_l = v[loc.gamma_positions]
        y = loc.A_GG @ x_l - loc.A_GI @ np.linalg.solve(loc.A_II.toarray(), loc.A_IG @ x_l)
        out[loc.gamma_positions] += y
    return out


def _loop_rhs(system):
    d = np.zeros(system.n_interface)
    for loc in reference_subdomains(system):
        d[loc.gamma_positions] += dense_complement(loc)[1]
    return d


def _loop_full_solution(system, x_g):
    x = np.zeros(system.problem.A.nrows)
    x[system.decomp.interface] = x_g
    for loc in reference_subdomains(system):
        x[loc.interior_rows] = np.linalg.solve(loc.A_II.toarray(), loc.b_I - loc.A_IG @ x_g[loc.gamma_positions])
    return x


def _close(stacked, ref):
    return np.linalg.norm(stacked - ref) <= 1e-12 * max(np.linalg.norm(ref), 1e-300)


def test_stacked_functions_match_subdomain_loops(suite):
    rng = np.random.default_rng(5)
    lazy = {name for name, value in vars(SchurSystem).items() if isinstance(value, cached_property)}
    assert lazy == {"subdomains", "local_space", "links"}
    for case in suite.values():
        # A fresh system: the synchronous solvers must never build the subdomains, the local space or the links.
        system = SchurSystem.build(case.problem, case.decomp)
        cg_schur(system, tol=1e-8, k_max=500)
        sync_relaxation(system, case.split, tol=1e-8, k_max=20)
        assert not lazy & vars(system).keys(), case.name

        v = rng.normal(size=system.n_interface)
        assert _close(apply_interface_operator(system, v), _loop_operator(system, v)), case.name
        assert _close(system.d, _loop_rhs(system)), case.name
        x = _loop_full_solution(system, v)
        assert _close(assemble_full_solution(system, v), x), case.name
        ref = np.linalg.norm(case.problem.b - case.problem.A.csr @ x)
        assert abs(global_residual(system, v) - ref) <= 1e-12 * ref, case.name


def test_non_finite_interface_vector_raises(suite):
    system = suite["2d-7x7-p4"].system
    v = np.zeros(system.n_interface)
    v[0] = np.nan
    for stacked in (apply_interface_operator, assemble_full_solution, global_residual):
        with pytest.raises(FloatingPointError):
            stacked(system, v)


def test_large_interiors_solve_without_the_dense_lu():
    # two interiors of 47 x 95 = 4465 unknowns, above the old dense LU cap
    from aschur.runtime import RuntimeConfig, async_solve

    problem = assemble(GridSpec(dims=(95, 95)))
    decomp = partition(problem, (2, 1))
    system = SchurSystem.build(problem, decomp)
    split = build_splitting(interface_diagonal(problem, decomp), alpha=1.0)
    ref = scipy.sparse.linalg.spsolve(problem.A.csr.tocsc(), problem.b)[decomp.interface]
    runs = [cg_schur(system, tol=1e-6, k_max=500), sync_relaxation(system, split, tol=1e-6, k_max=5000)]
    assert "subdomains" not in vars(system)
    runs.append(async_solve(system, split, RuntimeConfig(tol=1e-6, k_max=5000)))
    assert "subdomains" not in vars(system)  # the workers need the local space alone
    for x, report in runs:
        assert report.converged and report.final_residual <= 1e-6
        assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)


@pytest.mark.parametrize("solver", ["sync", "cg"])
def test_stop_needs_the_exact_residual_below_tol(suite, monkeypatch, solver):
    from aschur import solvers

    case = suite["2d-15x15-p8"]
    monkeypatch.setattr(solvers, "global_residual", lambda *args: 1.0)
    if solver == "sync":
        _, report = sync_relaxation(case.system, case.split, tol=1e-2, k_max=400)
    else:
        _, report = cg_schur(case.system, tol=1e-2, k_max=14)
    # the cheap residual fell below tol, but no stop was confirmed
    assert min(r for _, r in report.residual_history) <= 1e-2
    assert report.status == "k-max" and report.iterations_k == report.k_max


@pytest.mark.parametrize("solver, k_max", [("sync", 100_000), ("sync", 50), ("cg", 1000), ("cg", 5),
                                           ("async", 100_000), ("async", 3)])
def test_the_confirming_residual_is_the_reported_one(suite, monkeypatch, solver, k_max):
    # A converged run reports the exact residual that confirmed its stop, without
    # computing it again; any other end computes it once more, for the iterate it returns.
    from aschur import runtime, solvers

    case, calls, exact = suite["2d-15x15-p8"], [], solvers.global_residual

    def spy(system, x_g):
        calls.append(exact(system, x_g))
        return calls[-1]

    monkeypatch.setattr(solvers, "global_residual", spy)
    monkeypatch.setattr(runtime, "global_residual", spy)
    if solver == "sync":
        x, report = sync_relaxation(case.system, case.split, tol=1e-6, k_max=k_max)
        confirmations = sum(r <= 1e-6 for _, r in report.residual_history)
    elif solver == "cg":
        x, report = cg_schur(case.system, tol=1e-6, k_max=k_max)
        confirmations = 1 + sum(r <= 1e-6 for _, r in report.residual_history[1:])  # and the start's
    else:
        cfg = runtime.RuntimeConfig(tol=1e-6, k_max=k_max, delay=runtime.DelayModel(kind="uniform", high=2))
        x, report = runtime.async_solve(case.system, case.split, cfg)
        confirmations = len(report.detection_events)
    assert report.converged == (k_max > 50), report.status
    assert len(calls) == confirmations + (not report.converged)
    assert report.final_residual == calls[-1] == exact(case.system, x)


# -- the restricted stacked blocks against the unrestricted formulas --


def _unrestricted_blocks(system):
    """A_IG and A_GI over every interior row, cut from the permuted matrix exactly as ``stack_blocks`` cuts them."""
    blk = system.blocks
    n_i = len(blk.interior)
    order = np.concatenate([blk.interior, system.decomp.interface])
    P = system.problem.A.csr[order][:, order]
    P.sort_indices()
    return P[:n_i, n_i:], P[n_i:, :n_i]


@pytest.mark.parametrize("path", ["gemm", "superlu"])
def test_rhs_and_full_solution_are_bitwise_the_unrestricted_formulas(suite, monkeypatch, path):
    monkeypatch.setattr("aschur.decomp.DENSE_INVERSE_FILL", np.inf if path == "gemm" else 0)
    rng = np.random.default_rng(7)
    for case in suite.values():
        system = SchurSystem.build(case.problem, case.decomp)
        blk = system.blocks
        A_IG, A_GI = _unrestricted_blocks(system)
        np.testing.assert_array_equal(system.d, blk.b_G - A_GI @ blk.lu.solve(blk.b_I), err_msg=case.name)
        x_g = rng.normal(size=system.n_interface)
        x = np.empty(case.problem.A.nrows)
        x[case.decomp.interface] = x_g
        x[blk.interior] = blk.lu.solve(blk.b_I - A_IG @ x_g)
        np.testing.assert_array_equal(assemble_full_solution(system, x_g), x, err_msg=case.name)


@pytest.mark.parametrize("path", ["gemm", "superlu"])
def test_single_subdomain_without_interface_converges(monkeypatch, path):
    monkeypatch.setattr("aschur.decomp.DENSE_INVERSE_FILL", np.inf if path == "gemm" else 0)
    problem = assemble(GridSpec(dims=(9,)))
    system = SchurSystem.build(problem, partition(problem, [1]))
    assert system.n_interface == 0 and system.blocks.A_IG.shape[1] == system.blocks.A_GI.shape[0] == 0
    assert len(system.blocks.coupled) == (0 if path == "gemm" else problem.A.nrows)  # SuperLU keeps every row
    assert apply_interface_operator(system, np.zeros(0)).shape == (0,)
    split = InterfaceSplitting(alpha=1.0, m_diag=np.zeros(0))
    for _, report in (cg_schur(system, tol=1e-10, k_max=10), sync_relaxation(system, split, tol=1e-10, k_max=10)):
        assert report.converged and report.iterations_k == 0 and report.final_residual <= 1e-10


def _reference_operator(system, v):
    """The interface operator as two allocated products and their difference."""
    blk = system.blocks
    return matvec(blk.A_GG, v) - matvec(blk.A_GI, blk.lu.solve_coupled(matvec(blk.A_IG, v)))


def _reference_sync(system, split, tol, k_max):
    """Relaxation sweeps with the residual norm from np.linalg.norm."""
    x, minv = np.zeros(system.n_interface), 1.0 / split.m_diag
    g = system.d - _reference_operator(system, x)
    history, k = [(0, float(np.linalg.norm(g)))], 0
    while not (history[-1][1] <= tol and global_residual(system, x) <= tol) and k < k_max:
        x += minv * g
        k += 1
        g = system.d - _reference_operator(system, x)
        history.append((k, float(np.linalg.norm(g))))
    return x, history


def _reference_cg(system, tol, k_max, restarts=()):
    """Conjugate gradients with a newly allocated direction ``r + beta * p`` per iteration."""
    x = np.zeros(system.n_interface)
    history, k, faults, done = [(0, global_residual(system, x))], 0, 0, False
    while not done and k < k_max:
        r = system.d - _reference_operator(system, x)
        p_dir, rs = r.copy(), float(r @ r)
        while k < k_max:
            Sp = _reference_operator(system, p_dir)
            alpha = rs / float(p_dir @ Sp)
            x += alpha * p_dir
            r -= alpha * Sp
            k += 1
            rs_new = float(r @ r)
            history.append((k, math.sqrt(rs_new)))
            if history[-1][1] <= tol and global_residual(system, x) <= tol:
                done = True
                break
            if faults < len(restarts) and k >= restarts[faults][0]:
                for v in restarts[faults][1]:
                    x[system.imap.gamma_positions[v]] = 0.0
                faults += 1
                break
            p_dir = r + (rs_new / rs) * p_dir
            rs = rs_new
    return x, history


def _same_bits(got, ref):
    x, report = got
    return x.tobytes() == ref[0].tobytes() and report.residual_history == ref[1]


@pytest.mark.parametrize("name", ["2d-15x15-p8", "3d-5x5x5-p8", "2d-13x13-p6", "1d-31-p8"])
def test_loops_updated_in_place_give_the_bits_of_the_allocating_loops(suite, name):
    # The in-place direction update, the operator's in-place difference and the
    # residual norm as sqrt(g @ g) change no bit of the iterates or histories.
    from aschur.runtime import FaultEvent, FaultPlan, RuntimeConfig, cg_with_restart

    case = suite[name]
    system, split, tol = case.system, case.split, 1e-10
    assert _same_bits(sync_relaxation(system, split, tol=tol, k_max=10_000), _reference_sync(system, split, tol, 10_000))
    assert _same_bits(sync_relaxation(system, split, tol=tol, k_max=7), _reference_sync(system, split, tol, 7))
    assert _same_bits(cg_schur(system, tol=tol, k_max=10_000), _reference_cg(system, tol, 10_000))
    events = (FaultEvent(victims=(0,), at_step=2), FaultEvent(victims=(1, system.p - 1), at_step=5))
    restarts = [(e.at_step, e.victims) for e in events]
    got = cg_with_restart(system, RuntimeConfig(tol=tol, k_max=10_000, faults=FaultPlan(events=events)))
    assert got[1].faults_injected == 2
    assert _same_bits(got, _reference_cg(system, tol, 10_000, restarts))
