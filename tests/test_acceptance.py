"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
The shared problem suite (13 grids, 1-D to 3-D, 2 to 8 subdomains, at most
500 unknowns) lives in conftest.py.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from aschur.poisson import exact_solution
from aschur.runtime import DelayModel, FaultEvent, FaultPlan, RuntimeConfig, async_solve, cg_with_restart
from aschur.solvers import cg_schur
from aschur.splitting import build_splitting, certify_async, certify_global, certify_h_conditions, interface_diagonal
from aschur.linalg import weighted_max_norm
from conftest import assemble_interface_operator, sync_iterates

CHAOS_SEEDS = 100
CHAOS_DELAY = DelayModel(kind="uniform", low=0, high=10, reorder=True)
TOL = 1e-6


def ok(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


@pytest.fixture(scope="module")
def chaos_results(suite):
    """100 seeded delay/reorder runs per suite problem (used by 4 and 7)."""
    results = {}
    for name, case in suite.items():
        rho = certify_async(case.system.subdomains, case.system.imap, case.split)
        runs = []
        for seed in range(CHAOS_SEEDS):
            cfg = RuntimeConfig(tol=TOL, k_max=100_000, seed=seed, delay=CHAOS_DELAY)
            _, report = async_solve(case.system, case.split, cfg)
            runs.append(report)
        results[name] = (rho, runs)
    return results


def test_criterion_1_interface_problem_correctness(suite):
    t0 = time.perf_counter()
    assert len(suite) >= 12
    dims_seen = set()
    p_seen = set()
    for case in suite.values():
        n = case.problem.A.nrows
        assert n <= 500
        dims_seen.add(len(case.problem.grid.dims))
        p_seen.add(case.system.p)
        S, d = assemble_interface_operator(case.system)
        x_g = np.linalg.solve(S, d)
        direct = exact_solution(case.problem)[case.decomp.interface]
        err = np.linalg.norm(x_g - direct) / max(np.linalg.norm(direct), 1e-300)
        assert err <= 1e-8, (case.name, err)
    assert dims_seen == {1, 2, 3}
    assert min(p_seen) >= 2 and max(p_seen) <= 8 and 8 in p_seen
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    ok(1, f"interface solutions match direct solves to 1e-8 on {len(suite)} problems ({elapsed:.1f}s)")


def test_criterion_2_certificate_chain(suite):
    for case in suite.values():
        for alpha in (1.0, 1.4):
            split = build_splitting(interface_diagonal(case.problem, case.decomp), alpha=alpha)
            a_is_h, h_split_ok = certify_h_conditions(case.problem, case.decomp, split)
            assert a_is_h, (case.name, alpha)
            assert h_split_ok, (case.name, alpha)
            rho_global = certify_global(case.system, split)
            assert rho_global < 1.0, (case.name, alpha, rho_global)
            rho_async = certify_async(case.system.subdomains, case.system.imap, split)
            assert rho_async < 1.0, (case.name, alpha, rho_async)
    tiny = suite["1d-3-p2"]
    rho = certify_async(tiny.system.subdomains, tiny.system.imap, tiny.split)
    assert rho == pytest.approx(0.5, abs=1e-8)
    ok(2, "H-matrix, splitting identity and both radii < 1 for alpha in {1, 1.4}; 1-D radius = 0.5")


def test_criterion_3_sync_oracle_equivalence(suite):
    for case in suite.values():
        S, d = assemble_interface_operator(case.system)
        minv = 1.0 / case.split.m_diag if case.system.n_interface else case.split.m_diag
        sink = sync_iterates(case.system, case.split, 50)
        x_ref = np.zeros(case.system.n_interface)
        for k in range(50):
            x_ref = x_ref + minv * (d - S @ x_ref)
            scale = max(1.0, float(np.max(np.abs(x_ref), initial=0.0)))
            assert np.max(np.abs(sink[k] - x_ref), initial=0.0) <= 1e-12 * scale, (case.name, k)
    ok(3, "50 relaxation sweeps match the assembled fixed-point recursion on every problem")


def test_criterion_4_async_convergence_under_chaos(suite, chaos_results):
    t0 = time.perf_counter()
    total = 0
    for name, (rho, runs) in chaos_results.items():
        assert rho < 1.0, name
        for seed, report in enumerate(runs):
            assert report.converged, (name, seed, report.status)
            assert report.final_residual <= TOL, (name, seed, report.final_residual)
        total += len(runs)
    assert total == CHAOS_SEEDS * len(suite)
    ok(4, f"{total} delayed/reordered runs all reached the 1e-6 residual threshold")


def test_criterion_5_zero_delay_reduction(suite):
    from aschur.runtime import AsyncSimulator

    steps = 50
    for case in suite.values():
        sink = sync_iterates(case.system, case.split, steps)
        sim = AsyncSimulator(case.system, case.split, RuntimeConfig(tol=1e-300, k_max=10**6))
        for k in range(steps):
            sim.step()
            scale = max(1.0, float(np.max(np.abs(sink[k]), initial=0.0)))
            assert np.max(np.abs(sim.assembled_interface() - sink[k]), initial=0.0) <= 1e-12 * scale, (case.name, k)
    ok(5, "zero-delay asynchronous runs reproduce the synchronous trajectory to 1e-12")


def test_criterion_6_fault_resilience(suite):
    case = suite["2d-15x15-p8"]
    assert case.system.p == 8 and len(case.problem.grid.dims) == 2

    _, cg_clean = cg_schur(case.system, tol=TOL, k_max=1000)
    assert cg_clean.converged
    k_cg = cg_clean.iterations_k
    triggers = [max(1, round(0.9 * k_cg * j)) for j in range(1, 6)]
    events = tuple(FaultEvent(victims=(j,), at_step=t) for j, t in enumerate(triggers))

    _, cg_faulted = cg_with_restart(case.system, RuntimeConfig(tol=TOL, k_max=10_000, faults=FaultPlan(events=events)))
    assert cg_faulted.converged and cg_faulted.faults_injected == 5
    cg_ratio = cg_faulted.iterations_k / k_cg
    assert cg_ratio >= 1.8, cg_ratio

    delay = DelayModel(kind="uniform", low=0, high=2, reorder=True)
    async_ratios = []
    for seed in range(20):
        base = RuntimeConfig(tol=TOL, k_max=100_000, seed=seed, delay=delay)
        _, clean = async_solve(case.system, case.split, base)
        assert clean.converged
        faulted_cfg = replace(base, faults=FaultPlan(events=events))
        _, faulted = async_solve(case.system, case.split, faulted_cfg)
        assert faulted.converged, seed
        assert faulted.faults_injected == 5
        ratio = faulted.sim_steps / clean.sim_steps
        async_ratios.append(ratio)
        assert ratio <= 1.25, (seed, ratio)
    # paired qualitative claim: failures slow the asynchronous solver less
    # than they slow restarted CG, in each solver's own step clock
    assert max(async_ratios) <= cg_ratio
    ok(
        6,
        f"5 staggered faults: async step ratio <= 1.25 over 20 seeds "
        f"(max {max(async_ratios):.3f}), cg-restart ratio {cg_ratio:.2f} >= 1.8",
    )


def test_criterion_7_detection_soundness(chaos_results):
    firings = 0
    for name, (_, runs) in chaos_results.items():
        for seed, report in enumerate(runs):
            assert report.final_residual <= TOL, (name, seed)
            for protocol_value, exact in report.detection_events:
                firings += 1
                assert exact <= 2 * TOL, (name, seed, protocol_value, exact)
    assert firings >= CHAOS_SEEDS  # detection fired at least once per problem on average
    ok(7, f"every detector firing ({firings} total) had an exact residual within 2x tolerance")


def test_criterion_8_property_law_suites():
    rng = np.random.default_rng(2024)

    # contraction norm from the dominant eigenvector of |A|
    for _ in range(120):
        n = int(rng.integers(2, 9))
        a = rng.normal(size=(n, n))
        absa = np.abs(a)
        radius = float(np.max(np.abs(np.linalg.eigvals(absa))))
        a *= (0.15 + 0.8 * rng.random()) / max(radius, 1e-12)
        absa = np.abs(a)
        w = np.ones(n)
        shift = 0.05 * float(np.max(absa.sum(axis=1)))
        for _ in range(6000):
            w_next = absa @ w + shift * w
            w_next /= np.linalg.norm(w_next)
            if np.linalg.norm(w_next - w) < 1e-15:
                w = w_next
                break
            w = w_next
        w = np.maximum(w, 1e-12)
        assert weighted_max_norm(a, w) < 1.0 + 1e-8

    # weighted row-sum product bound: rows of |x| weighted by w, normalized by v
    def row_sums(x, w, v):
        return (np.abs(x) @ w) / v

    for _ in range(120):
        m, k, n = (int(x) for x in rng.integers(1, 7, size=3))
        a = rng.uniform(0.1, 1.0, size=(m, k)) * np.where(rng.random((m, k)) < 0.5, -1.0, 1.0)
        b = rng.normal(size=(k, n))
        z = rng.uniform(0.2, 2.0, size=k)
        v = rng.uniform(0.2, 2.0, size=m)
        w = rng.uniform(0.0, 2.0, size=n)
        s = row_sums(b, w, z)
        if s.max(initial=0.0) >= 1.0:
            b *= 0.9 / s.max()
        assert np.all(row_sums(a @ b, w, v) < row_sums(a, z, v))

    # block-arrow reduction: contracting whole implies contracting last block
    checked = 0
    while checked < 120:
        m = int(rng.integers(2, 4))
        sizes = [int(rng.integers(1, 3)) for _ in range(m - 1)]
        last = int(rng.integers(1, max(2, 9 - sum(sizes))))
        total = sum(sizes) + last
        if total > 8:
            continue
        A = np.zeros((total, total))
        off = np.cumsum([0] + sizes)
        lo = total - last
        for i in range(m - 1):
            block = slice(off[i], off[i + 1])
            A[block, lo:] = rng.normal(size=(sizes[i], last))
            A[lo:, block] = rng.normal(size=(last, sizes[i]))
        A[lo:, lo:] = rng.normal(size=(last, last))
        radius = float(np.max(np.abs(np.linalg.eigvals(np.abs(A)))))
        if radius == 0.0:
            continue
        A *= (0.1 + 0.85 * rng.random()) / radius
        assert float(np.max(np.abs(np.linalg.eigvals(np.abs(A))))) < 1.0
        reduced = np.abs(A[lo:, lo:]).copy()
        for i in range(m - 1):
            block = slice(off[i], off[i + 1])
            reduced += np.abs(A[lo:, block] @ A[block, lo:])
        assert float(np.max(np.abs(np.linalg.eigvals(reduced)))) < 1.0
        checked += 1
    ok(8, "contraction-weight, row-sum product and block-arrow reduction laws hold on 120 instances each")
