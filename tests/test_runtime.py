import dataclasses
import json

import numpy as np
import pytest

from aschur.runtime import (
    AsyncSimulator,
    DelayModel,
    Envelope,
    FaultEvent,
    FaultPlan,
    RuntimeConfig,
    async_solve,
    cg_with_restart,
    deterministic_replay,
    inject_fault,
)
from aschur.solvers import cg_schur, sync_relaxation
from aschur.splitting import build_splitting, interface_diagonal


def report_fields(report, skip=("wall_time",)):
    d = dataclasses.asdict(report)
    for key in skip:
        d.pop(key)
    return d


# -- config validation -------------------------------------------------------


def test_delay_model_validation():
    with pytest.raises(ValueError):
        DelayModel(kind="gaussian")
    with pytest.raises(ValueError):
        DelayModel(kind="uniform", low=5, high=2)
    with pytest.raises(ValueError):
        DelayModel(kind="table")
    with pytest.raises(ValueError):
        DelayModel(kind="table", table={(0, 1): -2})
    assert DelayModel(kind="uniform", low=0, high=10).bound == 10


def test_fault_plan_validation():
    with pytest.raises(ValueError):
        FaultEvent(victims=())
    with pytest.raises(ValueError):
        FaultEvent(victims=(0,))
    with pytest.raises(ValueError):
        FaultEvent(victims=(0,), at_step=3, at_local_iteration=4)
    with pytest.raises(ValueError):
        FaultPlan(events=(FaultEvent(victims=(0,), at_step=9), FaultEvent(victims=(1,), at_step=2)))
    with pytest.raises(ValueError):
        FaultPlan(recovery="checkpoint")


def test_runtime_config_validation():
    with pytest.raises(ValueError):
        RuntimeConfig(tol=0.0)
    with pytest.raises(ValueError):
        RuntimeConfig(k_max=0)
    with pytest.raises(ValueError):
        RuntimeConfig(activation=1.5)


def test_fault_victim_range_checked(tiny_1d):
    cfg = RuntimeConfig(faults=FaultPlan(events=(FaultEvent(victims=(9,), at_step=1),)))
    with pytest.raises(ValueError):
        AsyncSimulator(tiny_1d.system, tiny_1d.split, cfg)


# -- zero-delay equivalence ---------------------------------------------------


@pytest.mark.parametrize("name", ["1d-3-p2", "1d-15-p4", "2d-7x7-p4", "3d-5x5x5-p8"])
def test_zero_delay_matches_sync_trajectory(suite, name):
    case = suite[name]
    sink = []
    sync_relaxation(case.system, case.split, tol=1e-300, k_max=40, iterate_sink=sink)
    cfg = RuntimeConfig(tol=1e-300, k_max=10_000, step_limit=40, record_trajectory=True)
    sim = AsyncSimulator(case.system, case.split, cfg)
    sim.run()
    assert len(sim.trajectory) == 40
    for k in range(40):
        scale = max(1.0, float(np.max(np.abs(sink[k]))))
        assert np.max(np.abs(sim.trajectory[k] - sink[k])) <= 1e-12 * scale


def test_zero_delay_converges_to_interface_solution(tiny_1d):
    cfg = RuntimeConfig(tol=1e-8, k_max=10_000)
    x, report = async_solve(tiny_1d.system, tiny_1d.split, cfg)
    assert report.converged
    np.testing.assert_allclose(x, [2.0], atol=1e-7)


# -- determinism ---------------------------------------------------------------


def test_same_seed_gives_identical_trace_and_report(suite):
    case = suite["2d-7x7-p4"]
    cfg = RuntimeConfig(tol=1e-6, k_max=10_000, seed=3,
                        delay=DelayModel(kind="uniform", low=0, high=4, reorder=True))
    a = deterministic_replay(case.system, case.split, cfg)
    b = deterministic_replay(case.system, case.split, cfg)
    assert a.trace_hash == b.trace_hash
    assert report_fields(a.report) == report_fields(b.report)
    np.testing.assert_array_equal(a.x_interface, b.x_interface)


def test_different_seeds_generally_differ(suite):
    case = suite["1d-15-p4"]
    cfg0 = RuntimeConfig(tol=1e-6, k_max=10_000, seed=0, delay=DelayModel(kind="uniform", low=1, high=5))
    cfg1 = dataclasses.replace(cfg0, seed=1)
    a = deterministic_replay(case.system, case.split, cfg0)
    b = deterministic_replay(case.system, case.split, cfg1)
    assert a.trace_hash != b.trace_hash


def test_noop_fault_plan_is_bitwise_identical(suite):
    case = suite["2d-7x7-p2"]
    delay = DelayModel(kind="uniform", low=0, high=3)
    base = RuntimeConfig(tol=1e-6, k_max=10_000, seed=7, delay=delay)
    noop = dataclasses.replace(
        base, faults=FaultPlan(events=(FaultEvent(victims=(0,), at_step=10**9),))
    )
    a = deterministic_replay(case.system, case.split, base)
    b = deterministic_replay(case.system, case.split, noop)
    assert a.trace_hash == b.trace_hash
    assert report_fields(a.report) == report_fields(b.report)
    np.testing.assert_array_equal(a.x_interface, b.x_interface)


# -- transport semantics --------------------------------------------------------


def test_envelope_timing_invariant_in_traces(suite):
    case = suite["2d-7x7-p4"]
    cfg = RuntimeConfig(tol=1e-6, k_max=10_000, seed=5,
                        delay=DelayModel(kind="uniform", low=0, high=6, reorder=True))
    replay = deterministic_replay(case.system, case.split, cfg)
    sends = [json.loads(line) for line in replay.trace_lines]
    sends = [rec for rec in sends if rec["type"] == "envelope"]
    assert sends
    assert all(rec["deliver"] >= rec["inject"] + 1 for rec in sends)


def test_fifo_order_preserved_without_reorder(suite):
    case = suite["1d-15-p4"]
    cfg = RuntimeConfig(tol=1e-6, k_max=10_000, seed=2,
                        delay=DelayModel(kind="uniform", low=0, high=6, reorder=False))
    replay = deterministic_replay(case.system, case.split, cfg)
    per_link = {}
    for rec in (json.loads(line) for line in replay.trace_lines):
        if rec["type"] == "envelope":
            per_link.setdefault((rec["from"], rec["to"]), []).append(rec["deliver"])
    assert per_link
    for deliveries in per_link.values():
        assert all(b >= a for a, b in zip(deliveries, deliveries[1:]))


def test_reordering_actually_occurs_with_reorder_on(suite):
    case = suite["1d-15-p4"]
    cfg = RuntimeConfig(tol=1e-6, k_max=10_000, seed=2,
                        delay=DelayModel(kind="uniform", low=0, high=6, reorder=True))
    replay = deterministic_replay(case.system, case.split, cfg)
    per_link = {}
    for rec in (json.loads(line) for line in replay.trace_lines):
        if rec["type"] == "envelope":
            per_link.setdefault((rec["from"], rec["to"]), []).append(rec["deliver"])
    assert any(
        any(b < a for a, b in zip(deliveries, deliveries[1:])) for deliveries in per_link.values()
    )


def test_latest_wins_merge_keeps_greatest_inject_step(tiny_1d):
    cfg = RuntimeConfig(tol=1e-300, k_max=10_000, step_limit=5)
    sim = AsyncSimulator(tiny_1d.system, tiny_1d.split, cfg)
    w = sim.workers[0]
    # deliver out of order: late injection arrives before an older one
    sim.inbox[0] = []
    import heapq

    for inject, deliver, val in ((5, 0, 1.0), (9, 0, 2.0), (7, 0, 3.0)):
        env = Envelope(src=1, dst=0, tag="data", payload=np.array([val]),
                       inject_step=inject, deliver_step=deliver, seq=inject)
        heapq.heappush(sim.inbox[0], (deliver, env.seq, env))
    sim._ingest(w)
    inject, payload = w.nbr_y[1]
    assert inject == 9
    np.testing.assert_array_equal(payload, [2.0])


# -- fairness -------------------------------------------------------------------


def test_fairness_window_holds_on_trace(suite):
    case = suite["2d-7x7-p4"]
    cfg = RuntimeConfig(tol=1e-300, k_max=10**6, step_limit=300, seed=1,
                        activation=0.05, trace=True)
    sim = AsyncSimulator(case.system, case.split, cfg)
    sim.run()
    window = 16 * case.system.p
    last_run = {i: -1 for i in range(case.system.p)}
    for rec in sim.trace:
        if rec["type"] == "step":
            gap = rec["t"] - last_run[rec["worker"]]
            assert gap <= window
            last_run[rec["worker"]] = rec["t"]
    assert all(t >= 0 for t in last_run.values())


def test_zero_activation_still_schedules_everyone(suite):
    case = suite["1d-15-p4"]
    cfg = RuntimeConfig(tol=1e-300, k_max=10**6, step_limit=200, activation=0.0)
    sim = AsyncSimulator(case.system, case.split, cfg)
    sim.run()
    assert all(w.k_local > 0 for w in sim.workers)


# -- detection ---------------------------------------------------------------------


@pytest.mark.parametrize("name", ["2d-7x7-p4", "3d-5x5x5-p8"])
def test_detection_soundness_under_delays(suite, name):
    case = suite[name]
    tol = 1e-6
    for seed in range(3):
        cfg = RuntimeConfig(tol=tol, k_max=100_000, seed=seed,
                            delay=DelayModel(kind="uniform", low=0, high=8, reorder=True))
        x, report = async_solve(case.system, case.split, cfg)
        assert report.converged
        assert report.detection_residual <= tol
        assert report.final_residual <= 2 * tol
        assert report.final_residual <= tol


def test_kmax_exhaustion_reports_not_converged(tiny_1d):
    cfg = RuntimeConfig(tol=1e-300, k_max=3)
    x, report = async_solve(tiny_1d.system, tiny_1d.split, cfg)
    assert not report.converged
    assert report.status == "k-max"
    assert report.iterations_k == 3


def test_divergent_splitting_aborts(tiny_1d):
    bad = build_splitting(
        interface_diagonal(tiny_1d.problem, tiny_1d.decomp), alpha=0.05, allow_small_alpha=True
    )
    cfg = RuntimeConfig(tol=1e-12, k_max=100_000)
    x, report = async_solve(tiny_1d.system, bad, cfg)
    assert report.status == "diverged"
    assert not report.converged


def test_single_subdomain_detects_immediately():
    from aschur.decomp import partition
    from aschur.poisson import GridSpec, assemble
    from aschur.solvers import SchurSystem
    from aschur.splitting import InterfaceSplitting

    prob = assemble(GridSpec(dims=(6,)))
    system = SchurSystem.build(prob, partition(prob, (1,)))
    split = InterfaceSplitting(alpha=1.0, m_diag=np.zeros(0))
    x, report = async_solve(system, split, RuntimeConfig(tol=1e-8, k_max=100))
    assert report.converged
    assert report.final_residual <= 1e-8


# -- faults --------------------------------------------------------------------------


def test_fault_mid_run_still_converges_with_more_steps(suite):
    case = suite["2d-15x15-p4"]
    delay = DelayModel(kind="uniform", low=0, high=2)
    base = RuntimeConfig(tol=1e-6, k_max=100_000, seed=4, delay=delay)
    x, clean = async_solve(case.system, case.split, base)
    assert clean.converged
    trigger = max(1, clean.sim_steps // 2)
    faulted_cfg = dataclasses.replace(
        base, faults=FaultPlan(events=(FaultEvent(victims=(1,), at_step=trigger),))
    )
    x, faulted = async_solve(case.system, case.split, faulted_cfg)
    assert faulted.converged
    assert faulted.faults_injected == 1
    assert faulted.final_residual <= 1e-6
    assert faulted.sim_steps > clean.sim_steps


def test_fault_on_all_workers_is_a_restart(suite):
    case = suite["2d-7x7-p4"]
    base = RuntimeConfig(tol=1e-6, k_max=100_000, seed=0)
    x, clean = async_solve(case.system, case.split, base)
    victims = tuple(range(case.system.p))
    trigger = max(1, clean.sim_steps // 2)
    cfg = dataclasses.replace(
        base, faults=FaultPlan(events=(FaultEvent(victims=victims, at_step=trigger),))
    )
    x, faulted = async_solve(case.system, case.split, cfg)
    assert faulted.converged
    # losing all state costs roughly the progress made before the reset
    assert faulted.sim_steps >= clean.sim_steps + trigger - 2


def test_fault_by_local_iteration_trigger(suite):
    case = suite["2d-7x7-p2"]
    cfg = RuntimeConfig(
        tol=1e-6, k_max=100_000, seed=0,
        faults=FaultPlan(events=(FaultEvent(victims=(0,), at_local_iteration=5),)),
    )
    x, report = async_solve(case.system, case.split, cfg)
    assert report.converged
    assert report.faults_injected == 1


def test_fault_after_detection_initiated_invalidates_round(suite):
    case = suite["1d-15-p4"]
    cfg = RuntimeConfig(tol=1e-6, k_max=100_000, seed=0,
                        delay=DelayModel(kind="uniform", low=1, high=3))
    sim = AsyncSimulator(case.system, case.split, cfg)
    while not any(w.phase >= 1 for w in sim.workers):
        sim.step()
    epoch_before = sim.epoch
    inject_fault(sim, [0])
    assert sim.epoch == epoch_before + 1
    assert all(w.phase == 0 and w.round == 0 for w in sim.workers)
    x, report = sim.run()
    assert report.converged
    assert sim.stale_discarded > 0
    assert report.final_residual <= 1e-6


def test_fault_preserves_factorization_and_counts(tiny_1d):
    cfg = RuntimeConfig(tol=1e-300, k_max=10_000, step_limit=10)
    sim = AsyncSimulator(tiny_1d.system, tiny_1d.split, cfg)
    for _ in range(5):
        sim.step()
    lu_before = sim.workers[0].lu
    k_before = sim.workers[0].k_local
    sim.inject_fault([0])
    assert sim.workers[0].lu is lu_before
    assert sim.workers[0].k_local == k_before
    np.testing.assert_array_equal(
        sim.workers[0].y_own, sim.workers[0].w * sim.workers[0].x0_l
    )


# -- cg with restart -----------------------------------------------------------------


@pytest.mark.parametrize("solver", ["async", "cg-restart"])
@pytest.mark.parametrize("victim", ["minus-one", "p"])
def test_out_of_range_fault_victim_rejected(suite, solver, victim):
    case = suite["2d-15x15-p4"]
    v = -1 if victim == "minus-one" else case.system.p
    with pytest.raises(ValueError, match="fault victim"):
        cfg = RuntimeConfig(tol=1e-6, k_max=500,
                            faults=FaultPlan(events=(FaultEvent(victims=(v,), at_step=1),)))
        if solver == "async":
            async_solve(case.system, case.split, cfg)
        else:
            cg_with_restart(case.system, cfg)


def test_cg_restart_without_faults_matches_cg(suite):
    case = suite["2d-9x9-p3"]
    x_ref, ref = cg_schur(case.system, tol=1e-6, k_max=500)
    x, rep = cg_with_restart(case.system, RuntimeConfig(tol=1e-6, k_max=500))
    assert rep.iterations_k == ref.iterations_k
    np.testing.assert_allclose(x, x_ref, atol=1e-13)
    assert rep.converged


def test_cg_restart_single_fault_costs_iterations(suite):
    case = suite["2d-15x15-p4"]
    x_ref, ref = cg_schur(case.system, tol=1e-6, k_max=500)
    trigger = max(1, ref.iterations_k // 2)
    cfg = RuntimeConfig(tol=1e-6, k_max=5000,
                        faults=FaultPlan(events=(FaultEvent(victims=(0,), at_step=trigger),)))
    x, rep = cg_with_restart(case.system, cfg)
    assert rep.converged
    assert rep.faults_injected == 1
    assert rep.iterations_k > ref.iterations_k


# -- chaos mini run -------------------------------------------------------------------


def test_uniform_delay_sweep_on_2d_p4(suite):
    # the certified radius below one guarantees convergence for any bounded
    # delay schedule; spot-check a band of seeds at uniform(0,5)
    case = suite["2d-15x15-p4"]
    for seed in range(10):
        cfg = RuntimeConfig(tol=1e-6, k_max=100_000, seed=seed,
                            delay=DelayModel(kind="uniform", low=0, high=5))
        x, report = async_solve(case.system, case.split, cfg)
        assert report.converged
        assert report.final_residual <= 1e-6


def test_small_chaos_sweep_with_partial_activation(suite):
    case = suite["2d-7x7-p4"]
    for seed in range(5):
        cfg = RuntimeConfig(tol=1e-6, k_max=100_000, seed=seed, activation=0.75,
                            delay=DelayModel(kind="uniform", low=0, high=5, reorder=True))
        x, report = async_solve(case.system, case.split, cfg)
        assert report.converged
        assert report.final_residual <= 1e-6


def test_fixed_and_table_delays_run(suite):
    case = suite["1d-7-p2"]
    for delay in (
        DelayModel(kind="fixed", fixed=3),
        DelayModel(kind="table", table={(0, 1): 2, (1, 0): 5}),
    ):
        cfg = RuntimeConfig(tol=1e-6, k_max=100_000, delay=delay)
        x, report = async_solve(case.system, case.split, cfg)
        assert report.converged


# -- free-running smoke ----------------------------------------------------------------


def test_free_running_mode_smoke(suite):
    case = suite["2d-7x7-p4"]
    cfg = RuntimeConfig(tol=1e-6, k_max=100_000, deterministic=False)
    x, report = async_solve(case.system, case.split, cfg)
    assert report.converged
    assert report.final_residual <= 2e-6


def test_free_running_rejects_faults(suite):
    case = suite["2d-7x7-p4"]
    cfg = RuntimeConfig(
        tol=1e-6, k_max=100, deterministic=False,
        faults=FaultPlan(events=(FaultEvent(victims=(0,), at_step=1),)),
    )
    with pytest.raises(ValueError):
        async_solve(case.system, case.split, cfg)
