import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from aschur import GridSpec, SchurSystem, assemble, partition, runtime
from aschur.decomp import InteriorFactors
from aschur.runtime import (
    AsyncSimulator,
    DelayModel,
    FaultEvent,
    FaultPlan,
    RuntimeConfig,
    async_solve,
    cg_with_restart,
)
from aschur.solvers import cg_schur
from aschur.splitting import InterfaceSplitting, build_splitting, interface_diagonal
from conftest import SUITE_NAMES, reference_subdomains, sync_iterates


def report_fields(report, skip=("wall_time",)):
    d = dataclasses.asdict(report)
    for key in skip:
        d.pop(key)
    return d


def traced_run(case, cfg):
    """A run with tracing on: (interface vector, report, trace records)."""
    sim = AsyncSimulator(case.system, case.split, dataclasses.replace(cfg, trace=True))
    x, report = sim.run()
    return x, report, sim.trace


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
    with pytest.raises(ValueError):
        DelayModel(kind="uniform", high=2**63)
    with pytest.raises(ValueError):
        DelayModel(kind="fixed", fixed=10**30)
    with pytest.raises(ValueError):
        DelayModel(kind="table", table={(0, 1): 2**63})
    for key, value, kinds in (("fixed", 3, ("zero", "uniform", "table")), ("low", 1, ("zero", "fixed", "table")),
                              ("high", 2, ("zero", "fixed", "table")), ("table", {}, ("zero", "fixed", "uniform"))):
        for kind in kinds:  # a key its kind never reads
            extra = {"table": {(0, 1): 1}} if kind == "table" else {}
            with pytest.raises(ValueError, match=f"^{key} must be unset unless the kind is"):
                DelayModel(kind=kind, **{key: value, **extra})
    assert DelayModel(kind="uniform", high=2**63 - 1).bound == 2**63 - 1
    assert DelayModel(kind="fixed", fixed=2**63 - 1).bound == 2**63 - 1
    assert DelayModel(kind="uniform", low=0, high=10).bound == 10


@pytest.mark.parametrize("link", [(5, 9), (0, 2), (-1, 0), (1, 1)])
def test_simulator_rejects_table_links_outside_the_workers(tiny_1d, link):
    # p = 2, so every link joins workers 0 and 1.  A link the sampler could not
    # use would still set the delay bound, and with it the default step cap.
    delay = DelayModel(kind="table", table={(0, 1): 2, link: 10**9})
    with pytest.raises(ValueError, match="does not join two of the 2 workers"):
        AsyncSimulator(tiny_1d.system, tiny_1d.split, RuntimeConfig(delay=delay))


def test_link_tables_are_built_once_per_system_and_read_only(suite):
    case = suite["2d-15x15-p8"]
    first = AsyncSimulator(case.system, case.split, RuntimeConfig(seed=0))
    second = AsyncSimulator(case.system, case.split, RuntimeConfig(seed=1, delay=DelayModel(kind="fixed", fixed=3)))
    assert first._lk is second._lk is case.system.links
    with pytest.raises(ValueError, match="read-only"):
        first._lk.msg_key[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        first._lk.link_slots[0][0] = 0


def test_fault_plan_validation():
    with pytest.raises(ValueError):
        FaultEvent(victims=())
    with pytest.raises(ValueError):
        FaultEvent(victims=(0,))
    with pytest.raises(ValueError):
        FaultEvent(victims=(0,), at_step=3, at_local_iteration=4)
    with pytest.raises(ValueError):
        FaultPlan(events=(FaultEvent(victims=(0,), at_step=9), FaultEvent(victims=(1,), at_step=2)))
    for trigger in ({"at_step": -1}, {"at_local_iteration": -2}):
        with pytest.raises(ValueError, match="fault trigger -[12] must be nonnegative"):
            FaultEvent(victims=(0,), **trigger)
    assert FaultEvent(victims=(0,), at_step=0).at_step == 0


def test_runtime_config_validation():
    with pytest.raises(ValueError):
        RuntimeConfig(tol=0.0)
    with pytest.raises(ValueError):
        RuntimeConfig(k_max=0)
    with pytest.raises(ValueError):
        RuntimeConfig(activation=1.5)
    for bad in ({"tol": float("inf")}, {"tol": float("nan")}, {"seed": -1},
                {"delay": DelayModel(kind="fixed", fixed=2**62)}, {"k_max": 2**62},
                {"k_max": 2**62, "delay": DelayModel(kind="fixed", fixed=2**62)},
                {"delay": DelayModel(kind="fixed", fixed=2**10), "k_max": 2**50}):
        with pytest.raises(ValueError, match=f"^{next(iter(bad))} "):
            RuntimeConfig(**bad)


def test_fault_victim_range_checked(tiny_1d):
    cfg = RuntimeConfig(faults=FaultPlan(events=(FaultEvent(victims=(9,), at_step=1),)))
    with pytest.raises(ValueError):
        AsyncSimulator(tiny_1d.system, tiny_1d.split, cfg)


# -- zero-delay equivalence ---------------------------------------------------


@pytest.mark.parametrize("name", ["1d-3-p2", "1d-15-p4", "2d-7x7-p4", "3d-5x5x5-p8"])
def test_zero_delay_matches_sync_trajectory(suite, name):
    case = suite[name]
    sink = sync_iterates(case.system, case.split, 40)
    sim = AsyncSimulator(case.system, case.split, RuntimeConfig(tol=1e-300, k_max=10_000))
    trajectory = []
    while len(trajectory) < 40 and not (sim.detected or sim.diverged):
        sim.step()
        trajectory.append(sim.assembled_interface())
    assert len(trajectory) == 40
    for k in range(40):
        scale = max(1.0, float(np.max(np.abs(sink[k]))))
        assert np.max(np.abs(trajectory[k] - sink[k])) <= 1e-12 * scale


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
    x_a, report_a, trace_a = traced_run(case, cfg)
    x_b, report_b, trace_b = traced_run(case, cfg)
    assert trace_a == trace_b
    assert report_fields(report_a) == report_fields(report_b)
    np.testing.assert_array_equal(x_a, x_b)


def test_different_seeds_generally_differ(suite):
    case = suite["1d-15-p4"]
    cfg0 = RuntimeConfig(tol=1e-6, k_max=10_000, seed=0, delay=DelayModel(kind="uniform", low=1, high=5))
    cfg1 = dataclasses.replace(cfg0, seed=1)
    assert traced_run(case, cfg0)[2] != traced_run(case, cfg1)[2]


def test_noop_fault_plan_is_bitwise_identical(suite):
    case = suite["2d-7x7-p2"]
    delay = DelayModel(kind="uniform", low=0, high=3)
    base = RuntimeConfig(tol=1e-6, k_max=10_000, seed=7, delay=delay)
    noop = dataclasses.replace(
        base, faults=FaultPlan(events=(FaultEvent(victims=(0,), at_step=10**9),))
    )
    x_a, report_a, trace_a = traced_run(case, base)
    x_b, report_b, trace_b = traced_run(case, noop)
    assert trace_a == trace_b
    assert report_fields(report_a) == report_fields(report_b)
    np.testing.assert_array_equal(x_a, x_b)


# -- transport semantics --------------------------------------------------------


def test_envelope_timing_invariant_in_traces(suite):
    case = suite["2d-7x7-p4"]
    cfg = RuntimeConfig(tol=1e-6, k_max=10_000, seed=5,
                        delay=DelayModel(kind="uniform", low=0, high=6, reorder=True))
    sends = [rec for rec in traced_run(case, cfg)[2] if rec["type"] == "envelope"]
    assert sends
    assert all(rec["deliver"] >= rec["inject"] + 1 for rec in sends)


def test_fifo_order_preserved_without_reorder(suite):
    case = suite["1d-15-p4"]
    cfg = RuntimeConfig(tol=1e-6, k_max=10_000, seed=2,
                        delay=DelayModel(kind="uniform", low=0, high=6, reorder=False))
    per_link = {}
    for rec in traced_run(case, cfg)[2]:
        if rec["type"] == "envelope":
            per_link.setdefault((rec["from"], rec["to"]), []).append(rec["deliver"])
    assert per_link
    for deliveries in per_link.values():
        assert all(b >= a for a, b in zip(deliveries, deliveries[1:]))


def test_reordering_actually_occurs_with_reorder_on(suite):
    case = suite["1d-15-p4"]
    cfg = RuntimeConfig(tol=1e-6, k_max=10_000, seed=2,
                        delay=DelayModel(kind="uniform", low=0, high=6, reorder=True))
    per_link = {}
    for rec in traced_run(case, cfg)[2]:
        if rec["type"] == "envelope":
            per_link.setdefault((rec["from"], rec["to"]), []).append(rec["deliver"])
    assert any(
        any(b < a for a, b in zip(deliveries, deliveries[1:])) for deliveries in per_link.values()
    )


@pytest.mark.parametrize("seed, delay", [
    (3, DelayModel(kind="uniform", low=0, high=6, reorder=True)),
    (0, DelayModel(kind="uniform", low=2, high=5, reorder=True)),
])
def test_uniform_delays_are_one_scalar_draw_per_message(suite, monkeypatch, seed, delay):
    # Delays are drawn in blocks; the stream must equal one scalar draw per
    # message, in send order, from the delay generator, seeded with seed + 1.
    # Small blocks make the run cross dozens of block boundaries.
    monkeypatch.setattr(runtime, "DELAY_BLOCK", 64)
    case = suite["2d-7x7-p4"]
    cfg = RuntimeConfig(tol=1e-6, k_max=10_000, seed=seed, delay=delay)
    sends = [rec for rec in traced_run(case, cfg)[2] if rec["type"] == "envelope"]
    rng = np.random.default_rng(seed + 1)
    expected = [int(rng.integers(delay.low, delay.high, endpoint=True)) for _ in sends]
    assert len(sends) > 2 * runtime.DELAY_BLOCK
    assert [rec["deliver"] - rec["inject"] - 1 for rec in sends] == expected


def test_step_budgets_past_int64_are_rejected():
    # A run ends within step_cap = 1000 + 50 k_max (1 + bound) steps, and its
    # last delivery, t + 1 + delay, must stay below the int64 top (NEVER).
    for delay in (DelayModel(kind="fixed", fixed=2**63 - 1), DelayModel(kind="uniform", high=2**62)):
        with pytest.raises(ValueError, match="^delay must keep the step cap"):
            RuntimeConfig(k_max=1, delay=delay)
    cfg = RuntimeConfig(k_max=1, delay=DelayModel(kind="fixed", fixed=10**6))
    assert cfg.step_cap == 50_001_050
    edge = (2**63 - 1052) // 51  # the largest B with 1000 + 50 (1 + B) + B < 2^63 - 1
    RuntimeConfig(k_max=1, delay=DelayModel(kind="fixed", fixed=edge))
    with pytest.raises(ValueError, match="^delay must"):
        RuntimeConfig(k_max=1, delay=DelayModel(kind="fixed", fixed=edge + 1))


@pytest.mark.parametrize("fixed,steps", [(0, 1050), (7, 1400)])
def test_a_run_whose_rounds_never_complete_ends_at_the_step_cap(tiny_1d, monkeypatch, fixed, steps):
    # With no detection move, no round completes and no worker is done.
    monkeypatch.setattr(AsyncSimulator, "_detect", lambda self, *args: ([], []))
    cfg = RuntimeConfig(tol=1e-300, k_max=1, delay=DelayModel(kind="fixed", fixed=fixed))
    x, report = async_solve(tiny_1d.system, tiny_1d.split, cfg)
    assert report.status == "step-cap" and report.sim_steps == steps == cfg.step_cap
    assert report.iterations_k == 0 and np.isfinite(x).all()


@pytest.mark.parametrize("fixed", [100, 1000])
def test_a_fixed_delay_run_ends_k_max_after_its_first_round(suite, fixed):
    # Under a fixed delay d, the residual pieces sent at step 0 arrive at d + 1
    # and the reductions sent then at 2d + 2, where the first round completes: at
    # k_max 1 both workers of 7/2 are done after 2d + 3 steps, far inside the
    # step cap 1000 + 50 (1 + d).
    case = suite["1d-7-p2"]
    _, report = async_solve(case.system, case.split, RuntimeConfig(k_max=1, delay=DelayModel(kind="fixed", fixed=fixed)))
    assert report.status == "k-max" and report.sim_steps == 2 * fixed + 3, (report.status, report.sim_steps)
    assert report.per_worker_k == [2 * fixed + 3] * 2 and report.iterations_k == 1


def _link(sim, src, dst):
    """Index of the directed link src -> dst in the simulator's per-link arrays."""
    return list(zip(sim._lk.link_src.tolist(), sim._lk.link_dst.tolist())).index((src, dst))


def test_latest_wins_merge_keeps_greatest_inject_step(tiny_1d):
    # Shares injected at steps 5, 9 and 7 on the link 1 -> 0 are delivered at
    # steps 8, 9 and 10, in every order: from step 10 worker 0 holds the one
    # from step 9.  A newer share still in flight is not adopted, and an older
    # one delivered later does not replace it.
    cfg = RuntimeConfig(tol=1e-300, k_max=10_000, delay=DelayModel(kind="uniform", high=10))
    shares = {5: 1.0, 9: 2.0, 7: 3.0, 10: 4.0, 3: 5.0}
    for order in itertools.permutations((5, 9, 7)):
        sim = AsyncSimulator(tiny_1d.system, tiny_1d.split, cfg)
        link = _link(sim, 1, 0)
        rows = len(sim._inj)
        for inject, deliver in [*zip(order, (8, 9, 10)), (10, 12), (3, 11)]:
            sim._inj[inject % rows] = inject
            sim._ring[inject % rows, sim._lk.e_src[sim._lk.e_link == link]] = shares[inject]
            sim._wheel[deliver % rows, link] = inject
        for sim.t in range(8, 12):
            sim._ingest(sim._everyone, True)  # delivers, adopts and merges
            if sim.t == 10:
                assert sim._stamp[link] == 9
                np.testing.assert_array_equal(sim.nbr[sim._lk.e_dst[sim._lk.e_link == link]], [2.0])
        assert sim._stamp[link] == 9


def test_share_delivered_to_an_inactive_receiver_waits_for_its_next_active_step(tiny_1d):
    # Both workers send at step 5 under a fixed delay of 2, so their shares
    # arrive at step 8.  Worker 0 is off at steps 8 and 9, and the wheel grows
    # in between: worker 0 adopts its share at step 10, its next active step.
    sim = AsyncSimulator(tiny_1d.system, tiny_1d.split, RuntimeConfig(delay=DelayModel(kind="fixed", fixed=2)))
    link, off, y_new = _link(sim, 1, 0), np.array([False, True]), np.arange(1.0, len(sim.y) + 1)
    sim.t = 5
    sim._send(sim._everyone, np.zeros(2, dtype=bool), [], y_new, True)
    for sim.t in (8, 9):
        sim._ingest(off, False)
        assert sim._stamp[link] == -1 and sim._stamp[_link(sim, 0, 1)] == 5  # worker 1 is on
        sim._resize(2 * len(sim._inj))
    sim.t = 10
    sim._ingest(sim._everyone, True)
    assert sim._stamp[link] == 5
    entries = sim._lk.e_link == link
    np.testing.assert_array_equal(sim.nbr[sim._lk.e_dst[entries]], y_new[sim._lk.e_src[entries]])


def test_a_fixed_delay_of_a_thousand_steps_converges(suite):
    case = suite["1d-7-p2"]
    cfg = RuntimeConfig(tol=1e-6, k_max=10_000, delay=DelayModel(kind="fixed", fixed=1000))
    _, report = async_solve(case.system, case.split, cfg)
    assert report.converged and report.final_residual <= 1e-6
    assert report.sim_steps == 32_048


def test_no_transport_array_grows_with_the_delay_bound(suite):
    # Deliveries up to 10**6 steps ahead: the ring settles at 4,096 rows, the
    # wheel and the delivery rows have as many, and a later delivery waits in
    # its delivery row.  The steps allocate about 11 MB at their peak; a wheel
    # row per step of the bound would take 264 MB (10**6 rows of 33 int64
    # columns).  They keep about 6 MB (2**20 bytes): the ring (3.8 MB), the
    # delivery rows and the wheel (1.0 MB each).  8 MB leaves no room for a
    # table of ring rows by messages (5.5 MB here).
    case = suite["2d-15x15-p8"]
    delay = DelayModel(kind="uniform", high=10**6, reorder=True)
    sim = AsyncSimulator(case.system, case.split, RuntimeConfig(tol=1e-300, delay=delay))
    tracemalloc.start()
    try:
        for _ in range(3000):
            sim.step()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sim._inj) == len(sim._wheel) == len(sim._dl) == 4096
    assert peak < 32 * 2**20, peak
    assert kept < 8 * 2**20, kept


@pytest.mark.parametrize("name", ["2d-15x15-p8", "3d-5x5x5-p8"])
def test_neighbor_merge_matches_loop_reference(suite, name):
    # The merge sums the neighbors' adopted shares in one bincount; at cross
    # points several neighbors overlap, and the sum must equal, bit for bit,
    # adding the shares one neighbor at a time in the interface map's order.
    case = suite[name]
    imap = case.system.imap
    sim = AsyncSimulator(case.system, case.split, RuntimeConfig())
    rng = np.random.default_rng(0)
    rows = len(sim._inj)
    sim._ring[:rows] = rng.normal(size=(rows, sim._ring.shape[1]))
    sim._stamp[:] = rng.integers(-1, 3 * rows, size=len(sim._stamp))  # -1: the initial share
    sim._ingest(sim._everyone, True)  # nothing in flight: merges alone
    off = imap.offsets
    for i in range(case.system.p):
        gpos = imap.gamma_positions[i]
        expected = np.zeros(len(gpos))
        for j in imap.neighbors[i]:
            shared = imap.shared_positions(i, j)
            stamp = sim._stamp[_link(sim, j, i)]
            share = sim._ring[stamp % rows if stamp >= 0 else -1, off[j] + np.searchsorted(imap.gamma_positions[j], shared)]
            expected[np.searchsorted(gpos, shared)] += share
        assert np.array_equal(sim.nbr[off[i]:off[i + 1]], expected)


def _loop_update(local, minv, y_own, nbr_sum):
    """One worker's update and phase-0 residual pieces, per subdomain with a dense solve."""
    A_II, A_IG, A_GI = (m.toarray() for m in (local.A_II, local.A_IG, local.A_GI))
    x_l = y_own + nbr_sum
    x_I = np.linalg.solve(A_II, local.b_I - A_IG @ x_l)
    y_new = local.weights * x_l + minv * (local.b_G - A_GI @ x_I - local.A_GG @ x_l)
    x_merged = y_new + nbr_sum
    r_I = local.b_I - A_II @ x_I - A_IG @ x_merged
    return y_new, float(r_I @ r_I), local.b_G - A_GI @ x_I - local.A_GG @ x_merged


def _close(got, ref):
    return np.linalg.norm(np.subtract(got, ref)) <= 1e-12 * max(np.linalg.norm(ref), 1e-300)


def _extra_cases():
    from aschur import GridSpec, SchurSystem, assemble, partition
    from aschur.splitting import InterfaceSplitting

    for dims, splits in (((6,), (1,)), ((3, 3), (2, 2)), ((5, 3, 3), (3, 2, 2))):
        problem = assemble(GridSpec(dims=dims))
        decomp = partition(problem, splits)
        system = SchurSystem.build(problem, decomp)
        m_diag = build_splitting(interface_diagonal(problem, decomp), alpha=1.0).m_diag if decomp.p > 1 else np.zeros(0)
        yield f"{dims}/{splits}", system, InterfaceSplitting(alpha=1.0, m_diag=m_diag)


def test_batched_step_matches_subdomain_loop(suite):
    # One step from random shares and adopted neighbour shares, for a random
    # subset of active workers: every active worker's new share and phase-0
    # pieces equal the per-subdomain update; the idle workers keep their
    # shares.  The extra cases are p = 1 and subdomains with one interior
    # node each.
    rng = np.random.default_rng(3)
    cases = [(name, c.system, c.split) for name, c in suite.items()] + list(_extra_cases())
    for name, system, split in cases:
        space, imap = system.local_space, system.imap
        assert np.all(space.K_G.data != 0) and np.all(space.A_GI.data != 0), name  # no stored zeros
        off = imap.offsets
        for trial in range(3):
            sim = AsyncSimulator(system, split, RuntimeConfig(tol=1e-300))
            sim.y[:] = rng.normal(size=len(sim.y))
            rows = len(sim._inj)
            sim._ring[:rows] = rng.normal(size=(rows, sim._ring.shape[1]))
            sim._stamp[:] = rng.integers(0, rows, size=len(sim._stamp))  # adopted; nothing in flight
            nbr_sums = []
            subdomains = reference_subdomains(system)
            for i, loc in enumerate(subdomains):
                nbr_sum = np.zeros(loc.n_gamma)
                for j in imap.neighbors[i]:
                    shared = imap.shared_positions(i, j)
                    src = off[j] + np.searchsorted(imap.gamma_positions[j], shared)
                    nbr_sum[np.searchsorted(loc.gamma_positions, shared)] += sim._ring[sim._stamp[_link(sim, j, i)], src]
                nbr_sums.append(nbr_sum)
            active = [i for i in range(system.p) if rng.random() < 0.6] or [int(rng.integers(system.p))]
            before = sim.y.copy()
            sim._choose_active = lambda: active
            sim.step()
            for i, (loc, nbr_sum) in enumerate(zip(subdomains, nbr_sums)):
                s = slice(off[i], off[i + 1])
                if i not in active:
                    assert sim.k_local[i] == 0 and np.array_equal(sim.y[s], before[s]), (name, i)
                    continue
                minv = 1.0 / split.m_diag[loc.gamma_positions]
                y_new, r_I_sq, r_G = _loop_update(loc, minv, before[s], nbr_sum)
                assert sim.k_local[i] == 1, (name, i)
                assert _close(sim.y[s], y_new), (name, trial, i)
                # the data are O(1); with p = 1 the interior residual is rounding alone
                assert abs(sim._r_own_I_sq[i] - r_I_sq) <= 1e-12 * max(r_I_sq, 1.0), (name, trial, i)
                assert _close(sim._r_own_G[s], r_G), (name, trial, i)


def test_update_without_pieces_gives_the_shares_of_the_update_with_them(suite):
    # The phase-0 pieces cost one more product: on random states, the shares match
    # bit for bit with and without them.  The update takes b_I - A_II x_I as A_IG x_l
    # and solves only the coupled interior rows, so the pieces match, to rounding,
    # each subdomain's residual at its interior solved densely over all its rows.
    # Every worker then sends its reduction: its interior square plus its slots'
    # w r^2, r its synchronized piece, summed in slot order from 0.0, bit for bit.
    rng = np.random.default_rng(17)
    for name, case in suite.items():
        sim = AsyncSimulator(case.system, case.split, RuntimeConfig(tol=1e-300))
        space, p, off = sim.space, sim.p, sim.system.imap.offsets
        subdomains = reference_subdomains(case.system)
        for _ in range(3):
            sim.y, sim.nbr = rng.normal(size=len(sim.y)), rng.normal(size=len(sim.y))
            y_new, none_I, none_G = sim._update(False)
            y_res, r_I_sq, r_G = sim._update(True)
            assert none_I is None and none_G is None
            assert y_new.tobytes() == y_res.tobytes(), name
            for i, loc in enumerate(subdomains):
                s = slice(off[i], off[i + 1])
                A_II, A_IG, A_GI = (m.toarray() for m in (loc.A_II, loc.A_IG, loc.A_GI))
                x_I = np.linalg.solve(A_II, loc.b_I - A_IG @ (sim.y[s] + sim.nbr[s]))
                x_merged = y_new[s] + sim.nbr[s]
                r_I = loc.b_I - A_II @ x_I - A_IG @ x_merged
                assert _close(r_G[s], loc.b_G - A_GI @ x_I - loc.A_GG @ x_merged), (name, i)
                assert abs(r_I_sq[i] - r_I @ r_I) <= 1e-12 * max(r_I @ r_I, 1.0), (name, i)
            sim._got[:p] = sim._lk.n_nbr  # every neighbour piece in: every worker sends
            red, _ = sim._detect(sim._everyone, np.ones(p, dtype=bool), r_I_sq, r_G)
            assert red == [(i, 0) for i in range(p)], name
            r_sync = np.zeros(len(r_G)) + r_G
            for dst, src in zip(sim._lk.e_dst.tolist(), sim._lk.e_src.tolist()):
                r_sync[dst] += r_G[src]
            for i in range(p):
                value = 0.0
                for k in range(off[i], off[i + 1]):
                    value += space.weights[k] * r_sync[k] * r_sync[k]
                assert sim._red_val[0, i].tobytes() == np.float64(r_I_sq[i] + value).tobytes(), (name, i)


def test_steps_solve_only_the_coupled_interior_rows(suite, monkeypatch):
    # After construction a step never solves the whole interior: the update goes
    # through the operator's coupled-row solve, and the constant inv(A_II) b_I is
    # formed once per system.  2d-15x15-p8 has interior rows off the interface layer.
    case = suite["2d-15x15-p8"]
    assert len(case.system.blocks.coupled) < len(case.system.blocks.interior)
    sim = AsyncSimulator(case.system, case.split, RuntimeConfig(tol=1e-300, delay=DelayModel(kind="uniform", high=3)))

    def whole_interior_solve(self, b):
        raise AssertionError("a step solved the whole interior")

    monkeypatch.setattr(InteriorFactors, "solve", whole_interior_solve)
    for _ in range(300):
        sim.step()
    assert len(sim.history) > 5  # phase-0 pieces and reductions were formed


def test_async_converges_with_superlu_interior_blocks():
    # 401/2 has two interior blocks of 200, above the dense-inverse fill test, so the
    # coupled-row update solves whole blocks with SuperLU.
    problem = assemble(GridSpec(dims=(401,)))
    decomp = partition(problem, (2,))
    system = SchurSystem.build(problem, decomp)
    assert system.blocks.lu.inverses == [None]
    split = build_splitting(interface_diagonal(problem, decomp), alpha=1.0)
    cfg = RuntimeConfig(tol=1e-8, k_max=100_000, delay=DelayModel(kind="uniform", high=2, reorder=True))
    _, report = async_solve(system, split, cfg)
    assert report.converged and report.final_residual <= 1e-8, (report.status, report.final_residual)


def _built(dims, splits):
    problem = assemble(GridSpec(dims=dims))
    decomp = partition(problem, splits)
    return SchurSystem.build(problem, decomp), build_splitting(interface_diagonal(problem, decomp), alpha=1.0)


def _forms_agree(system, split, cfg, label):
    """Run ``cfg`` with the explicit update forced (limit 2**62) and with the factored
    one (limit 0): the two are one map, rounded differently, so they take the same
    steps, per-worker updates, rounds and stale drops, and end at the same interface
    vector to 1e-10 relative."""
    runs = []
    for limit in (2**62, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(runtime, "EXPLICIT_UPDATE_LIMIT", limit)
            sim = AsyncSimulator(system, split, cfg)
        assert (sim._Q is not None) == (limit > 0), (label, limit)
        runs.append(sim.run())
    (x, report), (x_f, report_f) = runs
    assert report.converged and report_f.converged, label
    for key in ("sim_steps", "per_worker_k", "iterations_k", "stale_discarded"):
        assert getattr(report, key) == getattr(report_f, key), (label, key)
    assert np.linalg.norm(x - x_f) <= 1e-10 * np.linalg.norm(x_f), label


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_explicit_and_factored_updates_agree(suite, name):
    # Every suite problem, under uniform(0, 10) delays with reordering.
    case = suite[name]
    delay = DelayModel(kind="uniform", low=0, high=10, reorder=True)
    for seed in range(3):
        _forms_agree(case.system, case.split, RuntimeConfig(tol=1e-6, k_max=100_000, seed=seed, delay=delay), (name, seed))


def test_explicit_and_factored_updates_agree_under_faults():
    # The benchmark's fault problem, 31^2/4x4 under uniform(0, 2) delays with
    # reordering, clean and with its five single-worker resets (workers 0 to 4 at
    # steps 23, 47, 70, 94 and 117): a reset share enters both forms the same way.
    system, split = _built((31, 31), (4, 4))
    delay = DelayModel(kind="uniform", low=0, high=2, reorder=True)
    faults = FaultPlan(events=tuple(FaultEvent(victims=(j,), at_step=t) for j, t in enumerate((23, 47, 70, 94, 117))))
    for seed, plan in itertools.product(range(3), (FaultPlan(), faults)):
        cfg = RuntimeConfig(tol=1e-6, k_max=100_000, seed=seed, delay=delay, faults=plan)
        _forms_agree(system, split, cfg, (seed, len(plan.events)))


def test_each_problem_takes_the_update_form_its_size_selects(suite, monkeypatch):
    # The explicit form stores sum_i |Gamma_i|**2 cells, at most EXPLICIT_UPDATE_LIMIT
    # (inclusive), and reads every complement record.  Every suite problem (3d-7x7x5-p4
    # stores 4 * 35**2 = 4,900 cells) and the fault problem 31^2/4x4 (9,228) take it;
    # 63^2/8x8 (50,460) takes the factored form, as does 4003/2, which stores 2 cells
    # but has interiors of 2,001 rows, over the records' cap.  Neither forms a record.
    for name, case in suite.items():
        assert AsyncSimulator(case.system, case.split, RuntimeConfig())._Q is not None, name
    fault_problem = _built((31, 31), (4, 4))
    assert AsyncSimulator(*fault_problem, RuntimeConfig())._Q is not None
    for dims, splits in (((63, 63), (8, 8)), ((4003,), (2,))):
        system, split = _built(dims, splits)
        assert AsyncSimulator(system, split, RuntimeConfig())._Q is None, dims
        assert "subdomains" not in vars(system), dims
    for limit, explicit in ((9228, True), (9227, False)):
        monkeypatch.setattr(runtime, "EXPLICIT_UPDATE_LIMIT", limit)
        assert (AsyncSimulator(*fault_problem, RuntimeConfig())._Q is not None) == explicit, limit


# -- fairness -------------------------------------------------------------------


def test_fairness_window_holds_on_trace(suite):
    case = suite["2d-7x7-p4"]
    cfg = RuntimeConfig(tol=1e-300, k_max=10**6, seed=1, activation=0.05, trace=True)
    sim = AsyncSimulator(case.system, case.split, cfg)
    for _ in range(300):
        sim.step()
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
    cfg = RuntimeConfig(tol=1e-300, k_max=10**6, activation=0.0)
    sim = AsyncSimulator(case.system, case.split, cfg)
    for _ in range(200):
        sim.step()
    assert np.all(sim.k_local > 0)


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


def uniform(high, reorder=True):
    return DelayModel(kind="uniform", low=0, high=high, reorder=reorder)


ORACLE_RUNS = {
    "fires mid-step": ("2d-7x7-p4", dict(seed=5, delay=uniform(3))),
    "activation 0.5": ("1d-15-p4", dict(seed=0, activation=0.5, delay=uniform(3))),
    "fifo": ("1d-15-p4", dict(seed=2, delay=uniform(6, reorder=False))),
    "table": ("1d-7-p2", dict(delay=DelayModel(kind="table", table={(0, 1): 2, (1, 0): 5}))),
    "step faults": ("2d-7x7-p4", dict(seed=1, delay=uniform(4), faults=FaultPlan(events=(
        FaultEvent(victims=(1,), at_step=30), FaultEvent(victims=(0, 2), at_step=55))))),
    "iteration fault": ("1d-15-p4", dict(seed=2, delay=uniform(5, reorder=False), faults=FaultPlan(events=(
        FaultEvent(victims=(3,), at_local_iteration=20),)))),
    "p = 1": ("1d-6-p1", dict(delay=uniform(3))),
}


@pytest.mark.parametrize("name", ORACLE_RUNS)
def test_detection_checks_match_the_whole_array_formulas(suite, name):
    # Detection reads each active worker's readiness in a loop over Python ints;
    # at every step the workers that pass phase 1 and complete a round must be
    # exactly those the whole-array formulas pick from the same state.
    problem, kwargs = ORACLE_RUNS[name]
    if problem == "1d-6-p1":
        prob = assemble(GridSpec(dims=(6,)))
        system = SchurSystem.build(prob, partition(prob, (1,)))
        split = InterfaceSplitting(alpha=1.0, m_diag=np.zeros(0))
    else:
        system, split = suite[problem].system, suite[problem].split
    cfg = RuntimeConfig(tol=1e-6, k_max=100_000, **kwargs)
    sim = AsyncSimulator(system, split, cfg)
    detect, inject, workers = sim._detect, sim.inject_fault, np.arange(sim.p)
    moves, mid_round = [], []

    def checked(on, res, r_I_sq, r_G):
        par = sim.round & 1
        red = (sim.phase < 2) & (sim._rs_cnt == sim._lk.n_nbr) & on
        fin = (sim._red_cnt[par, workers] + red == sim.p) & on
        moves.append(detect(on, res, r_I_sq, r_G))
        assert moves[-1] == tuple([(i, int(par[i])) for i in m.nonzero()[0].tolist()] for m in (red, fin)), sim.t
        return moves[-1]

    def logged(victims):
        mid_round.append(bool(sim.phase.any()))
        inject(victims)

    sim._detect, sim.inject_fault = checked, logged
    sim.run()
    assert sim.detected
    red, fin = moves[-1]
    if name == "fires mid-step":  # the first worker's round fires; later ready workers do not commit
        assert len(fin) > 1 and fin[0][0] == 0
    for _ in range(5):  # the workers the firing cut off are read again
        sim.step()
    assert any(red for red, _ in moves) and any(fin for _, fin in moves)
    assert mid_round == [True] * len(cfg.faults.events)


def test_iteration_fault_due_in_the_step_that_converged_is_not_applied():
    # Worker 0 reaches its fault count of 47 in the step whose firing the exact
    # residual confirms; the run is over, so the fault must not reset its share
    # (it used to, leaving a final residual of 1.45 on a run reported converged).
    problem = assemble(GridSpec(dims=(4, 3, 1)))
    decomp = partition(problem, (1, 2, 1))
    system = SchurSystem.build(problem, decomp)
    split = build_splitting(interface_diagonal(problem, decomp), alpha=1.0)
    faults = FaultPlan(events=(FaultEvent(victims=(1,), at_local_iteration=17),
                               FaultEvent(victims=(0,), at_local_iteration=47)))
    cfg = RuntimeConfig(tol=1e-6, k_max=100_000, activation=0.015625, faults=faults,
                        delay=DelayModel(kind="table", table={(0, 1): 1, (1, 0): 3}))
    sim = AsyncSimulator(system, split, cfg)
    x, report = sim.run()
    assert report.converged and sim.k_local[0] == 47
    assert report.faults_injected == 1 and sim._pending_iter_faults == [faults.events[1]]
    assert report.final_residual == report.detection_events[-1][1] <= 1e-6


def test_kmax_exhaustion_reports_not_converged(tiny_1d):
    cfg = RuntimeConfig(tol=1e-300, k_max=3)
    x, report = async_solve(tiny_1d.system, tiny_1d.split, cfg)
    assert not report.converged
    assert report.status == "k-max"
    assert report.iterations_k == 3


def test_divergent_splitting_aborts(tiny_1d):
    bad = InterfaceSplitting(alpha=0.05, m_diag=0.05 * interface_diagonal(tiny_1d.problem, tiny_1d.decomp))
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
    while not np.any(sim.phase >= 1):
        sim.step()
    faults_before = sim.faults_injected
    sim.inject_fault([0])
    assert sim.faults_injected == faults_before + 1
    assert not np.any(sim.phase) and not np.any(sim.round)
    x, report = sim.run()
    assert report.converged
    assert sim.stale_discarded > 0
    assert report.final_residual <= 1e-6


def test_fault_preserves_factorization_and_counts(tiny_1d):
    cfg = RuntimeConfig(tol=1e-300, k_max=10_000)
    sim = AsyncSimulator(tiny_1d.system, tiny_1d.split, cfg)
    for _ in range(5):
        sim.step()
    lu_before = sim.system.blocks.lu
    k_before = sim.k_local.copy()
    off = sim.system.imap.offsets
    assert sim.y[off[0]:off[1]].any()
    sim.inject_fault([0])
    assert sim._lu is sim.system.blocks.lu is lu_before
    np.testing.assert_array_equal(sim.k_local, k_before)
    np.testing.assert_array_equal(sim.y[off[0]:off[1]], 0.0)


def test_iteration_fault_takes_effect_at_the_end_of_its_step(suite):
    # Worker 0 reaches the count first within the step.  Were the reset
    # applied there, victim 1 would then commit an update computed before it.
    case = suite["2d-7x7-p2"]
    cfg = RuntimeConfig(tol=1e-300, k_max=10_000,
                        faults=FaultPlan(events=(FaultEvent(victims=(0, 1), at_local_iteration=3),)))
    sim = AsyncSimulator(case.system, case.split, cfg)
    while not sim.faults_injected:
        sim.step()
    assert sim.t == 3 and sim.k_local[0] == 3
    np.testing.assert_array_equal(sim.y, 0.0)


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


def test_cg_restart_applies_coincident_faults_together(suite):
    # Two events with one trigger reset both victims at once, as one event with
    # both victims does (and as the simulator applies every due event).
    system = suite["2d-15x15-p8"].system
    runs = []
    for events in ((FaultEvent(victims=(1,), at_step=5), FaultEvent(victims=(2,), at_step=5)),
                   (FaultEvent(victims=(1, 2), at_step=5),)):
        runs.append(cg_with_restart(system, RuntimeConfig(tol=1e-6, k_max=1000, faults=FaultPlan(events=events))))
    (x_two, two), (x_one, one) = runs
    assert two.converged and two.faults_injected == 2
    assert x_two.tobytes() == x_one.tobytes()
    assert two.residual_history == one.residual_history
    assert two.iterations_k == one.iterations_k


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


def test_converged_needs_the_exact_residual_below_tol(suite, monkeypatch):
    # A detector firing counts as convergence only when the recomputed
    # residual confirms it; here it never does.
    case = suite["2d-7x7-p4"]
    monkeypatch.setattr(runtime, "global_residual", lambda *args: 1.0)
    cfg = RuntimeConfig(tol=1e-6, k_max=50)
    x, report = async_solve(case.system, case.split, cfg)
    assert not report.converged
    assert report.status == "k-max"
    assert report.final_residual == 1.0
