"""Workload process: set-up, timed rounds and the traced run.

``run.py`` starts this file in a process of its own and reads one pickled
result from its standard output; everything else goes to standard error.
It drives the program only through the module attributes that ``aschur
run`` uses (``poisson.assemble`` through ``runtime.async_solve``), so the
tracer in ``tracing.py`` sees every call.  It checks nothing itself: the
interface vectors and reports go back to ``run.py`` for checking.

A round runs every operation of the workload once, in a fixed order.  A
timed run repeats whole rounds until ``--seconds`` have passed, and at
least twice, so every (problem, seed) solve is repeated at least once.
"""

from __future__ import annotations

import argparse
import heapq
import pickle
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy.linalg

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from aschur import decomp, poisson, runtime, solvers, splitting  # noqa: E402

from tracing import Tracer  # noqa: E402

TOL = 1e-6
K_MAX = 100_000
N_FAULTS = 5
MIN_ROUNDS = 2
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_TOTAL_S = 3, 50, 2.0


@dataclass(frozen=True)
class Problem:
    name: str
    dims: tuple
    splits: tuple
    source: float = 1.0
    certify: bool = False


@dataclass(frozen=True)
class Op:
    """One solve: ``kind`` is async, async-faulted, cg, sync or cg-restart."""

    kind: str
    problem: str
    seed: int = 0
    delay_high: int = 0


def async_chaos(seed: int, toy: bool):
    if toy:
        problems = [Problem("2d-7x7-p4", (7, 7), (2, 2), certify=True),
                    Problem("1d-7-p2", (7,), (2,), certify=True)]
    else:
        problems = [Problem("2d-15x15-p8", (15, 15), (4, 2), certify=True),
                    Problem("1d-31-p8", (31,), (8,), certify=True),
                    Problem("3d-5x5x5-p8", (5, 5, 5), (2, 2, 2), certify=True)]
    n_seeds = 1 if toy else 5
    seeds = range(seed * n_seeds, (seed + 1) * n_seeds)
    return problems, [Op("async", p.name, s, 10) for p in problems for s in seeds]


def interface_ladder(seed: int, toy: bool):
    if toy:
        cg = [("2d-15x15-p4", (15, 15), (2, 2)), ("3d-7x7x7-p8", (7, 7, 7), (2, 2, 2))]
        sync = [("2d-15x15-p4s", (15, 15), (2, 2))]
    else:
        cg = [("2d-127x127-p64", (127, 127), (8, 8)), ("2d-255x255-p256", (255, 255), (16, 16)),
              ("3d-31x31x31-p64", (31, 31, 31), (4, 4, 4))]
        sync = [("2d-63x63-p16", (63, 63), (4, 4)), ("3d-15x15x15-p8", (15, 15, 15), (2, 2, 2))]
    # The seed draws each problem's constant source; the step counts move
    # only by the log of its ratio to 1, about a percent here.
    sources = np.random.default_rng(seed).uniform(0.9, 1.1, size=len(cg) + len(sync))
    problems = [Problem(name, dims, splits, float(g)) for (name, dims, splits), g in zip(cg + sync, sources)]
    ops = [Op("cg", p.name) for p in problems[: len(cg)]] + [Op("sync", p.name) for p in problems[len(cg):]]
    return problems, ops


def fault_resilience(seed: int, toy: bool):
    problem = Problem("2d-15x15-p8", (15, 15), (4, 2)) if toy else Problem("2d-31x31-p16", (31, 31), (4, 4))
    n_seeds = 1 if toy else 2
    ops = [Op("cg", problem.name), Op("cg-restart", problem.name)]
    for s in range(seed * n_seeds, (seed + 1) * n_seeds):
        ops += [Op("async", problem.name, s, 2), Op("async-faulted", problem.name, s, 2)]
    return [problem], ops


WORKLOADS = {"async-chaos": async_chaos, "interface-ladder": interface_ladder, "fault-resilience": fault_resilience}


def build(problem: Problem):
    """GridSpec to a ready SchurSystem and splitting, plus certificates if asked."""
    assembled = poisson.assemble(poisson.GridSpec(dims=problem.dims, source=problem.source))
    part = decomp.partition(assembled, problem.splits)
    system = solvers.SchurSystem.build(assembled, part)
    split = splitting.build_splitting(splitting.interface_diagonal(assembled, part), alpha=1.0)
    rho = splitting.certify_async(system.subdomains, system.imap, split) if problem.certify else None
    return system, split, rho


class SpeedGauge:
    """Fixed work of the benchmark's own, timed between operations.

    On shared 2-core hosts the same code runs up to twice as slow for
    stretches of 5 to 20 s, and process CPU time slows with it, so it is
    not descheduling.  Each operation's wall time is scaled by ``REF_S``
    over the mean gauge time just before and just after it: the result is
    the operation's time at the speed at which the gauge takes ``REF_S``.
    The gauge is a Python loop around small LAPACK solves and heap and
    dict updates, like the asynchronous runtime's worker steps (the
    ``"worker"`` part), then triangular solves over 64 dense 225x225 LU
    factors (the ``"lapack"`` part).  Each workload's set-up and solves are
    scaled by the part, or the whole, that tracked them best.  The gauge
    calls nothing in ``aschur``, so a change to the program does not move
    it.
    """

    # Round figures near each part's median on the 2-core reference machine.
    REF_S = {"whole": 0.020, "worker": 0.012, "lapack": 0.010}

    def __init__(self, setup_part: str, solve_part: str):
        self.setup_part, self.solve_part = setup_part, solve_part
        rng = np.random.default_rng(7)
        self.blocks = [scipy.linalg.lu_factor(rng.random((225, 225)) + 225 * np.eye(225)) for _ in range(64)]
        self.small = scipy.linalg.lu_factor(rng.random((24, 24)) + 24 * np.eye(24))
        self.mats = [rng.random((24, 24)) for _ in range(4)]
        self.measure()
        self.last = self.measure()

    def measure(self) -> dict:
        """Seconds taken by the whole gauge and by each of its parts."""
        t0 = time.perf_counter()
        self._worker_steps()
        t1 = time.perf_counter()
        u = np.ones(225)
        for lu in self.blocks:
            u = scipy.linalg.lu_solve(lu, u)
            u /= float(np.linalg.norm(u))
        t2 = time.perf_counter()
        return {"whole": t2 - t0, "worker": t1 - t0, "lapack": t2 - t1}

    def _worker_steps(self):
        heap, held = [], {}
        v = np.ones(24)
        for i in range(400):
            v = scipy.linalg.lu_solve(self.small, v)
            for j in range(4):
                heapq.heappush(heap, (i + (7 * i + j) % 5, i, j, v[j]))
            while heap and heap[0][0] <= i:
                _, k, j, value = heapq.heappop(heap)
                if held.get(j, (-1,))[0] < k:
                    held[j] = (k, value)
            w = self.mats[i & 3] @ v
            v = w / float(np.linalg.norm(w))

    def scale(self, part: str) -> float:
        """Reference-speed factor, by one part, for the operation that just ended."""
        before, self.last = self.last, self.measure()
        return self.REF_S[part] / (0.5 * (before[part] + self.last[part]))


def timed_setup(problems, gauge: SpeedGauge):
    """Build every problem several times; keep the last set and each duration.

    Durations are (wall seconds, seconds at the gauge's reference speed).
    """
    times = []
    built = None
    while len(times) < SETUP_MIN_REPS or (sum(t for _, t in times) < SETUP_MIN_TOTAL_S
                                         and len(times) < SETUP_MAX_REPS):
        built = None  # release the previous set before building the next
        t0 = time.perf_counter()
        built = {p.name: build(p) for p in problems}
        wall = time.perf_counter() - t0
        times.append((wall, wall * gauge.scale(gauge.setup_part)))
    return built, times


def fault_plan(cg_iterations: int, p: int):
    """Five single-worker resets at 90% multiples of the fault-free CG count."""
    triggers = [max(1, round(0.9 * cg_iterations * j)) for j in range(1, N_FAULTS + 1)]
    events = tuple(runtime.FaultEvent(victims=(j % p,), at_step=t) for j, t in enumerate(triggers))
    return runtime.FaultPlan(events=events)


class Runner:
    def __init__(self, built):
        self.built = built
        self.cg_iterations = {}

    def _config(self, op: Op, system):
        delay = runtime.DelayModel(kind="uniform", low=0, high=op.delay_high, reorder=True)
        faults = runtime.FaultPlan()
        if op.kind in ("async-faulted", "cg-restart"):
            faults = fault_plan(self.cg_iterations[op.problem], system.p)
        return runtime.RuntimeConfig(tol=TOL, k_max=K_MAX, seed=op.seed, delay=delay, faults=faults)

    def run(self, op: Op, rnd, count_messages: bool = False) -> dict:
        """One solve, timed; with ``count_messages`` an untimed traced simulator run."""
        system, split, _ = self.built[op.problem]
        rec = {"kind": op.kind, "problem": op.problem, "seed": op.seed, "round": rnd, "error": None}
        t0 = time.perf_counter()
        try:
            cfg = self._config(op, system)
            rec["faults_planned"] = len(cfg.faults.events)
            if count_messages:
                sim = runtime.AsyncSimulator(system, split, replace(cfg, trace=True))
                x, report = sim.run()
                rec["messages"] = message_counts(sim.trace, sim.t)
                rec["stale_discarded"] = sim.stale_discarded
            elif op.kind == "cg":
                x, report = solvers.cg_schur(system, tol=TOL, k_max=K_MAX)
            elif op.kind == "sync":
                x, report = solvers.sync_relaxation(system, split, tol=TOL, k_max=K_MAX)
            elif op.kind == "cg-restart":
                x, report = runtime.cg_with_restart(system, cfg)
            else:
                x, report = runtime.async_solve(system, split, cfg)
        except Exception:  # a failed solve is a counted outcome, not the end of the run
            rec["wall"] = time.perf_counter() - t0
            rec["error"] = traceback.format_exc()
            print(rec["error"], file=sys.stderr)
            return rec
        rec["wall"] = time.perf_counter() - t0
        if op.kind == "cg":
            self.cg_iterations[op.problem] = report.iterations_k
        rec.update(
            x=np.asarray(x), converged=report.converged, status=report.status,
            sim_steps=report.sim_steps, per_worker_k=list(report.per_worker_k),
            iterations_k=report.iterations_k, faults_injected=report.faults_injected,
            detection_events=list(report.detection_events or []),
            detection_residual=report.detection_residual,
        )
        return rec

    def round(self, ops, rnd, gauge: SpeedGauge) -> list[dict]:
        recs = []
        for op in ops:
            rec = self.run(op, rnd)
            rec["ref_wall"] = rec["wall"] * gauge.scale(gauge.solve_part)
            recs.append(rec)
        return recs


def message_counts(trace, t_end: int) -> dict:
    """Messages sent per tag, and delivered data shares that were never used.

    A worker keeps only the newest share per neighbour (latest wins), and
    every worker ingests at every step, so among the data envelopes one link
    delivers at one step only the newest can be adopted, and only if it is
    newer than the share already held; every other delivered one is
    superseded.  Envelopes still in flight at the end are not counted.
    """
    counts = {"data": 0, "residual-sync": 0, "reduction": 0}
    links = defaultdict(list)
    for rec in trace:
        if rec["type"] != "envelope":
            continue
        counts[rec["tag"]] = counts.get(rec["tag"], 0) + 1
        if rec["tag"] == "data" and rec["deliver"] < t_end:
            links[(rec["from"], rec["to"])].append((rec["deliver"], rec["inject"]))
    superseded = 0
    for batch in links.values():
        by_step = defaultdict(list)
        for deliver, inject in batch:
            by_step[deliver].append(inject)
        held = -1
        for step in sorted(by_step):
            newest = max(by_step[step])
            adopted = newest > held
            held = max(held, newest)
            superseded += len(by_step[step]) - (1 if adopted else 0)
    return {"data": counts["data"], "residual": counts["residual-sync"],
            "reduction": counts["reduction"], "data_superseded": superseded}


def problem_info(problems, built) -> list[dict]:
    out = []
    for p in problems:
        system, _, rho = built[p.name]
        A = system.problem.A
        out.append({
            "name": p.name, "dims": p.dims, "splits": p.splits, "source": p.source,
            "A": (A.row_offsets, A.col_indices, A.values), "b": system.problem.b,
            "interface": system.decomp.interface, "rho_async": rho,
        })
    return out


def round_totals(recs) -> tuple[float, float, int, int]:
    """(wall s, reference-speed s, sim steps, subdomain updates) of one round."""
    return (sum(r["wall"] for r in recs),
            sum(r["ref_wall"] for r in recs),
            sum(r.get("sim_steps", 0) for r in recs),
            sum(sum(r.get("per_worker_k", ())) for r in recs))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mb() -> float:
    """Resident memory now (Linux); elsewhere the peak so far."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return peak_rss_mb()


def timed_run(problems, ops, seconds: float, gauge: SpeedGauge) -> dict:
    """Timed set-up, then whole rounds."""
    base_mb = current_rss_mb()
    built, setup_times = timed_setup(problems, gauge)
    runner = Runner(built)
    recs, rounds = [], []
    t_start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - t_start < seconds:
        batch = runner.round(ops, len(rounds), gauge)
        recs += batch
        rounds.append(round_totals(batch))
    peak_mb = peak_rss_mb()
    metrics = {
        "setup_s": (statistics.median(t for _, t in setup_times), "s"),
        "solve_s": (statistics.median(s for _, s, _, _ in rounds), "s"),
        "sim_steps": (statistics.median(k for _, _, k, _ in rounds), "steps"),
        "updates_per_s": (statistics.median(u / s for _, s, _, u in rounds), "updates/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    print(f"# set-up wall s {statistics.median(w for w, _ in setup_times):.4f} over {len(setup_times)} reps;"
          f" rounds wall/reference s: " + ", ".join(f"{w:.3f}/{s:.3f}" for w, s, _, _ in rounds)
          + f"; peak RSS {peak_mb:.1f} MB, {peak_mb - base_mb:.2f} MB above the RSS before the first build",
          file=sys.stderr)
    return {"tol": TOL, "problems": problem_info(problems, built), "ops": recs, "metrics": metrics}


def traced_run(problems, ops, workload: str, seed: int, gauge: SpeedGauge) -> dict:
    """One traced set-up, one untraced and one traced round, then message counts.

    The tracing overhead is the traced round's solve time minus the
    untraced one's, both at the gauge's reference speed.
    """
    tracer = Tracer()
    tracer.install()
    try:
        built = {p.name: build(p) for p in problems}
    finally:
        tracer.uninstall()
    runner = Runner(built)
    plain = runner.round(ops, 0, gauge)
    tracer.install()
    try:
        traced = runner.round(ops, 1, gauge)
    finally:
        tracer.uninstall()
    counted = [runner.run(op, 2, count_messages=True) for op in ops if op.kind.startswith("async")]
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload}-seed{seed}.csv")
    overhead_s = sum(r["ref_wall"] for r in traced) - sum(r["ref_wall"] for r in plain)
    metrics = layer_metrics(tracer.summary(), traced, counted, overhead_s)
    return {"tol": TOL, "problems": problem_info(problems, built), "ops": plain + traced + counted,
            "metrics": metrics}


def layer_metrics(spans: dict, traced: list[dict], counted: list[dict], overhead_s: float) -> dict:
    """Per-layer metrics over one traced set-up and one traced round.

    ``<layer>.<name>_s`` is self time; ``runtime.confirm_s``,
    ``runtime.fault_inject_s``, ``runtime.cg_restart_s`` and the per-call
    or per-update times are inclusive.
    """
    def self_s(name):
        return spans[name]["self_s"] if name in spans else 0.0

    def incl_s(name):
        return spans[name]["incl_s"] if name in spans else 0.0

    def calls(name):
        return spans[name]["calls"] if name in spans else 0

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    ok = [r for r in traced if r["error"] is None]
    by_kind = defaultdict(list)
    for r in ok:
        by_kind[r["kind"]].append(r)
    asyncs = by_kind["async"] + by_kind["async-faulted"]
    cg_iters = sum(r["iterations_k"] for r in by_kind["cg"])
    restart_iters = sum(r["iterations_k"] for r in by_kind["cg-restart"])
    updates = sum(sum(r["per_worker_k"]) for r in asyncs)
    firings = [e for r in asyncs for e in r["detection_events"]]
    clean = {r["seed"]: r["sim_steps"] for r in by_kind["async"]}
    faulted = [(r["sim_steps"], clean[r["seed"]]) for r in by_kind["async-faulted"] if r["seed"] in clean]
    messages = defaultdict(int)
    for r in counted:
        if r["error"] is None and r["kind"] == "async":
            for key, value in r["messages"].items():
                messages[key] += value
    m = {}
    for name in ("poisson.assemble", "decomp.partition", "decomp.interface_map", "decomp.extract",
                 "splitting.diagonal", "splitting.build", "splitting.certify", "linalg.lu_factorize",
                 "solvers.schur_rhs"):
        m[name + "_s"] = (self_s(name), "s")
    for name in ("linalg.lu_solve", "linalg.spmv", "solvers.local_apply", "solvers.operator_apply",
                 "solvers.residual"):
        m[name + "_calls"] = (calls(name), "count")
        m[name + "_s"] = (self_s(name), "s")
    m.update({
        "solvers.cg_ms_per_iter": (per(incl_s("solvers.cg"), cg_iters, 1e3), "ms"),
        "solvers.cg_iterations": (cg_iters, "count"),
        "solvers.sync_sweeps": (sum(r["iterations_k"] for r in by_kind["sync"]), "count"),
        "runtime.async_s": (self_s("runtime.async"), "s"),
        "runtime.worker_updates": (updates, "count"),
        "runtime.us_per_update": (per(incl_s("runtime.async"), updates, 1e6), "us"),
        "runtime.messages_data": (messages["data"], "count"),
        "runtime.messages_residual": (messages["residual"], "count"),
        "runtime.messages_reduction": (messages["reduction"], "count"),
        "runtime.data_superseded": (messages["data_superseded"], "count"),
        "runtime.detection_rounds": (sum(r["iterations_k"] for r in asyncs), "count"),
        "runtime.confirmations": (len(firings), "count"),
        "runtime.premature_firings": (sum(1 for _, exact in firings if exact > TOL), "count"),
        "runtime.confirm_s": (incl_s("runtime.confirm"), "s"),
        "runtime.faults_injected": (sum(r["faults_injected"] for r in by_kind["async-faulted"]), "count"),
        "runtime.fault_inject_s": (incl_s("runtime.fault_inject"), "s"),
        "runtime.stale_discarded": (sum(r["stale_discarded"] for r in counted if r["error"] is None), "count"),
        "runtime.fault_step_ratio": (per(sum(f for f, _ in faulted), sum(c for _, c in faulted)), "ratio"),
        "runtime.cg_restart_s": (incl_s("runtime.cg_restart"), "s"),
        "runtime.cg_restart_iterations": (restart_iters, "count"),
        "runtime.cg_restart_ratio": (per(restart_iters, sum(r["iterations_k"] for r in by_kind["cg"])), "ratio"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)
    problems, ops = WORKLOADS[args.workload](args.seed, args.toy)
    gauge = SpeedGauge("whole", "lapack") if args.workload == "interface-ladder" else SpeedGauge("worker", "worker")
    if args.trace:
        result = traced_run(problems, ops, args.workload, args.seed, gauge)
    else:
        result = timed_run(problems, ops, args.seconds, gauge)
    pickle.dump(result, sys.stdout.buffer, protocol=pickle.HIGHEST_PROTOCOL)
    sys.stdout.buffer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
