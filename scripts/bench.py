#!/usr/bin/env python3
"""Write one BENCH file: every benchmark workload over fixed seeds.

    python3 scripts/bench.py

Runs ``perfbench/run.py --trace 0`` once per workload of
``BENCHMARK.json`` and seed 0, 1 and 2, for the benchmark's
``run_seconds``, and writes ``BENCH_<n>.json`` at the repository root,
where n is the next free number.  The file holds, per workload and
end-to-end metric, the median and quartiles over the seeds and the
per-seed values; the attempted and failed operations; the line count of
``src/``; the git revision (``-dirty`` with uncommitted changes); the
numpy and scipy versions; the CPU count; and the BLAS thread setting of
the runs.  It also times one run of the tier-1 suite (``python -m pytest -q
--continue-on-collection-errors`` with ``src`` on ``PYTHONPATH`` and the
same BLAS setting and ``--durations=0``) and records its wall time as
``tier1_s``, the counts from its summary line as ``tier1_counts``, and the
set-up time of ``test_criterion_4_async_convergence_under_chaos`` (the
chaos fixture, the suite's largest single cost) as ``chaos_fixture_s``
(null if the run reports none).

Per workload it also makes one profile pass: ``perfbench/workloads.py
--seed 0 --seconds 0 --trace 0`` (set-up and the two minimum rounds) under
cProfile, in a process of its own, and records under ``layers`` the call
count and the self and cumulative seconds of each function in ``LAYERS``,
from the set-up (assembly, partition, interface map, the stacked blocks with
their row gather and interior factors, the interface diagonal, the
asynchronous certificate with the update blocks it shares with the
explicit asynchronous update) through the
interior solves, the operator apply and the stopping residual to the
asynchronous worker's ingest, update, detection and send.  Profiling
inflates these times, so they are for comparing layers and commits, not
for the end-to-end figures.  The
two interior solves run their products in one shared helper, so read
their cumulative time.  A workload may leave a layer at zero calls (the ladder runs no
asynchronous solve), but a listed function that no workload calls is
stale, and the script fails before writing the file.

Under ``rungs`` it records the large rungs, each seed in a process of
its own (``python3 scripts/bench.py --rung NAME --seed S`` prints one such
run): CG on 511²/8×8 and 47³/2×2×2, whose interior blocks stay on
SuperLU, and asynchronous runs on 63²/8×8 and 127²/8×8 (p = 64, 7² and
15² interior blocks, uniform(0, 2) delays with reordering, the seed its
``RuntimeConfig.seed``), the only runs that reach the 2p² detection slots
at that size; the larger blocks are where solving only the coupled
interior rows saves most.  Both p = 64 rungs take the factored update
(``runtime.EXPLICIT_UPDATE_LIMIT``).  CG takes no seed, so its three runs
repeat one solve.  Each rung records, per metric, the median,
quartiles and per-seed values of ``setup_s`` (assembly to a ready
system), ``solve_s``, ``peak_rss_mb`` of its process and the iterations
(CG) or ``sim_steps`` and ``us_per_step`` (async); every solve must
converge to tol 1e-6.  The delay rung, 15²/4×2 under fixed delays of 10,
1,000 and 20,000 (``--rung delay-15x15-p8 --delay D`` runs one), records
per delay ``us_per_step`` over 3,000 steps after the first D + 50, the
ring's row count and ``peak_rss_mb``, one process per delay and seed: a
step's cost should not grow with the delay bound.  It takes the explicit
update.

About 9 minutes on 2 cores, 2 of them the tier-1 run, half a minute the
profile passes and about a minute the rungs.

    python3 scripts/bench.py --against REV

measures a change against REV instead, and a perf change quotes its claim
from this file.  It checks REV out into a temporary ``git worktree``
(removed afterwards; no network), then per workload alternates
``perfbench/run.py --trace 0`` runs of REV and of the working tree, each
with its own ``perfbench/``, in ``PAIRS`` (10) pairs: seed i on pair i, REV
first on even i.  The BENCH file's ``pairs`` key holds REV's commit and, per
workload, both sides' attempted and failed operations and, per end-to-end
metric, both sides' median, quartiles and per-pair values and the pairs the
change wins (ties count for neither), and ``sim_steps_equal``, whether the
step counts matched in every pair.  It makes no rung, profile or tier-1 run.
Ten pairs take about 16 minutes.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pstats
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # LAYERS resolve to the functions the workload process loads from here
CHAOS_FIXTURE = "tests/test_acceptance.py::test_criterion_4_async_convergence_under_chaos"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SEEDS = (0, 1, 2)
PAIRS = 10  # alternating runs of REV and of the working tree per workload, with --against
LAYERS = ("poisson.assemble", "decomp.partition", "decomp.build_interface_map", "decomp.stack_blocks",
          "linalg.gather_rows", "decomp.InteriorFactors.__init__", "splitting.interface_diagonal",
          "splitting.certify_async", "decomp.LocalSubdomain.update_block", "decomp.cut_local_space",
          "decomp.InteriorFactors.solve", "decomp.InteriorFactors.solve_coupled", "linalg.matvec",
          "solvers.apply_interface_operator", "solvers.global_residual", "runtime.AsyncSimulator._ingest",
          "runtime.AsyncSimulator._update", "runtime.AsyncSimulator._detect", "runtime.AsyncSimulator._send")
RUNGS = {  # name: grid, splits, solver
    "cg-511x511-p64": ((511, 511), (8, 8), "cg"),
    "cg-47x47x47-p8": ((47, 47, 47), (2, 2, 2), "cg"),
    "async-63x63-p64": ((63, 63), (8, 8), "async"),
    "async-127x127-p64": ((127, 127), (8, 8), "async"),
    "delay-15x15-p8": ((15, 15), (4, 2), "delay"),
}
RUNG_TOL = 1e-6
RUNG_DELAYS = (10, 1000, 20_000)  # the delay rung's fixed delays
RUNG_DELAY_STEPS = 3000


def run_once(workload: str, seed: int, seconds: int, env: dict, root: Path = ROOT) -> dict:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         check=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def profile_key(layer: str) -> tuple[str, int, str]:
    """The profiler's key of a function in ``LAYERS``: its file, first line and name."""
    module, *attrs = layer.split(".")
    obj = importlib.import_module(f"aschur.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    code = obj.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def profile_layers(workload: str, env: dict) -> dict:
    """Calls and self and cumulative seconds of each function in ``LAYERS`` over one profiled seed-0 run."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "profile")
        cmd = [sys.executable, "-m", "cProfile", "-o", out, str(ROOT / "perfbench" / "workloads.py"),
               "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "0"]
        subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
        stats = pstats.Stats(out).stats
    layers = {}
    for layer in LAYERS:
        _, calls, self_s, cum_s, _ = stats.get(profile_key(layer), (0, 0, 0.0, 0.0, None))
        layers[layer] = {"calls": calls, "self_s": self_s, "cum_s": cum_s}
    return layers


def run_tier1(env: dict) -> tuple[float, dict, float | None]:
    """Wall time of one tier-1 run, the counts of its summary line (passed, failed, errors, ...) and
    the chaos fixture's set-up time from its durations report."""
    path = os.pathsep.join([str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=0"]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, env={**env, "PYTHONPATH": path}, stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT, text=True)
    seconds = time.perf_counter() - t0
    last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed)", last)}
    fixture = re.search(rf"([\d.]+)s setup\s+{re.escape(CHAOS_FIXTURE)}\s*$", out.stdout, re.MULTILINE)
    return seconds, {"exit": out.returncode, **counts}, float(fixture.group(1)) if fixture else None


def rung_once(name: str, seed: int, delay: int) -> dict:
    """One rung in this process: set-up to a ready system, one solve (or, on the delay rung, the timed
    steps at a fixed ``delay``), and the process's peak RSS."""
    from aschur import (GridSpec, SchurSystem, assemble, async_solve, build_splitting, cg_schur, interface_diagonal,
                        partition)
    from aschur.runtime import AsyncSimulator, DelayModel, RuntimeConfig

    dims, splits, solver = RUNGS[name]
    t0 = time.perf_counter()
    problem = assemble(GridSpec(dims=dims))
    decomp = partition(problem, splits)
    system = SchurSystem.build(problem, decomp)
    if solver != "cg":
        split = build_splitting(interface_diagonal(problem, decomp), alpha=1.0)
        system.local_space, system.links  # built once per system, before its first run
    t1 = time.perf_counter()
    if solver == "delay":  # steps at a fixed delay, never converging
        cfg = RuntimeConfig(tol=1e-300, k_max=100_000, seed=seed, delay=DelayModel(kind="fixed", fixed=delay))
        sim = AsyncSimulator(system, split, cfg)
        for _ in range(delay + 50):
            sim.step()
        t2 = time.perf_counter()
        for _ in range(RUNG_DELAY_STEPS):
            sim.step()
        return {"setup_s": t1 - t0, "us_per_step": 1e6 * (time.perf_counter() - t2) / RUNG_DELAY_STEPS,
                "ring_rows": len(sim._inj), "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if solver == "cg":
        _, report = cg_schur(system, tol=RUNG_TOL, k_max=100_000)
    else:
        uniform = DelayModel(kind="uniform", low=0, high=2, reorder=True)
        _, report = async_solve(system, split, RuntimeConfig(tol=RUNG_TOL, k_max=100_000, seed=seed, delay=uniform))
    solve_s = time.perf_counter() - t1
    if not (report.converged and report.final_residual <= RUNG_TOL):
        sys.exit(f"bench: rung {name} seed {seed} ended {report.status} at {report.final_residual:.3e}")
    run = {"setup_s": t1 - t0, "solve_s": solve_s,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}  # Linux reports KiB
    if solver == "cg":
        return {**run, "iterations": report.iterations_k}
    return {**run, "sim_steps": report.sim_steps, "us_per_step": 1e6 * solve_s / report.sim_steps}


def run_rung(name: str, seed: int, env: dict, delay: int = 0) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--rung", name, "--seed", str(seed), "--delay", str(delay)]
    out = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, check=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_pairs(rev: str, bench: dict, env: dict) -> dict:
    """Per workload, ``PAIRS`` alternating runs of ``rev`` (checked out into a temporary worktree) and of
    the working tree: seed i on pair i, ``rev`` first on even i."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, stdout=subprocess.PIPE,
                         check=True, text=True).stdout.strip()
    workloads = {}
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "against"
        subprocess.run(["git", "worktree", "add", "--detach", str(tree), sha], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            for workload in (w["name"] for w in bench["workloads"]):
                runs = {"against": [], "change": []}
                for i in range(PAIRS):
                    sides = [("against", tree), ("change", ROOT)]
                    for side, root in sides if i % 2 == 0 else sides[::-1]:
                        runs[side].append(run_once(workload, i, bench["run_seconds"], env, root))
                workloads[workload] = compare(runs, bench)
                print(f"bench: {workload} pairs done", file=sys.stderr)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(tree)], cwd=ROOT, check=True)
    return {"against": sha, "pairs": PAIRS, "workloads": workloads}


def compare(runs: dict, bench: dict) -> dict:
    """Both sides' failures and, per end-to-end metric, summaries and the pairs the change wins."""
    out = {side: {"attempted": sum(r["attempted"] for r in rs), "failed": sum(r["failed"] for r in rs),
                  "correct": all(r["correct"] for r in rs)} for side, rs in runs.items()}
    out["metrics"] = {}
    for metric in bench["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        before, after = ([r["metrics"][name]["value"] for r in runs[side]] for side in ("against", "change"))
        out["metrics"][name] = {"unit": metric["unit"], "against": summary(before), "change": summary(after),
                                "wins": sum(sign * (old - new) > 0 for old, new in zip(before, after))}
    steps = out["metrics"]["sim_steps"]
    out["sim_steps_equal"] = steps["against"]["values"] == steps["change"]["values"]
    return out


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def next_path() -> Path:
    n = 1
    while (ROOT / f"BENCH_{n}.json").exists():
        n += 1
    return ROOT / f"BENCH_{n}.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rung", choices=RUNGS, help="run one rung in this process and print it as JSON")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--delay", type=int, default=0, help="the fixed delay of a delay-rung run")
    parser.add_argument("--against", metavar="REV", help="pair every workload's runs with those of REV instead")
    args = parser.parse_args()
    if args.rung:
        print(json.dumps(rung_once(args.rung, args.seed, args.delay)))
        return 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = {**os.environ, **{var: "1" for var in BLAS_VARS}}  # what perfbench/run.py pins as well
    revision = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=12"], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True).stdout.strip()  # "-dirty": uncommitted changes
    result = {
        "revision": revision,
        "src_lines": sum(len(path.read_text().splitlines()) for path in sorted((ROOT / "src").rglob("*.py"))),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: env[var] for var in BLAS_VARS},
        "run_seconds": bench["run_seconds"],
    }
    if args.against:
        result["pairs"] = run_pairs(args.against, bench, env)
        return write(result)
    workloads = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, seed, bench["run_seconds"], env) for seed in SEEDS]
        workloads[workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "metrics": {m["name"]: {"unit": m["unit"], **summary([r["metrics"][m["name"]]["value"] for r in runs])}
                        for m in bench["end_to_end"]},
            "layers": profile_layers(workload, env),
        }
        print(f"bench: {workload} done", file=sys.stderr)
    stale = [layer for layer in LAYERS if not any(w["layers"][layer]["calls"] for w in workloads.values())]
    if stale:
        sys.exit(f"bench: no workload calls {', '.join(stale)}; update LAYERS")
    rungs = {}
    for name in RUNGS:
        if RUNGS[name][2] == "delay":
            rungs[name] = {}
            for delay in RUNG_DELAYS:
                runs = [run_rung(name, seed, env, delay) for seed in SEEDS]
                rungs[name][f"fixed-{delay}"] = {metric: summary([r[metric] for r in runs]) for metric in runs[0]}
        else:
            runs = [run_rung(name, seed, env) for seed in SEEDS]
            rungs[name] = {metric: summary([r[metric] for r in runs]) for metric in runs[0]}
        print(f"bench: rung {name} done", file=sys.stderr)
    tier1_s, tier1_counts, chaos_fixture_s = run_tier1(env)
    print(f"bench: tier-1 done, {tier1_counts}", file=sys.stderr)
    result.update(seeds=list(SEEDS), workloads=workloads, rungs=rungs, tier1_s=tier1_s, tier1_counts=tier1_counts,
                  chaos_fixture_s=chaos_fixture_s)
    return write(result)


def write(result: dict) -> int:
    path = next_path()
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"bench: wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
