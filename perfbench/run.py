#!/usr/bin/env python3
"""Solver benchmark: one workload per call, checked, one JSON line out.

    python3 perfbench/run.py --workload async-chaos --seed 0 --seconds 10 --trace 0

Run from the repository root (any directory works; paths are taken from
this file).  The workload runs in a child process (``workloads.py``) with
the BLAS pinned to one thread, so its peak memory and timings are its own.
This process then checks every solve against an independent reference
(``check.py``) and prints, as the last line of standard output::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": v, "unit": u}}}

``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer
ones from a separate traced run.  One operation is one solve; a solve that
raises or fails a check counts as failed.  ``correct`` is false only when a
problem-level check fails (assembly, partition or ``rho_async < 1``).
"""

from __future__ import annotations

import os

# Set before numpy loads, here and in the child that inherits the
# environment: OpenBLAS's default of one thread per core stalled small
# dense factorizations by about 0.15 s in some fresh processes on 2 cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from check import Reference, method_errors  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("async-chaos", "interface-ladder", "fault-resilience")
TIME_LIMIT_S = 170.0


def check(result: dict, tol: float) -> tuple[bool, int, list[str]]:
    """(correct, failed operations, messages) for one workload result."""
    notes = []
    refs, bad_problems = {}, set()
    for info in result["problems"]:
        ref = Reference.build(info["dims"], info["splits"], info["source"])
        errors = ref.problem_errors(info["A"], info["b"], info["interface"])
        if info["rho_async"] is not None and not info["rho_async"] < 1.0:
            errors.append(f"rho_async {info['rho_async']:.6f} is not below 1")
        if errors:
            bad_problems.add(info["name"])
            notes += [f"{info['name']}: {e}" for e in errors]
        refs[info["name"]] = ref
    failed = 0
    first = {}
    for op in result["ops"]:
        label = f"{op['kind']} {op['problem']} seed {op['seed']} round {op['round']}"
        if op["error"] is not None:
            errors = [op["error"].strip().splitlines()[-1]]
        else:
            errors = method_errors(op, tol) + refs[op["problem"]].solve_errors(op["x"], tol)
            key = (op["kind"], op["problem"], op["seed"])
            seen = first.setdefault(key, op)
            if (seen["sim_steps"], seen["per_worker_k"]) != (op["sim_steps"], op["per_worker_k"]):
                errors.append(f"repeat gave {op['sim_steps']} steps, first run {seen['sim_steps']}")
        if op["problem"] in bad_problems:
            errors.append("problem-level check failed")
        if errors:
            failed += 1
            notes += [f"{label}: {e}" for e in errors]
    return not bad_problems, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny problems, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (ROOT / "src" / "aschur" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'aschur'}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.toy:
        cmd.append("--toy")
    try:
        child = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=TIME_LIMIT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload did not finish within {TIME_LIMIT_S:.0f} s", file=sys.stderr)
        return 1
    if child.returncode != 0:
        print(f"perfbench: workload process exited with {child.returncode}", file=sys.stderr)
        return 1
    result = pickle.loads(child.stdout)

    correct, failed, notes = check(result, result["tol"])
    for note in notes:
        print(f"perfbench: {note}", file=sys.stderr)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    for name, m in metrics.items():
        print(f"# {args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"# {args.workload}: {len(result['ops'])} attempted, {failed} failed, "
          f"{time.perf_counter() - t0:.1f} s in all", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(result["ops"]), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
