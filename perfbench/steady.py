#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of the same code.

    python3 perfbench/steady.py [--runs 10] [--workloads async-chaos ...]

It runs two sets.  Each set runs ``run.py`` once per workload and seed
(seeds ``--first-seed`` onwards, the same seeds in every set) for the
``run_seconds`` and with the bounds of ``BENCHMARK.json``.  For every workload and end-to-end metric it
prints each set's median and spread (interquartile distance over median,
as ``statistics.quantiles(n=4)`` gives it).  A metric is steady when both
spreads are within its bound and the two medians differ, in either
direction, by at most the bound times the first.  ``sim_steps`` must repeat
exactly per seed, and the failed share must be equal across sets.  Raw
results go to ``perfbench/out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    args = parser.parse_args(argv)

    seeds = range(args.first_seed, args.first_seed + args.runs)
    results = {w: [] for w in args.workloads}
    for s in range(SETS):
        for w in args.workloads:
            runs = []
            for seed in seeds:
                runs.append(run_once(w, seed, bench["run_seconds"]))
                m = runs[-1]["metrics"]
                print(f"set {s} {w} seed {seed}: " + " ".join(f"{k}={v['value']:.5g}" for k, v in m.items()),
                      flush=True)
            results[w].append(runs)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "steady.json").write_text(json.dumps(results, indent=1))

    ok = True
    print(f"\n{'workload':18} {'metric':14} {'median 1':>12} {'median 2':>12} {'spread 1':>9} {'spread 2':>9}"
          f" {'bound':>6} {'shift':>7}  verdict")
    for w, sets in results.items():
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            meds = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals]
            shift = abs(meds[1] - meds[0]) / meds[0]
            steady = all(sp <= bound for sp in spreads) and shift <= bound
            verdict = "ok" if steady else "NOT STEADY"
            if steady and max(spreads) >= bound / 3:
                verdict = "ok, spread above a third of the bound"
            ok &= verdict.startswith("ok")
            print(f"{w:18} {name:14} {meds[0]:12.5g} {meds[1]:12.5g} {spreads[0]:9.4f} {spreads[1]:9.4f}"
                  f" {bound:6.3f} {shift:7.4f}  {verdict}")
        steps = [[r["metrics"]["sim_steps"]["value"] for r in runs] for runs in sets]
        failed = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
        repeat = all(s == steps[0] for s in steps)
        ok &= repeat and len(set(failed)) == 1
        print(f"{w:18} sim_steps per seed {'repeat' if repeat else 'DIFFER'}; failed share {failed}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
