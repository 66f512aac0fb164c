"""Experiment runner.

``aschur run config.json [--out DIR] [--seed N]`` builds
the grid problem described by a JSON config, partitions it, optionally
evaluates the convergence certificates, executes the requested solvers and
writes per-solver report JSON, residual-history CSV files and a summary CSV
whose columns mirror a solver comparison table:
solver,n,n_i_avg,p,t_sim_steps,k,k_max,final_residual.

``aschur compare a.json b.json ...`` prints a side-by-side CSV with a
step-count ratio against the first report; reports must stem from the same
problem (hash-checked).

The environment variable ASCHUR_LOG selects the log level
(error | info | trace).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.io

from .decomp import check_splits, decomposition_to_json, partition
from .linalg import DENSE_OP_LIMIT
from .poisson import GridSpec, assemble
from .runtime import AsyncSimulator, DelayModel, FaultEvent, FaultPlan, RuntimeConfig, cg_with_restart
from .solvers import SchurSystem, SolveReport, cg_schur, sync_relaxation, write_residual_history
from .splitting import build_splitting, certify, interface_diagonal, problem_hash

log = logging.getLogger("aschur")

SOLVER_CHOICES = ("sync", "async", "cg", "cg-restart", "all")


class ConfigError(ValueError):
    """Invalid run configuration; the message carries the offending key path."""


@dataclass(frozen=True)
class OutputOptions:
    dir: str = "."
    residual_csv: bool = True
    export_matrix_market: bool = False
    decomposition_json: bool = False


@dataclass(frozen=True)
class RunSpec:
    """Validated contents of a run configuration file."""

    grid: GridSpec
    splits: tuple[int, ...]
    alpha: float = 1.0
    solver: str = "all"
    certify: bool = False
    output: OutputOptions = field(default_factory=OutputOptions)
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)

    def __post_init__(self):
        # Each message starts with the field name, as RuntimeConfig's do.
        if not (self.alpha >= 1 and math.isfinite(self.alpha * self.grid.stencil[0])):
            raise ValueError(f"alpha must be at least 1 and keep alpha * 2d/h^2 finite, got {self.alpha}")
        if self.solver not in SOLVER_CHOICES:
            raise ValueError(f"solver must be one of {SOLVER_CHOICES}, got {self.solver!r}")


# One table per config section: every key it takes, with its JSON type.  A
# float takes any JSON number; list[int] is a list of integers.  Defaults and
# range checks belong to the type each section builds.
RUN_KEYS = {"grid": dict, "splits": list[int], "alpha": float, "solver": str, "certify": bool, "output": dict}
RUNTIME_KEYS = {"tol": float, "k_max": int, "seed": int, "activation": float, "delay": dict, "faults": dict}
GRID_KEYS = {"dims": list[int], "spacing": float, "source": float}
OUTPUT_KEYS = {"dir": str, "residual_csv": bool, "trace": bool,
               "export_matrix_market": bool, "decomposition_json": bool}
DELAY_KEYS = {"kind": str, "fixed": int, "low": int, "high": int, "table": dict, "reorder": bool}
FAULTS_KEYS = {"events": list}
EVENT_KEYS = {"victims": list[int], "at_step": int, "at_local_iteration": int}


def _section(obj, keys: dict, path: str, required=()) -> dict:
    """The keys a config object sets, each checked against its JSON type in ``keys``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - set(keys)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}.{key}: required key missing")
    return {key: _typed(value, keys[key], f"{path}.{key}") for key, value in obj.items()}


def _typed(value, kind, path: str):
    """``value`` as ``kind``: a number as a float, a list[int] as a tuple; a bool is not a number."""
    if typing.get_origin(kind) is list:
        (item,) = typing.get_args(kind)
        return tuple(_typed(v, item, f"{path}[{i}]") for i, v in enumerate(_typed(value, list, path)))
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"{path}: expected {kind.__name__}, got {type(value).__name__}")
    try:
        return float(value) if kind is float else value
    except OverflowError as exc:  # an integer too large for a float
        raise ConfigError(f"{path}: {exc}") from exc


def _build(make, path: str, **keys):
    """``make(**keys)``, a section's type or check; a ValueError becomes a ConfigError
    at ``path``, or at ``path.key`` when its message reads "<key> must ..." for a key
    given here."""
    try:
        return make(**keys)
    except ValueError as exc:
        key, sep, reason = str(exc).partition(" must ")
        if sep and key in keys:
            raise ConfigError(f"{path}.{key}: must {reason}") from exc
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_delay(obj, path: str, p: int) -> DelayModel:
    delay = _section(obj, DELAY_KEYS, path)
    if "table" in delay:
        table = {}
        for key, value in delay["table"].items():
            try:
                src, dst = (int(part) for part in key.split("->"))
            except ValueError as exc:
                raise ConfigError(f"{path}.table: link keys look like 'src->dst', got {key!r}") from exc
            if not (0 <= src < p and 0 <= dst < p and src != dst):
                raise ConfigError(f"{path}.table: link {key!r} does not join two of the {p} subdomains")
            table[(src, dst)] = _typed(value, int, f"{path}.table[{key!r}]")
        delay["table"] = table
    return _build(DelayModel, path, **delay)


def _parse_faults(obj, path: str, p: int) -> FaultPlan:
    faults = _section(obj, FAULTS_KEYS, path)
    if "events" in faults:
        events = []
        for idx, entry in enumerate(faults["events"]):
            epath = f"{path}.events[{idx}]"
            event = _section(entry, EVENT_KEYS, epath, required=("victims",))
            for v in event["victims"]:
                if not 0 <= v < p:
                    raise ConfigError(f"{epath}.victims: {v!r} is not a subdomain index in [0, {p})")
            events.append(_build(FaultEvent, epath, **event))
        faults["events"] = events
    return _build(FaultPlan, path, **faults)


def parse_run_spec(raw: dict, path: str = "config") -> RunSpec:
    """The run a raw JSON config describes; a ConfigError names the offending key path."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    run = _section(raw, RUN_KEYS | RUNTIME_KEYS, path, required=("grid", "splits"))
    runtime = {key: run.pop(key) for key in RUNTIME_KEYS if key in run}
    grid = _section(run["grid"], GRID_KEYS, f"{path}.grid", required=("dims",))
    run["grid"] = _build(GridSpec, f"{path}.grid", **grid)
    _build(check_splits, f"{path}.splits", dims=run["grid"].dims, splits=run["splits"])
    p = math.prod(run["splits"])
    if "output" in run:
        output = _section(run["output"], OUTPUT_KEYS, f"{path}.output")
        if "trace" in output:
            runtime["trace"] = output.pop("trace")
        run["output"] = OutputOptions(**output)
    if "delay" in runtime:
        runtime["delay"] = _parse_delay(runtime["delay"], f"{path}.delay", p)
    if "faults" in runtime:
        runtime["faults"] = _parse_faults(runtime["faults"], f"{path}.faults", p)
    run["runtime"] = _build(RuntimeConfig, path, **runtime)
    return _build(RunSpec, path, **run)


def _read_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _report_payload(report: SolveReport, x_g: np.ndarray, spec: RunSpec, system, certs, phash: str) -> dict:
    return {
        "solver": report.solver,
        "problem": {
            "dims": list(spec.grid.dims),
            "spacing": spec.grid.spacing,
            "source": spec.grid.source,
            "splits": list(spec.splits),
            "n": system.problem.A.nrows,
            "p": system.p,
            "n_interface": system.n_interface,
            "alpha": spec.alpha,
            "hash": phash,
        },
        "config": {
            "tol": spec.runtime.tol,
            "k_max": spec.runtime.k_max,
            "seed": spec.runtime.seed,
            "solver": spec.solver,
        },
        "report": dataclasses.asdict(report),
        "certificates": dataclasses.asdict(certs) if certs is not None else None,
        "x_interface": [float(v) for v in x_g],
    }


def _summary_row(report: SolveReport, system) -> list[str]:
    sizes = [len(rows_I) + len(rows_G) for rows_I, rows_G in zip(system.decomp.parts, system.decomp.local_interfaces)]
    n_i_avg = sum(sizes) / len(sizes)
    return [
        report.solver,
        str(system.problem.A.nrows),
        f"{n_i_avg:.17g}",
        str(system.p),
        str(report.sim_steps),
        str(report.iterations_k),
        str(report.k_max),
        f"{report.final_residual:.17g}",
    ]


def run_from_spec(spec: RunSpec, out_dir: Path) -> int:
    """Run the spec's solvers and write their files into ``out_dir``, an existing directory."""
    problem = assemble(spec.grid)
    decomp = partition(problem, spec.splits)
    system = SchurSystem.build(problem, decomp)
    split = build_splitting(interface_diagonal(problem, decomp), alpha=spec.alpha)
    phash = problem_hash(problem, decomp)
    certs = None
    if spec.certify:
        if problem.A.nrows <= DENSE_OP_LIMIT:
            certs = certify(system, split)
            log.info(
                "certificates: rho_async=%.6g rho_global=%.6g a_is_h=%s h_split_ok=%s",
                certs.rho_async, certs.rho_global, certs.a_is_h, certs.h_split_ok,
            )
        else:
            log.warning("problem too large for certificates (%d unknowns); running uncertified", problem.A.nrows)

    solvers = [spec.solver] if spec.solver != "all" else ["sync", "cg", "async", "cg-restart"]
    rcfg = spec.runtime
    rows = []
    all_ok = True
    for name in solvers:
        log.info("running solver %s", name)
        if name == "sync":
            x_g, report = sync_relaxation(system, split, tol=rcfg.tol, k_max=rcfg.k_max)
        elif name == "cg":
            x_g, report = cg_schur(system, tol=rcfg.tol, k_max=rcfg.k_max)
        elif name == "cg-restart":
            x_g, report = cg_with_restart(system, rcfg)
        else:
            sim = AsyncSimulator(system, split, rcfg)
            x_g, report = sim.run()
            if rcfg.trace:
                (out_dir / "trace_async.jsonl").write_text("\n".join(sim.trace_lines()) + "\n")
        payload = _report_payload(report, x_g, spec, system, certs, phash)
        (out_dir / f"report_{name}.json").write_text(json.dumps(payload, indent=2))
        if spec.output.residual_csv:
            write_residual_history(report, out_dir / f"residuals_{name}.csv")
        rows.append(_summary_row(report, system))
        log.info("solver %s: status=%s final_residual=%.3e", name, report.status, report.final_residual)
        all_ok = all_ok and report.converged

    header = "solver,n,n_i_avg,p,t_sim_steps,k,k_max,final_residual"
    lines = [header] + [",".join(row) for row in rows]
    (out_dir / "summary.csv").write_text("\n".join(lines) + "\n")

    if spec.output.export_matrix_market:
        # 17 significant digits: every float64 reads back bit for bit.
        scipy.io.mmwrite(str(out_dir / "matrix.mtx"), problem.A.csr.tocoo(), precision=17)
        scipy.io.mmwrite(str(out_dir / "rhs.mtx"), problem.b.reshape(-1, 1), precision=17)
    if spec.output.decomposition_json:
        (out_dir / "decomposition.json").write_text(decomposition_to_json(decomp))
    return 0 if all_ok else 1


def cmd_run(args) -> int:
    # Command-line overrides go into the raw config so that validation sees
    # the settings that will actually run.
    try:
        raw = _read_config(args.config)
        if isinstance(raw, dict) and args.seed is not None:
            raw["seed"] = args.seed
        spec = parse_run_spec(raw, path=str(args.config))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out) if args.out else Path(spec.output.dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        key = "--out" if args.out else f"{args.config}.output.dir"
        print(f"error: {out_dir}: {key} must name a directory ({exc.strerror})", file=sys.stderr)
        return 2
    return run_from_spec(spec, out_dir)


def _read_report(path) -> dict:
    """One report file; a ValueError says what it lacks."""
    with open(path) as fh:
        rec = json.load(fh)
    if not (isinstance(rec, dict) and isinstance(rec.get("problem"), dict) and isinstance(rec.get("report"), dict)):
        raise ValueError("not a report: expected a JSON object with 'problem' and 'report' objects")
    fields = ("solver", "converged", "sim_steps", "iterations_k", "k_max", "final_residual")
    missing = [f"report.{k}" for k in fields if k not in rec["report"]]
    if "hash" not in rec["problem"]:
        missing.append("problem.hash")
    if missing:
        raise ValueError(f"report lacks {', '.join(missing)}")
    rep = rec["report"]
    for key in fields[2:]:
        if not isinstance(rep[key], (int, float)) or isinstance(rep[key], bool):
            raise ValueError(f"report.{key}: expected a number, got {type(rep[key]).__name__}")
    if not isinstance(rep["converged"], bool):
        raise ValueError(f"report.converged: expected a boolean, got {type(rep['converged']).__name__}")
    return rec


def cmd_compare(args) -> int:
    reports = []
    for path in args.reports:
        try:
            reports.append(_read_report(path))
        except (OSError, ValueError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
    hashes = {r["problem"]["hash"] for r in reports}
    if len(hashes) != 1:
        print("error: reports stem from different problems (hash mismatch)", file=sys.stderr)
        return 2
    ref = reports[0]["report"]
    print("solver,t_sim_steps,k,k_max,final_residual,step_ratio")
    for rec in reports:
        rep = rec["report"]
        if rep["converged"] and ref["converged"] and ref["sim_steps"] > 0:
            ratio = f"{rep['sim_steps'] / ref['sim_steps']:.17g}"
        else:
            ratio = "NA"
        print(
            f"{rep['solver']},{rep['sim_steps']},{rep['iterations_k']},{rep['k_max']},"
            f"{rep['final_residual']:.17g},{ratio}"
        )
    return 0


def _setup_logging() -> None:
    level_name = os.environ.get("ASCHUR_LOG", "info").lower()
    level = {"error": logging.ERROR, "info": logging.INFO, "trace": logging.DEBUG}.get(level_name, logging.INFO)
    logging.basicConfig(level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(prog="aschur", description="grid decomposition experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the solvers described by a JSON config")
    p_run.add_argument("config", help="path to the run configuration (JSON)")
    p_run.add_argument("--out", help="output directory (defaults to output.dir from the config)")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="side-by-side CSV for two or more report files")
    p_cmp.add_argument("reports", nargs="+", help="report JSON files (at least two)")
    p_cmp.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    if args.command == "compare" and len(args.reports) < 2:
        print("error: compare needs at least two reports", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
