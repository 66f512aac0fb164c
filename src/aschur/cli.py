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
    directory: str = "."
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


def _expect_keys(obj: dict, allowed: set[str], path: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")


def _get(obj: dict, key: str, types, path: str, default=None, required=False):
    if key not in obj:
        if required:
            raise ConfigError(f"{path}.{key}: required key missing")
        return default
    val = obj[key]
    if not isinstance(val, types) or isinstance(val, bool) and bool not in (
        types if isinstance(types, tuple) else (types,)
    ):
        raise ConfigError(f"{path}.{key}: expected {types}, got {type(val).__name__}")
    return val


def _float(obj: dict, key: str, path: str, default: float) -> float:
    """A JSON number as a float; an integer too large for a float is a config error."""
    try:
        return float(_get(obj, key, (int, float), path, default=default))
    except OverflowError as exc:
        raise ConfigError(f"{path}.{key}: {exc}") from exc


def _parse_delay(obj: dict, path: str, p: int) -> DelayModel:
    _expect_keys(obj, {"kind", "fixed", "low", "high", "table", "reorder"}, path)
    kind = _get(obj, "kind", str, path, default="zero")
    table = None
    if "table" in obj:
        raw = _get(obj, "table", dict, path)
        table = {}
        for key, value in raw.items():
            try:
                src, dst = (int(part) for part in key.split("->"))
            except ValueError as exc:
                raise ConfigError(f"{path}.table: link keys look like 'src->dst', got {key!r}") from exc
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{path}.table[{key!r}]: delay must be an integer")
            if not (0 <= src < p and 0 <= dst < p and src != dst):
                raise ConfigError(f"{path}.table: link {key!r} does not join two of the {p} subdomains")
            table[(src, dst)] = value
    try:
        return DelayModel(
            kind=kind,
            fixed=_get(obj, "fixed", int, path, default=0),
            low=_get(obj, "low", int, path, default=0),
            high=_get(obj, "high", int, path, default=0),
            table=table,
            reorder=_get(obj, "reorder", bool, path, default=False),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_faults(obj: dict, path: str, p: int) -> FaultPlan:
    _expect_keys(obj, {"events"}, path)
    events = []
    for idx, entry in enumerate(_get(obj, "events", list, path, default=[])):
        epath = f"{path}.events[{idx}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{epath}: expected an object")
        _expect_keys(entry, {"victims", "at_step", "at_local_iteration"}, epath)
        victims = _get(entry, "victims", list, epath, required=True)
        for v in victims:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < p:
                raise ConfigError(f"{epath}.victims: {v!r} is not a subdomain index in [0, {p})")
        try:
            events.append(
                FaultEvent(
                    victims=tuple(victims),
                    at_step=_get(entry, "at_step", int, epath),
                    at_local_iteration=_get(entry, "at_local_iteration", int, epath),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{epath}: {exc}") from exc
    try:
        return FaultPlan(events=tuple(events))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_run_spec(raw: dict, path: str = "config") -> RunSpec:
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _expect_keys(
        raw,
        {
            "grid", "splits", "alpha", "tol", "k_max", "solver", "delay",
            "faults", "certify", "seed", "activation", "output",
        },
        path,
    )
    grid_obj = _get(raw, "grid", dict, path, required=True)
    _expect_keys(grid_obj, {"dims", "spacing", "source"}, f"{path}.grid")
    dims = _get(grid_obj, "dims", list, f"{path}.grid", required=True)
    if not all(isinstance(d, int) and not isinstance(d, bool) for d in dims):
        raise ConfigError(f"{path}.grid.dims: extents must be integers")
    spacing = _float(grid_obj, "spacing", f"{path}.grid", default=1.0)
    source = _float(grid_obj, "source", f"{path}.grid", default=1.0)
    try:
        grid = GridSpec(dims=tuple(dims), spacing=spacing, source=source)
    except ValueError as exc:
        raise ConfigError(f"{path}.grid: {exc}") from exc
    splits = _get(raw, "splits", list, path, required=True)
    if not all(isinstance(s, int) and not isinstance(s, bool) for s in splits):
        raise ConfigError(f"{path}.splits: counts must be integers")
    try:
        check_splits(grid.dims, splits)
    except ValueError as exc:
        raise ConfigError(f"{path}.splits: {exc}") from exc
    solver = _get(raw, "solver", str, path, default="all")
    if solver not in SOLVER_CHOICES:
        raise ConfigError(f"{path}.solver: must be one of {SOLVER_CHOICES}")
    out_obj = _get(raw, "output", dict, path, default={})
    _expect_keys(
        out_obj,
        {"dir", "residual_csv", "trace", "export_matrix_market", "decomposition_json"},
        f"{path}.output",
    )
    output = OutputOptions(
        directory=_get(out_obj, "dir", str, f"{path}.output", default="."),
        residual_csv=_get(out_obj, "residual_csv", bool, f"{path}.output", default=True),
        export_matrix_market=_get(out_obj, "export_matrix_market", bool, f"{path}.output", default=False),
        decomposition_json=_get(out_obj, "decomposition_json", bool, f"{path}.output", default=False),
    )
    alpha = _float(raw, "alpha", path, default=1.0)
    if not (alpha >= 1 and math.isfinite(alpha * grid.stencil[0])):
        raise ConfigError(f"{path}.alpha: must be at least 1 and keep alpha * 2d/h^2 finite, got {alpha}")
    p = math.prod(splits)
    delay = _parse_delay(_get(raw, "delay", dict, path, default={}), f"{path}.delay", p)
    faults = _parse_faults(_get(raw, "faults", dict, path, default={}), f"{path}.faults", p)
    trace = _get(out_obj, "trace", bool, f"{path}.output", default=False)
    settings = dict(
        tol=_float(raw, "tol", path, default=1e-6),
        k_max=_get(raw, "k_max", int, path, default=10_000),
        seed=_get(raw, "seed", int, path, default=0),
        activation=_float(raw, "activation", path, default=1.0),
    )
    try:
        runtime = RuntimeConfig(delay=delay, faults=faults, trace=trace, **settings)
    except ValueError as exc:
        key, _, reason = str(exc).partition(" ")
        raise ConfigError(f"{path}.{key}: {reason}") from exc
    return RunSpec(
        grid=grid,
        splits=tuple(splits),
        alpha=alpha,
        solver=solver,
        certify=_get(raw, "certify", bool, path, default=False),
        output=output,
        runtime=runtime,
    )


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


def _summary_row(report: SolveReport, spec: RunSpec, system) -> list[str]:
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
            certs = certify(problem, decomp, system.subdomains, system.imap, split)
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
        rows.append(_summary_row(report, spec, system))
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
    out_dir = Path(args.out) if args.out else Path(spec.output.directory)
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
    level = {"error": logging.ERROR, "info": logging.INFO, "trace": logging.DEBUG}.get(level_name)
    if level is None:
        level = logging.INFO
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
