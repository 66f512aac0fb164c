"""Experiment runner.

``aschur run config.json [--out DIR] [--seed N] [--deterministic]`` builds
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

from .decomp import decomposition_to_json, partition
from .linalg import write_matrix_market
from .poisson import GridSpec, assemble
from .runtime import DelayModel, FaultEvent, FaultPlan, RuntimeConfig, async_solve, cg_with_restart
from .solvers import SchurSystem, SolveReport, cg_schur, sync_relaxation, write_residual_history
from .splitting import CERTIFICATE_SIZE_LIMIT, build_splitting, certify, interface_diagonal, problem_hash

log = logging.getLogger("aschur")

SOLVER_CHOICES = ("sync", "async", "cg", "cg-restart", "all")


class ConfigError(ValueError):
    """Invalid run configuration; the message carries the offending key path."""


@dataclass(frozen=True)
class OutputOptions:
    directory: str = "."
    residual_csv: bool = True
    trace: bool = False
    export_matrix_market: bool = False
    decomposition_json: bool = False


@dataclass(frozen=True)
class RunSpec:
    """Validated contents of a run configuration file."""

    grid: GridSpec
    splits: tuple[int, ...]
    alpha: float = 1.0
    tol: float = 1e-6
    k_max: int = 10_000
    solver: str = "all"
    delay: DelayModel = field(default_factory=DelayModel)
    faults: FaultPlan = field(default_factory=FaultPlan)
    certify: bool = False
    deterministic: bool = True
    seed: int = 0
    activation: float = 1.0
    output: OutputOptions = field(default_factory=OutputOptions)


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


def _parse_delay(obj: dict, path: str) -> DelayModel:
    _expect_keys(obj, {"kind", "fixed", "low", "high", "table", "reorder", "seed"}, path)
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
            table[(src, dst)] = value
    try:
        return DelayModel(
            kind=kind,
            fixed=_get(obj, "fixed", int, path, default=0),
            low=_get(obj, "low", int, path, default=0),
            high=_get(obj, "high", int, path, default=0),
            table=table,
            reorder=_get(obj, "reorder", bool, path, default=False),
            seed=_get(obj, "seed", int, path, default=0),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_faults(obj: dict, path: str, p: int) -> FaultPlan:
    _expect_keys(obj, {"events", "recovery"}, path)
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
        return FaultPlan(events=tuple(events), recovery=_get(obj, "recovery", str, path, default="reset-to-initial"))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_run_spec(raw: dict, path: str = "config") -> RunSpec:
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _expect_keys(
        raw,
        {
            "grid", "splits", "alpha", "tol", "k_max", "solver", "delay",
            "faults", "certify", "deterministic", "seed", "activation", "output",
        },
        path,
    )
    grid_obj = _get(raw, "grid", dict, path, required=True)
    _expect_keys(grid_obj, {"dims", "spacing", "source"}, f"{path}.grid")
    dims = _get(grid_obj, "dims", list, f"{path}.grid", required=True)
    if not all(isinstance(d, int) and not isinstance(d, bool) for d in dims):
        raise ConfigError(f"{path}.grid.dims: extents must be integers")
    try:
        grid = GridSpec(
            dims=tuple(dims),
            spacing=float(_get(grid_obj, "spacing", (int, float), f"{path}.grid", default=1.0)),
            source=float(_get(grid_obj, "source", (int, float), f"{path}.grid", default=1.0)),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}.grid: {exc}") from exc
    splits = _get(raw, "splits", list, path, required=True)
    if not all(isinstance(s, int) and not isinstance(s, bool) and s >= 1 for s in splits):
        raise ConfigError(f"{path}.splits: counts must be positive integers")
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
        trace=_get(out_obj, "trace", bool, f"{path}.output", default=False),
        export_matrix_market=_get(out_obj, "export_matrix_market", bool, f"{path}.output", default=False),
        decomposition_json=_get(out_obj, "decomposition_json", bool, f"{path}.output", default=False),
    )
    tol = float(_get(raw, "tol", (int, float), path, default=1e-6))
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"{path}.tol: must be finite and positive, got {tol}")
    faults = _parse_faults(_get(raw, "faults", dict, path, default={}), f"{path}.faults", math.prod(splits))
    deterministic = _get(raw, "deterministic", bool, path, default=True)
    if faults.events and not deterministic and solver in ("async", "all"):
        raise ConfigError(f"{path}.faults: fault injection needs the deterministic runtime (deterministic: true)")
    return RunSpec(
        grid=grid,
        splits=tuple(splits),
        alpha=float(_get(raw, "alpha", (int, float), path, default=1.0)),
        tol=tol,
        k_max=_get(raw, "k_max", int, path, default=10_000),
        solver=solver,
        delay=_parse_delay(_get(raw, "delay", dict, path, default={}), f"{path}.delay"),
        faults=faults,
        certify=_get(raw, "certify", bool, path, default=False),
        deterministic=deterministic,
        seed=_get(raw, "seed", int, path, default=0),
        activation=float(_get(raw, "activation", (int, float), path, default=1.0)),
        output=output,
    )


def _read_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def load_run_spec(path) -> RunSpec:
    return parse_run_spec(_read_config(path), path=str(path))


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
            "tol": spec.tol,
            "k_max": spec.k_max,
            "seed": spec.seed,
            "deterministic": spec.deterministic,
            "solver": spec.solver,
        },
        "report": dataclasses.asdict(report),
        "certificates": dataclasses.asdict(certs) if certs is not None else None,
        "x_interface": [float(v) for v in x_g],
    }


def _summary_row(report: SolveReport, spec: RunSpec, system) -> list[str]:
    sizes = [s.n_interior + s.n_gamma for s in system.subdomains]
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
    out_dir.mkdir(parents=True, exist_ok=True)
    problem = assemble(spec.grid)
    decomp = partition(problem, spec.splits)
    system = SchurSystem.build(problem, decomp)
    split = build_splitting(interface_diagonal(problem, decomp), alpha=spec.alpha)
    phash = problem_hash(problem, decomp)
    certs = None
    if spec.certify:
        if problem.A.nrows <= CERTIFICATE_SIZE_LIMIT:
            split = certify(problem, decomp, system.subdomains, system.imap, split)
            certs = split.certificates
            log.info(
                "certificates: rho_async=%.6g rho_global=%.6g a_is_h=%s h_split_ok=%s",
                certs.rho_async, certs.rho_global, certs.a_is_h, certs.h_split_ok,
            )
        else:
            log.warning("problem too large for certificates (%d unknowns); running uncertified", problem.A.nrows)

    solvers = [spec.solver] if spec.solver != "all" else ["sync", "cg", "async", "cg-restart"]
    rcfg = RuntimeConfig(
        tol=spec.tol,
        k_max=spec.k_max,
        delay=spec.delay,
        faults=spec.faults,
        deterministic=spec.deterministic,
        seed=spec.seed,
        activation=spec.activation,
        trace=spec.output.trace,
    )
    rows = []
    all_ok = True
    for name in solvers:
        log.info("running solver %s", name)
        if name == "sync":
            x_g, report = sync_relaxation(system, split, tol=spec.tol, k_max=spec.k_max)
        elif name == "cg":
            x_g, report = cg_schur(system, tol=spec.tol, k_max=spec.k_max)
        elif name == "cg-restart":
            x_g, report = cg_with_restart(system, rcfg)
        else:
            if spec.output.trace and spec.deterministic:
                from .runtime import deterministic_replay

                replay = deterministic_replay(system, split, rcfg)
                x_g, report = replay.x_interface, replay.report
                (out_dir / "trace_async.jsonl").write_text("\n".join(replay.trace_lines) + "\n")
            else:
                x_g, report = async_solve(system, split, rcfg)
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
        write_matrix_market(out_dir / "matrix.mtx", problem.A)
        scipy.io.mmwrite(str(out_dir / "rhs.mtx"), problem.b.reshape(-1, 1), precision=16)
    if spec.output.decomposition_json:
        (out_dir / "decomposition.json").write_text(decomposition_to_json(decomp))
    return 0 if all_ok else 1


def cmd_run(args) -> int:
    # Command-line overrides go into the raw config so that validation sees
    # the settings that will actually run.
    try:
        raw = _read_config(args.config)
        if isinstance(raw, dict):
            if args.seed is not None:
                raw["seed"] = args.seed
            if args.deterministic:
                raw["deterministic"] = True
        spec = parse_run_spec(raw, path=str(args.config))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out) if args.out else Path(spec.output.directory)
    return run_from_spec(spec, out_dir)


def cmd_compare(args) -> int:
    reports = []
    for path in args.reports:
        try:
            with open(path) as fh:
                reports.append(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
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
    p_run.add_argument("--deterministic", action="store_true", help="force the deterministic runtime")
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
