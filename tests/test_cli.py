import dataclasses
import json
import logging
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aschur import AsyncSimulator, GridSpec, SchurSystem, assemble, build_splitting, interface_diagonal, partition
from aschur.cli import SOLVER_CHOICES, ConfigError, OutputOptions, RunSpec, _setup_logging, main, parse_run_spec
from aschur.runtime import DelayModel, FaultEvent, FaultPlan, RuntimeConfig

CONFIG_DIR = Path(__file__).resolve().parent.parent / "scripts" / "configs"


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "grid": {"dims": [3], "spacing": 1.0, "source": 1.0},
        "splits": [2],
        "alpha": 1.0,
        "tol": 1e-6,
        "k_max": 10000,
        "solver": "all",
        "seed": 1,
        "certify": True,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_minimal_run_all_solvers(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    for solver in ("sync", "cg", "async", "cg-restart"):
        payload = json.loads((out / f"report_{solver}.json").read_text())
        assert payload["report"]["converged"]
        assert payload["report"]["final_residual"] <= 1e-6
        np.testing.assert_allclose(payload["x_interface"], [2.0], atol=1e-6)
        assert (out / f"residuals_{solver}.csv").exists()
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "solver,n,n_i_avg,p,t_sim_steps,k,k_max,final_residual"
    assert len(summary) == 5


def test_certificates_present_when_requested(tmp_path):
    cfg = write_config(tmp_path, solver="sync", certify=True)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "report_sync.json").read_text())
    certs = payload["certificates"]
    assert certs is not None
    assert certs["rho_async"] == pytest.approx(0.5, abs=1e-8)
    assert certs["a_is_h"] and certs["h_split_ok"]


def test_certificates_when_leading_eigenvalues_nearly_tie(tmp_path):
    # T is 3x3 with eigenvalues 0.566999, 0.566987 and 0.566975; the radius
    # must still come out exact.
    cfg = write_config(tmp_path, grid={"dims": [33, 1]}, splits=[4, 1], alpha=2.0, solver="cg", certify=True)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    certs = json.loads((out / "report_cg.json").read_text())["certificates"]
    assert certs["rho_async"] == pytest.approx(0.566999209432122, abs=1e-12)
    assert certs["rho_global"] == pytest.approx(0.609859985872454, abs=1e-12)


def test_fault_scenario_emits_paired_reports(tmp_path):
    cfg = write_config(
        tmp_path,
        grid={"dims": [9, 9], "spacing": 1.0, "source": 1.0},
        splits=[2, 2],
        solver="all",
        certify=False,
        faults={"events": [
            {"victims": [0], "at_step": 4},
            {"victims": [1], "at_step": 8},
            {"victims": [2], "at_step": 12},
            {"victims": [3], "at_step": 16},
            {"victims": [0], "at_step": 20},
        ]},
    )
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    for solver in ("async", "cg-restart"):
        payload = json.loads((out / f"report_{solver}.json").read_text())
        assert payload["report"]["converged"]
        assert payload["report"]["faults_injected"] == 5


def test_summary_csv_is_byte_identical_for_same_seed(tmp_path):
    cfg = write_config(tmp_path, solver="async", certify=False,
                       delay={"kind": "uniform", "low": 0, "high": 4, "reorder": True})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(out_a)]) == 0
    assert main(["run", str(cfg), "--out", str(out_b)]) == 0
    assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()


def test_summary_residuals_match_recomputation(tmp_path):
    from aschur import GridSpec, SchurSystem, assemble, global_residual, partition

    cfg = write_config(tmp_path, grid={"dims": [7, 7]}, splits=[2, 2], solver="all", certify=False)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    problem = assemble(GridSpec(dims=(7, 7)))
    decomp = partition(problem, (2, 2))
    system = SchurSystem.build(problem, decomp)
    rows = (out / "summary.csv").read_text().strip().splitlines()[1:]
    for row in rows:
        fields = row.split(",")
        solver, reported = fields[0], float(fields[-1])
        payload = json.loads((out / f"report_{solver}.json").read_text())
        x = np.asarray(payload["x_interface"])
        recomputed = global_residual(system, x)
        assert abs(recomputed - reported) <= 1e-12


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, solver="async", certify=False,
                       delay={"kind": "uniform", "low": 1, "high": 6, "reorder": True},
                       grid={"dims": [15]}, splits=[4])
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(out_a), "--seed", "11"]) == 0
    assert main(["run", str(cfg), "--out", str(out_b), "--seed", "12"]) == 0
    a = json.loads((out_a / "report_async.json").read_text())
    b = json.loads((out_b / "report_async.json").read_text())
    assert a["config"]["seed"] == 11 and b["config"]["seed"] == 12
    assert a["report"]["per_worker_k"] != b["report"]["per_worker_k"] or a["x_interface"] != b["x_interface"]


def test_exports(tmp_path):
    # Neither 1/0.7**2 nor sqrt(2) survives 16 significant digits.
    cfg = write_config(
        tmp_path, solver="sync", certify=False, grid={"dims": [3], "spacing": 0.7, "source": 2**0.5},
        output={"export_matrix_market": True, "decomposition_json": True},
    )
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert (out / "matrix.mtx").exists()
    decomp = json.loads((out / "decomposition.json").read_text())
    assert decomp["p"] == 2
    import scipy.io

    problem = assemble(GridSpec(dims=(3,), spacing=0.7, source=2**0.5))
    back = scipy.io.mmread(out / "matrix.mtx")
    np.testing.assert_array_equal(back.toarray(), problem.A.csr.toarray())
    rhs = np.asarray(scipy.io.mmread(out / "rhs.mtx")).ravel()
    np.testing.assert_array_equal(rhs, problem.b)


def test_trace_written_for_async(tmp_path):
    cfg = write_config(tmp_path, solver="async", certify=False, output={"trace": True})
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    lines = (out / "trace_async.jsonl").read_text().strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert any(rec["type"] == "envelope" for rec in records)
    assert any(rec["type"] == "step" for rec in records)


def test_unknown_keys_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, typo_key=1)
    assert main(["run", str(cfg)]) == 2
    assert "typo_key" in capsys.readouterr().err


def test_invalid_configs_rejected():
    with pytest.raises(ConfigError, match=r"config: top level must be an object"):
        parse_run_spec([{"grid": {"dims": [3]}, "splits": [2]}])
    with pytest.raises(ConfigError, match="grid"):
        parse_run_spec({"splits": [2]})
    with pytest.raises(ConfigError, match="grid"):
        parse_run_spec({"grid": {"dims": [0]}, "splits": [2]})
    with pytest.raises(ConfigError, match="dims"):
        parse_run_spec({"grid": {"dims": [2.5]}, "splits": [2]})
    with pytest.raises(ConfigError, match="solver"):
        parse_run_spec({"grid": {"dims": [3]}, "splits": [2], "solver": "jacobi"})
    with pytest.raises(ConfigError, match="tol"):
        parse_run_spec({"grid": {"dims": [3]}, "splits": [2], "tol": -1})
    with pytest.raises(ConfigError, match="victims"):
        parse_run_spec({"grid": {"dims": [3]}, "splits": [2], "faults": {"events": [{"at_step": 1}]}})
    for bad_tol in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError, match=r"config\.tol"):
            parse_run_spec({"grid": {"dims": [3]}, "splits": [2], "tol": bad_tol})
    for victim in (-1, 2):
        with pytest.raises(ConfigError, match=r"config\.faults\.events\[0\]\.victims"):
            parse_run_spec({"grid": {"dims": [3]}, "splits": [2],
                            "faults": {"events": [{"victims": [victim], "at_step": 1}]}})
    for trigger in ({"at_step": -1}, {"at_local_iteration": -2}):
        with pytest.raises(ConfigError, match=r"config\.faults\.events\[0\]: fault trigger"):
            parse_run_spec({"grid": {"dims": [3]}, "splits": [2], "faults": {"events": [{"victims": [0], **trigger}]}})
    for key, value in (("k_max", 0), ("activation", 2), ("activation", -0.5), ("activation", float("nan")),
                       ("alpha", 0.5), ("alpha", float("nan")), ("alpha", float("inf")), ("splits", [2, 1]),
                       ("splits", [5]), ("grid", {"dims": [5000, 2001]}), ("seed", -1), ("tol", 10**400),
                       ("delay", {"kind": "uniform", "high": 2**64})):
        with pytest.raises(ConfigError, match=rf"config\.{key}"):
            parse_run_spec({"grid": {"dims": [7]}, "splits": [2], key: value})
    # The delay generator is seeded from the run seed alone.
    for seed in (-5, 5):
        with pytest.raises(ConfigError, match=r"config\.delay: unknown key\(s\) \['seed'\]"):
            parse_run_spec({"grid": {"dims": [7]}, "splits": [2],
                            "delay": {"kind": "uniform", "high": 3, "seed": seed}})
    # Stencil entries or the scaled interface diagonal that overflow or vanish.
    for spacing in (1e-160, 1e-154, 1e160, 1e200):
        with pytest.raises(ConfigError, match=r"config\.grid: spacing"):
            parse_run_spec({"grid": {"dims": [7, 7], "spacing": spacing}, "splits": [2, 2]})
    with pytest.raises(ConfigError, match=r"config\.alpha"):
        parse_run_spec({"grid": {"dims": [7, 7]}, "splits": [2, 2], "alpha": 1e308})
    for table in ({"5->9": 3}, {"0->2": 1}, {"-1->1": 1}, {"1->1": 1}):
        with pytest.raises(ConfigError, match=r"config\.delay\.table"):
            parse_run_spec({"grid": {"dims": [7]}, "splits": [2], "delay": {"kind": "table", "table": table}})
    for delay in ({"kind": "fixed", "fixed": 10**30}, {"kind": "table", "table": {"0->1": 2**63}}):
        with pytest.raises(ConfigError, match=r"config\.delay"):
            parse_run_spec({"grid": {"dims": [7]}, "splits": [2], "delay": delay})
    # A key its kind never reads would be dropped without a word: {"fixed": 1000}
    # ran zero delays on 7/2, 57 steps against 32,048 with "kind": "fixed".
    for delay, key in (({"fixed": 1000}, "fixed"), ({"kind": "uniform", "high": 3, "fixed": 2}, "fixed"),
                       ({"kind": "fixed", "fixed": 3, "low": 1}, "low"), ({"kind": "zero", "high": 4}, "high"),
                       ({"kind": "table", "table": {"0->1": 1}, "high": 4}, "high"),
                       ({"kind": "uniform", "high": 3, "table": {}}, "table"), ({"table": {"0->1": 1}}, "table")):
        with pytest.raises(ConfigError, match=rf"config\.delay\.{key}: must be unset unless the kind is"):
            parse_run_spec({"grid": {"dims": [7]}, "splits": [2], "delay": delay})
    for delay in ({"kind": "fixed", "fixed": 0, "low": 0, "high": 0, "reorder": True}, {"kind": "uniform", "fixed": 0},
                  {"kind": "zero", "low": 0, "reorder": True}):  # an explicit 0 reads as unset
        parse_run_spec({"grid": {"dims": [7]}, "splits": [2], "delay": delay})


@pytest.mark.parametrize("overrides", [
    {"tol": float("nan")},
    {"faults": {"events": [{"victims": [5], "at_step": 3}]}},
    {"faults": {"events": [{"victims": [0], "at_local_iteration": -2}]}},
    {"faults": {"events": [{"victims": [0], "at_step": -1}]}},
    {"deterministic": False},
    {"k_max": 0},
    {"activation": 2},
    {"alpha": 0.5},
    {"splits": [2, 1]},
    {"grid": {"dims": [3]}, "splits": [3]},
    {"grid": {"dims": [5000, 2001]}, "splits": [1, 1]},
    {"seed": -1},
    {"delay": {"kind": "uniform", "high": 3, "seed": -5}},
    {"grid": {"dims": [7]}, "splits": [2], "solver": "async",
     "delay": {"kind": "uniform", "high": 18446744073709551616}},
    {"deterministic": True},
    {"delay": {"kind": "table", "table": {"5->9": 3}}},
    {"delay": {"kind": "fixed", "fixed": 10**30}},
    {"delay": {"fixed": 1000}},
    {"delay": {"kind": "uniform", "high": 2, "table": {"0->1": 1}}},
    {"grid": {"dims": [7, 7], "spacing": 1e-160}, "splits": [2, 2]},
    {"grid": {"dims": [7, 7], "spacing": 1e-154}, "splits": [2, 2]},
    {"grid": {"dims": [7, 7], "spacing": 1e160}, "splits": [2, 2]},
    {"grid": {"dims": [7, 7], "spacing": 1e200}, "splits": [2, 2]},
    {"grid": {"dims": [7, 7]}, "splits": [2, 2], "alpha": 1e308, "solver": "sync"},
    {"tol": "1e-6"},
    {"delay": {"kind": "table", "table": {"a->b": 1}}},
    {"delay": {"kind": "table", "table": {"0->1": 1.5}}},
    {"faults": {"events": [3]}},
    {"faults": {"events": [{"victims": [0], "at_step": 5}, {"victims": [1], "at_step": 2}]}},
    {"splits": [2.0]},
    {"grid": {"dims": [3], "source": float("nan")}},
    {"grid": {"dims": [7, 7], "spacing": 1e-3, "source": 1e308}, "splits": [2, 2]},
    {"grid": {"dims": [7, 7], "spacing": 1e-3, "source": 1e154}, "splits": [2, 2]},
    {"grid": {"dims": [7, 7], "spacing": 1e-3, "source": 1e160}, "splits": [2, 2]},
    {"grid": {"dims": [127, 127], "spacing": 1e153}, "splits": [2, 2]},
])
def test_invalid_config_exits_2_before_any_solver(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config" in err and any(key in err for key in overrides)
    assert not out.exists() or not any(out.iterdir())


def test_a_step_budget_past_int64_exits_2(tmp_path, capsys):
    # No message outlives this delay, and the step cap derived from it is
    # about 4.6e20 steps: the run would never return.
    cfg = tmp_path / "probe.json"
    cfg.write_text(json.dumps({"grid": {"dims": [7]}, "splits": [2], "solver": "async", "k_max": 1,
                               "delay": {"kind": "fixed", "fixed": 2**63 - 1}}))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}.delay: must keep the step cap")


def test_a_k_max_that_alone_breaks_the_step_budget_is_named(tmp_path, capsys):
    # 1000 + 50 k_max passes 2**63 - 1 with no delay set.
    cfg = tmp_path / "kmax.json"
    cfg.write_text(json.dumps({"grid": {"dims": [7]}, "splits": [2], "solver": "async", "k_max": 2**62}))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}.k_max: must keep the step cap")


@pytest.mark.parametrize("via", ["--out", "output.dir"])
@pytest.mark.parametrize("nested", [False, True], ids=["file", "below-a-file"])
def test_output_path_that_is_a_file_exits_2_before_any_solver(tmp_path, capsys, monkeypatch, via, nested):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    out = blocker / "sub" if nested else blocker
    monkeypatch.setattr("aschur.cli.run_from_spec", lambda *args: pytest.fail("a solver ran"))
    if via == "--out":
        argv = ["run", str(write_config(tmp_path)), "--out", str(out)]
    else:
        argv = ["run", str(write_config(tmp_path, output={"dir": str(out)}))]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: ") and via in err and "Traceback" not in err
    assert blocker.read_text() == "not a directory"


def test_scaling_source_and_tol_together_keeps_every_step_count(tmp_path):
    # The problem is linear: divergence is judged against the first residual,
    # so a large right-hand side with a matching tol runs as a small one does.
    steps = []
    for source, tol in ((1e11, 0.01), (1e13, 1.0)):
        out = tmp_path / f"out-{source:g}"
        cfg = write_config(tmp_path, grid={"dims": [7, 7], "source": source}, splits=[2, 2], tol=tol, seed=0,
                           certify=False, delay={"kind": "uniform", "high": 2, "reorder": True})
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        steps.append([row.split(",")[4] for row in (out / "summary.csv").read_text().splitlines()[1:]])
    assert steps[0] == steps[1] == ["198", "4", "303", "4"]


def test_each_key_lands_in_the_field_that_owns_it():
    assert parse_run_spec({"grid": {"dims": [7]}, "splits": [2]}) == RunSpec(grid=GridSpec(dims=(7,)), splits=(2,))
    raw = {
        "grid": {"dims": [7, 7], "spacing": 0.5, "source": -3},
        "splits": [2, 2], "alpha": 2, "solver": "cg", "certify": True,
        "output": {"dir": "runs", "residual_csv": False, "trace": True, "export_matrix_market": True,
                   "decomposition_json": True},
        "tol": 1, "k_max": 7, "seed": 3, "activation": 0.5,
        "faults": {"events": [{"victims": [1], "at_step": 4}, {"victims": [0, 2], "at_local_iteration": 9}]},
    }
    # One delay section per kind, each setting only the keys its kind reads.
    delays = [({"kind": "fixed", "fixed": 2}, DelayModel(kind="fixed", fixed=2)),
              ({"kind": "uniform", "low": 1, "high": 4, "reorder": True},
               DelayModel(kind="uniform", low=1, high=4, reorder=True)),
              ({"kind": "table", "table": {"0->1": 5}, "reorder": True},
               DelayModel(kind="table", table={(0, 1): 5}, reorder=True))]
    faults = FaultPlan(events=(FaultEvent(victims=(1,), at_step=4), FaultEvent(victims=(0, 2), at_local_iteration=9)))
    for section, delay in delays:
        spec = parse_run_spec({**raw, "delay": section})
        assert spec == RunSpec(
            grid=GridSpec(dims=(7, 7), spacing=0.5, source=-3.0), splits=(2, 2), alpha=2.0, solver="cg", certify=True,
            output=OutputOptions(dir="runs", residual_csv=False, export_matrix_market=True, decomposition_json=True),
            runtime=RuntimeConfig(tol=1.0, k_max=7, seed=3, activation=0.5, trace=True, delay=delay, faults=faults),
        )
    # No field kept its default (a delay field in at least one of the three
    # sections), and every number is a float.
    for got, default in ((spec, RunSpec(grid=GridSpec(dims=(7,)), splits=(2,))), (spec.grid, GridSpec(dims=(7,))),
                         (spec.output, OutputOptions()), (spec.runtime, RuntimeConfig())):
        for name in (f.name for f in dataclasses.fields(got)):
            assert getattr(got, name) != getattr(default, name), name
    for name in (f.name for f in dataclasses.fields(DelayModel)):
        assert any(getattr(delay, name) != getattr(DelayModel(), name) for _, delay in delays), name
    assert all(type(v) is float for v in (spec.alpha, spec.grid.source, spec.runtime.tol))


@pytest.mark.parametrize("grid,splits,k_max,statuses", [
    # CG's recurrence residual first rounds to zero at iteration 95 while the
    # exact residual stalls near 1e-4: CG restarts and runs to k_max.
    ({"dims": [7, 7], "source": 1e10}, [2, 2], 120, ["k-max"] * 4),
    # One step makes the interface residual exactly zero; the full one cannot reach tol.
    ({"dims": [9], "source": 1e12}, [2], 120, ["k-max", "stalled", "k-max", "stalled"]),
    # At spacing 1e-153, S has entries near 8e306 and CG's first p @ S p overflows,
    # so no step length is representable; sync and async converge (316 and 318 steps).
    ({"dims": [15, 15], "spacing": 1e-153}, [4, 2], 400, ["converged", "stalled", "converged", "stalled"]),
], ids=["underflow", "exact-interface", "overflow"])
def test_unattainable_tol_ends_without_a_traceback(tmp_path, grid, splits, k_max, statuses):
    cfg = write_config(tmp_path, grid=grid, splits=splits, k_max=k_max, certify=False, seed=0)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    reports = [json.loads((out / f"report_{name}.json").read_text())["report"]
               for name in ("sync", "cg", "async", "cg-restart")]
    assert [rep["status"] for rep in reports] == statuses
    assert all(math.isfinite(rep["final_residual"]) and (rep["final_residual"] > 1e-6) != rep["converged"]
               for rep in reports)


def test_large_interiors_run_with_cg(tmp_path):
    for grid, splits in (({"dims": [95, 95]}, [2, 1]), ({"dims": [3000]}, [1])):
        cfg = write_config(tmp_path, grid=grid, splits=splits, solver="cg", certify=False)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "report_cg.json").read_text())["report"]["converged"]


def test_large_interiors_run_with_every_solver(tmp_path):
    # interiors of 8 x 17 x 17 = 2312 unknowns, above the old dense LU cap
    cfg = write_config(tmp_path, grid={"dims": [17, 17, 17]}, splits=[2, 1, 1], solver="all", certify=False)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    for solver in ("sync", "cg", "async", "cg-restart"):
        assert json.loads((out / f"report_{solver}.json").read_text())["report"]["converged"], solver


def test_deterministic_flag_is_gone(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", str(cfg), "--out", str(out), "--deterministic"])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.name)
def test_shipped_configs_parse(path):
    parse_run_spec(json.loads(path.read_text()), path=str(path))


def test_json_syntax_error_is_line_anchored(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n "grid": {,}\n}')
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert ":2:" in err


def test_divergent_run_exits_nonzero_but_writes_report(tmp_path):
    cfg = write_config(tmp_path, solver="async", certify=False, alpha=1.0, k_max=5, tol=1e-30)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    payload = json.loads((out / "report_async.json").read_text())
    assert not payload["report"]["converged"]
    assert (out / "summary.csv").exists()


def test_compare_identical_reports(tmp_path, capsys):
    cfg = write_config(tmp_path, solver="cg", certify=False)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    report = str(out / "report_cg.json")
    assert main(["compare", report, report]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "solver,t_sim_steps,k,k_max,final_residual,step_ratio"
    assert lines[1].split(",")[-1] == "1"
    assert lines[2].split(",")[-1] == "1"


def test_compare_async_vs_cg_ratio_present(tmp_path, capsys):
    cfg = write_config(tmp_path, grid={"dims": [9, 9]}, splits=[3, 1], solver="all", certify=False)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert main(["compare", str(out / "report_cg.json"), str(out / "report_async.json")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    ratio = float(lines[2].split(",")[-1])
    assert np.isfinite(ratio) and ratio > 0


def test_compare_not_converged_gives_na(tmp_path, capsys):
    cfg = write_config(tmp_path, solver="async", certify=False, k_max=2, tol=1e-30)
    out = tmp_path / "out"
    main(["run", str(cfg), "--out", str(out)])
    report = str(out / "report_async.json")
    assert main(["compare", report, report]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1].split(",")[-1] == "NA"


def test_compare_mismatched_problems_error(tmp_path, capsys):
    cfg_a = write_config(tmp_path, name="a.json", solver="cg", certify=False)
    cfg_b = write_config(tmp_path, name="b.json", solver="cg", certify=False, grid={"dims": [7]})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["run", str(cfg_a), "--out", str(out_a)])
    main(["run", str(cfg_b), "--out", str(out_b)])
    assert main(["compare", str(out_a / "report_cg.json"), str(out_b / "report_cg.json")]) == 2
    assert "hash" in capsys.readouterr().err


def test_compare_needs_two_reports(capsys):
    assert main(["compare", "only.json"]) == 2


@pytest.mark.parametrize("content", ["{}", "[1]", '{"problem": {"hash": "h"}, "report": {"solver": "cg"}}'],
                         ids=["empty-object", "array", "partial-report"])
def test_compare_rejects_a_file_that_is_not_a_report(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    assert main(["compare", str(bad), str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "Traceback" not in err


@pytest.mark.parametrize("field,value", [("sim_steps", "x"), ("iterations_k", None), ("k_max", [1]),
                                         ("final_residual", "0.1"), ("sim_steps", True), ("converged", 1),
                                         ("converged", "yes")])
def test_compare_names_a_report_field_of_the_wrong_type(tmp_path, capsys, field, value):
    cfg = write_config(tmp_path, solver="cg", certify=False)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "report_cg.json").read_text())
    payload["report"][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["compare", str(out / "report_cg.json"), str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: report.{field}: ") and "Traceback" not in err


def test_log_level_env(tmp_path, monkeypatch):
    monkeypatch.setenv("ASCHUR_LOG", "trace")
    cfg = write_config(tmp_path, solver="sync", certify=False)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0


@pytest.mark.parametrize("value, level", [("error", logging.ERROR), ("TRACE", logging.DEBUG), ("info", logging.INFO),
                                          ("verbose", logging.INFO), (None, logging.INFO)])
def test_log_level_names_and_the_info_fallback(monkeypatch, value, level):
    if value is None:
        monkeypatch.delenv("ASCHUR_LOG", raising=False)
    else:
        monkeypatch.setenv("ASCHUR_LOG", value)
    seen = {}
    monkeypatch.setattr("logging.basicConfig", lambda **kwargs: seen.update(kwargs))
    _setup_logging()
    assert seen["level"] == level


def test_certify_above_the_dense_cap_runs_uncertified(tmp_path, caplog):
    cfg = write_config(tmp_path, grid={"dims": [45, 45]}, splits=[2, 2], solver="cg", certify=True)
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING, logger="aschur"):
        assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert "running uncertified" in caplog.text and "2025 unknowns" in caplog.text
    payload = json.loads((out / "report_cg.json").read_text())
    assert payload["certificates"] is None and payload["report"]["converged"]


def test_unreadable_config_path_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["run", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {missing}: ") and "Traceback" not in err


def test_compare_names_a_report_without_its_problem_hash(tmp_path, capsys):
    cfg = write_config(tmp_path, solver="cg", certify=False)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "report_cg.json").read_text())
    del payload["problem"]["hash"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["compare", str(out / "report_cg.json"), str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: report lacks problem.hash\n"


# -- property: the parser rejects a config or returns one the pipeline builds --

NASTY = st.sampled_from([math.nan, math.inf, -math.inf, -1, -0.5, 0, 10**400])


def _mostly(draw, good, bad):
    """A good value, or about one time in sixteen a bad one (the trigger sits
    away from the range ends, which Hypothesis draws more often)."""
    return draw(bad) if draw(st.integers(0, 15)) == 5 else draw(good)


def _delay(draw):
    kind = _mostly(draw, st.sampled_from(["zero", "fixed", "uniform", "table"]), st.just("gauss"))
    delay = {"kind": kind}
    # A key of another kind comes only through the bad branch: its kind never reads it.
    owns = {key: _mostly(draw, st.just(kind == owner), st.just(True))
            for key, owner in (("fixed", "fixed"), ("low", "uniform"), ("high", "uniform"), ("table", "table"))}
    # A fixed delay of 2^62 or more puts the step budget past int64 at every k_max: the config is rejected.
    if owns["fixed"] and (kind == "fixed" or draw(st.booleans())):
        delay["fixed"] = _mostly(draw, st.sampled_from([0, 3, 2**62, 2**63 - 1]), st.integers(-5, -1))
    if owns["low"] and draw(st.booleans()):
        delay["low"] = _mostly(draw, st.integers(0, 3), st.integers(-5, -1))
    if owns["high"] and draw(st.booleans()):
        delay["high"] = delay.get("low", 0) + _mostly(draw, st.integers(0, 10), st.integers(-5, -1))
    if draw(st.booleans()):
        delay["reorder"] = draw(st.booleans())
    if owns["table"] and (kind == "table" or draw(st.booleans())):
        links = _mostly(draw, st.sampled_from(["0->1", "1->0", "2->9"]), st.just("0-1"))
        delay["table"] = {links: _mostly(draw, st.integers(0, 5), st.integers(-2, -1) | st.floats())}
    return delay


def _fault_event(draw):
    victims = _mostly(draw, st.integers(1, 3), st.just(0))
    event = {"victims": [_mostly(draw, st.integers(0, 3), st.integers(-1, 9)) for _ in range(victims)]}
    triggers = _mostly(draw, st.sampled_from([("at_step",), ("at_local_iteration",)]),
                       st.sampled_from([(), ("at_step", "at_local_iteration")]))
    for key in triggers:
        event[key] = draw(st.integers(0, 50))
    return event


@st.composite
def configs(draw, max_unknowns=400):
    """Run configs with 1 to 3 axes and at most 400 unknowns; each field is
    sometimes NaN, infinite, negative or otherwise out of range, and the grid's
    spacing and source range from 1e-153 to 1e308."""
    dims, budget = [], max_unknowns
    for _ in range(_mostly(draw, st.integers(1, 3), st.sampled_from([0, 4]))):
        dims.append(_mostly(draw, st.integers(1, budget), st.integers(-1, 0)))
        budget = max(1, budget // max(dims[-1], 1))
    fits = [st.integers(1, min(4, max(1, (extent + 1) // 2))) for extent in dims]
    raw = {"grid": {"dims": dims}, "splits": [_mostly(draw, good, st.integers(-1, 9)) for good in fits]}
    for key in ("spacing", "source"):
        if draw(st.booleans()):  # the extremes overflow b, u or the stencil on some grids
            raw["grid"][key] = _mostly(draw, st.sampled_from([1e-153, 1e-3, 1.0, -2.0, 1e10, 1e153, 1e308]), NASTY)
    fields = {
        "alpha": st.floats(1.0, 3.0),
        "tol": st.floats(1e-12, 1e3),
        "activation": st.floats(0.0, 1.0),
        "seed": st.integers(0, 2**40),
        "k_max": st.integers(1, 100),
        "solver": st.sampled_from(SOLVER_CHOICES),
        "certify": st.booleans(),
    }
    bad = {"seed": st.integers(-5, -1), "k_max": st.integers(-1, 0), "solver": st.just("jacobi")}
    for key, good in fields.items():
        if draw(st.booleans()):
            raw[key] = _mostly(draw, good, bad.get(key, NASTY))
    if draw(st.booleans()):
        raw["delay"] = _delay(draw)
    if draw(st.booleans()):
        raw["faults"] = {"events": [_fault_event(draw) for _ in range(draw(st.integers(0, 3)))]}
    return raw


@settings(max_examples=100, deadline=None)
@given(configs())
def test_parsed_configs_build_or_are_rejected(raw):
    try:
        spec = parse_run_spec(raw)
    except ConfigError:
        return
    problem = assemble(spec.grid)
    decomp = partition(problem, spec.splits)
    system = SchurSystem.build(problem, decomp)
    split = build_splitting(interface_diagonal(problem, decomp), alpha=spec.alpha)
    AsyncSimulator(system, split, spec.runtime)  # seeds and victims


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(configs())
def test_accepted_configs_run_to_exit_0_or_1(capsys, raw):
    # Every config ends in exit 0 or 1, or is rejected with exit 2 at its key path.
    raw["k_max"] = min(raw.get("k_max", 20), 20)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(raw))
        status = main(["run", str(cfg), "--out", str(Path(tmp) / "out")])
    err = capsys.readouterr().err
    assert status in (0, 1) or status == 2 and err.startswith(f"error: {cfg}")
