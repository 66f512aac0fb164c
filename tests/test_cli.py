import json

import numpy as np
import pytest

from aschur.cli import ConfigError, main, parse_run_spec


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
        recomputed = global_residual(problem, decomp, system.subdomains, x)
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
    cfg = write_config(
        tmp_path, solver="sync", certify=False,
        output={"export_matrix_market": True, "decomposition_json": True},
    )
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert (out / "matrix.mtx").exists()
    decomp = json.loads((out / "decomposition.json").read_text())
    assert decomp["p"] == 2
    import scipy.io

    from aschur.linalg import read_matrix_market

    back = read_matrix_market(out / "matrix.mtx")
    np.testing.assert_allclose(back.to_dense(), [[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    rhs = np.asarray(scipy.io.mmread(out / "rhs.mtx")).ravel()
    np.testing.assert_array_equal(rhs, np.ones(3))


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
    with pytest.raises(ConfigError, match=r"config\.faults"):
        parse_run_spec({"grid": {"dims": [3]}, "splits": [2], "deterministic": False,
                        "faults": {"events": [{"victims": [0], "at_step": 1}]}})


@pytest.mark.parametrize("overrides", [
    {"tol": float("nan")},
    {"faults": {"events": [{"victims": [5], "at_step": 3}]}},
    {"deterministic": False, "faults": {"events": [{"victims": [0], "at_step": 3}]}},
])
def test_invalid_config_exits_2_before_any_solver(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "config" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_deterministic_flag_applies_before_validation(tmp_path):
    cfg = write_config(tmp_path, solver="async", deterministic=False,
                       faults={"events": [{"victims": [0], "at_step": 3}]})
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--deterministic"]) == 0
    payload = json.loads((out / "report_async.json").read_text())
    assert payload["config"]["deterministic"] and payload["report"]["faults_injected"] == 1


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


def test_log_level_env(tmp_path, monkeypatch):
    monkeypatch.setenv("ASCHUR_LOG", "trace")
    cfg = write_config(tmp_path, solver="sync", certify=False)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
