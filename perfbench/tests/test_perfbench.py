"""The benchmark's own tests: toy-size runs of every workload and the checks.

    python3 -m pytest -q perfbench/tests
"""

import json
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_run_is_correct_and_reports_every_metric(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--toy")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def toy_result(workload):
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload, "--seed", "0",
           "--seconds", "0", "--trace", "0", "--toy"]
    return pickle.loads(subprocess.run(cmd, capture_output=True, check=True, timeout=170).stdout)


@pytest.mark.parametrize("workload", ["interface-ladder", "async-chaos"])
def test_corrupted_interface_vector_is_a_failed_operation(workload):
    result = toy_result(workload)
    correct, failed, _ = run.check(result, result["tol"])
    assert correct and failed == 0
    op = result["ops"][0]
    op["x"] = op["x"].copy()
    op["x"][len(op["x"]) // 2] += 1e-4
    correct, failed, notes = run.check(result, result["tol"])
    assert correct and failed == 1
    assert any("full residual" in note for note in notes)


def test_wrong_assembly_fails_the_problem_check():
    result = toy_result("interface-ladder")
    offsets, cols, vals = result["problems"][0]["A"]
    vals = vals.copy()
    vals[0] *= 1.0 + 1e-9
    result["problems"][0]["A"] = (offsets, cols, vals)
    correct, failed, _ = run.check(result, result["tol"])
    assert not correct and failed >= 1


def test_changed_step_count_on_repeat_is_a_failed_operation():
    result = toy_result("async-chaos")
    repeat = next(op for op in result["ops"] if op["round"] == 1)
    repeat["sim_steps"] += 1
    _, failed, notes = run.check(result, result["tol"])
    assert failed == 1 and any("repeat" in note for note in notes)


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_reference_laplacian_and_error_bound():
    from check import Reference, interface_nodes, laplacian, lambda_min

    A = laplacian((3, 2)).toarray()
    assert np.array_equal(np.diag(A), np.full(6, 4.0))
    assert A[0, 1] == A[0, 3] == -1.0 and A[2, 3] == 0.0  # x fastest: node 2 ends a row
    assert list(interface_nodes((7,), (2,))) == [3]
    assert lambda_min((7,)) == pytest.approx(np.linalg.eigvalsh(laplacian((7,)).toarray())[0])
    ref = Reference.build((15, 15), (2, 2), 1.0)
    assert ref.solve_errors(ref.x_star[ref.gamma], 1e-6) == []
