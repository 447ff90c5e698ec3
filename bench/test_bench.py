"""Tests of the benchmark itself: tiny runs emit every metric, the output
check can fail, and the tracer survives missing names."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from check import check_csv, split_csv  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import DEFAULT_SEED, NAMES  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--size", "tiny", "--seed", "7", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_benchmark_json_matches_the_code():
    assert {w["name"] for w in BENCH["workloads"]} <= set(NAMES)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("workload", NAMES)
def test_tiny_workload_emits_every_end_to_end_metric(workload):
    result = _run("--workload", workload, "--seconds", "0.2", "--trace", "0")
    _assert_metrics(result, BENCH["end_to_end"])


def test_tiny_traced_run_emits_every_per_layer_metric():
    result = _run("--workload", "bounds_curves", "--seconds", "0.2", "--trace", "1")
    _assert_metrics(result, BENCH["per_layer"])


def _perturb(text, column, row, factor):
    lines = text.splitlines(keepends=True)
    _, header, _ = split_csv(text)
    body = [i for i, ln in enumerate(lines) if not ln.startswith("#")][1:]
    cells = lines[body[row]].rstrip("\n").split(",")
    col = header.index(column)
    cells[col] = repr(float(cells[col]) * factor)
    lines[body[row]] = ",".join(cells) + "\n"
    return "".join(lines)


def test_check_rejects_one_perturbed_bound():
    ref = (HERE / "refs" / "fig2.csv").read_text()
    assert check_csv(ref, ref, DEFAULT_SEED, DEFAULT_SEED) == []
    last_digit = _perturb(ref, "crb_r_m2", 5, 1.0 + 1e-13)
    assert check_csv(last_digit, ref, DEFAULT_SEED, DEFAULT_SEED) == []
    wrong = _perturb(ref, "crb_r_m2", 5, 1.001)
    problems = check_csv(wrong, ref, DEFAULT_SEED, DEFAULT_SEED)
    assert len(problems) == 1 and "crb_r_m2" in problems[0]


def test_check_compares_rmse_at_the_reference_seed_only():
    ref = (HERE / "refs" / "fig8.csv").read_text()
    moved = _perturb(ref, "rmse_theta_rad", 0, 1.01)
    assert check_csv(moved, ref, DEFAULT_SEED, DEFAULT_SEED)
    other_seed = moved.replace(str(DEFAULT_SEED), "7")
    assert check_csv(other_seed, ref, 7, DEFAULT_SEED) == []
    # an estimator far below the bound breaks criterion 9's rule at any seed
    text = ref.replace(str(DEFAULT_SEED), "7")
    for row in range(9):
        text = _perturb(text, "rmse_theta_rad", row, 0.1)
        text = _perturb(text, "rmse_range_m", row, 0.1)
    assert any("criterion 9" in p for p in check_csv(text, ref, 7, DEFAULT_SEED))


def test_tracer_wraps_every_binding_and_reports_missing_names():
    from nfcrb import closedform, estimator, experiment

    original = closedform.crb_closed
    tracer = Tracer()
    tracer.wrap("closedform.crb_closed", closedform, "crb_closed")
    tracer.wrap("closedform.gone", closedform, "no_such_function")
    try:
        assert experiment.crb_closed is estimator.crb_closed is closedform.crb_closed
        assert experiment.crb_closed is not original
        cfg = experiment.presets()["fig4"]
        experiment.run_experiment(cfg)
    finally:
        tracer.unwrap()
    assert experiment.crb_closed is original and estimator.crb_closed is original
    assert tracer.absent == ["closedform.gone"]
    assert len(tracer.spans) == len(cfg.sweep.points())


def test_self_times_subtract_direct_children():
    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None], ["c", 2.0, 3.0, 1, None]]
    assert self_times(spans) == [7.0, 2.0, 1.0]
