"""CLI behaviors: subcommands, exit codes, output routing, determinism."""

import os
import subprocess
import sys

import pytest

import nfcrb
from nfcrb.cli import main
from nfcrb.experiment import csv_text, presets, run_experiment

SMALL_INI = """
[scenario]
num_tx = 9
target_range_m = 10.0
target_angle_deg = 30.0

[sweep]
axis = M
values = 9, 17

[methods]
use = ClosedForm, ExactSum
"""

BISTATIC_SINGULAR_INI = """
[scenario]
num_tx = 9
num_rx = 8
separation_m = 10.0
target_range_m = 10.0
target_angle_deg = 0.0
topology = bistatic

[sweep]
axis = M
values = 9

[methods]
use = Asymptotic
"""


HUGE_SWEEP_INI = """
[scenario]
num_tx = 9
target_range_m = 10.0
target_angle_deg = 30.0

[sweep]
axis = M
start = 9
stop = 1e9
factor = 1.0000001

[methods]
use = ClosedForm
"""


def _child_env():
    # the child imports the same nfcrb as this process, installed or not
    src = os.path.dirname(os.path.dirname(nfcrb.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "sweep.ini"
    path.write_text(SMALL_INI)
    return str(path)


def test_run_writes_csv_to_stdout(small_config, capsys):
    assert main(["run", "--config", small_config]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("#")
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert header.split(",")[:2] == ["method", "mode"]
    data = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(data) == 4   # 2 sweep points x 2 methods


def test_run_writes_file_with_out(small_config, tmp_path, capsys):
    dest = tmp_path / "out.csv"
    assert main(["run", "--config", small_config, "--out", str(dest)]) == 0
    assert capsys.readouterr().out == ""
    assert dest.read_text().count("ClosedForm") == 3   # methods comment + 2 rows


def test_db_flag_renames_bound_columns(small_config, capsys):
    assert main(["run", "--config", small_config, "--db"]) == 0
    out = capsys.readouterr().out
    assert "crb_theta_db" in out and "crb_theta_rad2" not in out


def test_override_applies(small_config, capsys):
    assert main(["run", "--config", small_config,
                 "--set", "sweep.values=33"]) == 0
    out = capsys.readouterr().out
    rows = [ln for ln in out.splitlines() if ln.startswith(("ClosedForm", "ExactSum"))]
    assert len(rows) == 2 and all(",33," in r for r in rows)


def test_seed_flag(small_config, tmp_path, capsys):
    # without a Monte Carlo block the flag is noted and ignored
    assert main(["run", "--config", small_config, "--seed", "5"]) == 0
    err = capsys.readouterr().err
    assert "--seed ignored" in err

    mc = tmp_path / "mc.ini"
    mc.write_text(SMALL_INI.replace("values = 9, 17", "values = 9") + (
        "\n[montecarlo]\nestimator = MatchedFieldML\ntrials = 2\n"
        "master_seed = 1\ntheta_points = 15\nrange_points = 11\n"
        "refine_levels = 0\n"))
    assert main(["run", "--config", str(mc), "--seed", "999"]) == 0
    out = capsys.readouterr().out
    rows = [ln for ln in out.splitlines() if ln.startswith(("ClosedForm", "ExactSum"))]
    assert all(ln.endswith(",999") for ln in rows)


def test_negative_master_seed_exits_2_without_a_traceback(tmp_path):
    mc = tmp_path / "mc.ini"
    mc.write_text(SMALL_INI.replace("values = 9, 17", "values = 9") + (
        "\n[montecarlo]\nestimator = MatchedFieldML\ntrials = 2\n"
        "master_seed = -5\ntheta_points = 15\nrange_points = 11\n"))
    for argv in (["preset", "fig8", "--seed", "-1"], ["run", "--config", str(mc)]):
        proc = subprocess.run([sys.executable, "-m", "nfcrb.cli", *argv],
                              capture_output=True, text=True, env=_child_env(), timeout=60)
        assert proc.returncode == 2, argv
        assert proc.stderr.startswith("config error:") and "Traceback" not in proc.stderr
        assert "master_seed" in proc.stderr


@pytest.mark.parametrize("override", [
    "montecarlo.estimator=Capon",
    "montecarlo.capon_snapshots=64",
    "montecarlo.capon_loading=0.001",
])
def test_capon_settings_exit_2(override, capsys):
    assert main(["preset", "fig8", "--set", override]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error:")


def test_config_errors_exit_2(small_config, tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.ini")]) == 2
    assert main(["preset", "fig99"]) == 2
    assert main(["run", "--config", small_config, "--set", "bogus"]) == 2
    bad = tmp_path / "bad.ini"
    bad.write_text(SMALL_INI.replace("use = ClosedForm, ExactSum", "use = Wizard"))
    assert main(["run", "--config", str(bad)]) == 2
    errs = capsys.readouterr().err
    assert errs.count("config error:") == 4


@pytest.mark.parametrize("override", [
    "scenario.target_angle_deg=nan",
    "scenario.tx_spacing_m=nan",
    "scenario.time_bandwidth=inf",
    "scenario.carrier_freq_hz=inf",
    "scenario.target_range_m=inf",
    "sweep.values=nan",
])
def test_non_finite_inputs_exit_2(override, capsys):
    # a non-finite scalar must fail validation, never emit nan/inf/zero bounds
    code = main(["preset", "fig2", "--set", "sweep.values=9",
                 "--set", "methods.use=ClosedForm,ExactSum", "--set", override])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "config error:" in captured.err


@pytest.mark.parametrize("override", [
    "montecarlo.theta_halfspan_deg=nan",
    "montecarlo.theta_halfspan_deg=inf",
    "montecarlo.range_span_frac=inf",
])
def test_non_finite_search_window_exits_2(override, capsys):
    # refused at config load: a NaN/inf span is neither searched over the
    # whole domain nor left to crash the grid search
    code = main(["preset", "fig8", "--set", "sweep.values=65", "--set", "montecarlo.trials=1",
                 "--set", "montecarlo.theta_points=11", "--set", "montecarlo.range_points=11",
                 "--set", override])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error:")
    assert "must be finite and > 0" in captured.err


@pytest.mark.parametrize("values", ["", " , "])
def test_empty_sweep_exits_2(values, capsys):
    # an empty value list is refused, not run as a header-only CSV
    assert main(["preset", "fig2", "--set", f"sweep.values={values}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error:")
    assert "no points" in captured.err


@pytest.mark.parametrize("preset,override", [
    ("fig2", "sweep.values=0"),
    ("fig6", "scenario.num_tx=0"),
])
def test_transmit_count_below_one_exits_2(preset, override, capsys):
    # M = 0 is refused, not rounded up to 1 (which has no transmit baseline)
    assert main(["preset", preset, "--set", override]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error:")
    assert "num_tx must be >= 1" in captured.err


def test_even_transmit_count_still_rounds_up(capsys):
    assert main(["preset", "fig2", "--set", "sweep.values=2",
                 "--set", "methods.use=ClosedForm"]) == 0
    cells = capsys.readouterr().out.splitlines()[-1].split(",")
    assert cells[3] == "3" and cells[-1] == "num_tx 2 is even; rounded up to 3"


def _readme_block(lang):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    marker = f"```{lang}\n"
    start = text.index(marker) + len(marker)
    return text[start:text.index("```", start)]


def test_readme_examples_run(tmp_path, capsys):
    path = tmp_path / "readme.ini"
    path.write_text(_readme_block("ini"))
    assert main(["run", "--config", str(path), "--set", "montecarlo.trials=2"]) == 0
    out = capsys.readouterr().out
    assert out.count("\nNumericalFim,") == 3
    exec(_readme_block("python"), {})
    assert capsys.readouterr().out.split()[-1] == "True"


def test_numerical_failure_exits_3(tmp_path, capsys):
    # separation equal to the target range passes config validation but the
    # asymptotic bistatic bound is singular there
    path = tmp_path / "singular.ini"
    path.write_text(BISTATIC_SINGULAR_INI)
    assert main(["run", "--config", str(path)]) == 3
    assert "numerical failure:" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["ExactSum", "NumericalFim"])
def test_target_on_a_transmit_element_exits_3(method, capsys):
    # element m = 2 of nine sits at 2 x 0.0628 m = 0.1256 m on the array
    # axis: r_m = 0 there, which is refused rather than reported as inf rows
    code = main(["preset", "fig2", "--set", "scenario.target_angle_deg=90",
                 "--set", "scenario.target_range_m=0.1256",
                 "--set", f"methods.use={method}", "--set", "sweep.values=9"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: target coincides with a transmit element\n"


def test_list_presets(capsys):
    assert main(["list-presets"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 8
    assert all(ln.split()[0].startswith("fig") for ln in lines)
    assert lines[0].startswith("fig2  monostatic mimo")


def test_preset_runs_and_is_byte_deterministic(tmp_path):
    outs = []
    for k in range(2):
        dest = tmp_path / f"take{k}.csv"
        code = main(["preset", "fig2", "--set", "sweep.values=9, 17",
                     "--out", str(dest)])
        assert code == 0
        outs.append(dest.read_bytes())
    assert outs[0] == outs[1]


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "nfcrb.cli", "list-presets"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 8


def test_huge_sweep_exits_2_before_generating_points(tmp_path):
    # ~1.9e8 geometric points: refused from the closed-form count, not by
    # generating them
    path = tmp_path / "huge.ini"
    path.write_text(HUGE_SWEEP_INI)
    proc = subprocess.run([sys.executable, "-m", "nfcrb.cli", "run", "--config", str(path)],
                          capture_output=True, text=True, env=_child_env(), timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == "" and "more than" in proc.stderr


def test_cached_parser_carries_no_state_between_calls(capsys):
    assert main(["preset", "fig2", "--set", "sweep.values=9"]) == 0
    capsys.readouterr()
    assert main(["preset", "fig2"]) == 0
    cfg = presets()["fig2"]
    assert capsys.readouterr().out == csv_text(cfg, run_experiment(cfg))

    assert main(["preset", "fig2", "--set", "sweep.values=9", "--db"]) == 0
    assert "crb_theta_db" in capsys.readouterr().out
    assert main(["preset", "fig2", "--set", "sweep.values=9"]) == 0
    out = capsys.readouterr().out
    assert "crb_theta_rad2" in out and "crb_theta_db" not in out

    for bad in (["preset"], ["preset", "fig2", "--bogus"], ["frobnicate"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
    capsys.readouterr()
    assert main(["preset", "fig2", "--set", "sweep.values=9"]) == 0
    assert capsys.readouterr().out.count("\nClosedForm,") == 1


def test_per_element_methods_exit_2_above_the_element_cap():
    # fig2 runs ExactSum and NumericalFim, which would allocate O(M) arrays
    # of ~8 GB each at this M; the point is refused before it is evaluated
    proc = subprocess.run(
        [sys.executable, "-m", "nfcrb.cli", "preset", "fig2", "--set", "sweep.values=1000000001"],
        capture_output=True, text=True, env=_child_env(), timeout=5)
    assert proc.returncode == 2
    assert proc.stdout == "" and "exceed" in proc.stderr


def test_closed_forms_run_far_above_the_element_cap(capsys):
    assert main(["preset", "fig2", "--set", "sweep.values=1000000001",
                 "--set", "methods.use=ClosedForm,Taylor,FarFieldUPW"]) == 0
    rows = [ln for ln in capsys.readouterr().out.splitlines() if ",1000000001," in ln]
    assert len(rows) == 3
