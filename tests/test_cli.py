"""CLI behaviors: subcommands, exit codes, output routing, determinism."""

import csv
import dataclasses
import enum
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from typing import get_args, get_origin

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nfcrb
from nfcrb import experiment
from nfcrb.cli import main
from nfcrb.experiment import (
    ExperimentConfig,
    MonteCarloConfig,
    SweepSpec,
    csv_text,
    presets,
    run_experiment,
)
from nfcrb.fim import SINGULAR_WARNING

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


_SWEEP_TO_2049 = "sweep.values=9,17,33,65,129,257,513,1025,2049"
PRESET_DIGESTS = {
    ("fig2",):
        "7b58acb0458ddc6b63b8aa48cb07f5ba01ac0208139ac21f970d2e7118e89ece",
    ("fig2", "--db"):
        "829c167bf300d61f1829c98827bc0c605aafebeb2d37d3b1af370e22e490e359",
    ("fig3",):
        "a9aa78a6ed997dd596ac6eff17351e3804ab214b02669eb14dc721227cace86b",
    ("fig3", "--db"):
        "825dbc941b3dc157def3338c3a8cea34e74b0b648963c198d012ae386d108c58",
    ("fig4",):
        "b7a8215b71ddc78baeb15b425fd9b4c723a0caf2357c1cd5fcb045784e6a2329",
    ("fig4", "--db"):
        "686bdd478f9330de387a841f5c56d6843cb49cc6e205951b3f87a9e3f3c892ca",
    ("fig5",):
        "ad205decc34b405e2f3797e14a25796b009cb2e8a3aec25e985edb891387a940",
    ("fig5", "--db"):
        "efce3e368a2834a8b65a22336b4ab3b39d7156f8f0fefa239928d706c9c4c731",
    ("fig6",):
        "72859c0ea96783182f306400a3f783424f79d92edb1f9a08db9c57d569219a39",
    ("fig6", "--db"):
        "ec93851d1121511c92037a084936c714adfec270baaea8acd5e97a660f21ad13",
    ("fig7",):
        "918593f89368047579b068bd7854f934a2bd029cf554f3da385f591759609167",
    ("fig7", "--db"):
        "8fb97f2ad9cbd961b024b56b60b5486d6c43b4f7396b98d6532bdcf2b612ae00",
    ("fig2", "--set", _SWEEP_TO_2049):
        "a95856a2e3f62ae2311735752498e1e4e212b401339e279723e61e4225108008",
    ("fig2", "--set", _SWEEP_TO_2049, "--db"):
        "0d02a5c26cf75a901145cc054ea46e9afbeb03ab5f5e252e936c3d369220534d",
    ("fig3", "--set", _SWEEP_TO_2049):
        "354f34511e8a4f23d012d458a803423100267db18c546608350bb2c01e85e80c",
    ("fig3", "--set", _SWEEP_TO_2049, "--db"):
        "c3b922f02877e9375e7348277be946a37072dfc91c0c31273b8f83ccfffd097d",
}


def _child_env():
    # the child imports the same nfcrb as this process, installed or not
    src = os.path.dirname(os.path.dirname(nfcrb.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def _rows(out):
    return list(csv.DictReader(line for line in out.splitlines() if not line.startswith("#")))


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
        "\n[montecarlo]\ntrials = 2\nmaster_seed = 1\ntheta_points = 15\nrange_points = 11\n"
        "refine_levels = 0\n"))
    assert main(["run", "--config", str(mc), "--seed", "999"]) == 0
    out = capsys.readouterr().out
    rows = [ln for ln in out.splitlines() if ln.startswith(("ClosedForm", "ExactSum"))]
    assert all(ln.endswith(",999") for ln in rows)


def test_negative_master_seed_exits_2_without_a_traceback(tmp_path):
    mc = tmp_path / "mc.ini"
    mc.write_text(SMALL_INI.replace("values = 9, 17", "values = 9") + (
        "\n[montecarlo]\ntrials = 2\nmaster_seed = -5\ntheta_points = 15\nrange_points = 11\n"))
    for argv in (["preset", "fig8", "--seed", "-1"], ["run", "--config", str(mc)]):
        proc = subprocess.run([sys.executable, "-m", "nfcrb.cli", *argv],
                              capture_output=True, text=True, env=_child_env(), timeout=60)
        assert proc.returncode == 2, argv
        assert proc.stderr.startswith("config error:") and "Traceback" not in proc.stderr
        assert "master_seed" in proc.stderr


@pytest.mark.parametrize("override", [
    # no key names the estimator: the matched-field search is the one there is
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


@pytest.mark.parametrize("override,least", [
    ("montecarlo.theta_points=1", 2),
    ("montecarlo.range_points=0", 2),
    ("montecarlo.refine_levels=-1", 0),
])
def test_invalid_search_grid_exits_2_before_any_bound_runs(override, least, monkeypatch,
                                                           capsys):
    # the grid's own bounds are checked with the config, not by the first
    # point's GridSpec after the run's bounds were evaluated
    ran = []
    monkeypatch.setattr(experiment, "_EVALUATORS", {
        method: lambda *args, method=method: ran.append(method)
        for method in experiment._EVALUATORS})
    assert main(["preset", "fig8", "--set", override]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and ran == []
    key, value = override.split("=")
    assert captured.err == f"config error: {key} must be >= {least}, got {value}\n"


_OWNERS = {"scenario": ExperimentConfig, "methods": ExperimentConfig, "sweep": SweepSpec,
           "montecarlo": MonteCarloConfig}


def _enum_keys() -> list:
    """(section, key, enum) of every INI key whose field holds enum members."""
    out = []
    for section, keys in experiment._SECTIONS.items():
        kinds = {f.name: f.type for f in dataclasses.fields(_OWNERS[section])}
        for key, (name, _, _) in keys.items():
            kind = kinds.get(name)
            if get_origin(kind) is tuple:
                kind = get_args(kind)[0]
            if isinstance(kind, enum.EnumType):
                out.append((section, key, kind))
    return out


def test_every_enum_key_is_covered():
    assert [(section, key) for section, key, _ in _enum_keys()] == [
        ("scenario", "mode"), ("methods", "use"), ("methods", "asymptotic_regime")]


@pytest.mark.parametrize("section,key,kind", _enum_keys(),
                         ids=[f"{s}.{k}" for s, k, _ in _enum_keys()])
def test_unknown_enum_value_exits_2_naming_key_value_and_members(section, key, kind, capsys):
    assert main(["preset", "fig2", "--set", f"{section}.{key}=Sideways"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error:")
    assert f"[{section}] {key}" in captured.err and "'Sideways'" in captured.err
    assert all(member.value in captured.err for member in kind)


def test_monostatic_rows_echo_the_receive_spacing_in_use(capsys):
    # a monostatic point receives on its transmit array: d_rx_m is d_tx_m,
    # whatever rx_spacing_m says, and no bound reads rx_spacing_m
    argv = ["preset", "fig2", "--set", "sweep.values=9", "--set", "methods.use=ExactSum",
            "--set", "scenario.tx_spacing_m=0.05"]
    rows = []
    for rx in ("0.0628", "0.01"):
        assert main(argv + ["--set", f"scenario.rx_spacing_m={rx}"]) == 0
        rows += _rows(capsys.readouterr().out)
    assert rows[0] == rows[1]
    assert rows[0]["d_rx_m"] == rows[0]["d_tx_m"] == f"{0.05:.17g}"


@pytest.mark.parametrize("override", [
    "montecarlo.range_span_frac=1e308",   # the far edge r (1 + frac) is inf
    "scenario.target_range_m=1e200",      # r^2 overflows in the kernel
])
def test_search_window_out_of_float_range_exits_2(override):
    proc = subprocess.run(
        [sys.executable, "-m", "nfcrb.cli", "preset", "fig8", "--set", "sweep.values=65",
         "--set", "montecarlo.trials=1", "--set", override],
        capture_output=True, text=True, env=_child_env(), timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("config error:") and "Traceback" not in proc.stderr
    assert "sweep point M=65" in proc.stderr


def test_search_window_phase_out_of_float_range_exits_2(tmp_path, capsys):
    # the far edge's square (1.44e308) is finite, its phase 2 pi r / lambda
    # is not; one element keeps this carrier within the bounds' range
    path = tmp_path / "phase.ini"
    path.write_text(SMALL_INI.replace("num_tx = 9", "num_tx = 1\ncarrier_freq_hz = 1e162")
                    .replace("target_range_m = 10.0", "target_range_m = 1e154")
                    .replace("values = 9, 17", "values = 1")
                    + "\n[montecarlo]\ntrials = 1\n"
                      "master_seed = 1\ntheta_points = 5\nrange_points = 5\n")
    assert main(["run", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "range window" in captured.err


def test_set_switches_a_presets_sweep_form(capsys):
    # values replaces fig4's start/stop/step rather than clashing with them
    assert main(["preset", "fig4", "--set", "sweep.values=0,30"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 2 * 4
    assert sorted({float(r["theta_rad"]) for r in rows}) == [0.0, math.radians(30.0)]


def test_stray_sweep_start_exits_2(capsys):
    # fig2 lists its values; a start beside them is refused, not ignored
    assert main(["preset", "fig2", "--set", "sweep.start=1000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error:")
    assert "not with values" in captured.err


@pytest.mark.parametrize("overrides", [
    # LargeAperture: den_t r^2 M overflows, so the angle bound read 0
    ("scenario.target_range_m=1e160",),
    # InfiniteAperture: r ** 3 raised OverflowError (exit 3)
    ("scenario.target_range_m=1e110", "methods.asymptotic_regime=InfiniteAperture"),
])
def test_asymptotic_bound_past_float_range_is_dropped(overrides, capsys):
    args = ["preset", "fig2", "--set", "sweep.values=9", "--set", "methods.use=Asymptotic"]
    for override in overrides:
        args += ["--set", override]
    assert main(args) == 0
    (row,) = _rows(capsys.readouterr().out)
    assert row["identifiable"] == "false"
    assert row["crb_theta_rad2"] == row["crb_r_m2"] == "inf"
    assert "formula left its validity region; bound dropped" in row["warnings"]


def test_infinite_aperture_boresight_zero_survives_an_overflowed_cube(capsys):
    # at boresight the angle limit is the model's 0 whatever r ** 3 gives
    assert main(["preset", "fig2", "--set", "sweep.values=9", "--set", "methods.use=Asymptotic",
                 "--set", "methods.asymptotic_regime=InfiniteAperture",
                 "--set", "scenario.target_angle_deg=0",
                 "--set", "scenario.target_range_m=1e110"]) == 0
    (row,) = _rows(capsys.readouterr().out)
    assert row["identifiable"] == "true" and row["crb_theta_rad2"] == "0"
    assert 0.0 < float(row["crb_r_m2"]) < math.inf


def test_taylor_range_bound_out_of_float_range_is_unidentifiable(capsys):
    assert main(["preset", "fig2", "--set", "sweep.values=9",
                 "--set", "scenario.target_range_m=1e200"]) == 0
    (taylor,) = [r for r in _rows(capsys.readouterr().out) if r["method"] == "Taylor"]
    assert taylor["identifiable"] == "false"
    assert "validity region" in taylor["warnings"]


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


def test_readme_config_keys_are_schema_keys():
    # every `key =` of README's INI example, on a line or in a `;` comment,
    # is a key of its section: a key the schema dropped cannot stay documented
    section, seen = None, []
    for line in _readme_block("ini").splitlines():
        header = re.fullmatch(r"\[(\w+)\]", line.strip())
        if header:
            section = header.group(1)
        seen += [(section, key) for key in re.findall(r"(\w+) = ", line)]
    assert len(seen) > 20
    assert [(s, k) for s, k in seen if k not in experiment._SECTIONS.get(s, {})] == []


def test_numerical_failure_exits_3(tmp_path, capsys):
    # separation equal to the target range passes config validation but the
    # asymptotic bistatic bound is singular there
    path = tmp_path / "singular.ini"
    path.write_text(BISTATIC_SINGULAR_INI)
    assert main(["run", "--config", str(path)]) == 3
    assert "numerical failure:" in capsys.readouterr().err


@pytest.mark.parametrize("methods", ["ExactSum, ClosedForm",
                                     "NumericalFim, FarFieldUPW, Asymptotic"])
def test_bistatic_receive_terms_past_the_float_range_exit_2(methods, tmp_path, capsys):
    # at r = 1e200 m, (r + R)^3 overflows: the receive terms gave a NaN block
    # read as singular (exit 0, with numpy's RuntimeWarning, which this suite
    # turns into an error) or an OverflowError (exit 3); the point is
    # refused before any is evaluated
    path = tmp_path / "far.ini"
    path.write_text(BISTATIC_SINGULAR_INI)
    code = main(["run", "--config", str(path), "--set", "scenario.separation_m=35",
                 "--set", "scenario.target_range_m=1e200", "--set", f"methods.use={methods}"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: sweep point M=9: the receive terms at "
                            "target_range_m = 1e+200 overflow: (r + R)^3 is past the "
                            "float range\n")


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


@pytest.mark.parametrize("both", ["ExactSum, NumericalFim", "NumericalFim, ExactSum"])
def test_both_fim_methods_fail_as_exact_sum_alone(both, capsys):
    # a config that lists both evaluates them once, on NumericalFim's path:
    # a target on a transmit element fails there as ExactSum alone fails
    def run(methods):
        code = main(["preset", "fig2", "--set", "scenario.target_angle_deg=90",
                     "--set", "scenario.target_range_m=0.1256",
                     "--set", f"methods.use={methods}", "--set", "sweep.values=9,17"])
        return code, capsys.readouterr()

    code, alone = run("ExactSum")
    assert code == 3
    code, captured = run(both)
    assert code == 3
    assert captured.out == alone.out == ""
    assert captured.err == alone.err


@pytest.mark.parametrize("overrides", [
    ["scenario.snr_db=4000"],
    ["sweep.axis=snr_db", "sweep.values=4000"],
])
def test_overflowing_snr_exits_2(overrides, capsys):
    # 10^400 overflows a float: a config error, not a traceback
    argv = ["preset", "fig2"]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:") and "overflows" in captured.err


def test_arithmetic_error_exits_3(monkeypatch, capsys):
    # an evaluator that divides by zero is reported as a numerical failure
    def divide_by_zero(*args):
        return 1.0 / 0.0

    monkeypatch.setattr(experiment, "crb_closed", divide_by_zero)
    code = main(["preset", "fig2", "--set", "sweep.values=9"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: float division by zero\n"


@pytest.mark.parametrize("freq", ["1e308", "1e200"])
@pytest.mark.parametrize("method", ["NumericalFim", "ExactSum", "ClosedForm"])
def test_out_of_range_carrier_exits_2(freq, method, capsys):
    # lambda^2 underflows at these carriers and k^2 sum (m d)^2 overflows
    code = main(["preset", "fig2", "--set", f"scenario.carrier_freq_hz={freq}",
                 "--set", "sweep.values=9", "--set", f"methods.use={method}"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:")
    assert f"carrier_freq_hz = {float(freq)!r} is out of range" in captured.err


def test_out_of_range_bistatic_carrier_names_both_spacings(capsys):
    # a bistatic point sums over a receive array of its own, so the refusal
    # names its spacing beside the transmit one
    assert main(["preset", "fig8", "--set", "montecarlo.enabled=false",
                 "--set", "scenario.carrier_freq_hz=1e308"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "config error: sweep point M=65: carrier_freq_hz = 1e+308 is out of range")
    assert "tx_spacing_m = 0.0628 and rx_spacing_m = 0.0628" in captured.err


@pytest.mark.parametrize("overrides", [
    # Taylor divided by an underflowed quartic (exit 3)
    ["preset", "fig2", "--set", "scenario.tx_spacing_m=1e-170", "--set", "sweep.values=9"],
    # ExactSum printed an inf row, Asymptotic finite "identifiable" bounds (exit 0)
    ["preset", "fig4", "--set", "scenario.tx_spacing_m=1e-300", "--set", "methods.use=ExactSum",
     "--set", "sweep.values=30"],
    ["preset", "fig4", "--set", "scenario.tx_spacing_m=1e-297",
     "--set", "methods.use=Asymptotic", "--set", "sweep.values=30"],
])
def test_underflowing_transmit_spacing_exits_2(overrides, capsys):
    # a monostatic point receives on the transmit array, so (k^2 sum (m d)^2)^2
    # underflows whatever rx_spacing_m says
    assert main(overrides) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:") and "Traceback" not in captured.err
    assert "tx_spacing_m = 1e-" in captured.err and "is out of range" in captured.err


def test_carriers_far_from_physical_still_run(capsys):
    # the limit is numeric, not physical: these carriers give finite bounds
    for freq in ("1e-60", "1e60"):
        code = main(["preset", "fig2", "--set", f"scenario.carrier_freq_hz={freq}",
                     "--set", "sweep.values=9", "--set",
                     "methods.use=NumericalFim,ExactSum,ClosedForm"])
        assert code == 0
        rows = _rows(capsys.readouterr().out)
        assert [r["identifiable"] for r in rows] == ["true"] * 3


def test_extreme_snr_scales_the_bounds_exactly(capsys):
    # at snr_db = +-3000 the information entries are ~1e+-300, so q00 q11
    # leaves the float range; the bounds must still be the 0 dB ones times
    # 10^-+300 and NumericalFim must still equal ExactSum
    methods = "methods.use=NumericalFim,ExactSum,ClosedForm"
    rows = {}
    for snr in ("0", "3000", "-3000"):
        code = main(["preset", "fig2", "--set", f"scenario.snr_db={snr}",
                     "--set", "sweep.values=9", "--set", methods])
        assert code == 0
        rows[snr] = _rows(capsys.readouterr().out)
    for snr, factor in (("3000", 1e-300), ("-3000", 1e300)):
        fim, exact, closed = rows[snr]
        assert {k: v for k, v in fim.items() if k != "method"} == \
            {k: v for k, v in exact.items() if k != "method"}
        for row, ref in zip(rows[snr], rows["0"]):
            assert row["identifiable"] == "true"
            for col in ("crb_theta_rad2", "crb_r_m2"):
                assert abs(float(row[col]) / (float(ref[col]) * factor) - 1.0) < 1e-12


@pytest.mark.parametrize("snr,sets", [
    ("-3060", ("fig2", "sweep.values=1025")),
    ("-3060", ("fig3", "sweep.values=1025")),
    # at 100 MHz FarFieldUPW printed an unexplained inf,inf,false row and
    # Asymptotic exited 2
    ("-3075", ("fig2", "sweep.values=2049", "scenario.carrier_freq_hz=1e8",
               "methods.use=ClosedForm,ExactSum,Taylor,FarFieldUPW,Asymptotic")),
], ids=["fig2", "fig3", "fig2-100MHz"])
def test_low_snr_bounds_that_fit_a_float_are_printed(snr, sets, capsys):
    # every bound here fits a float, but ClosedForm's MIMO scale, Taylor's
    # range numerator and the 1/(2 gamma L) lambda^2 prefix of the others
    # overflowed before their division and the point exited 2; each bound is
    # its 0 dB value times 10^(-snr_db/10)
    name, *pairs = sets
    rows = {}
    for snr_db in ("0", snr):
        argv = ["preset", name, "--set", f"scenario.snr_db={snr_db}"]
        assert main(argv + [a for p in pairs for a in ("--set", p)]) == 0
        rows[snr_db] = _rows(capsys.readouterr().out)
    factor = 10.0 ** (-float(snr) / 10.0)
    for row, ref in zip(rows[snr], rows["0"], strict=True):
        assert (row["method"], row["identifiable"]) == (ref["method"], ref["identifiable"])
        for col in ("crb_theta_rad2", "crb_r_m2"):
            if ref[col] == "inf":
                assert row[col] == "inf"
            else:
                assert abs(float(row[col]) / (float(ref[col]) * factor) - 1.0) < 1e-12


@pytest.mark.parametrize("sets", [
    ("fig2", "scenario.snr_db=-3070", "sweep.values=9"),
    ("fig2", "scenario.snr_db=-3070", "sweep.values=9", "methods.use=Taylor"),
    ("fig4", "scenario.snr_db=200", "scenario.time_bandwidth=1e300", "sweep.values=30"),
    ("fig4", "scenario.snr_db=3000", "sweep.values=30"),
    ("fig4", "scenario.snr_db=3000", "sweep.values=30", "methods.use=ExactSum"),
    # angle-only bounds past the float range: a plane-wave and a
    # small-aperture one, +inf at 5 kHz
    ("fig2", "scenario.snr_db=-3075", "scenario.carrier_freq_hz=5e3", "sweep.values=2049",
     "methods.use=FarFieldUPW"),
    ("fig2", "scenario.snr_db=-3075", "scenario.carrier_freq_hz=5e3", "sweep.values=2049",
     "methods.use=Asymptotic", "methods.asymptotic_regime=SmallAperture"),
    # an infinite-aperture angle bound that gamma L takes beneath the
    # subnormals off boresight, where the model's bound is not 0
    ("fig2", "sweep.values=9", "scenario.snr_db=2910", "scenario.target_range_m=1e9",
     "methods.use=Asymptotic", "methods.asymptotic_regime=InfiniteAperture"),
], ids=["fig2-low", "fig2-low-taylor", "fig4-gamma-l-overflow", "fig4-high",
        "fig4-high-exactsum", "fig2-low-farfield", "fig2-low-small-aperture",
        "fig2-high-infinite-aperture"])
def test_bounds_past_the_float_range_exit_2(sets, capsys):
    # at an extreme gamma L the bounds leave the normal float range: +inf,
    # subnormal or 0, marked identifiable by every evaluator (angle-only
    # ones included), are refused, not printed
    name, *pairs = sets
    assert main(["preset", name, *(a for p in pairs for a in ("--set", p))]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error:")
    assert "snr_db" in captured.err and "time_bandwidth" in captured.err


def test_infinite_aperture_boresight_zero_is_the_models_at_any_gamma_l(capsys):
    # at boresight the infinite-aperture angle limit is 0 by the model, not
    # by gamma L: it is printed at the gamma L whose off-boresight 0 is refused
    assert main(["preset", "fig2", "--set", "sweep.values=9", "--set", "scenario.snr_db=2910",
                 "--set", "scenario.target_range_m=1e9", "--set", "scenario.target_angle_deg=0",
                 "--set", "methods.use=Asymptotic",
                 "--set", "methods.asymptotic_regime=InfiniteAperture"]) == 0
    (row,) = _rows(capsys.readouterr().out)
    assert (row["crb_theta_rad2"], row["identifiable"]) == ("0", "true")
    assert "degenerates to 0 at boresight" in row["warnings"]


def test_singular_information_says_why(capsys):
    # at r = 1e200 m the angle/range block is singular at working precision:
    # the exact methods' rows carry that reason instead of a bare inf
    assert main(["preset", "fig2", "--set", "sweep.values=9",
                 "--set", "scenario.target_range_m=1e200"]) == 0
    rows = {r["method"]: r for r in _rows(capsys.readouterr().out)}
    for method in ("ClosedForm", "ExactSum", "NumericalFim"):
        assert (rows[method]["crb_theta_rad2"], rows[method]["identifiable"]) == ("inf", "false")
        assert rows[method]["warnings"] == SINGULAR_WARNING


def test_singular_block_keeps_its_verdict_past_the_float_range(capsys):
    # fig8's point in phased mode observes the receive factor alone, whose
    # Gram is rank one. At 3060 dB the scale 2 gamma L M overflowed to inf,
    # inf times that Gram gave inf and NaN entries (with numpy's
    # RuntimeWarning, which this suite turns into an error), and the block
    # read as information past the float range (exit 2). The unscaled Gram
    # decides, so the row is the one 0 dB gives
    assert main(["preset", "fig8", "--set", "montecarlo.enabled=false",
                 "--set", "scenario.mode=phased", "--set", "sweep.values=65",
                 "--set", "methods.use=ExactSum", "--set", "scenario.snr_db=3060"]) == 0
    (row,) = _rows(capsys.readouterr().out)
    assert (row["crb_theta_rad2"], row["crb_r_m2"], row["identifiable"]) == ("inf", "inf", "false")
    assert row["warnings"] == SINGULAR_WARNING


def test_preset_csv_bytes_are_pinned(capsys):
    # sha256 of the preset CSVs: a change to the bound kernels that means to
    # keep every bit keeps these; one that moves a cell says which
    for args, digest in PRESET_DIGESTS.items():
        assert main(["preset", *args]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, args


def test_endfire_methods_agree_with_oracle(capsys):
    # theta = 90 deg inside the aperture: every angle entry carries
    # cos(theta)^2 ~ 4e-33, which a rule scaled by the trace took for a
    # singular block; the 60-digit oracle of tests/test_oracle.py gives
    # 2.904086286106622e+27 rad^2
    code = main(["preset", "fig2", "--set", "scenario.target_angle_deg=90",
                 "--set", "scenario.target_range_m=0.2",
                 "--set", "methods.use=NumericalFim,ExactSum", "--set", "sweep.values=9"])
    assert code == 0
    fim, exact = _rows(capsys.readouterr().out)
    assert fim.pop("method") == "NumericalFim" and exact.pop("method") == "ExactSum"
    assert fim == exact
    assert fim["identifiable"] == "true"
    assert abs(float(fim["crb_theta_rad2"]) / 2.904086286106622e+27 - 1.0) < 1e-10


MC_STACK = ("nfcrb.estimator", "nfcrb.signalsim", "numpy.random")


def test_bound_presets_start_without_the_monte_carlo_stack():
    # fig2-fig7 never import the estimator, the simulator or numpy's RNG;
    # a Monte Carlo run loads all three on first use
    script = f"""
import contextlib, io, json, sys
from nfcrb import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["preset", f"fig{{i}}"]) for i in range(2, 8)]
    bound_only = [m for m in {MC_STACK!r} if m in sys.modules]
    codes.append(cli.main(["preset", "fig8", "--set", "montecarlo.trials=1",
                           "--set", "montecarlo.theta_points=31",
                           "--set", "montecarlo.range_points=21"]))
print(json.dumps([codes, bound_only, [m for m in {MC_STACK!r} if m in sys.modules]]))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, bound_only, after_mc = json.loads(proc.stdout)
    assert codes == [0] * 7
    assert bound_only == []
    assert after_mc == list(MC_STACK)


def test_monte_carlo_coarse_factor_over_budget_exits_2():
    # the 90 GiB coarse factor of this point cannot be allocated; the point
    # is refused before any point is evaluated
    proc = subprocess.run(
        [sys.executable, "-m", "nfcrb.cli", "preset", "fig8", "--set", "montecarlo.trials=1",
         "--set", "montecarlo.theta_points=100000000", "--set", "sweep.values=65"],
        capture_output=True, text=True, env=_child_env(), timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("config error:") and "coarse factor" in proc.stderr


@pytest.mark.parametrize("name", list(experiment.PRESETS))
def test_preset_command_runs_the_presets_config(name, capsys):
    # the command builds its one preset; it must be the config presets()
    # gives, run and rendered (Monte Carlo shrunk by --set and by replace)
    cfg, args = presets()[name], []
    if cfg.montecarlo:
        small = {"trials": 2, "theta_points": 31, "range_points": 21}
        cfg = replace(cfg, montecarlo=replace(cfg.montecarlo, **small))
        for key, value in small.items():
            args += ["--set", f"montecarlo.{key}={value}"]
    assert main(["preset", name, *args]) == 0
    assert capsys.readouterr().out == csv_text(run_experiment(cfg))


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert main(["preset", "fig2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: cannot write {out}: ")
    assert not out.parent.exists()


def test_set_adds_a_section_the_config_lacks(capsys):
    # fig2 has no [montecarlo] block: --set adds one, which then lacks its
    # other required keys
    assert main(["preset", "fig2", "--set", "montecarlo.trials=3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: [montecarlo] master_seed is required\n"


def test_unknown_preset_lists_every_preset(capsys):
    assert main(["preset", "fig1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: unknown preset 'fig1'; available: "
                            "fig2, fig3, fig4, fig5, fig6, fig7, fig8, fig9\n")


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
    assert capsys.readouterr().out == csv_text(run_experiment(cfg))

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


def test_transmit_count_past_the_float_range_exits_2(capsys):
    # M (M^2 - 1) of M = 1e103 is past the float range: a config error that
    # names the sweep point, not an int-to-float OverflowError (exit 3)
    assert main(["preset", "fig2", "--set", "sweep.values=1e103",
                 "--set", "methods.use=Asymptotic"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "config error: sweep point M=1e+103: num_tx with tx_spacing_m = 0.0628 (transmit and "
        "receive) is out of range at carrier_freq_hz = 2370000000.0")
    assert "carrier_freq_hz = 2370000000.0 is out of range" not in captured.err


_HUGE_INT = repr(10**400)


@pytest.mark.parametrize("sets,err", [
    # the snr_db point of a sweep, which from_snr refused without naming it
    (("fig2", "sweep.axis=snr_db", "sweep.values=0,4000"),
     "sweep point snr_db=4000: snr_db = 4000.0 overflows the linear SNR"),
    # integer literals past the float range: a traceback (exit 1) or an
    # int-to-float OverflowError (exit 3) before
    (("fig2", f"sweep.values={_HUGE_INT}1"), "sweep.values must be finite and fit a float"),
    (("fig4", f"scenario.num_tx={_HUGE_INT}", "methods.use=ClosedForm"),
     "sweep point theta=-75.0: num_tx with tx_spacing_m = 0.0628 (transmit and receive) "
     "is out of range at carrier_freq_hz = 2370000000.0: the bounds need "
     "(k^2 sum (n d)^2)^2 a normal float"),
    (("fig8", "montecarlo.enabled=false", f"scenario.num_rx={_HUGE_INT}"),
     "sweep point M=65: num_rx with rx_spacing_m = 0.0628 is out of range at "
     "carrier_freq_hz = 2370000000.0: the bounds need (k^2 sum (n d)^2)^2 a normal float"),
], ids=["snr-sweep-point", "huge-sweep-value", "huge-num-tx", "huge-bistatic-num-rx"])
def test_refusals_name_the_key_at_fault(sets, err, capsys):
    name, *pairs = sets
    assert main(["preset", name, *(a for p in pairs for a in ("--set", p))]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"config error: {err}\n"


def test_master_seed_past_the_float_range_runs(capsys):
    # the seed is an integer for numpy's SeedSequence, never a float
    assert main(["preset", "fig8", "--set", "sweep.values=65", "--set", "montecarlo.trials=1",
                 "--set", "montecarlo.theta_points=11", "--set", "montecarlo.range_points=11",
                 "--set", f"montecarlo.master_seed={_HUGE_INT}"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 3 and all(row["master_seed"] == _HUGE_INT for row in rows)


def test_phased_small_aperture_bound_at_a_huge_m(capsys):
    # pi^2 d^2 M^4 is a float (~1e221) though the integer M^4 is not: the
    # bound was an int-to-float OverflowError (exit 3). It must match a
    # 50-digit evaluation of the same formula, 3 lambda^2 / (2 gamma L pi^2
    # d^2 M^4 cos^2 theta) at gamma L = 1
    assert main(["preset", "fig3", "--set", "sweep.values=1e80",
                 "--set", "methods.use=Asymptotic",
                 "--set", "methods.asymptotic_regime=SmallAperture",
                 "--set", "scenario.tx_spacing_m=1e-50"]) == 0
    (row,) = _rows(capsys.readouterr().out)
    with mpmath.workdps(50):
        lam = mpmath.mpf(299_792_458) / mpmath.mpf(2.37e9)
        ref = 3 * lam ** 2 / (2 * mpmath.pi ** 2 * mpmath.mpf(1e-50) ** 2
                              * mpmath.mpf(int(row["M"])) ** 4
                              * mpmath.cos(mpmath.radians(30)) ** 2)
        assert abs(mpmath.mpf(row["crb_theta_rad2"]) / ref - 1) < 1e-12


# --- the exit contract over whole configs ------------------------------------------

# the model-domain refusals that README lists with exit 3: theta = +-90 deg
# for each of four methods, d_tx >= r for ClosedForm, r = R for bistatic
# Asymptotic and a target on the receive-array centre; and beside them a
# target on a transmit element with ExactSum or NumericalFim
EXIT_3_REFUSALS = frozenset(f"numerical failure: {text}\n" for text in (
    "closed forms are singular at theta = +-pi/2",
    "asymptotic bounds are singular at theta = +-pi/2",
    "Taylor bounds are singular at theta = +-pi/2",
    "plane-wave bounds are singular at theta = +-pi/2",
    "element spacing must be smaller than the target range",
    "target range equals the array separation",
    "target coincides with the receive-array center",
    "target coincides with a transmit element",
))


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


# each sweep axis's values, with theta's edges and signed zeros drawn often
_AXIS_VALUES = {
    "theta": st.one_of(st.sampled_from((90.0, -90.0, 0.0, -0.0)), st.floats(-90.0, 90.0)),
    "r": _log_uniform(-4.0, 14.0),
    "snr_db": st.floats(-3100.0, 3100.0),
}


def _or_huge(counts):
    return st.integers(0, 7).flatmap(
        lambda k: st.integers(2**1024, 2**1100) if k == 0 else counts)


@st.composite
def _cli_overrides(draw):
    """--set pairs that make fig2 any config without a [montecarlo] block:
    mode, separation (0 or not: the topology), M, N, spacings, r, theta,
    carrier, snr_db, L, a method subset, the asymptotic regime and a
    2-point sweep on a random axis. A method set that sums over the
    elements draws M up to 4097; a closed-form one, log-uniform to 1e300.
    About one count in eight (M, num_tx or num_rx) is an integer literal
    past the float range."""
    methods = draw(st.lists(st.sampled_from([m.value for m in experiment.CrbMethod]),
                            min_size=1, unique=True))
    per_element = not {"ExactSum", "NumericalFim"}.isdisjoint(methods)
    counts = _or_huge(st.integers(1, 4097) if per_element
                      else st.floats(0.0, 300.0).map(lambda e: int(10.0 ** e)))
    values = {**_AXIS_VALUES, "M": counts}
    axis = draw(st.sampled_from(sorted(values)))
    bistatic = draw(st.booleans())
    scenario = {
        "mode": draw(st.sampled_from(("mimo", "phased"))),
        "separation_m": draw(_log_uniform(-3.0, 6.0)) if bistatic else 0.0,
        "num_tx": draw(counts),
        "num_rx": draw(_or_huge(st.integers(1, 16))),
        "tx_spacing_m": draw(_log_uniform(-9.0, 3.0)),
        "rx_spacing_m": draw(_log_uniform(-9.0, 3.0)),
        "target_range_m": draw(values["r"]),
        "target_angle_deg": draw(values["theta"]),
        "carrier_freq_hz": draw(_log_uniform(2.0, 16.0)),
        "snr_db": draw(values["snr_db"]),
        "time_bandwidth": draw(_log_uniform(0.0, 8.0)),
    }
    sets = [f"scenario.{key}={value if isinstance(value, str) else repr(value)}"
            for key, value in scenario.items()]
    sets += [f"methods.use={','.join(methods)}",
             "methods.asymptotic_regime="
             + draw(st.sampled_from([r.value for r in experiment.AsymptoticRegime])),
             f"sweep.axis={axis}",
             "sweep.values=" + ",".join(repr(draw(values[axis])) for _ in range(2))]
    return [arg for pair in sets for arg in ("--set", pair)]


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(sets=_cli_overrides())
def test_any_bound_config_exits_by_the_contract(sets):
    # exit 0 with every identifiable bound a normal float (Asymptotic's
    # model 0 aside), exit 2 with a config error, or exit 3 from a listed
    # refusal; never a warning and never a NaN cell
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["preset", "fig2", *sets])
    out, err = out.getvalue(), err.getvalue()
    if code == 2:
        assert out == "" and err.startswith("config error:"), err
        return
    if code == 3:
        assert out == "" and err in EXIT_3_REFUSALS, err
        return
    assert code == 0 and err == "", (code, err)
    low = sys.float_info.min
    for row in _rows(out):
        assert "nan" not in (cell.lower() for cell in row.values()), row
        if row["identifiable"] == "true":
            bounds = [float(row["crb_theta_rad2"]), float(row["crb_r_m2"])]
            if row["method"] == "Asymptotic":
                bounds = [b or low for b in bounds]
            assert all(low <= b < math.inf for b in bounds), row
