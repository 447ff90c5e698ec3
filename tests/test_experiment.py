"""Sweep materialization, the experiment runner, CSV rendering, and the INI
config round trip."""

import csv
import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import csv_text_oracle
from nfcrb import experiment
from nfcrb.errors import ConfigError
from nfcrb.experiment import (
    BASE_COLUMNS,
    MAX_ELEMENTS,
    MAX_SWEEP_POINTS,
    MC_COLUMNS,
    PRESET_SUMMARIES,
    ExperimentConfig,
    MonteCarloConfig,
    SweepSpec,
    apply_overrides,
    csv_text,
    materialize,
    parse_config_text,
    presets,
    run_experiment,
    serialize_config,
    validate_config,
)
from nfcrb.geometry import Mode, Topology

import configparser


def mono_cfg(**kw):
    base = dict(
        num_tx=9, num_rx=9, tx_spacing_m=0.0628, rx_spacing_m=0.0628,
        separation_m=0.0, target_range_m=10.0, target_angle_deg=30.0,
        carrier_freq_hz=2.37e9, snr_db=0.0, time_bandwidth=1.0,
        mode=Mode.MIMO, topology=Topology.MONOSTATIC,
        sweep=SweepSpec(axis="M", values=(9, 17)),
        methods=("ClosedForm",),
    )
    base.update(kw)
    return ExperimentConfig(**base)


# --- sweep specs -------------------------------------------------------------------

def test_sweep_spec_needs_exactly_one_form():
    with pytest.raises(ConfigError):
        SweepSpec(axis="M")
    with pytest.raises(ConfigError):
        SweepSpec(axis="M", values=(9,), start=1.0, stop=2.0, step=1.0)
    with pytest.raises(ConfigError):
        SweepSpec(axis="M", start=1.0, step=1.0)   # stop missing
    with pytest.raises(ConfigError):
        SweepSpec(axis="bogus", values=(1,))
    with pytest.raises(ConfigError):
        SweepSpec(axis="r", start=10.0, stop=5.0, step=1.0)
    with pytest.raises(ConfigError):
        SweepSpec(axis="r", start=5.0, stop=50.0, factor=0.5)
    with pytest.raises(ConfigError):
        SweepSpec(axis="r", start=-5.0, stop=50.0, factor=2.0)


def test_sweep_points_arithmetic_endpoint_is_kept():
    sw = SweepSpec(axis="theta", start=-75.0, stop=75.0, step=2.5)
    pts = sw.points()
    assert len(pts) == 61
    assert pts[0] == -75.0 and pts[-1] == 75.0
    # accumulated float error at the last point must not drop it
    fine = SweepSpec(axis="theta", start=0.0, stop=1.0, step=0.1).points()
    assert len(fine) == 11
    assert fine[-1] == pytest.approx(1.0)


def test_sweep_points_geometric():
    sw = SweepSpec(axis="r", start=5.0, stop=500.0, factor=100.0 ** (1.0 / 24.0))
    pts = sw.points()
    assert len(pts) == 25
    assert pts[0] == 5.0 and pts[-1] == pytest.approx(500.0)
    down = SweepSpec(axis="r", start=8.0, stop=1.0, factor=0.5).points()
    assert down == (8.0, 4.0, 2.0, 1.0)
    assert SweepSpec(axis="M", values=(1, 2, 3)).points() == (1, 2, 3)


def test_sweep_size_is_capped_before_points_are_generated():
    assert len(SweepSpec(axis="theta", start=0.0, stop=9999.0, step=1.0).points()) \
        == MAX_SWEEP_POINTS
    assert len(SweepSpec(axis="M", values=(9,) * MAX_SWEEP_POINTS).points()) == MAX_SWEEP_POINTS
    for huge in (dict(start=0.0, stop=10000.0, step=1.0),
                 dict(start=9.0, stop=1e9, factor=1.0000001),
                 dict(start=-1e308, stop=1e308, step=1e-300),
                 dict(start=1e300, stop=1e-300, factor=0.999),
                 dict(values=(9,) * (MAX_SWEEP_POINTS + 1))):
        with pytest.raises(ConfigError, match=f"more than {MAX_SWEEP_POINTS} points"):
            SweepSpec(axis="M", **huge)


@pytest.mark.parametrize("bad", [
    dict(values=(9, math.nan)), dict(values=(math.inf,)),
    dict(start=math.nan, stop=5.0, step=1.0), dict(start=1.0, stop=math.inf, factor=2.0),
])
def test_sweep_rejects_non_finite_values(bad):
    with pytest.raises(ConfigError, match="finite"):
        SweepSpec(axis="M", **bad)


# --- config validation ---------------------------------------------------------------

def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        mono_cfg(methods=())
    with pytest.raises(ConfigError):
        mono_cfg(methods=("Nonsense",))
    with pytest.raises(ConfigError):
        mono_cfg(methods=("ClosedForm", "ClosedForm"))
    with pytest.raises(ConfigError):
        mono_cfg(asymptotic_regime="Sideways")
    with pytest.raises(ConfigError):
        mono_cfg(methods=("Taylor",), topology=Topology.BISTATIC_NEAR_FAR_TX,
                 separation_m=35.0)
    with pytest.raises(ConfigError):
        mono_cfg(separation_m=1.0)
    with pytest.raises(ConfigError):
        mono_cfg(topology=Topology.BISTATIC_NEAR_FAR_TX, separation_m=0.0)
    for name in ("Magic", "Capon"):
        with pytest.raises(ConfigError, match="must be MatchedFieldML"):
            MonteCarloConfig(estimator=name, trials=10, master_seed=0)
    with pytest.raises(ConfigError):
        MonteCarloConfig(estimator="MatchedFieldML", trials=0, master_seed=0)


def test_materialize_axis_overrides():
    cfg = mono_cfg(sweep=SweepSpec(axis="M", values=(16,)))
    scn, ncfg, warns = materialize(cfg, 16)
    assert scn.geometry.num_tx == 17 and scn.geometry.num_rx == 17
    assert warns and "rounded up to 17" in warns[0]
    with pytest.raises(ConfigError):
        materialize(cfg, 16.5)

    scn, _, _ = materialize(mono_cfg(sweep=SweepSpec(axis="theta", values=(45.0,))), 45.0)
    assert scn.target.angle_rad == pytest.approx(math.radians(45.0))
    scn, _, _ = materialize(mono_cfg(sweep=SweepSpec(axis="r", values=(25.0,))), 25.0)
    assert scn.target.range_m == 25.0
    _, ncfg, _ = materialize(mono_cfg(sweep=SweepSpec(axis="snr_db", values=(7.0,))), 7.0)
    assert ncfg.snr_linear == pytest.approx(10.0 ** 0.7)
    # base point keeps the scenario scalars
    scn, ncfg, warns = materialize(mono_cfg())
    assert scn.geometry.num_tx == 9 and warns == ()


def test_materialize_bistatic_keeps_receiver_count():
    cfg = mono_cfg(topology=Topology.BISTATIC_NEAR_FAR_TX, separation_m=35.0,
                   num_rx=8, sweep=SweepSpec(axis="M", values=(65,)))
    scn, _, _ = materialize(cfg, 65)
    assert scn.geometry.num_tx == 65 and scn.geometry.num_rx == 8


def test_validate_config_reports_the_bad_point():
    cfg = mono_cfg(sweep=SweepSpec(axis="r", values=(10.0, -1.0)))
    with pytest.raises(ConfigError, match=r"sweep point r=-1\.0"):
        validate_config(cfg)


def test_validate_config_returns_each_point_materialized():
    cfg = mono_cfg(sweep=SweepSpec(axis="M", values=(9, 16)))
    points = validate_config(cfg)
    assert points == [materialize(cfg, 9), materialize(cfg, 16)]


@pytest.mark.parametrize("extra", [
    dict(methods=("ClosedForm", "ExactSum")),
    dict(methods=("NumericalFim",)),
    dict(methods=("ClosedForm",), montecarlo=MonteCarloConfig(
        estimator="MatchedFieldML", trials=2, master_seed=5)),
])
def test_per_element_methods_are_capped_at_validation(extra):
    # materializing a point is O(1) in M, so every point is checked before
    # any is evaluated
    at_cap = mono_cfg(sweep=SweepSpec(axis="M", values=(9, MAX_ELEMENTS)), **extra)
    assert len(validate_config(at_cap)) == 2
    over = mono_cfg(sweep=SweepSpec(axis="M", values=(9, MAX_ELEMENTS + 2)), **extra)
    with pytest.raises(ConfigError, match=f"sweep point M={MAX_ELEMENTS + 2}: .* exceed"):
        validate_config(over)


def test_receive_element_count_is_capped():
    cfg = mono_cfg(methods=("ExactSum",), topology=Topology.BISTATIC_NEAR_FAR_TX,
                   separation_m=35.0, num_rx=MAX_ELEMENTS + 1)
    with pytest.raises(ConfigError, match=f"{MAX_ELEMENTS + 1} receive elements exceed"):
        validate_config(cfg)


# --- runner ------------------------------------------------------------------------

def test_run_experiment_row_layout():
    cfg = mono_cfg(sweep=SweepSpec(axis="M", values=(9, 16)),
                   methods=("ClosedForm", "ExactSum"))
    rows = run_experiment(cfg)
    assert len(rows) == 4
    assert [r["method"] for r in rows] == ["ClosedForm", "ExactSum"] * 2
    assert [r["M"] for r in rows] == [9, 9, 17, 17]
    assert all("rounded up" in r["warnings"] for r in rows[2:])
    assert all("rmse_theta_rad" not in r for r in rows)
    assert set(BASE_COLUMNS) <= set(rows[0])


def test_exact_sum_runs_once_over_a_sweep_that_shares_its_geometry(monkeypatch):
    # fig4 sweeps 61 angles at one geometry: one call sums them all, and the
    # rows keep sweep order with the values of one-target calls
    calls = []
    one_call = experiment.crb_exact_sum

    def counted(geom, targets, *args):
        calls.append(len(targets))
        return one_call(geom, targets, *args)

    monkeypatch.setattr(experiment, "crb_exact_sum", counted)
    cfg = presets()["fig4"]
    rows = [r for r in run_experiment(cfg) if r["method"] == "ExactSum"]
    assert calls == [61]
    points = validate_config(cfg)
    assert len(rows) == len(points)
    for row, (scn, ncfg, _) in zip(rows, points):
        alone = one_call(scn.geometry, (scn.target,), scn.carrier, ncfg,
                         scn.mode, scn.topology)[0]
        assert row["theta_rad"] == scn.target.angle_rad
        assert (row["crb_theta_rad2"], row["crb_r_m2"]) == (alone.crb_theta, alone.crb_range)


def test_run_experiment_repeats_mc_row_per_method():
    cfg = mono_cfg(
        sweep=SweepSpec(axis="snr_db", values=(0.0,)),
        methods=("ClosedForm", "ExactSum"),
        montecarlo=MonteCarloConfig(
            estimator="MatchedFieldML", trials=2, master_seed=5,
            theta_points=15, range_points=11, refine_levels=0),
    )
    rows = run_experiment(cfg)
    assert len(rows) == 2
    assert set(MC_COLUMNS) <= set(rows[0])
    for col in MC_COLUMNS:
        assert rows[0][col] == rows[1][col]
    assert rows[0]["trials"] == 2 and rows[0]["master_seed"] == 5


# --- CSV ---------------------------------------------------------------------------

def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def test_csv_round_trips_floats_exactly():
    cfg = mono_cfg(methods=("ClosedForm", "FarFieldUPW"))
    rows = run_experiment(cfg)
    text = csv_text(cfg, rows)
    assert text.startswith("# near-field angle/range CRB sweep\n")
    parsed = parse_csv(text)
    assert len(parsed) == len(rows)
    for got, want in zip(parsed, rows):
        assert float(got["crb_theta_rad2"]) == want["crb_theta_rad2"]
        assert got["identifiable"] in ("true", "false")
    # plane-wave rows carry an infinite range bound and a warning note
    upw = [r for r in parsed if r["method"] == "FarFieldUPW"]
    assert all(float(r["crb_r_m2"]) == math.inf for r in upw)
    assert all("no range information" in r["warnings"] for r in upw)


def test_csv_db_columns():
    cfg = mono_cfg(methods=("ClosedForm", "FarFieldUPW"),
                   sweep=SweepSpec(axis="M", values=(9,)))
    rows = run_experiment(cfg)
    text = csv_text(cfg, rows, db=True)
    parsed = parse_csv(text)
    assert "crb_theta_db" in parsed[0] and "crb_r_db" in parsed[0]
    assert float(parsed[0]["crb_theta_db"]) == pytest.approx(
        10.0 * math.log10(rows[0]["crb_theta_rad2"]))
    assert float(parsed[1]["crb_r_db"]) == math.inf


def test_empty_sweep_is_refused():
    with pytest.raises(ConfigError, match="no points"):
        mono_cfg(sweep=SweepSpec(axis="M", values=()))
    with pytest.raises(ConfigError, match="no points"):
        parse_config_text(GOOD_INI.replace("values = 9, 17", "values = , "))


def test_csv_quotes_cells_with_commas():
    cfg = mono_cfg(sweep=SweepSpec(axis="r", values=(0.5,)))
    row = dict(run_experiment(cfg)[0])
    text_value = 'near, "very" near\nsecond line'
    row["warnings"] = text_value
    text = csv_text(cfg, [row])
    # RFC 4180: the cell is quoted and its quotes are doubled
    assert ',"near, ""very"" near\nsecond line"\n' in text
    data = text[text.index("method,"):]
    header, parsed = list(csv.reader(io.StringIO(data)))
    assert len(parsed) == len(header)
    assert parsed[header.index("warnings")] == text_value
    assert parsed[header.index("method")] == "ClosedForm"


def _mc_small(cfg):
    if cfg.montecarlo is None:
        return cfg
    return replace(cfg, montecarlo=replace(
        cfg.montecarlo, trials=2, theta_points=31, range_points=21))


@pytest.mark.parametrize("name", sorted(presets()))
def test_csv_text_matches_the_oracle_on_every_preset(name):
    cfg = _mc_small(presets()[name])
    rows = run_experiment(cfg)
    for db in (False, True):
        assert csv_text(cfg, rows, db=db) == csv_text_oracle(cfg, rows, db=db)


def test_csv_text_formats_equal_scenario_cells_of_another_type_apart():
    # equal values that render differently must not share their text
    cfg = mono_cfg()
    zeros = [0.0, -0.0, 0, False, np.float64(-0.0), np.bool_(False), 0.0, -0.0, 0, 0.0, -0.0]
    first = dict(zip(BASE_COLUMNS, ["a"] + [0.0] * 11 + [1.0, 2.0, True, ""]))
    second = {**first, **dict(zip(BASE_COLUMNS[1:12], zeros))}
    text = csv_text(cfg, [first, second])
    assert text == csv_text_oracle(cfg, [first, second])
    assert text.endswith("\na,0,-0,0,false,-0,False,0,-0,0,0,-0,1,2,true,\n")


_SPECIAL_FLOATS = (math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324,
                   2.2250738585072014e-308 / 3.0, 1.7976931348623157e308)
_floats = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats(allow_subnormal=True))
_numbers = st.one_of(_floats, _floats.map(np.float64), st.integers())
_any_cell = st.one_of(
    _numbers,
    st.booleans(), st.booleans().map(np.bool_),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.text(alphabet=st.sampled_from('ab ;,"\n\r#')),
    st.text(),
)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(values=st.lists(st.lists(_any_cell, min_size=len(BASE_COLUMNS),
                                max_size=len(BASE_COLUMNS)), max_size=4),
       bounds=st.lists(st.tuples(_numbers, _numbers), min_size=4, max_size=4),
       shared=st.lists(st.booleans(), min_size=4, max_size=4))
def test_csv_text_matches_the_oracle_on_any_cell(values, bounds, shared):
    cfg = mono_cfg()
    rows = [dict(zip(BASE_COLUMNS, vals)) for vals in values]
    # rows of one sweep point share their scenario objects, mode .. L
    for prev, row, share in zip(rows, rows[1:], shared):
        if share:
            row.update({k: prev[k] for k in BASE_COLUMNS[1:12]})
    assert csv_text(cfg, rows) == csv_text_oracle(cfg, rows)
    # the dB columns take numbers
    for row, (theta, rng) in zip(rows, bounds):
        row["crb_theta_rad2"], row["crb_r_m2"] = theta, rng
    assert csv_text(cfg, rows, db=True) == csv_text_oracle(cfg, rows, db=True)


# --- INI parsing --------------------------------------------------------------------

GOOD_INI = """
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


def test_parse_config_text_defaults():
    cfg = parse_config_text(GOOD_INI)
    assert cfg.num_rx == 1 and cfg.mode is Mode.MIMO
    assert cfg.topology is Topology.MONOSTATIC
    assert cfg.sweep.values == (9, 17)
    assert cfg.methods == ("ClosedForm", "ExactSum")
    assert cfg.montecarlo is None


@pytest.mark.parametrize("old,new,needle", [
    ("", "[extra]\nx = 1\n", "unknown section"),
    ("num_tx = 9", "num_tx = 9\nwavelength = 3", "unknown key"),
    ("num_tx = 9", "num_tx = nine", "not a valid int"),
    ("num_tx = 9", "num_tx = 9\nmode = duplex", "mode must be"),
    ("num_tx = 9", "num_tx = 9\ntopology = circular", "topology must be"),
    ("values = 9, 17", "values = 9, banana", "not a number"),
])
def test_parse_config_rejects(old, new, needle):
    text = GOOD_INI + new if old == "" else GOOD_INI.replace(old, new)
    with pytest.raises(ConfigError, match=needle):
        parse_config_text(text)


def test_parse_config_structural_requirements():
    with pytest.raises(ConfigError, match="num_tx is required"):
        parse_config_text("[scenario]\ntarget_range_m = 1\ntarget_angle_deg = 0\n"
                          "[sweep]\naxis = M\nvalues = 9\n[methods]\nuse = ClosedForm\n")
    with pytest.raises(ConfigError, match="axis is required"):
        parse_config_text("[scenario]\nnum_tx = 9\ntarget_range_m = 1\n"
                          "target_angle_deg = 0\n[methods]\nuse = ClosedForm\n")
    with pytest.raises(ConfigError, match="use is required"):
        parse_config_text("[scenario]\nnum_tx = 9\ntarget_range_m = 1\n"
                          "target_angle_deg = 0\n[sweep]\naxis = M\nvalues = 9\n")
    with pytest.raises(ConfigError, match="config syntax"):
        parse_config_text(GOOD_INI.replace("axis = M", "axis = M\naxis = r"))


def test_montecarlo_section_parsing():
    mc_ini = GOOD_INI + ("[montecarlo]\nenabled = true\nestimator = MatchedFieldML\n"
                         "trials = 4\nmaster_seed = 11\n")
    cfg = parse_config_text(mc_ini)
    assert cfg.montecarlo == MonteCarloConfig(
        estimator="MatchedFieldML", trials=4, master_seed=11)
    off = parse_config_text(mc_ini.replace("enabled = true", "enabled = false"))
    assert off.montecarlo is None
    with pytest.raises(ConfigError, match=r"\[montecarlo\] master_seed is required"):
        parse_config_text(GOOD_INI + "[montecarlo]\nestimator = MatchedFieldML\n"
                                     "trials = 4\n")
    with pytest.raises(ConfigError, match="not a valid bool"):
        parse_config_text(mc_ini.replace("enabled = true", "enabled = maybe"))


def test_apply_overrides():
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(GOOD_INI)
    apply_overrides(parser, ["scenario.snr_db=5.0", "sweep.values = 33"])
    cfg = config_from = parse_config_text(GOOD_INI,
                                          overrides=["scenario.snr_db=5.0",
                                                     "sweep.values=33"])
    assert cfg.snr_db == 5.0 and cfg.sweep.values == (33,)
    for bad in ("scenario.snr_db", "snr_db=5", "nosuch.key=1", "scenario.zzz=1"):
        with pytest.raises(ConfigError):
            apply_overrides(parser, [bad])


# --- presets -----------------------------------------------------------------------

def test_preset_catalog():
    cat = presets()
    assert sorted(cat) == [f"fig{i}" for i in range(2, 10)]
    assert sorted(PRESET_SUMMARIES) == sorted(cat)
    for name, cfg in cat.items():
        validate_config(cfg)
        roundtrip = parse_config_text(serialize_config(cfg))
        assert roundtrip == cfg, name


def test_preset_contents():
    cat = presets()
    assert cat["fig2"].sweep.values == (9, 17, 33, 65, 129, 257, 513, 1025)
    assert cat["fig2"].mode is Mode.MIMO and cat["fig3"].mode is Mode.PHASED
    th = cat["fig4"].sweep
    assert (th.start, th.stop, th.step) == (-75.0, 75.0, 2.5)
    assert cat["fig4"].num_tx == 1024   # rounds odd at materialize time
    mc = cat["fig8"].montecarlo
    assert mc.trials == 500 and mc.master_seed == 20260814
    assert cat["fig8"].time_bandwidth == 16.0
    assert cat["fig8"].sweep.values == (65, 257, 1025)
    assert cat["fig9"].montecarlo.refine_levels == 6
    assert cat["fig9"].snr_db == 10.0
