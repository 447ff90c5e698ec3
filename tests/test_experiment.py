"""Sweep materialization, the experiment runner, CSV rendering, and the INI
config round trip."""

import csv
import dataclasses
import hashlib
import io
import itertools
import math
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import csv_text_oracle, table_rows
from nfcrb import experiment
from nfcrb.closedform import AsymptoticRegime, crb_closed
from nfcrb.errors import ConfigError
from nfcrb.estimator import (
    GridSpec,
    ObservationGridBuilder,
    RmseReport,
    _PreparedMlSearch,
)
from nfcrb.experiment import (
    MAX_COARSE_FACTOR_BYTES,
    BASE_COLUMNS,
    MAX_ELEMENTS,
    MAX_SWEEP_POINTS,
    MC_COLUMNS,
    PRESET_SUMMARIES,
    CrbMethod,
    ExperimentConfig,
    MonteCarloConfig,
    SweepRun,
    SweepSpec,
    SweepTable,
    apply_overrides,
    csv_text,
    parse_config_text,
    presets,
    run_experiment,
    serialize_config,
    validate_config,
)
from nfcrb.fim import (
    _BLOCK_ELEMENTS,
    CrbResult,
    NoiseAndPowerConfig,
    crb_exact_sum,
    crb_from_fim,
    fim_numeric,
)
from nfcrb.geometry import (
    ArrayGeometry,
    CarrierConfig,
    Mode,
    SensingScenario,
    TargetLocation,
    Topology,
)
from nfcrb.steering import build_observation

import configparser


def mono_cfg(**kw):
    base = dict(
        num_tx=9, num_rx=9, tx_spacing_m=0.0628, rx_spacing_m=0.0628,
        separation_m=0.0, target_range_m=10.0, target_angle_deg=30.0,
        carrier_freq_hz=2.37e9, snr_db=0.0, time_bandwidth=1.0,
        mode=Mode.MIMO, topology=Topology.MONOSTATIC,
        sweep=SweepSpec(axis="M", values=(9, 17)),
        methods=(CrbMethod.CLOSED_FORM,),
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
    for stray in (dict(start=1.0), dict(stop=2.0), dict(start=1.0, stop=2.0)):
        with pytest.raises(ConfigError, match="not with values"):
            SweepSpec(axis="M", values=(9,), **stray)
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
        mono_cfg(methods=(CrbMethod.CLOSED_FORM, CrbMethod.CLOSED_FORM))
    with pytest.raises(ConfigError):
        mono_cfg(asymptotic_regime="Sideways")
    with pytest.raises(ConfigError):
        mono_cfg(methods=(CrbMethod.TAYLOR,), topology=Topology.BISTATIC_NEAR_FAR_TX,
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
    for grid in (dict(theta_points=1), dict(range_points=0), dict(refine_levels=-1)):
        with pytest.raises(ConfigError, match=f"montecarlo.{next(iter(grid))} must be >="):
            MonteCarloConfig(estimator="MatchedFieldML", trials=10, master_seed=0, **grid)
    # the INI reader turns names into members; a Python caller passes members
    with pytest.raises(ConfigError, match="take members, not names"):
        mono_cfg(methods=("ClosedForm",))
    with pytest.raises(ConfigError, match="take members, not names"):
        mono_cfg(asymptotic_regime="LargeAperture")


def _only_point(cfg):
    """The one run of a one-point sweep, and its one target."""
    (run,) = validate_config(cfg)
    (tgt,) = run.targets
    return run, tgt


def test_materialize_axis_overrides():
    cfg = mono_cfg(sweep=SweepSpec(axis="M", values=(16,)))
    run, _ = _only_point(cfg)
    assert run.geometry.num_tx == 17 and run.geometry.num_rx == 17
    assert run.note and "rounded up to 17" in run.note[0]
    with pytest.raises(ConfigError, match="not an integer M"):
        validate_config(mono_cfg(sweep=SweepSpec(axis="M", values=(16.5,))))

    _, tgt = _only_point(mono_cfg(sweep=SweepSpec(axis="theta", values=(45.0,))))
    assert tgt.angle_rad == pytest.approx(math.radians(45.0))
    _, tgt = _only_point(mono_cfg(sweep=SweepSpec(axis="r", values=(25.0,))))
    assert tgt.range_m == 25.0
    run, _ = _only_point(mono_cfg(sweep=SweepSpec(axis="snr_db", values=(7.0,))))
    assert run.noise.snr_linear == pytest.approx(10.0 ** 0.7)
    # the axes not swept keep the scenario scalars
    run, tgt = _only_point(mono_cfg(sweep=SweepSpec(axis="r", values=(10.0,))))
    assert run.geometry.num_tx == 9 and run.note == ()
    assert tgt.angle_rad == math.radians(30.0) and run.noise.snr_db == 0.0


def test_materialize_bistatic_keeps_receiver_count():
    cfg = mono_cfg(topology=Topology.BISTATIC_NEAR_FAR_TX, separation_m=35.0,
                   num_rx=8, rx_spacing_m=0.01, sweep=SweepSpec(axis="M", values=(65,)))
    run, _ = _only_point(cfg)
    assert run.geometry.num_tx == 65 and run.geometry.num_rx == 8
    assert run.geometry.rx_spacing == 0.01


def test_validate_config_reports_the_bad_point():
    cfg = mono_cfg(sweep=SweepSpec(axis="r", values=(10.0, -1.0)))
    with pytest.raises(ConfigError, match=r"sweep point r=-1\.0"):
        validate_config(cfg)


def test_validate_config_returns_each_point_materialized():
    # the axis decides the runs: each point of an M or snr_db sweep is a run
    # of its own, and one run holds every point of a theta or r sweep
    cfg = mono_cfg(sweep=SweepSpec(axis="M", values=(9, 16, 17, 9)))
    runs = validate_config(cfg)
    assert [run.geometry.num_tx for run in runs] == [9, 17, 17, 9]
    assert [bool(run.note) for run in runs] == [False, True, False, False]
    assert [len(run.targets) for run in runs] == [1, 1, 1, 1]
    assert all(run.noise.snr_db == 0.0 for run in runs)
    snr = validate_config(mono_cfg(sweep=SweepSpec(axis="snr_db", values=(0.0, 3.0, 0.0))))
    assert [run.noise.snr_db for run in snr] == [0.0, 3.0, 0.0]
    assert [len(run.targets) for run in snr] == [1, 1, 1]
    for axis, values in (("theta", (0.0, 45.0, 0.0)), ("r", (5.0, 10.0, 5.0))):
        (run,) = validate_config(mono_cfg(sweep=SweepSpec(axis=axis, values=values)))
        assert run.geometry.num_tx == 9 and run.note == ()
        assert len(run.targets) == 3


@pytest.mark.parametrize("extra", [
    dict(methods=(CrbMethod.CLOSED_FORM, CrbMethod.EXACT_SUM)),
    dict(methods=(CrbMethod.NUMERICAL_FIM,)),
    # an 11x11 grid keeps the coarse factor at the element cap (1.9 GB)
    # inside MAX_COARSE_FACTOR_BYTES, so the element cap is what is tested
    dict(methods=(CrbMethod.CLOSED_FORM,), montecarlo=MonteCarloConfig(
        estimator="MatchedFieldML", trials=2, master_seed=5,
        theta_points=11, range_points=11)),
])
def test_per_element_methods_are_capped_at_validation(extra):
    # materializing a point is O(1) in M, so every point is checked before
    # any is evaluated
    at_cap = mono_cfg(sweep=SweepSpec(axis="M", values=(9, MAX_ELEMENTS)), **extra)
    assert len(validate_config(at_cap)) == 2
    over = mono_cfg(sweep=SweepSpec(axis="M", values=(9, MAX_ELEMENTS + 2)), **extra)
    with pytest.raises(ConfigError, match=f"sweep point M={MAX_ELEMENTS + 2}: .* exceed"):
        validate_config(over)


def test_monte_carlo_coarse_factor_is_capped_at_validation():
    # 16 B per grid location and per row of the transmit and receive
    # factors, M + N for bistatic orthogonal waveforms; validation
    # allocates none
    cfg = presets()["fig8"]
    assert len(validate_config(cfg)) == 3
    m, n, rp = 1025, cfg.num_rx, cfg.montecarlo.range_points
    fits = MAX_COARSE_FACTOR_BYTES // (16 * (m + n) * rp)
    at_budget = replace(cfg, montecarlo=replace(cfg.montecarlo, theta_points=fits))
    assert len(validate_config(at_budget)) == 3
    over = replace(cfg, montecarlo=replace(cfg.montecarlo, theta_points=fits + 1))
    with pytest.raises(ConfigError, match="sweep point M=1025: the Monte Carlo coarse factor"):
        validate_config(over)


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("topology", list(Topology))
def test_coarse_factor_count_is_the_bytes_the_search_holds(mode, topology):
    bistatic = topology is Topology.BISTATIC_NEAR_FAR_TX
    geom = ArrayGeometry(9, 4 if bistatic else 9, 0.0628, 0.0628, 35.0 if bistatic else 0.0)
    scn = SensingScenario(geom, TargetLocation(18.0, 0.2), CarrierConfig(2.37e9), mode, topology)
    grid = GridSpec.around(scn.target, theta_halfspan_deg=5.0, theta_points=5,
                           range_span_frac=0.2, range_points=3, refine_levels=0)
    builder = ObservationGridBuilder(geom, scn.carrier, mode, topology)
    search = _PreparedMlSearch(builder, grid)
    held = search.a.nbytes + (0 if search.b is search.a else search.b.nbytes)
    assert builder.location_bytes * 15 == held


def test_coarse_factor_peak_is_half_again_the_factor_held():
    # the basis of MAX_COARSE_FACTOR_BYTES' transient: each factor is formed
    # in place over its 8 B real phase argument, so the peak is ~1.5x the
    # 16 B complex factor held (fig9 at M=257: 93 MB held)
    cfg = presets()["fig9"]
    run = next(run for run in validate_config(cfg) if run.geometry.num_tx == 257)
    mc = cfg.montecarlo
    grid = GridSpec.around(run.targets[0], mc.theta_halfspan_deg, mc.theta_points,
                           mc.range_span_frac, mc.range_points, mc.refine_levels)
    builder = ObservationGridBuilder(run.geometry, run.carrier, cfg.mode, cfg.topology)
    held = builder.location_bytes * mc.theta_points * mc.range_points
    peak = _traced_peak(lambda: _PreparedMlSearch(builder, grid))
    assert peak < 1.6 * held, peak / held


def test_receive_element_count_is_capped():
    cfg = mono_cfg(methods=(CrbMethod.EXACT_SUM,), topology=Topology.BISTATIC_NEAR_FAR_TX,
                   separation_m=35.0, num_rx=MAX_ELEMENTS + 1)
    with pytest.raises(ConfigError, match=f"{MAX_ELEMENTS + 1} receive elements exceed"):
        validate_config(cfg)


def _traced_peak(call) -> int:
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mode,topology", [(Mode.MIMO, Topology.MONOSTATIC),
                                           (Mode.MIMO, Topology.BISTATIC_NEAR_FAR_TX),
                                           (Mode.PHASED, Topology.MONOSTATIC)])
def test_per_element_peaks_are_the_element_caps_basis(mode, topology):
    # the basis of MAX_ELEMENTS: under 52 B per element for ExactSum or
    # NumericalFim, one location or a run of them (48.7 B and 48.0 B measured)
    m = 100_001
    assert m >= _BLOCK_ELEMENTS
    bistatic = topology is Topology.BISTATIC_NEAR_FAR_TX
    geom = ArrayGeometry(m, 8 if bistatic else m, 0.0628, 0.0628, 35.0 if bistatic else 0.0)
    targets = [TargetLocation(range_m=6300.0 + k, angle_rad=0.3) for k in range(3)]
    carrier, ncfg = CarrierConfig(2.37e9), NoiseAndPowerConfig.from_snr(0.0)
    one = targets[:1]
    assert _traced_peak(lambda: crb_exact_sum(geom, one, carrier, ncfg, mode, topology)) < 52 * m
    assert _traced_peak(lambda: crb_from_fim(fim_numeric(
        build_observation(geom, one[0], carrier, mode, topology), ncfg))) < 52 * m
    assert _traced_peak(lambda: crb_exact_sum(geom, targets, carrier, ncfg, mode, topology)) < 52 * m


# --- runner ------------------------------------------------------------------------

def test_run_experiment_row_layout():
    cfg = mono_cfg(sweep=SweepSpec(axis="M", values=(9, 16)),
                   methods=(CrbMethod.CLOSED_FORM, CrbMethod.EXACT_SUM))
    rows = parse_csv(csv_text(cfg, run_experiment(cfg)))
    assert len(rows) == 4
    assert [r["method"] for r in rows] == ["ClosedForm", "ExactSum"] * 2
    assert [r["M"] for r in rows] == ["9", "9", "17", "17"]
    assert all("rounded up" in r["warnings"] for r in rows[2:])
    assert list(rows[0]) == list(BASE_COLUMNS)


def _count_exact_sum_calls(monkeypatch):
    calls = []
    one_call = experiment.crb_exact_sum

    def counted(geom, targets, *args):
        calls.append((geom.num_tx, len(targets)))
        return one_call(geom, targets, *args)

    monkeypatch.setattr(experiment, "crb_exact_sum", counted)
    return calls, one_call


def test_exact_sum_runs_once_over_a_sweep_that_shares_its_geometry(monkeypatch):
    # fig4 sweeps 61 angles at one geometry: one call sums them all, and the
    # rows keep sweep order with the values of one-target calls
    calls, one_call = _count_exact_sum_calls(monkeypatch)
    cfg = presets()["fig4"]
    table = run_experiment(cfg)
    assert calls == [(1025, 61)]
    (run,) = table.runs
    assert run.targets == validate_config(cfg)[0].targets
    exact = table.results[cfg.methods.index(CrbMethod.EXACT_SUM)]
    assert len(exact) == len(run.targets) == 61
    for res, tgt in zip(exact, run.targets):
        alone = one_call(run.geometry, (tgt,), run.carrier, run.noise, cfg.mode,
                         cfg.topology)[0]
        assert (res.crb_theta, res.crb_range) == (alone.crb_theta, alone.crb_range)


def test_each_m_point_is_a_run_of_its_own(monkeypatch):
    calls, _ = _count_exact_sum_calls(monkeypatch)
    # 16 rounds up to 17, the next point's M, but stays a run of its own:
    # the warning on M=16 only, and each lone target on the per-location
    # path, never the blocked sum
    cfg = mono_cfg(sweep=SweepSpec(axis="M", values=(16, 17)),
                   methods=(CrbMethod.CLOSED_FORM, CrbMethod.EXACT_SUM))
    table = run_experiment(cfg)
    assert calls == []
    assert [len(run.targets) for run in table.runs] == [1, 1]
    rows = table_rows(table)
    assert [r["M"] for r in rows] == [17] * 4
    assert ["rounded up to 17" in r["warnings"] for r in rows] == [True, True, False, False]
    for db in (False, True):
        assert csv_text(cfg, table, db=db) == csv_text_oracle(cfg, table, db=db)
    # an M seen again after another gives the same row
    cfg = mono_cfg(sweep=SweepSpec(axis="M", values=(9, 17, 9)),
                   methods=(CrbMethod.EXACT_SUM,))
    table = run_experiment(cfg)
    assert calls == []
    rows = table_rows(table)
    assert len(rows) == 3 and rows[0] == rows[2]
    for db in (False, True):
        assert csv_text(cfg, table, db=db) == csv_text_oracle(cfg, table, db=db)


@pytest.mark.parametrize("name", ["fig2", "fig3"])
def test_a_config_listing_both_fim_methods_evaluates_each_point_once(monkeypatch, name):
    # ExactSum and NumericalFim give the same bits and share one evaluator,
    # which takes an M sweep's lone targets by the per-location path: once
    # per point, and crb_exact_sum not at all
    calls, one_call = _count_exact_sum_calls(monkeypatch)
    observed, build = [], experiment.build_observation

    def counted(geom, tgt, *args):
        observed.append((geom.num_tx, tgt))
        return build(geom, tgt, *args)

    monkeypatch.setattr(experiment, "build_observation", counted)
    cfg = replace(presets()[name], sweep=SweepSpec(
        axis="M", values=(9, 17, 33, 65, 129, 257, 513, 1025, 2049)))
    assert {CrbMethod.EXACT_SUM, CrbMethod.NUMERICAL_FIM} <= set(cfg.methods)
    table = run_experiment(cfg)
    runs = validate_config(cfg)
    assert calls == []
    assert observed == [(run.geometry.num_tx, tgt) for run in runs for tgt in run.targets]
    exact = table.results[cfg.methods.index(CrbMethod.EXACT_SUM)]
    # both names read the one list that the shared evaluation filled
    assert table.results[cfg.methods.index(CrbMethod.NUMERICAL_FIM)] is exact
    for res, run in zip(exact, runs, strict=True):
        alone = one_call(run.geometry, run.targets, run.carrier, run.noise,
                         cfg.mode, cfg.topology)[0]
        # every field, the bounds to the bit
        assert res == alone
    rows = table_rows(table)
    for method in ("ExactSum", "NumericalFim"):
        assert [r["crb_theta_rad2"] for r in rows if r["method"] == method] == [
            res.crb_theta for res in exact]


def test_every_method_has_one_run_evaluator():
    # one table from CrbMethod to a run's evaluator, with no fallthrough:
    # each entry's one-point run gives one result, and the two exact
    # methods, which give the same bits, share one evaluator
    assert set(experiment._EVALUATORS) == set(experiment.CrbMethod)
    assert experiment._EVALUATORS[CrbMethod.EXACT_SUM] is \
        experiment._EVALUATORS[CrbMethod.NUMERICAL_FIM]
    for mode in Mode:
        cfg = mono_cfg(mode=mode, sweep=SweepSpec(axis="M", values=(9,)))
        (run,) = validate_config(cfg)
        for method, evaluate in experiment._EVALUATORS.items():
            results = evaluate(run, cfg)
            assert [type(res) for res in results] == [CrbResult], method


def test_both_fim_methods_share_rows_in_any_listed_order():
    both = mono_cfg(sweep=SweepSpec(axis="M", values=(9, 16, 1)),
                    methods=(CrbMethod.NUMERICAL_FIM, CrbMethod.CLOSED_FORM,
                             CrbMethod.EXACT_SUM))
    table = run_experiment(both)
    for method in (CrbMethod.NUMERICAL_FIM, CrbMethod.EXACT_SUM):
        alone = run_experiment(replace(both, methods=(method,)))
        assert table.results[both.methods.index(method)] == alone.results[0]


def test_run_experiment_repeats_mc_row_per_method():
    cfg = mono_cfg(
        sweep=SweepSpec(axis="snr_db", values=(0.0,)),
        methods=(CrbMethod.CLOSED_FORM, CrbMethod.EXACT_SUM),
        montecarlo=MonteCarloConfig(
            estimator="MatchedFieldML", trials=2, master_seed=5,
            theta_points=15, range_points=11, refine_levels=0),
    )
    rows = parse_csv(csv_text(cfg, run_experiment(cfg)))
    assert len(rows) == 2
    assert list(rows[0]) == list(BASE_COLUMNS + MC_COLUMNS)
    for col in MC_COLUMNS:
        assert rows[0][col] == rows[1][col]
    assert rows[0]["trials"] == "2" and rows[0]["master_seed"] == "5"


# --- CSV ---------------------------------------------------------------------------

def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def test_csv_round_trips_floats_exactly():
    cfg = mono_cfg(methods=(CrbMethod.CLOSED_FORM, CrbMethod.FARFIELD_UPW))
    table = run_experiment(cfg)
    rows = table_rows(table)
    text = csv_text(cfg, table)
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
    cfg = mono_cfg(methods=(CrbMethod.CLOSED_FORM, CrbMethod.FARFIELD_UPW),
                   sweep=SweepSpec(axis="M", values=(9,)))
    table = run_experiment(cfg)
    text = csv_text(cfg, table, db=True)
    parsed = parse_csv(text)
    assert "crb_theta_db" in parsed[0] and "crb_r_db" in parsed[0]
    assert float(parsed[0]["crb_theta_db"]) == pytest.approx(
        10.0 * math.log10(table.results[0][0].crb_theta))
    assert float(parsed[1]["crb_r_db"]) == math.inf


def test_snr_db_cells_echo_the_configured_value():
    # 10 log10(10^(x/10)) can move x's last digit (3 dB came back as
    # 2.9999999999999991); the cells and rows give x as configured, -0 apart
    # from 0, and the bounds still read the linear SNR 10^(x/10)
    grid = tuple(0.5 * k for k in range(-60, 61)) + (-0.0,)
    cfg = mono_cfg(sweep=SweepSpec(axis="snr_db", values=grid),
                   methods=(CrbMethod.CLOSED_FORM,))
    table = run_experiment(cfg)
    assert [repr(row["snr_db"]) for row in table_rows(table)] == [repr(x) for x in grid]
    col = BASE_COLUMNS.index("snr_db")
    body = csv_text(cfg, table).splitlines()[5:]
    assert [line.split(",")[col] for line in body] == [f"{x:.17g}" for x in grid]
    for run, x, res in zip(table.runs, grid, table.results[0], strict=True):
        linear = NoiseAndPowerConfig(10.0 ** (x / 10.0))
        assert run.noise.snr_linear == linear.snr_linear and run.noise == linear
        (tgt,) = run.targets
        assert res == crb_closed(run.geometry, tgt, run.carrier, linear, cfg.mode, cfg.topology)


def test_empty_sweep_is_refused():
    with pytest.raises(ConfigError, match="no points"):
        mono_cfg(sweep=SweepSpec(axis="M", values=()))
    with pytest.raises(ConfigError, match="no points"):
        parse_config_text(GOOD_INI.replace("values = 9, 17", "values = , "))


def test_csv_quotes_cells_with_commas():
    cfg = mono_cfg(sweep=SweepSpec(axis="r", values=(0.5,)))
    table = run_experiment(cfg)
    text_value = 'near, "very" near\nsecond line'
    (res,), = table.results
    table = replace(table, results=[[res._replace(warnings=(text_value,))]])
    text = csv_text(cfg, table)
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
    table = run_experiment(cfg)
    for db in (False, True):
        assert csv_text(cfg, table, db=db) == csv_text_oracle(cfg, table, db=db)


def _run(geom, angle_rad):
    return SweepRun(geom, CarrierConfig(2.37e9), NoiseAndPowerConfig.from_snr(0.0), (),
                    [TargetLocation(10.0, angle_rad)])


def test_csv_text_formats_equal_scenario_cells_of_another_type_apart():
    # points whose scenarios compare equal but render differently (+0 and
    # -0) must not share their text
    cfg = mono_cfg(methods=(CrbMethod.CLOSED_FORM,))
    geoms = [ArrayGeometry(9, 9, 0.0628, 0.0628, sep) for sep in (0.0, -0.0)]
    assert geoms[0] == geoms[1]
    runs = [_run(geoms[0], 0.0), _run(geoms[1], -0.0)]
    res = CrbResult(0.0, -0.0, False)
    table = SweepTable(cfg, runs, [[res, res]])
    text = csv_text(cfg, table)
    assert text == csv_text_oracle(cfg, table)
    d = f"{0.0628:.17g}"
    assert text.endswith(f"\nClosedForm,mimo,monostatic,9,9,{d},{d},0,0,10,0,1,0,-0,false,\n"
                         f"ClosedForm,mimo,monostatic,9,9,{d},{d},-0,-0,10,0,1,0,-0,false,\n")


_MAX_FLOAT = 1.7976931348623157e308
_SPECIAL_FLOATS = (math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324,
                   2.2250738585072014e-308 / 3.0, _MAX_FLOAT)
_floats = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats(allow_subnormal=True))
_positive = st.one_of(st.sampled_from((5e-324, 2.2250738585072014e-308 / 3.0, _MAX_FLOAT)),
                      st.floats(min_value=0.0, exclude_min=True, max_value=_MAX_FLOAT))
_ints = st.integers(-2**70, 2**70)
_texts = st.tuples(st.one_of(st.text(alphabet=st.sampled_from('ab ;,"\n\r#')), st.text()))
_warnings = st.one_of(st.just(()), _texts)


@st.composite
def _tables(draw):
    """A cfg and a SweepTable whose every column holds a value of its
    declared type; runs of up to three points draw their geometry and
    noise from small pools, so that runs also share them."""
    methods = draw(st.lists(st.sampled_from(CrbMethod),
                            min_size=1, max_size=3, unique=True))
    mc = MonteCarloConfig(estimator="MatchedFieldML", trials=2, master_seed=5,
                          theta_halfspan_deg=draw(_positive), range_span_frac=draw(_positive))
    cfg = mono_cfg(methods=tuple(methods), montecarlo=mc if draw(st.booleans()) else None)
    geoms = draw(st.lists(st.builds(
        ArrayGeometry, st.integers(0, 2**70).map(lambda k: 2 * k + 1), st.integers(1, 2**70),
        _positive, _positive, st.one_of(st.just(-0.0), _positive, st.just(0.0))),
        min_size=1, max_size=2))
    noises = draw(st.lists(st.builds(
        NoiseAndPowerConfig, _positive, st.floats(min_value=1.0, max_value=_MAX_FLOAT)),
        min_size=1, max_size=2))
    carrier = CarrierConfig(2.37e9)
    runs = [
        SweepRun(draw(st.sampled_from(geoms)), carrier, draw(st.sampled_from(noises)),
                 draw(_warnings),
                 [TargetLocation(draw(_positive), draw(st.floats(-math.pi / 2, math.pi / 2)))
                  for _ in range(draw(st.integers(1, 3)))])
        for _ in range(draw(st.integers(0, 3)))]
    points = sum(len(run.targets) for run in runs)
    results = [[CrbResult(draw(_floats), draw(_floats), draw(st.booleans()), draw(_warnings))
                for _ in range(points)] for _ in methods]
    reports = [RmseReport(draw(_floats), draw(_floats), draw(_ints), draw(_ints), draw(_ints))
               for _ in range(points)] if cfg.montecarlo else None
    return cfg, SweepTable(cfg, runs, results, reports)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(drawn=_tables())
def test_csv_text_matches_the_oracle_on_any_cell(drawn):
    cfg, table = drawn
    for db in (False, True):
        assert csv_text(cfg, table, db=db) == csv_text_oracle(cfg, table, db=db)


# every bound method on every mode and topology, off the presets' inputs:
# angles to +-89.9 deg, ranges from inside the aperture to 1e6 m, M = 1, 3,
# 9 and 1025 (from 1024, so each row carries the rounding note), and snr_db
# values whose dB cells round-trip. NumericalFim runs on its own, so that
# ExactSum's blocked runs are what the other configs evaluate.
_GOLDEN_THETAS = (-89.9, -60.0, -30.0, -5.0, 0.0, 5.0, 30.0, 60.0, 89.9)
_GOLDEN_RANGES = (0.1, 0.3, 1.0, 3.0, 10.0, 34.0, 100.0, 1e3, 1e4, 1e5, 1e6)
# sha256 of _golden_grid_text(), recorded before the per-point evaluators
# were trimmed
GOLDEN_GRID_DIGEST = "4ebffb464bcfd8e1a3461df48fc1e8413189147fc89cc39b9df1417701717e59"


def _golden_grid_text() -> str:
    out = []
    for mode, topology in itertools.product(Mode, Topology):
        bistatic = topology is Topology.BISTATIC_NEAR_FAR_TX
        methods = tuple(m for m in CrbMethod if m is not CrbMethod.NUMERICAL_FIM
                        and not (bistatic and m is CrbMethod.TAYLOR))
        for num_tx, (snr_db, regime), (sweep, angle_deg), use in itertools.product(
                (1, 3, 9, 1024), zip((-10.0, 0.0, 20.0), AsymptoticRegime),
                ((SweepSpec(axis="theta", values=_GOLDEN_THETAS), 0.0),
                 (SweepSpec(axis="r", values=_GOLDEN_RANGES), -60.0)),
                (methods, (CrbMethod.NUMERICAL_FIM,))):
            cfg = ExperimentConfig(
                num_tx=num_tx, num_rx=8, separation_m=35.0 if bistatic else 0.0,
                target_range_m=5.0, target_angle_deg=angle_deg, snr_db=snr_db,
                mode=mode, topology=topology, sweep=sweep, methods=use,
                asymptotic_regime=regime)
            table = run_experiment(cfg)
            out += [csv_text(cfg, table), csv_text(cfg, table, db=True)]
    return "".join(out)


def test_golden_grid_keeps_its_bytes():
    text = _golden_grid_text()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_GRID_DIGEST


# sha256 of the repr of every fig2-fig7 result, in preset, method and point
# order, each as the four-field CrbResult(crb_theta=..., crb_range=...,
# identifiable=..., warnings=...), recorded while the record still carried
# its method: each field keeps its value and its type, and the record its
# repr
PRESET_RESULTS_REPR_DIGEST = "cf032276395bcc33887de072bc665e6b0570071f52183532c09728e90d4ad498"


def test_preset_results_keep_their_repr():
    text = "\n".join(repr(res) for name in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7")
                     for results in run_experiment(presets()[name]).results
                     for res in results)
    assert hashlib.sha256(text.encode()).hexdigest() == PRESET_RESULTS_REPR_DIGEST


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
    assert cfg.methods == (CrbMethod.CLOSED_FORM, CrbMethod.EXACT_SUM)
    assert cfg.asymptotic_regime is AsymptoticRegime.LARGE_APERTURE
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


def test_overrides_switch_the_sweep_form():
    steps = GOOD_INI.replace("values = 9, 17", "start = 9\nstop = 17\nstep = 8")
    to_values = parse_config_text(steps, overrides=["sweep.values=9"])
    assert to_values.sweep == SweepSpec(axis="M", values=(9,))
    to_factor = parse_config_text(steps, overrides=["sweep.factor=2"])
    assert to_factor.sweep == SweepSpec(axis="M", start=9.0, stop=17.0, factor=2.0)
    to_step = parse_config_text(GOOD_INI, overrides=[
        "sweep.step=4", "sweep.start=9", "sweep.stop=17"])
    assert to_step.sweep.points() == (9.0, 13.0, 17.0)
    # a form set by --set drops only the config's rival keys, never another --set
    for clash in (["sweep.values=9", "sweep.start=1"], ["sweep.start=1", "sweep.values=9"],
                  ["sweep.step=1", "sweep.factor=2", "sweep.start=1", "sweep.stop=4"]):
        with pytest.raises(ConfigError):
            parse_config_text(steps, overrides=clash)


# --- the config schema ---------------------------------------------------------------

_SECTION_OWNERS = {"scenario": ExperimentConfig, "methods": ExperimentConfig,
                   "sweep": SweepSpec, "montecarlo": MonteCarloConfig}


def test_each_config_field_is_one_ini_key():
    reached, required = {}, set()
    for section, keys in experiment._SECTIONS.items():
        owner = _SECTION_OWNERS[section]
        defaults = {f.name: f.default for f in dataclasses.fields(owner)}
        for key, (name, _, needed) in keys.items():
            if (section, key) == ("montecarlo", "enabled"):
                continue
            reached.setdefault((owner, name), []).append((section, key))
            assert needed == (defaults[name] is dataclasses.MISSING), (section, key)
            if needed:
                required.add((section, key))
    for owner in (ExperimentConfig, SweepSpec, MonteCarloConfig):
        for f in dataclasses.fields(owner):
            # the two dataclass-typed fields are sections of their own
            want = 0 if f.name in ("sweep", "montecarlo") else 1
            assert len(reached.get((owner, f.name), ())) == want, f.name
    assert required == {
        ("scenario", "num_tx"), ("scenario", "target_range_m"),
        ("scenario", "target_angle_deg"), ("sweep", "axis"), ("methods", "use"),
        ("montecarlo", "estimator"), ("montecarlo", "trials"), ("montecarlo", "master_seed"),
    }


def _assert_round_trip(cfg):
    text = serialize_config(cfg)
    back = parse_config_text(text)
    assert back == cfg
    assert serialize_config(back) == text


_finite = st.floats(allow_nan=False, allow_infinity=False)
_span = st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def _sweeps(draw):
    axis = draw(st.sampled_from(experiment.SWEEP_AXES))
    form = draw(st.sampled_from(("values", "step", "factor")))
    if form == "values":
        values = draw(st.lists(st.one_of(st.integers(), _finite), min_size=1, max_size=8))
        return SweepSpec(axis=axis, values=tuple(values))
    start, n = draw(st.floats(min_value=-1e6, max_value=1e6)), draw(st.integers(0, 50))
    if form == "step":
        step = draw(_span) * draw(st.sampled_from((-1.0, 1.0)))
        return SweepSpec(axis=axis, start=start, stop=start + n * step, step=step)
    factor = draw(st.sampled_from((1.5, 0.5, 2.0 ** 0.25)))
    start = abs(start) + 1.0
    return SweepSpec(axis=axis, start=start, stop=start * factor ** (n + 1), factor=factor)


@st.composite
def _configs(draw):
    mono = draw(st.booleans())
    names = [m for m in CrbMethod if mono or m is not CrbMethod.TAYLOR]
    optional = {
        "num_rx": st.integers(), "tx_spacing_m": _finite, "rx_spacing_m": _finite,
        "carrier_freq_hz": _finite, "snr_db": _finite, "time_bandwidth": _finite,
        "mode": st.sampled_from(Mode),
        "asymptotic_regime": st.sampled_from(AsymptoticRegime),
        "montecarlo": st.builds(
            MonteCarloConfig, estimator=st.just(experiment.ESTIMATOR_NAME),
            trials=st.integers(min_value=1), master_seed=st.integers(min_value=0),
            theta_halfspan_deg=_span, theta_points=st.integers(min_value=2),
            range_span_frac=_span, range_points=st.integers(min_value=2),
            refine_levels=st.integers(min_value=0)),
    }
    if not mono:
        optional["separation_m"] = st.floats(min_value=1e-3, max_value=1e6)
    kw = draw(st.fixed_dictionaries({}, optional=optional))
    if not mono:
        kw.setdefault("separation_m", 1.0)
        kw["topology"] = Topology.BISTATIC_NEAR_FAR_TX
    return ExperimentConfig(
        num_tx=draw(st.integers()), target_range_m=draw(_finite),
        target_angle_deg=draw(_finite), sweep=draw(_sweeps()),
        methods=tuple(draw(st.lists(st.sampled_from(names), min_size=1, unique=True))),
        **kw)


@settings(max_examples=300, deadline=None)
@given(cfg=_configs())
def test_any_config_round_trips_through_ini(cfg):
    _assert_round_trip(cfg)


# --- presets -----------------------------------------------------------------------

def test_preset_catalog():
    cat = presets()
    assert sorted(cat) == [f"fig{i}" for i in range(2, 10)]
    assert sorted(PRESET_SUMMARIES) == sorted(cat)
    for name, cfg in cat.items():
        validate_config(cfg)
        _assert_round_trip(cfg)


def test_preset_tables_list_the_same_names_in_order():
    names = list(PRESET_SUMMARIES)
    assert list(presets()) == names == list(experiment._PRESET_BUILDERS)
    for name, cfg in presets().items():
        assert experiment.preset(name) == cfg
    with pytest.raises(ConfigError, match="unknown preset 'fig1'; available: "
                                          + ", ".join(names) + "$"):
        experiment.preset("fig1")


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
