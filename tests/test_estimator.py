"""Grid search, refinement, ambiguity flagging, and the Monte Carlo RMSE
loop."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import CARRIER, bi_geom, mono_geom, target
from nfcrb.errors import ConfigError
from nfcrb.estimator import (
    _CHUNK,
    GridSpec,
    ObservationGridBuilder,
    _ml_stat,
    _paired_grid,
    _PreparedMlSearch,
    monte_carlo_rmse,
)
from nfcrb.experiment import (
    CrbMethod,
    ExperimentConfig,
    SweepSpec,
    presets,
    run_experiment,
    validate_config,
)
from nfcrb.fim import NoiseAndPowerConfig
from nfcrb.geometry import Mode, SensingScenario, Topology
from nfcrb.signalsim import synth_snapshot
from nfcrb.steering import build_observation

CFG10 = NoiseAndPowerConfig.from_snr(10.0)


def scenario(geom, tgt, mode, topology):
    return SensingScenario(geometry=geom, target=tgt, carrier=CARRIER,
                           mode=mode, topology=topology)


def window(tgt, theta_points, range_points, refine_levels):
    # MonteCarloConfig's default spans: +-5 degrees, +-20% of the range
    return GridSpec.around(tgt, theta_halfspan_deg=5.0, theta_points=theta_points,
                           range_span_frac=0.2, range_points=range_points,
                           refine_levels=refine_levels)


# --- grid plumbing -----------------------------------------------------------------

def test_grid_spec_validation():
    ok = dict(theta_range=(-0.5, 0.5), theta_points=11,
              range_range=(5.0, 15.0), range_points=11)
    GridSpec(**ok)
    with pytest.raises(ConfigError):
        GridSpec(**{**ok, "theta_points": 1})
    with pytest.raises(ConfigError):
        GridSpec(**{**ok, "theta_range": (0.5, -0.5)})
    with pytest.raises(ConfigError):
        GridSpec(**{**ok, "theta_range": (-2.0, 0.5)})
    with pytest.raises(ConfigError):
        GridSpec(**{**ok, "range_range": (0.0, 15.0)})
    with pytest.raises(ConfigError):
        GridSpec(**{**ok, "refine_levels": -1})
    for bounds in (dict(range_range=(5.0, math.inf)), dict(range_range=(5.0, math.nan)),
                   dict(theta_range=(math.nan, 0.5))):
        with pytest.raises(ConfigError, match="finite"):
            GridSpec(**{**ok, **bounds})


def test_grid_around_clips_to_domain():
    near_endfire = GridSpec.around(target(10.0, math.radians(85.0)), theta_halfspan_deg=10.0,
                                   theta_points=181, range_span_frac=0.2, range_points=121,
                                   refine_levels=3)
    assert near_endfire.theta_range[1] == math.pi / 2
    assert near_endfire.theta_range[0] == pytest.approx(math.radians(75.0))
    wide = GridSpec.around(target(10.0, 0.0), theta_halfspan_deg=5.0, theta_points=181,
                           range_span_frac=1.5, range_points=121, refine_levels=3)
    assert wide.range_range[0] == pytest.approx(10.0 * 1e-3)
    centered = GridSpec.around(target(10.0, 0.1), theta_halfspan_deg=5.0, theta_points=181,
                               range_span_frac=0.2, range_points=121, refine_levels=3)
    mid = centered.theta_values()[centered.theta_points // 2]
    assert mid == pytest.approx(0.1, abs=1e-15)


@pytest.mark.parametrize("mode", [Mode.MIMO, Mode.PHASED])
@pytest.mark.parametrize("topology", [Topology.MONOSTATIC,
                                      Topology.BISTATIC_NEAR_FAR_TX])
def test_factor_matrices_match_observation_vectors(mode, topology):
    geom = mono_geom(9) if topology is Topology.MONOSTATIC else bi_geom(9, 8, 35.0)
    builder = ObservationGridBuilder(geom, CARRIER, mode, topology)
    th = np.array([0.0, 0.21, -0.4])
    ra = np.array([8.0, 12.0, 20.0])
    a, b = builder.factor_matrices(th, ra)
    assert a.shape == (builder.tx_len, 3) and b.shape == (builder.rx_len, 3)
    for j in range(3):
        g = np.kron(b[:, j], a[:, j])
        want = build_observation(geom, target(float(ra[j]), float(th[j])),
                                 CARRIER, mode, topology).g
        assert np.max(np.abs(g - want)) < 1e-12


def test_builder_rejects_bistatic_without_separation():
    with pytest.raises(Exception):
        ObservationGridBuilder(mono_geom(9), CARRIER, Mode.MIMO,
                               Topology.BISTATIC_NEAR_FAR_TX)


# --- matched-field search ----------------------------------------------------------

@pytest.mark.parametrize("mode", [Mode.MIMO, Mode.PHASED])
@pytest.mark.parametrize("topology", [Topology.MONOSTATIC,
                                      Topology.BISTATIC_NEAR_FAR_TX])
def test_statistic_is_the_normalised_matched_field_power(mode, topology):
    geom = mono_geom(9) if topology is Topology.MONOSTATIC else bi_geom(9, 8, 35.0)
    builder = ObservationGridBuilder(geom, CARRIER, mode, topology)
    rng = np.random.default_rng(2024)
    y = rng.standard_normal(builder.rx_len * builder.tx_len * 2).view(complex)
    ymat = y.reshape(builder.rx_len, builder.tx_len)

    def brute(th, ra):
        out = []
        for t, r in zip(th.tolist(), ra.tolist()):
            g = build_observation(geom, target(r, t), CARRIER, mode, topology).g
            out.append(abs(np.vdot(g, y)) ** 2 / np.vdot(g, g).real)
        return np.array(out)

    th, ra = rng.uniform(-1.2, 1.2, 50), rng.uniform(6.0, 40.0, 50)
    stat = _ml_stat(ymat.conj(), *builder.factor_matrices(th, ra))
    np.testing.assert_allclose(stat, brute(th, ra), rtol=1e-12, atol=0.0)

    # without refinement the search returns the brute-force argmax
    grid = window(target(15.0, 0.2), 13, 9, refine_levels=0)
    th, ra = _paired_grid(grid.theta_values(), grid.range_values())
    want = brute(th, ra)
    best = int(np.argmax(want))
    runner_up = np.partition(want, -2)[-2]
    assert want[best] - runner_up > 1e-9 * want[best]  # no near-tie to flip
    est = _PreparedMlSearch(builder, grid).estimate(y)
    assert (est.theta, est.range_m) == (th[best], ra[best])


def conjugated_factor_stat(ymat, a, b):
    """The statistic as g^H y over conjugated copies of the factors: the
    form the search reads as g^T y* over the factors themselves."""
    a_conj = a.conj()
    b_conj = a_conj if b is a else b.conj()
    p = a.shape[1]
    stat = np.empty(p)
    for s in range(0, p, _CHUNK):
        sl = slice(s, min(s + _CHUNK, p))
        val = np.einsum("nj,nj->j", b_conj[:, sl], ymat @ a_conj[:, sl])
        stat[sl] = (val.real**2 + val.imag**2) / ymat.size
    return stat


def assert_stat_bits(builder, y, th, ra):
    ymat = y.reshape(builder.rx_len, builder.tx_len)
    a, b = builder.factor_matrices(th, ra)
    want = conjugated_factor_stat(ymat, a, b)
    assert _ml_stat(y.conj().reshape(ymat.shape), a, b).tobytes() == want.tobytes()


@pytest.mark.parametrize("mode,topology", [(mode, topology) for mode in Mode
                                           for topology in Topology])
def test_statistic_keeps_the_conjugated_factor_bits(mode, topology):
    # |g^T y*| = |g^H y| holds bit for bit when the product and the
    # column sums conjugate exactly under conjugated operands
    geom = mono_geom(33) if topology is Topology.MONOSTATIC else bi_geom(33, 8, 35.0)
    builder = ObservationGridBuilder(geom, CARRIER, mode, topology)
    rng = np.random.default_rng(7)
    y = rng.standard_normal(builder.rx_len * builder.tx_len * 2).view(complex)
    assert_stat_bits(builder, y, rng.uniform(-1.2, 1.2, 300), rng.uniform(6.0, 40.0, 300))
    grid = window(target(18.0, 0.3), 21, 15, refine_levels=4)
    step_t, step_r = grid.theta_step, grid.range_step
    offsets = np.arange(-4, 5, dtype=float)
    for _ in range(grid.refine_levels):
        step_t, step_r = step_t / 2.0, step_r / 2.0
        best_t, best_r = rng.uniform(*grid.theta_range), rng.uniform(*grid.range_range)
        ts = np.clip(best_t + offsets * step_t, *grid.theta_range)
        rs = np.clip(best_r + offsets * step_r, *grid.range_range)
        assert_stat_bits(builder, y, *_paired_grid(ts, rs))


@pytest.mark.parametrize("num_tx", [65, 257, 1025])
def test_statistic_keeps_the_conjugated_factor_bits_on_the_preset_grids(num_tx):
    # fig8/fig9's coarse grids with their own snapshots; at M = 1025 a
    # 31 x 21 grid over the same window, since the full one holds 362 MB
    snapshots = []
    for name in ("fig8", "fig9"):
        cfg = presets()[name]
        run = next(run for run in validate_config(cfg) if run.geometry.num_tx == num_tx)
        (tgt,) = run.targets
        obs = build_observation(run.geometry, tgt, run.carrier, cfg.mode, cfg.topology)
        snapshots += [synth_snapshot(obs, run.noise, seed=(cfg.montecarlo.master_seed, t))
                      for t in range(2)]
    mc = cfg.montecarlo  # fig8 and fig9 share the window
    points = (31, 21) if num_tx == 1025 else (mc.theta_points, mc.range_points)
    grid = GridSpec.around(tgt, mc.theta_halfspan_deg, points[0],
                           mc.range_span_frac, points[1], 0)
    builder = ObservationGridBuilder(run.geometry, run.carrier, cfg.mode, cfg.topology)
    th, ra = _paired_grid(grid.theta_values(), grid.range_values())
    for y in snapshots:
        assert_stat_bits(builder, y, th, ra)


def on_grid_recovery(mode, topology, geom):
    tgt = target(18.0, 0.3)
    grid = window(tgt, 41, 31, refine_levels=0)
    obs = build_observation(geom, tgt, CARRIER, mode, topology)
    y = synth_snapshot(obs, CFG10, seed=0, include_noise=False)
    builder = ObservationGridBuilder(geom, CARRIER, mode, topology)
    return _PreparedMlSearch(builder, grid).estimate(y), tgt


def test_noiseless_on_grid_recovery_is_exact():
    # apertures large enough that the range lobe fits inside the window
    cases = [
        (Mode.MIMO, Topology.MONOSTATIC, mono_geom(65)),
        (Mode.PHASED, Topology.MONOSTATIC, mono_geom(65)),
        (Mode.MIMO, Topology.BISTATIC_NEAR_FAR_TX, bi_geom(65, 8, 35.0)),
    ]
    for mode, topology, geom in cases:
        est, tgt = on_grid_recovery(mode, topology, geom)
        assert est.theta == pytest.approx(tgt.angle_rad, abs=1e-12)
        assert est.range_m == pytest.approx(tgt.range_m, abs=1e-9)
        assert not est.ambiguous


def test_bistatic_phased_search_flags_ambiguity():
    # a single beamformed far-field receive vector constrains one direction
    # sine, so the statistic is constant along a curve crossing the window
    est, _ = on_grid_recovery(Mode.PHASED, Topology.BISTATIC_NEAR_FAR_TX,
                              bi_geom(9, 8, 35.0))
    assert est.ambiguous


def test_refinement_tightens_quantization():
    geom = mono_geom(17)
    tgt = target(18.0, 0.3)
    truth = target(18.037, 0.3012)   # off every grid node
    obs = build_observation(geom, truth, CARRIER, Mode.MIMO, Topology.MONOSTATIC)
    y = synth_snapshot(obs, CFG10, seed=0, include_noise=False)
    builder = ObservationGridBuilder(geom, CARRIER, Mode.MIMO, Topology.MONOSTATIC)
    errs = []
    for levels in (0, 2, 4):
        grid = window(tgt, 41, 31, refine_levels=levels)
        est = _PreparedMlSearch(builder, grid).estimate(y)
        errs.append((abs(est.theta - truth.angle_rad),
                     abs(est.range_m - truth.range_m)))
        assert abs(est.theta - truth.angle_rad) <= grid.theta_step / 2 ** levels
        assert abs(est.range_m - truth.range_m) <= grid.range_step / 2 ** levels
    assert errs[2][0] < errs[0][0] and errs[2][1] < errs[0][1]


def test_noisy_recovery_rate_moderate_snr():
    geom, tgt = mono_geom(65), target(18.0, 0.3)
    builder = ObservationGridBuilder(geom, CARRIER, Mode.MIMO, Topology.MONOSTATIC)
    grid = window(tgt, 61, 41, refine_levels=0)
    search = _PreparedMlSearch(builder, grid)
    obs = build_observation(geom, tgt, CARRIER, Mode.MIMO, Topology.MONOSTATIC)
    hits = 0
    trials = 60
    for t in range(trials):
        est = search.estimate(synth_snapshot(obs, CFG10, seed=(5, t)))
        ok_t = abs(est.theta - tgt.angle_rad) <= 3.0 * grid.theta_step
        ok_r = abs(est.range_m - tgt.range_m) <= 3.0 * grid.range_step
        hits += ok_t and ok_r
    assert hits >= 0.95 * trials


# --- Monte Carlo loop --------------------------------------------------------------

def test_monte_carlo_is_deterministic():
    scn = scenario(mono_geom(9), target(10.0, 0.2), Mode.MIMO, Topology.MONOSTATIC)
    grid = window(scn.target, 21, 15, refine_levels=1)
    a = monte_carlo_rmse(scn, CFG10, grid, trials=8, master_seed=42)
    b = monte_carlo_rmse(scn, CFG10, grid, trials=8, master_seed=42)
    c = monte_carlo_rmse(scn, CFG10, grid, trials=8, master_seed=43)
    assert a == b
    assert (a.rmse_theta, a.rmse_range) != (c.rmse_theta, c.rmse_range)


def test_monte_carlo_high_snr_pins_the_grid_center():
    scn = scenario(mono_geom(9), target(10.0, 0.2), Mode.MIMO, Topology.MONOSTATIC)
    cfg = NoiseAndPowerConfig.from_snr(80.0)
    grid = window(scn.target, 21, 15, refine_levels=0)
    rep = monte_carlo_rmse(scn, cfg, grid, trials=6, master_seed=7)
    assert rep.rmse_theta < 1e-9 and rep.rmse_range < 1e-9
    assert rep.trials == 6 and rep.master_seed == 7


def test_monte_carlo_counts_the_ambiguous_trials():
    scn = scenario(mono_geom(33), target(18.0, 0.3), Mode.MIMO, Topology.MONOSTATIC)
    cfg = NoiseAndPowerConfig.from_snr(0.0)
    grid = window(scn.target, 21, 15, refine_levels=1)
    rep = monte_carlo_rmse(scn, cfg, grid, trials=12, master_seed=9)
    # the same trials one estimate call at a time
    obs = build_observation(scn.geometry, scn.target, CARRIER, scn.mode, scn.topology)
    search = _PreparedMlSearch(
        ObservationGridBuilder(scn.geometry, CARRIER, scn.mode, scn.topology), grid)
    flags = [search.estimate(synth_snapshot(obs, cfg, seed=(9, t))).ambiguous
             for t in range(12)]
    assert rep.ambiguous_trials == sum(flags)
    assert 0 < rep.ambiguous_trials < rep.trials


# the estimator is efficient off the presets, in each identifiable mode and
# topology: M = 17, r = 3 m, theta = 20 deg, 30 dB, L = 1, fig9's search
# window and refinement, 500 trials at one recorded seed per case. The band
# 1 +- 3/sqrt(2T) (about three standard errors of an RMSE ratio over T
# trials) is fixed before the run. A final refinement step below 0.2
# sqrt(CRB) keeps quantization from passing for efficiency.
@pytest.mark.parametrize("mode,topology,seed", [
    (Mode.MIMO, Topology.MONOSTATIC, 1),
    (Mode.PHASED, Topology.MONOSTATIC, 1),
    (Mode.MIMO, Topology.BISTATIC_NEAR_FAR_TX, 1),
], ids=["mimo-monostatic", "phased-monostatic", "mimo-bistatic"])
def test_monte_carlo_reaches_the_bound_off_the_presets(mode, topology, seed):
    mc = dataclasses.replace(presets()["fig9"].montecarlo, trials=500, master_seed=seed)
    bistatic = topology is Topology.BISTATIC_NEAR_FAR_TX
    cfg = ExperimentConfig(
        num_tx=17, num_rx=8, separation_m=35.0 if bistatic else 0.0, target_range_m=3.0,
        target_angle_deg=20.0, snr_db=30.0, mode=mode, topology=topology,
        sweep=SweepSpec(axis="M", values=(17,)), methods=(CrbMethod.EXACT_SUM,),
        montecarlo=mc)
    table = run_experiment(cfg)
    ((bound,),), (rep,) = table.results, table.reports
    band = 3.0 / math.sqrt(2 * rep.trials)
    assert abs(rep.rmse_theta / math.sqrt(bound.crb_theta) - 1.0) <= band
    assert abs(rep.rmse_range / math.sqrt(bound.crb_range) - 1.0) <= band
    grid = GridSpec.around(table.runs[0].targets[0], mc.theta_halfspan_deg, mc.theta_points,
                           mc.range_span_frac, mc.range_points, mc.refine_levels)
    final = 2.0 ** -mc.refine_levels
    assert grid.theta_step * final <= 0.2 * math.sqrt(bound.crb_theta)
    assert grid.range_step * final <= 0.2 * math.sqrt(bound.crb_range)


def test_monte_carlo_rejects_zero_trials():
    scn = scenario(mono_geom(5), target(9.0, 0.2), Mode.MIMO, Topology.MONOSTATIC)
    grid = window(scn.target, 15, 11, refine_levels=0)
    with pytest.raises(ConfigError):
        monte_carlo_rmse(scn, CFG10, grid, trials=0, master_seed=3)
