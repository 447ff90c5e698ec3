"""Waveform bookkeeping, code orthogonality, and the sampled transmit/filter
chains that must collapse to the analytic observation model."""

import math

import numpy as np
import pytest

from conftest import CARRIER, bi_geom, mono_geom, target, transmit_response
from nfcrb.errors import ConfigError, DomainError
from nfcrb.fim import NoiseAndPowerConfig, mode_energy_scale
from nfcrb.experiment import Topology
from nfcrb.geometry import Mode
from nfcrb.signalsim import (
    DEMO_MAX_ELEMENTS,
    WaveformConfig,
    mimo_chain_demo,
    orthogonal_codes,
    phased_chain_demo,
    reflection_amplitude,
    synth_snapshot,
)
from nfcrb.steering import build_observation

CFG = NoiseAndPowerConfig.from_snr(3.0, time_bandwidth=8.0)


def test_waveform_config_validation():
    with pytest.raises(ConfigError):
        WaveformConfig(num_samples_per_cpi=0, bandwidth=1.0)
    with pytest.raises(ConfigError):
        WaveformConfig(num_samples_per_cpi=8, bandwidth=0.0)
    wf = WaveformConfig.orthogonal(5)
    assert wf.num_samples_per_cpi == 8 and wf.time_bandwidth == 8.0
    assert WaveformConfig(16, bandwidth=2.0).cpi_duration == 8.0


def test_orthogonal_codes_are_exactly_orthogonal():
    codes = orthogonal_codes(5, 8)
    assert codes.shape == (5, 8)
    assert np.array_equal(codes @ codes.T, 8.0 * np.eye(5))
    with pytest.raises(ConfigError):
        orthogonal_codes(5, 12)   # not a power of two
    with pytest.raises(ConfigError):
        orthogonal_codes(9, 8)


def test_reflection_amplitude_scales():
    assert reflection_amplitude(CFG, 5, Mode.MIMO) == pytest.approx(
        math.sqrt(8.0 * CFG.snr_linear / 5.0))   # T_p P / M, P = gamma
    assert reflection_amplitude(CFG, 5, Mode.PHASED) == pytest.approx(
        math.sqrt(8.0 * CFG.snr_linear * 5.0))


def test_synth_snapshot_noiseless_is_scaled_steering():
    obs = build_observation(mono_geom(5), target(9.0, 0.25), CARRIER, Mode.MIMO)
    y = synth_snapshot(obs, CFG, seed=7, include_noise=False)
    rho = math.sqrt(mode_energy_scale(CFG, 5, Mode.MIMO))
    assert np.array_equal(y, rho * obs.g)


def test_synth_snapshot_deterministic_in_seed():
    obs = build_observation(mono_geom(5), target(9.0, 0.25), CARRIER, Mode.MIMO)
    a = synth_snapshot(obs, CFG, seed=(11, 0))
    b = synth_snapshot(obs, CFG, seed=(11, 0))
    c = synth_snapshot(obs, CFG, seed=(11, 1))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("mode", [Mode.MIMO, Mode.PHASED])
@pytest.mark.parametrize("topology", [Topology.MONOSTATIC,
                                      Topology.BISTATIC_NEAR_FAR_TX])
def test_chain_collapses_to_observation_model(mode, topology):
    if topology is Topology.MONOSTATIC:
        geom = mono_geom(5)
    else:
        geom = bi_geom(5, 4, 35.0)
    tgt = target(9.0, 0.25)
    wf = WaveformConfig.orthogonal(geom.num_tx)
    cfg = NoiseAndPowerConfig.from_snr(3.0, time_bandwidth=wf.time_bandwidth)
    if mode is Mode.MIMO:
        got = mimo_chain_demo(geom, tgt, CARRIER, wf, cfg, seed=1, include_noise=False)
    else:
        got = phased_chain_demo(geom, tgt, CARRIER, wf, cfg, steer_at=tgt,
                                seed=1, include_noise=False)
    obs = build_observation(geom, tgt, CARRIER, mode)
    want = synth_snapshot(obs, cfg, seed=1, include_noise=False)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))


def test_chain_noise_comes_out_unit_variance():
    geom, tgt = mono_geom(5), target(9.0, 0.25)
    wf = WaveformConfig.orthogonal(5)
    cfg = NoiseAndPowerConfig.from_snr(0.0, time_bandwidth=wf.time_bandwidth)
    acc = []
    for trial in range(400):
        noisy = mimo_chain_demo(geom, tgt, CARRIER, wf, cfg, seed=(3, trial))
        clean = mimo_chain_demo(geom, tgt, CARRIER, wf, cfg, seed=(3, trial),
                                include_noise=False)
        acc.append(np.abs(noisy - clean) ** 2)
    # matched filtering of rate-B noise of variance N0 B leaves variance N0 = 1
    assert np.mean(np.concatenate(acc)) == pytest.approx(1.0, rel=0.1)


def test_full_cpi_delay_leaves_no_signal():
    geom, tgt = mono_geom(5), target(9.0, 0.25)
    wf = WaveformConfig.orthogonal(5)
    y = mimo_chain_demo(geom, tgt, CARRIER, wf, CFG, seed=2, include_noise=False,
                        delay_mismatch_samples=wf.num_samples_per_cpi)
    assert np.all(y == 0.0)


@pytest.mark.parametrize("shift", [1, -1, 3, -7])
def test_partial_delay_keeps_the_overlap(shift):
    # a zero-padded delay of s samples, either way, leaves S - |s| of the
    # pulse's S samples under the matched filter
    geom, tgt = mono_geom(5), target(9.0, 0.25)
    wf = WaveformConfig(num_samples_per_cpi=8, bandwidth=1.0)

    def filtered(s):
        return phased_chain_demo(geom, tgt, CARRIER, wf, CFG, steer_at=tgt, seed=0,
                                 include_noise=False, delay_mismatch_samples=s)

    want = filtered(0) * ((8 - abs(shift)) / 8)
    assert np.abs(filtered(shift) - want).max() <= 1e-14 * np.abs(want).max()


def test_phased_steering_mismatch_gain():
    geom, tgt = mono_geom(5), target(9.0, 0.25)
    off = target(9.0, 0.4)
    wf = WaveformConfig.orthogonal(5)
    matched = phased_chain_demo(geom, tgt, CARRIER, wf, CFG, steer_at=tgt,
                                seed=0, include_noise=False)
    missed = phased_chain_demo(geom, tgt, CARRIER, wf, CFG, steer_at=off,
                               seed=0, include_noise=False)
    a_true = transmit_response(geom, tgt).values
    a_steer = transmit_response(geom, off).values
    want = abs(a_true @ a_steer.conj()) / 5.0
    got = np.linalg.norm(missed) / np.linalg.norm(matched)
    assert got == pytest.approx(want, rel=1e-12)


def test_chain_demo_refuses_large_arrays():
    geom = mono_geom(DEMO_MAX_ELEMENTS + 1)
    wf = WaveformConfig.orthogonal(geom.num_tx)
    with pytest.raises(DomainError):
        mimo_chain_demo(geom, target(9.0, 0.25), CARRIER, wf, CFG, seed=0)
