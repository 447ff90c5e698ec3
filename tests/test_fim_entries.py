"""The numerical FIM's 4x4 entries, formed only when read: bit-equal to the
eager formula they replaced, checked when formed, and never formed on the
bound pipeline, which reads only the reduced angle/range block."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import CARRIER, fim_entries_oracle, target
from nfcrb import fim
from nfcrb.errors import DomainError, NumericalError
from nfcrb.experiment import SweepSpec, presets, run_experiment, validate_config
from nfcrb.fim import NoiseAndPowerConfig, fim_numeric
from nfcrb.geometry import ArrayGeometry, Mode, Topology
from nfcrb.steering import build_observation
from test_fim import PAIRS

CFG = NoiseAndPowerConfig(snr_linear=2.0, time_bandwidth=3.0,
                          reflection_coeff=0.6 - 0.8j, total_power=2.0)
M_VALUES = (9, 17, 33, 65, 129, 257, 513, 1025, 2049)


@pytest.mark.parametrize("mode,topology", PAIRS)
@pytest.mark.parametrize("num_tx", [1, 9, 17])
@pytest.mark.parametrize("num_rx", [1, 8])
def test_entries_equal_the_eager_oracle(mode, topology, num_tx, num_rx):
    sep = 35.0 if topology is Topology.BISTATIC_NEAR_FAR_TX else 0.0
    geom = ArrayGeometry(num_tx, num_rx, 0.0628, 0.0628, sep)
    obs = build_observation(geom, target(18.0, 0.3), CARRIER, mode, topology)
    assert np.array_equal(fim_numeric(obs, CFG).entries, fim_entries_oracle(obs, CFG))


@pytest.mark.parametrize("name", ["fig2", "fig3"])
def test_entries_equal_the_eager_oracle_at_every_preset_point(name):
    cfg = replace(presets()[name], sweep=SweepSpec(axis="M", values=M_VALUES))
    for scn, ncfg, _ in validate_config(cfg):
        obs = build_observation(scn.geometry, scn.target, scn.carrier, scn.mode, scn.topology)
        assert np.array_equal(fim_numeric(obs, ncfg).entries, fim_entries_oracle(obs, ncfg))


def test_entries_are_formed_once_and_checked_when_read(monkeypatch):
    geom = ArrayGeometry(9, 9, 0.0628, 0.0628, 0.0)
    obs = build_observation(geom, target(18.0, 0.3), CARRIER, Mode.MIMO, Topology.MONOSTATIC)
    got = fim_numeric(obs, CFG)
    assert got.entries is got.entries

    asymmetric = np.eye(4)
    asymmetric[0, 1] = 1.0
    for bad, error in ((np.eye(3), DomainError), (asymmetric, NumericalError)):
        monkeypatch.setattr(fim, "_fim_entries", lambda *args, bad=bad: bad)
        lazy = fim_numeric(obs, CFG)
        np.testing.assert_array_equal(lazy.reduced, got.reduced)
        with pytest.raises(error):
            lazy.entries


@pytest.mark.parametrize("name", ["fig2", "fig3"])
def test_bound_pipeline_never_forms_the_entries(name, monkeypatch):
    cfg = presets()[name]
    want = run_experiment(cfg)

    def refuse(*args):
        raise AssertionError("the 4x4 FIM was formed")

    monkeypatch.setattr(fim, "_fim_entries", refuse)
    assert run_experiment(cfg) == want
