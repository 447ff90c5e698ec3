"""The numerical FIM's entries at every point of the element-count presets:
the reduced angle/range block against the brute-force Kronecker oracle's
Schur complement, at each preset's own noise, power and target."""

import numpy as np
import pytest

from conftest import kron_fim_oracle
from nfcrb.experiment import presets, validate_config
from nfcrb.fim import fim_numeric
from nfcrb.steering import build_observation


@pytest.mark.parametrize("name", ["fig2", "fig3"])
def test_entries_equal_the_eager_oracle_at_every_preset_point(name):
    cfg = presets()[name]
    for run in validate_config(cfg):
        (tgt,) = run.targets
        obs = build_observation(run.geometry, tgt, run.carrier, cfg.mode)
        want, schur = kron_fim_oracle(obs, run.geometry, run.noise, run.carrier)
        got = fim_numeric(obs, run.noise).reduced
        assert np.abs(got - schur).max() <= 1e-12 * np.abs(want[:2, :2]).max()
