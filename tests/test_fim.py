"""Fisher-information engine: config bookkeeping, the numerical FIM against a
fully independent finite-difference oracle, the exact-summation path, and the
identities tying the two together."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CARRIER,
    SPACING,
    bi_geom,
    kron_fim_oracle,
    mono_geom,
    receive_response,
    rel_err,
    schur_complement,
    target,
    transmit_response,
)
from nfcrb.closedform import crb_closed
from nfcrb.errors import ConfigError, DegenerateGeometryError, DomainError
from nfcrb.fim import (
    _BLOCK_ELEMENTS,
    CrbMethod,
    CrbResult,
    FimMatrix,
    NoiseAndPowerConfig,
    crb_exact_sum,
    crb_from_fim,
    fim_numeric,
    mode_energy_scale,
    receive_sums,
    transmit_sums,
)
from nfcrb.geometry import ArrayGeometry, Mode, Topology
from nfcrb.steering import build_observation

CFG = NoiseAndPowerConfig.from_snr(0.0, 1.0)

# regression anchors (this code base, lambda = 0.1265, gamma = 0 dB, L = 1)
FROZEN = {
    ("mono", Mode.MIMO): (65, 18.0, 0.3, 1.2481791948978218e-06, 0.5158266699977809),
    ("mono", Mode.PHASED): (513, 12.0, math.pi / 8, 3.044662277463294e-11, 4.285328348320509e-08),
    ("bi", 0.3): (65, 18.0, 0.3, 2.023553787333921e-05, 1.2806186818269865),
    ("bi", 0.0): (65, 18.0, 0.0, 1.808478254813822e-05, 7.019094010819263),
}


# --- power/noise config ---------------------------------------------------------

def test_from_snr_normalized_representative():
    cfg = NoiseAndPowerConfig.from_snr(10.0, time_bandwidth=4.0)
    assert cfg.snr_linear == pytest.approx(10.0)
    assert cfg.total_power == pytest.approx(10.0)  # P = gamma when N0 = B = |k| = 1
    assert cfg.noise_psd == 1.0 and cfg.bandwidth == 1.0
    assert cfg.pulse_duration == pytest.approx(4.0)
    assert cfg.snr_db == pytest.approx(10.0)


def test_from_physical_consistency():
    cfg = NoiseAndPowerConfig.from_physical(
        total_power=8.0, noise_psd=2.0, bandwidth=4.0, pulse_duration=3.0,
        reflection_coeff=0.5j)
    assert cfg.snr_linear == pytest.approx(8.0 * 0.25 / 8.0)
    assert cfg.time_bandwidth == pytest.approx(12.0)
    with pytest.raises(ConfigError):
        NoiseAndPowerConfig(snr_linear=1.0, total_power=5.0)  # implies snr 5, not 1


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        NoiseAndPowerConfig(snr_linear=0.0)
    with pytest.raises(ConfigError):
        NoiseAndPowerConfig(snr_linear=1.0, time_bandwidth=0.5)
    with pytest.raises(ConfigError):
        NoiseAndPowerConfig(snr_linear=1.0, reflection_coeff=0.0)
    with pytest.raises(ConfigError):
        NoiseAndPowerConfig(snr_linear=1.0, noise_psd=-1.0)


def test_mode_energy_scale():
    cfg = NoiseAndPowerConfig.from_snr(3.0, time_bandwidth=8.0)
    s = cfg.pulse_duration * cfg.total_power
    assert mode_energy_scale(cfg, 65, Mode.MIMO) == pytest.approx(s / 65.0)
    assert mode_energy_scale(cfg, 65, Mode.PHASED) == pytest.approx(s * 65.0)


def test_fim_matrix_validation():
    with pytest.raises(DomainError):
        FimMatrix(np.zeros((3, 3)))
    with pytest.raises(DomainError):
        FimMatrix(np.eye(4))


# --- numerical FIM vs finite-difference oracle ----------------------------------

def fd_fim_oracle(geom, tgt, mode, topology, cfg):
    """Independent FIM: mean vector differentiated by central differences,
    no analytic steering derivatives involved."""
    root = math.sqrt(mode_energy_scale(cfg, geom.num_tx, mode))
    kap = complex(cfg.reflection_coeff)

    def mean(th, r, kr, ki):
        g = build_observation(geom, target(r, th), CARRIER, mode, topology).g
        return (kr + 1j * ki) * root * g

    th0, r0 = tgt.angle_rad, tgt.range_m
    kr0, ki0 = kap.real, kap.imag
    h = (1e-7, 1e-6, 1e-6, 1e-6)
    base = (th0, r0, kr0, ki0)
    cols = []
    for i in range(4):
        up = list(base)
        dn = list(base)
        up[i] += h[i]
        dn[i] -= h[i]
        cols.append((mean(*up) - mean(*dn)) / (2.0 * h[i]))
    jac = np.column_stack(cols)
    return (2.0 / cfg.noise_psd) * (jac.conj().T @ jac).real


@pytest.mark.parametrize("mode,topology", [
    (Mode.MIMO, Topology.MONOSTATIC),
    (Mode.PHASED, Topology.MONOSTATIC),
    (Mode.MIMO, Topology.BISTATIC_NEAR_FAR_TX),
    (Mode.PHASED, Topology.BISTATIC_NEAR_FAR_TX),
])
def test_fim_numeric_matches_fd_oracle(mode, topology):
    if topology is Topology.MONOSTATIC:
        geom, tgt = mono_geom(9), target(10.0, 0.3)
    else:
        geom, tgt = bi_geom(9, 8, 35.0), target(18.0, 0.3)
    obs = build_observation(geom, tgt, CARRIER, mode, topology)
    got = fim_numeric(obs, CFG).reduced
    fd = fd_fim_oracle(geom, tgt, mode, topology, CFG)
    scale = np.abs(fd[:2, :2]).max()
    assert np.abs(got - schur_complement(fd)).max() < 1e-5 * scale


PAIRS = [(mode, topology) for mode in Mode for topology in Topology]


@pytest.mark.parametrize("mode,topology", PAIRS)
@pytest.mark.parametrize("num_tx", [1, 9, 17])
@pytest.mark.parametrize("num_rx", [1, 8])
def test_factored_fim_matches_kronecker_oracle(mode, topology, num_tx, num_rx):
    sep = 35.0 if topology is Topology.BISTATIC_NEAR_FAR_TX else 0.0
    geom = ArrayGeometry(num_tx, num_rx, 0.0628, 0.0628, sep)
    obs = build_observation(geom, target(18.0, 0.3), CARRIER, mode, topology)
    cfg = NoiseAndPowerConfig(snr_linear=2.0, time_bandwidth=3.0,
                              reflection_coeff=0.6 - 0.8j, total_power=2.0)
    got = fim_numeric(obs, cfg)
    want, schur = kron_fim_oracle(obs, cfg)
    # the oracle's complement cancels down from the scale of its angle/range
    # block; the factored one does not, so that scale bounds the difference
    assert np.abs(got.reduced - schur).max() <= 1e-12 * np.abs(want[:2, :2]).max()


def test_numeric_fim_memory_is_set_by_the_factors():
    # the M*N = 4.2e6-entry observation would need ~740 MB as a Jacobian
    geom, tgt = mono_geom(2049), target(10.0, math.pi / 6)
    tracemalloc.start()
    try:
        obs = build_observation(geom, tgt, CARRIER, Mode.MIMO, Topology.MONOSTATIC)
        res = crb_from_fim(fim_numeric(obs, CFG))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.identifiable
    assert peak < 5 * 2 ** 20


@pytest.mark.parametrize("mode,topology,geom,tgt", [
    (Mode.MIMO, Topology.MONOSTATIC, mono_geom(100001), target(10.0, math.pi / 6)),
    (Mode.PHASED, Topology.MONOSTATIC, mono_geom(100001), target(10.0, math.pi / 6)),
    (Mode.MIMO, Topology.BISTATIC_NEAR_FAR_TX, bi_geom(100001, 8, 35.0), target(18.0, 0.3)),
])
def test_numeric_fim_reaches_extremely_large_arrays(mode, topology, geom, tgt):
    via_sum = crb_exact_sum(geom, (tgt,), CARRIER, CFG, mode, topology)[0]
    obs = build_observation(geom, tgt, CARRIER, mode, topology)
    via_fim = crb_from_fim(fim_numeric(obs, CFG))
    assert rel_err(via_fim.crb_theta, via_sum.crb_theta) < 1e-9
    assert rel_err(via_fim.crb_range, via_sum.crb_range) < 1e-9


def test_fim_scales_with_power_and_noise():
    geom, tgt = mono_geom(9), target(10.0, 0.3)
    obs = build_observation(geom, tgt, CARRIER, Mode.MIMO, Topology.MONOSTATIC)
    f1 = fim_numeric(obs, NoiseAndPowerConfig.from_snr(0.0)).reduced
    f2 = fim_numeric(obs, NoiseAndPowerConfig.from_snr(10.0)).reduced
    assert np.allclose(f2, 10.0 * f1, rtol=1e-12)
    f4 = fim_numeric(obs, NoiseAndPowerConfig.from_snr(0.0, time_bandwidth=4.0)).reduced
    assert np.allclose(f4, 4.0 * f1, rtol=1e-12)


# --- angle/range block inversion ------------------------------------------------

def test_crb_from_fim_block_diagonal_case():
    res = crb_from_fim(FimMatrix(np.diag([4.0, 9.0])))
    assert res.identifiable
    assert res.crb_theta == pytest.approx(0.25)
    assert res.crb_range == pytest.approx(1.0 / 9.0)
    assert res.method is CrbMethod.NUMERICAL_FIM


def test_crb_from_fim_nuisance_coupling():
    # hand-built coupling, complemented here: q = p11 - p12 p22^-1 p12^T
    p11 = np.array([[5.0, 1.0], [1.0, 3.0]])
    p12 = np.array([[1.0, 0.0], [0.0, 2.0]])
    p22 = np.diag([2.0, 4.0])
    q = schur_complement(np.block([[p11, p12], [p12.T, p22]]))
    want = np.linalg.inv(q)
    res = crb_from_fim(FimMatrix(q))
    assert res.crb_theta == pytest.approx(want[0, 0], rel=1e-12)
    assert res.crb_range == pytest.approx(want[1, 1], rel=1e-12)


def test_crb_from_fim_singular_cases():
    assert not crb_from_fim(FimMatrix(np.zeros((2, 2)))).identifiable
    # rank-one angle/range block
    res = crb_from_fim(FimMatrix(np.outer([1.0, 2.0], [1.0, 2.0])))
    assert not res.identifiable
    assert math.isinf(res.crb_theta) and math.isinf(res.crb_range)


def test_crb_from_fim_inverts_the_reduced_block_when_set():
    # the whole block is inverted: its diagonal alone would give 1/5 and 1/3
    q = np.array([[5.0, 1.0], [1.0, 3.0]])
    res = crb_from_fim(FimMatrix(q))
    want = np.linalg.inv(q)
    assert res.crb_theta == pytest.approx(want[0, 0], rel=1e-12)
    assert res.crb_range == pytest.approx(want[1, 1], rel=1e-12)
    assert res.crb_theta > 1.0 / 5.0 and res.crb_range > 1.0 / 3.0
    assert not crb_from_fim(FimMatrix(np.outer([1.0, 2.0], [1.0, 2.0]))).identifiable


# --- intermediate sums against steering inner products ---------------------------

def test_transmit_sums_are_steering_inner_products():
    geom, tgt = mono_geom(65), target(18.0, 0.3)
    sv = transmit_response(geom, tgt)
    a_s, c_ov, e_s, p_s, q_ov = (
        s[0] for s in transmit_sums(geom, [tgt.angle_rad], [tgt.range_m], CARRIER))
    assert a_s == pytest.approx(np.vdot(sv.d_theta, sv.d_theta).real, rel=1e-12)
    assert p_s == pytest.approx(np.vdot(sv.d_range, sv.d_range).real, rel=1e-12)
    assert e_s == pytest.approx(np.vdot(sv.d_theta, sv.d_range).real, rel=1e-12)
    assert c_ov == pytest.approx(np.vdot(sv.d_theta, sv.values), rel=1e-12)
    assert q_ov == pytest.approx(np.vdot(sv.d_range, sv.values), rel=1e-12)


# element counts on both sides of the block size, and a few small ones; with
# M = 1025 a block holds 15 locations, so most run lengths end mid-block
_RUN_M = st.sampled_from((1, 3, 9, 1025, _BLOCK_ELEMENTS - 1, _BLOCK_ELEMENTS + 1))
_LOCATIONS = st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(0.05, 100.0)),
                      min_size=1, max_size=40)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(m=_RUN_M, locations=_LOCATIONS)
def test_transmit_sums_over_a_run_equal_one_location_calls(m, locations):
    geom = mono_geom(m)
    thetas, ranges = zip(*locations)
    run = transmit_sums(geom, thetas, ranges, CARRIER)
    for j, (th, r) in enumerate(locations):
        alone = transmit_sums(geom, [th], [r], CARRIER)
        for over_run, one in zip(run, alone):
            assert over_run[j] == one[0]


def test_transmit_sums_refuse_a_target_on_an_element():
    # element m = 2 of nine sits at 0.1256 m on the array axis (theta = 90 deg)
    geom = mono_geom(9)
    with pytest.raises(DegenerateGeometryError, match="transmit element"):
        transmit_sums(geom, [0.3, math.pi / 2], [10.0, 2 * SPACING], CARRIER)
    for mode in Mode:
        with pytest.raises(DegenerateGeometryError, match="transmit element"):
            build_observation(geom, target(2 * SPACING, math.pi / 2), CARRIER,
                              mode, Topology.MONOSTATIC)


def test_receive_sums_are_steering_inner_products():
    geom, tgt = bi_geom(9, 8, 35.0), target(18.0, 0.3)
    sv = receive_response(geom, tgt)
    i_s, s_s, k_s = receive_sums(geom, tgt, CARRIER)
    assert i_s == pytest.approx(np.vdot(sv.d_theta, sv.d_theta).real, rel=1e-12)
    assert s_s == pytest.approx(np.vdot(sv.d_range, sv.d_range).real, rel=1e-12)
    assert k_s == pytest.approx(np.vdot(sv.d_theta, sv.d_range).real, rel=1e-12)
    # first moments vanish by the symmetric index layout
    assert abs(np.vdot(sv.d_theta, sv.values)) < 1e-9 * math.sqrt(i_s)


# --- exact-sum CRB path ----------------------------------------------------------

def test_exact_sum_frozen_values():
    m, r, th, ct, cr = FROZEN[("mono", Mode.MIMO)]
    res = crb_exact_sum(mono_geom(m), (target(r, th),), CARRIER, CFG,
                        Mode.MIMO, Topology.MONOSTATIC)[0]
    assert rel_err(res.crb_theta, ct) < 1e-12
    assert rel_err(res.crb_range, cr) < 1e-12

    m, r, th, ct, cr = FROZEN[("mono", Mode.PHASED)]
    res = crb_exact_sum(mono_geom(m), (target(r, th),), CARRIER, CFG,
                        Mode.PHASED, Topology.MONOSTATIC)[0]
    assert rel_err(res.crb_theta, ct) < 1e-12
    assert rel_err(res.crb_range, cr) < 1e-12

    for key in ((("bi", 0.3)), (("bi", 0.0))):
        m, r, th, ct, cr = FROZEN[key]
        res = crb_exact_sum(bi_geom(m, 8, 35.0), (target(r, th),), CARRIER, CFG,
                            Mode.MIMO, Topology.BISTATIC_NEAR_FAR_TX)[0]
        assert rel_err(res.crb_theta, ct) < 1e-12
        assert rel_err(res.crb_range, cr) < 1e-12


@pytest.mark.parametrize("mode,topology,geom,tgt", [
    (Mode.MIMO, Topology.MONOSTATIC, mono_geom(17), target(8.0, -0.6)),
    (Mode.PHASED, Topology.MONOSTATIC, mono_geom(33), target(25.0, 0.9)),
    (Mode.MIMO, Topology.BISTATIC_NEAR_FAR_TX, bi_geom(17, 8, 35.0), target(18.0, 0.2)),
    (Mode.MIMO, Topology.BISTATIC_NEAR_FAR_TX, bi_geom(65, 4, 50.0), target(12.0, -0.4)),
])
def test_exact_sum_equals_numeric_fim(mode, topology, geom, tgt):
    cfg = NoiseAndPowerConfig.from_snr(5.0, time_bandwidth=2.0)
    via_sum = crb_exact_sum(geom, (tgt,), CARRIER, cfg, mode, topology)[0]
    obs = build_observation(geom, tgt, CARRIER, mode, topology)
    via_fim = crb_from_fim(fim_numeric(obs, cfg))
    assert via_sum.identifiable and via_fim.identifiable
    assert rel_err(via_sum.crb_theta, via_fim.crb_theta) < 1e-6
    assert rel_err(via_sum.crb_range, via_fim.crb_range) < 1e-6


def test_mode_ratio_is_two_over_m():
    geom, tgt = mono_geom(65), target(18.0, 0.3)
    mimo = crb_exact_sum(geom, (tgt,), CARRIER, CFG, Mode.MIMO, Topology.MONOSTATIC)[0]
    phased = crb_exact_sum(geom, (tgt,), CARRIER, CFG, Mode.PHASED, Topology.MONOSTATIC)[0]
    assert phased.crb_theta / mimo.crb_theta == pytest.approx(2.0 / 65.0, rel=1e-12)
    assert phased.crb_range / mimo.crb_range == pytest.approx(2.0 / 65.0, rel=1e-12)


def test_snr_scaling_is_exact():
    geom, tgt = mono_geom(17), target(10.0, 0.3)
    lo = crb_exact_sum(geom, (tgt,), CARRIER, NoiseAndPowerConfig.from_snr(0.0),
                       Mode.MIMO, Topology.MONOSTATIC)[0]
    hi = crb_exact_sum(geom, (tgt,), CARRIER, NoiseAndPowerConfig.from_snr(10.0),
                       Mode.MIMO, Topology.MONOSTATIC)[0]
    assert hi.crb_theta == pytest.approx(lo.crb_theta / 10.0, rel=1e-12)
    assert hi.crb_range == pytest.approx(lo.crb_range / 10.0, rel=1e-12)


def test_single_transmit_element_unidentifiable():
    geom = mono_geom(1)
    tgt = target(10.0, 0.3)
    for mode in (Mode.MIMO, Mode.PHASED):
        res = crb_exact_sum(geom, (tgt,), CARRIER, CFG, mode, Topology.MONOSTATIC)[0]
        assert not res.identifiable
        obs = build_observation(geom, tgt, CARRIER, mode, Topology.MONOSTATIC)
        assert not crb_from_fim(fim_numeric(obs, CFG)).identifiable


def test_bistatic_phased_unidentifiable():
    geom, tgt = bi_geom(65, 8, 35.0), target(18.0, 0.3)
    res = crb_exact_sum(geom, (tgt,), CARRIER, CFG, Mode.PHASED,
                        Topology.BISTATIC_NEAR_FAR_TX)[0]
    assert not res.identifiable
    obs = build_observation(geom, tgt, CARRIER, Mode.PHASED,
                            Topology.BISTATIC_NEAR_FAR_TX)
    assert not crb_from_fim(fim_numeric(obs, CFG)).identifiable


@pytest.mark.parametrize("mode", list(Mode))
def test_exact_sum_rejects_bistatic_without_separation(mode):
    geom, tgt = bi_geom(9, 8, 0.0), target(18.0, 0.3)
    with pytest.raises(DomainError, match="array_separation > 0"):
        crb_exact_sum(geom, (tgt,), CARRIER, CFG, mode, Topology.BISTATIC_NEAR_FAR_TX)
    with pytest.raises(DomainError):
        crb_closed(geom, tgt, CARRIER, CFG, mode, Topology.BISTATIC_NEAR_FAR_TX)
    with pytest.raises(DomainError):
        build_observation(geom, tgt, CARRIER, mode, Topology.BISTATIC_NEAR_FAR_TX)


def test_unidentifiable_result_shape():
    res = CrbResult.unidentifiable(CrbMethod.EXACT_SUM, ("note",))
    assert math.isinf(res.crb_theta) and math.isinf(res.crb_range)
    assert not res.identifiable and res.warnings == ("note",)
