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
    factor_partials,
    kron_fim_oracle,
    mono_geom,
    receive_response,
    rel_err,
    schur_complement,
    target,
    transmit_response,
)
from nfcrb.errors import ConfigError, DegenerateGeometryError, DomainError
from nfcrb.experiment import Topology, presets
from nfcrb.fim import (
    _BLOCK_ELEMENTS,
    CrbResult,
    DET_REL_TOL,
    SINGULAR_WARNING,
    FimMatrix,
    NoiseAndPowerConfig,
    crb_exact_sum,
    crb_from_fim,
    fim_numeric,
    intermediates_exact,
    mode_energy_scale,
    receive_sums,
)
from nfcrb.geometry import ArrayGeometry, Mode
from nfcrb.steering import build_observation, phase_derivs

CFG = NoiseAndPowerConfig.from_snr(0.0, 1.0)

# regression anchors (lambda = 0.1265, gamma = 0 dB, L = 1), the values of
# the 60-digit oracle of tests/test_oracle.py
FROZEN = {
    ("mono", Mode.MIMO): (65, 18.0, 0.3, 1.2481791948978645e-06, 0.5158266699999282),
    ("mono", Mode.PHASED): (513, 12.0, math.pi / 8, 3.0446622774632824e-11, 4.2853283483204696e-08),
    ("bi", 0.3): (65, 18.0, 0.3, 2.0235537873340758e-05, 1.2806186818331564),
    ("bi", 0.0): (65, 18.0, 0.0, 1.8084782548138216e-05, 7.019094010054554),
}


# --- power/noise config ---------------------------------------------------------

def test_from_snr_normalized_representative():
    cfg = NoiseAndPowerConfig.from_snr(10.0, time_bandwidth=4.0)
    assert cfg.snr_linear == pytest.approx(10.0)
    assert cfg.time_bandwidth == 4.0
    assert cfg.snr_db == pytest.approx(10.0)


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        NoiseAndPowerConfig(snr_linear=0.0)
    with pytest.raises(ConfigError):
        NoiseAndPowerConfig(snr_linear=1.0, time_bandwidth=0.5)


def test_mode_energy_scale():
    cfg = NoiseAndPowerConfig.from_snr(3.0, time_bandwidth=8.0)
    s = cfg.time_bandwidth * cfg.snr_linear
    assert mode_energy_scale(cfg, 65, Mode.MIMO) == pytest.approx(s / 65.0)
    assert mode_energy_scale(cfg, 65, Mode.PHASED) == pytest.approx(s * 65.0)


def test_fim_matrix_validation():
    with pytest.raises(DomainError):
        FimMatrix(np.zeros((3, 3)))
    with pytest.raises(DomainError):
        FimMatrix(np.eye(4))


# --- numerical FIM vs finite-difference oracle ----------------------------------

def fd_fim_oracle(geom, tgt, mode, cfg):
    """Independent FIM: mean vector differentiated by central differences,
    no analytic steering derivatives involved."""
    root = math.sqrt(mode_energy_scale(cfg, geom.num_tx, mode))

    def mean(th, r, kr, ki):
        g = build_observation(geom, target(r, th), CARRIER, mode).g
        return (kr + 1j * ki) * root * g

    th0, r0 = tgt.angle_rad, tgt.range_m
    kr0, ki0 = 1.0, 0.0   # kappa = 1
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
    return 2.0 * (jac.conj().T @ jac).real   # 2/N0, N0 = 1


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
    obs = build_observation(geom, tgt, CARRIER, mode)
    got = fim_numeric(obs, CFG).reduced
    fd = fd_fim_oracle(geom, tgt, mode, CFG)
    scale = np.abs(fd[:2, :2]).max()
    assert np.abs(got - schur_complement(fd)).max() < 1e-5 * scale


PAIRS = [(mode, topology) for mode in Mode for topology in Topology]


@pytest.mark.parametrize("mode,topology", PAIRS)
@pytest.mark.parametrize("num_tx", [1, 9, 17])
@pytest.mark.parametrize("num_rx", [1, 8])
def test_factored_fim_matches_kronecker_oracle(mode, topology, num_tx, num_rx):
    sep = 35.0 if topology is Topology.BISTATIC_NEAR_FAR_TX else 0.0
    geom = ArrayGeometry(num_tx, num_rx, 0.0628, 0.0628, sep)
    obs = build_observation(geom, target(18.0, 0.3), CARRIER, mode)
    cfg = NoiseAndPowerConfig(snr_linear=2.0, time_bandwidth=3.0)
    got = fim_numeric(obs, cfg)
    want, schur = kron_fim_oracle(obs, geom, cfg)
    # the oracle's complement cancels down from the scale of its angle/range
    # block; the factored one does not, so that scale bounds the difference
    assert np.abs(got.reduced - schur).max() <= 1e-12 * np.abs(want[:2, :2]).max()


def test_numeric_fim_memory_is_set_by_the_factors():
    # the M*N = 4.2e6-entry observation would need ~740 MB as a Jacobian
    geom, tgt = mono_geom(2049), target(10.0, math.pi / 6)
    tracemalloc.start()
    try:
        obs = build_observation(geom, tgt, CARRIER, Mode.MIMO)
        res = crb_from_fim(fim_numeric(obs, CFG))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.identifiable
    assert peak < 5 * 2 ** 20


@pytest.mark.parametrize("mode,topology", PAIRS)
def test_exact_sum_run_holds_one_workspace(mode, topology):
    # fig4's size: 61 locations at M = 1025, in blocks of P locations
    geom = bi_geom(1025, 8, 35.0) if topology is Topology.BISTATIC_NEAR_FAR_TX else mono_geom(1025)
    targets = [target(2.0 + j, 0.3) for j in range(61)]
    workspace = 4 * min(61, _BLOCK_ELEMENTS // 1025) * 1025 * 8

    def call():
        return crb_exact_sum(geom, targets, CARRIER, CFG, mode)

    call()
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # slack: the (P, M) bool mask of the range row's branch (32 KB here),
    # ufunc buffers and the 61 results; 135-140 KB measured
    assert peak <= workspace + 192 * 1024


@pytest.mark.parametrize("mode,topology,geom,tgt", [
    (Mode.MIMO, Topology.MONOSTATIC, mono_geom(100001), target(10.0, math.pi / 6)),
    (Mode.PHASED, Topology.MONOSTATIC, mono_geom(100001), target(10.0, math.pi / 6)),
    (Mode.MIMO, Topology.BISTATIC_NEAR_FAR_TX, bi_geom(100001, 8, 35.0), target(18.0, 0.3)),
])
def test_numeric_fim_reaches_extremely_large_arrays(mode, topology, geom, tgt):
    via_sum = crb_exact_sum(geom, (tgt,), CARRIER, CFG, mode)[0]
    obs = build_observation(geom, tgt, CARRIER, mode)
    via_fim = crb_from_fim(fim_numeric(obs, CFG))
    assert rel_err(via_fim.crb_theta, via_sum.crb_theta) < 1e-9
    assert rel_err(via_fim.crb_range, via_sum.crb_range) < 1e-9


def test_fim_scales_with_power_and_noise():
    geom, tgt = mono_geom(9), target(10.0, 0.3)
    obs = build_observation(geom, tgt, CARRIER, Mode.MIMO)
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


@st.composite
def _spd_and_scale(draw):
    # Q = [[a, c sqrt(ab)], [c sqrt(ab), b]] with det/(q00 q11) = 1 - c^2,
    # kept a decade away from DET_REL_TOL, where rounding may flip a verdict
    a, b = (10.0 ** draw(st.floats(-8.0, 8.0)) for _ in range(2))
    rel_det = 10.0 ** draw(st.floats(-16.0, 0.0).filter(
        lambda x: abs(x - math.log10(DET_REL_TOL)) > 1.0))
    c = draw(st.sampled_from((-1.0, 1.0))) * math.sqrt(1.0 - rel_det)
    off = c * math.sqrt(a * b)
    return np.array([[a, off], [off, b]]), draw(st.floats(1e-6, 1e6)), rel_det


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_spd_and_scale())
def test_inversion_verdict_does_not_depend_on_units(drawn):
    # a change of range units, r -> r/s, maps Q to D Q D with D = diag(1, s):
    # the verdict must not move, and the bounds scale by 1 and 1/s^2
    q, s, rel_det = drawn
    d = np.diag([1.0, s])
    base = crb_from_fim(FimMatrix(q))
    scaled = crb_from_fim(FimMatrix(d @ q @ d))
    assert scaled.identifiable == base.identifiable == (rel_det > DET_REL_TOL)
    if base.identifiable:
        # entries round to ~eps; the determinant divides that by rel_det
        tol = 16 * np.finfo(float).eps / rel_det
        assert rel_err(scaled.crb_theta, base.crb_theta) < tol
        assert rel_err(scaled.crb_range * s * s, base.crb_range) < tol


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(_spd_and_scale(), st.integers(-900, 900))
def test_inversion_is_exact_under_powers_of_two(drawn, e):
    # Q 2^e has q00 q11 far outside the float range for |e| > ~540; the
    # bounds must still be Q's times 2^-e to the bit, with Q's verdict
    q, _, rel_det = drawn
    base = crb_from_fim(FimMatrix(q))
    scaled = crb_from_fim(FimMatrix(q * 2.0 ** e))
    assert scaled.identifiable == base.identifiable
    if base.identifiable:
        assert scaled.crb_theta == base.crb_theta * 2.0 ** -e
        assert scaled.crb_range == base.crb_range * 2.0 ** -e


# --- intermediate sums against steering inner products ---------------------------

def test_intermediates_exact_are_steering_inner_products():
    geom, tgt = mono_geom(65), target(18.0, 0.3)
    sv = transmit_response(geom, tgt)
    d_theta, d_range = factor_partials(sv, -2.0 * math.pi / CARRIER.wavelength)
    ip = intermediates_exact(geom, tgt, CARRIER)
    assert ip.angle_power == pytest.approx(np.vdot(d_theta, d_theta).real, rel=1e-12)
    assert ip.range_power == pytest.approx(np.vdot(d_range, d_range).real, rel=1e-12)
    assert ip.cross_power == pytest.approx(np.vdot(d_theta, d_range).real, rel=1e-12)
    assert ip.angle_overlap == pytest.approx(np.vdot(d_theta, sv.values), rel=1e-12)
    assert ip.range_overlap == pytest.approx(np.vdot(d_range, sv.values), rel=1e-12)


# element counts on both sides of the block size, and a few small ones
_RUN_M = st.sampled_from((1, 3, 9, 1025, _BLOCK_ELEMENTS - 1, _BLOCK_ELEMENTS + 1))
# (0, 35 m) is the receive-array centre of bi_geom(m, 8, 35.0), which every
# path refuses
_LOCATION = st.tuples(st.floats(-1.5, 1.5), st.floats(0.05, 100.0)).filter(
    lambda loc: loc != (0.0, 35.0))


@st.composite
def _runs(draw):
    """A mode/topology pair, its geometry and a run of locations: any length
    up to 40, or one that fills its blocks exactly or leaves a one-location
    tail block (at M = 1025 a block holds _BLOCK_ELEMENTS // 1025
    locations). The locations are free, or share theta (an r sweep), or
    share r (a theta sweep), or repeat one target."""
    mode, topology = draw(st.sampled_from(PAIRS))
    m = draw(_RUN_M)
    geom = bi_geom(m, 8, 35.0) if topology is Topology.BISTATIC_NEAR_FAR_TX else mono_geom(m)
    step = max(1, _BLOCK_ELEMENTS // max(geom.num_tx, geom.num_rx))
    lengths = st.integers(1, 40)
    if step <= 32:
        lengths = st.one_of(lengths, st.sampled_from((step, 2 * step, step + 1)))
    n = draw(lengths)
    free = draw(st.lists(_LOCATION, min_size=n, max_size=n))
    th, r = free[0]
    shared = draw(st.sampled_from(("none", "theta", "r", "target")))
    runs = {"none": free,
            "theta": [(th, rj) for _, rj in free],
            "r": [(thj, r) for thj, _ in free],
            "target": [(th, r)] * n}
    return mode, topology, geom, [loc for loc in runs[shared] if loc != (0.0, 35.0)]


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(drawn=_runs())
def test_exact_sum_over_a_run_equals_one_location_calls(drawn):
    mode, topology, geom, locations = drawn
    thetas, ranges = zip(*locations)
    targets = [target(r, th) for th, r in locations]
    run_psi = phase_derivs(geom, CARRIER, mode, thetas, ranges)
    run = crb_exact_sum(geom, targets, CARRIER, CFG, mode)
    for j, tgt in enumerate(targets):
        obs = build_observation(geom, tgt, CARRIER, mode)
        for over_run, alone in zip(run_psi, (obs.a.psi, obs.b.psi)):
            # bit for bit: a shared operand is the same float as the column
            assert over_run[:, j].tobytes() == alone.tobytes()
        assert run[j] == crb_exact_sum(geom, (tgt,), CARRIER, CFG, mode)[0]
        # NumericalFim's expressions on the same derivatives: the same bits
        via_fim = crb_from_fim(fim_numeric(obs, CFG))
        assert (run[j].crb_theta, run[j].crb_range, run[j].identifiable) == (
            via_fim.crb_theta, via_fim.crb_range, via_fim.identifiable)


def test_theta_sweep_rows_equal_one_location_calls():
    # fig4's theta grid at r = 10 m: the run shares r, so the kernel forms
    # u = m d/r and u^2 as one row per block; each location's rows must be
    # the lone-location path's to the bit, in every mode and topology
    thetas = [math.radians(v) for v in presets()["fig4"].sweep.points()]
    ranges = [10.0] * len(thetas)
    for mode, topology in PAIRS:
        bistatic = topology is Topology.BISTATIC_NEAR_FAR_TX
        geom = bi_geom(1025, 8, 35.0) if bistatic else mono_geom(1025)
        run_psi = phase_derivs(geom, CARRIER, mode, thetas, ranges)
        run = crb_exact_sum(geom, [target(10.0, th) for th in thetas], CARRIER, CFG, mode)
        for j, th in enumerate(thetas):
            alone = phase_derivs(geom, CARRIER, mode, th, 10.0)
            for over_run, psi in zip(run_psi, alone):
                assert over_run[:, j].tobytes() == psi.tobytes()
            assert run[j] == crb_exact_sum(geom, (target(10.0, th),), CARRIER, CFG, mode)[0]


def test_crb_result_is_an_immutable_hashable_record():
    # just the numbers: which method gave a result is where it sits
    assert CrbResult._fields == ("crb_theta", "crb_range", "identifiable", "warnings")
    res = CrbResult(1.0, 2.0, True, ("note",))
    with pytest.raises(AttributeError):
        res.crb_theta = 3.0
    twin = CrbResult(1.0, 2.0, True, ("note",))
    assert res == twin and hash(res) == hash(twin)
    assert res != res._replace(warnings=())
    assert CrbResult(1.0, 2.0, True).warnings == ()


def test_observations_keep_their_derivatives_across_kernel_calls():
    # ExactSum forms and centres its rows in one reused buffer; an
    # observation's psi is never part of such a buffer
    for mode, topology in PAIRS:
        g = bi_geom(1025, 8, 35.0) if topology is Topology.BISTATIC_NEAR_FAR_TX else mono_geom(1025)
        first = build_observation(g, target(18.0, 0.3), CARRIER, mode)
        second = build_observation(g, target(40.0, -0.2), CARRIER, mode)
        kept = [(f.psi.copy(), f.psi) for obs in (first, second) for f in (obs.a, obs.b)]
        crb_exact_sum(g, [target(10.0 + j, 0.02 * j) for j in range(70)], CARRIER, CFG, mode)
        crb_exact_sum(g, (target(25.0, 0.4),), CARRIER, CFG, mode)
        build_observation(g, target(33.0, 0.5), CARRIER, mode)
        crb_from_fim(fim_numeric(first, CFG))
        for copy, psi in kept:
            assert np.array_equal(psi, copy)
        assert not np.shares_memory(first.a.psi, second.a.psi)


def test_phase_derivs_refuse_a_target_on_an_element():
    # element m = 2 of nine sits at 0.1256 m on the array axis (theta = 90 deg)
    geom = mono_geom(9)
    with pytest.raises(DegenerateGeometryError, match="transmit element"):
        phase_derivs(geom, CARRIER, Mode.MIMO, [0.3, math.pi / 2], [10.0, 2 * SPACING])
    for mode in Mode:
        with pytest.raises(DegenerateGeometryError, match="transmit element"):
            crb_exact_sum(geom, (target(10.0, 0.3), target(2 * SPACING, math.pi / 2)),
                          CARRIER, CFG, mode)
        with pytest.raises(DegenerateGeometryError, match="transmit element"):
            build_observation(geom, target(2 * SPACING, math.pi / 2), CARRIER, mode)


def test_receive_sums_are_steering_inner_products():
    geom, tgt = bi_geom(9, 8, 35.0), target(18.0, 0.3)
    sv = receive_response(geom, tgt)
    d_theta, d_range = factor_partials(sv)
    i_s, s_s, k_s = receive_sums(geom, tgt, CARRIER)
    assert i_s == pytest.approx(np.vdot(d_theta, d_theta).real, rel=1e-12)
    assert s_s == pytest.approx(np.vdot(d_range, d_range).real, rel=1e-12)
    assert k_s == pytest.approx(np.vdot(d_theta, d_range).real, rel=1e-12)
    # first moments vanish by the symmetric index layout
    assert abs(np.vdot(d_theta, sv.values)) < 1e-9 * math.sqrt(i_s)


# --- exact-sum CRB path ----------------------------------------------------------

def test_exact_sum_frozen_values():
    m, r, th, ct, cr = FROZEN[("mono", Mode.MIMO)]
    res = crb_exact_sum(mono_geom(m), (target(r, th),), CARRIER, CFG, Mode.MIMO)[0]
    assert rel_err(res.crb_theta, ct) < 1e-12
    assert rel_err(res.crb_range, cr) < 1e-12

    m, r, th, ct, cr = FROZEN[("mono", Mode.PHASED)]
    res = crb_exact_sum(mono_geom(m), (target(r, th),), CARRIER, CFG, Mode.PHASED)[0]
    assert rel_err(res.crb_theta, ct) < 1e-12
    assert rel_err(res.crb_range, cr) < 1e-12

    for key in ((("bi", 0.3)), (("bi", 0.0))):
        m, r, th, ct, cr = FROZEN[key]
        res = crb_exact_sum(bi_geom(m, 8, 35.0), (target(r, th),), CARRIER, CFG, Mode.MIMO)[0]
        assert rel_err(res.crb_theta, ct) < 1e-12
        assert rel_err(res.crb_range, cr) < 1e-12


def _numeric_fim(geom, tgt, cfg, mode):
    return crb_from_fim(fim_numeric(build_observation(geom, tgt, CARRIER, mode), cfg))


# run_experiment evaluates both methods by one evaluator, a lone target on
# NumericalFim's path and a longer run by crb_exact_sum, so the two paths
# must give the same bits
@pytest.mark.parametrize("mode,topology,geom,tgt", [
    (Mode.MIMO, Topology.MONOSTATIC, mono_geom(17), target(8.0, -0.6)),
    (Mode.PHASED, Topology.MONOSTATIC, mono_geom(33), target(25.0, 0.9)),
    (Mode.MIMO, Topology.BISTATIC_NEAR_FAR_TX, bi_geom(17, 8, 35.0), target(18.0, 0.2)),
    (Mode.MIMO, Topology.BISTATIC_NEAR_FAR_TX, bi_geom(65, 4, 50.0), target(12.0, -0.4)),
    # beamformed bistatic: no transmit factor, and the receive phase is
    # linear in the element index
    (Mode.PHASED, Topology.BISTATIC_NEAR_FAR_TX, bi_geom(17, 8, 35.0), target(18.0, 0.2)),
    (Mode.MIMO, Topology.MONOSTATIC, mono_geom(1), target(10.0, 0.3)),
    (Mode.PHASED, Topology.MONOSTATIC, mono_geom(1), target(10.0, 0.3)),
    (Mode.MIMO, Topology.BISTATIC_NEAR_FAR_TX, bi_geom(1, 8, 35.0), target(18.0, 0.3)),
    # a finite but huge range: the block is singular at working precision
    (Mode.MIMO, Topology.MONOSTATIC, mono_geom(9), target(1e200, 0.3)),
])
def test_exact_sum_equals_numeric_fim(mode, topology, geom, tgt):
    cfg = NoiseAndPowerConfig.from_snr(5.0, time_bandwidth=2.0)
    via_sum = crb_exact_sum(geom, (tgt,), CARRIER, cfg, mode)[0]
    via_fim = _numeric_fim(geom, tgt, cfg, mode)
    # identifiable only with a transmit aperture in the observation (more
    # than one element, not beamformed bistatic) at a range it is not lost at
    beamformed_bistatic = mode is Mode.PHASED and topology is Topology.BISTATIC_NEAR_FAR_TX
    identifiable = geom.num_tx > 1 and not beamformed_bistatic and tgt.range_m < 1e100
    assert via_sum.identifiable is identifiable
    assert (SINGULAR_WARNING in via_sum.warnings) is not identifiable
    # one kernel, one reduction, one inversion: the same bits
    assert via_sum == via_fim


@pytest.mark.parametrize("mode,topology", PAIRS)
def test_blocked_exact_sum_run_equals_numeric_fim_per_location(mode, topology):
    # 40 locations at M = 1025 fill one block of _BLOCK_ELEMENTS // 1025 and
    # part of a second; a monostatic run holds a singular one (the bistatic
    # receive direction is not finite at 1e200 m)
    bistatic = topology is Topology.BISTATIC_NEAR_FAR_TX
    geom = bi_geom(1025, 8, 35.0) if bistatic else mono_geom(1025)
    targets = [target(3.0 + 2.0 * j, -1.2 + 0.06 * j) for j in range(40)]
    if not bistatic:
        targets[33] = target(1e200, 0.3)
    assert 3 <= _BLOCK_ELEMENTS // 1025 < len(targets)
    run = crb_exact_sum(geom, targets, CARRIER, CFG, mode)
    assert len(run) == len(targets)
    for res, tgt in zip(run, targets):
        assert res == _numeric_fim(geom, tgt, CFG, mode)
    if not bistatic:
        assert SINGULAR_WARNING in run[33].warnings


def test_mode_ratio_is_two_over_m():
    geom, tgt = mono_geom(65), target(18.0, 0.3)
    mimo = crb_exact_sum(geom, (tgt,), CARRIER, CFG, Mode.MIMO)[0]
    phased = crb_exact_sum(geom, (tgt,), CARRIER, CFG, Mode.PHASED)[0]
    assert phased.crb_theta / mimo.crb_theta == pytest.approx(2.0 / 65.0, rel=1e-12)
    assert phased.crb_range / mimo.crb_range == pytest.approx(2.0 / 65.0, rel=1e-12)


def test_snr_scaling_is_exact():
    geom, tgt = mono_geom(17), target(10.0, 0.3)
    lo = crb_exact_sum(geom, (tgt,), CARRIER, NoiseAndPowerConfig.from_snr(0.0), Mode.MIMO)[0]
    hi = crb_exact_sum(geom, (tgt,), CARRIER, NoiseAndPowerConfig.from_snr(10.0), Mode.MIMO)[0]
    assert hi.crb_theta == pytest.approx(lo.crb_theta / 10.0, rel=1e-12)
    assert hi.crb_range == pytest.approx(lo.crb_range / 10.0, rel=1e-12)


def test_single_transmit_element_unidentifiable():
    geom = mono_geom(1)
    tgt = target(10.0, 0.3)
    for mode in (Mode.MIMO, Mode.PHASED):
        res = crb_exact_sum(geom, (tgt,), CARRIER, CFG, mode)[0]
        assert not res.identifiable
        obs = build_observation(geom, tgt, CARRIER, mode)
        assert not crb_from_fim(fim_numeric(obs, CFG)).identifiable


def test_bistatic_phased_unidentifiable():
    geom, tgt = bi_geom(65, 8, 35.0), target(18.0, 0.3)
    res = crb_exact_sum(geom, (tgt,), CARRIER, CFG, Mode.PHASED)[0]
    assert not res.identifiable
    obs = build_observation(geom, tgt, CARRIER, Mode.PHASED)
    assert not crb_from_fim(fim_numeric(obs, CFG)).identifiable


@pytest.mark.parametrize("snr_db", [0.0, 3000.0, 3060.0])
def test_singular_verdict_does_not_depend_on_gamma_l(snr_db):
    # fig8's point in phased mode: the receive factor alone, a rank-one
    # Gram. At 3060 dB the scale 2 gamma L M overflows to inf, and inf times
    # that Gram held inf and NaN entries, read as information past the
    # float range; the unscaled Gram decides at every gamma L, alone and
    # in a block
    geom, tgt = bi_geom(65, 8, 35.0), target(18.0, 0.0)
    cfg = NoiseAndPowerConfig.from_snr(snr_db, time_bandwidth=16.0)
    mode, topology = Mode.PHASED, Topology.BISTATIC_NEAR_FAR_TX
    assert (2.0 * mode_energy_scale(cfg, 65, mode) == math.inf) is (snr_db > 3000.0)
    singular = CrbResult.unidentifiable((SINGULAR_WARNING,))
    assert _numeric_fim(geom, tgt, cfg, mode) == singular
    assert crb_exact_sum(geom, (tgt,), CARRIER, cfg, mode) == [singular]
    assert crb_exact_sum(geom, (tgt, target(20.0, 0.3)), CARRIER, cfg, mode) == [singular] * 2


def test_unidentifiable_result_shape():
    res = CrbResult.unidentifiable(("note",))
    assert math.isinf(res.crb_theta) and math.isinf(res.crb_range)
    assert not res.identifiable and res.warnings == ("note",)
