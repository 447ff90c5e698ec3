"""The steering kernel: unit modulus, analytic phase derivatives against
central differences of the phase, the factor layout, and the Kronecker
assembly of the observation vector."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CARRIER,
    SPACING,
    bi_geom,
    factor_partials,
    kron_partials,
    mono_geom,
    range_constants,
    receive_response,
    target,
    transmit_response,
)
from nfcrb.errors import DegenerateGeometryError
from nfcrb.experiment import Topology, csv_text, presets, run_experiment, validate_config
from nfcrb.geometry import Mode
from nfcrb.steering import (
    PhaseFactor,
    build_observation,
    direction_sine_derivs,
    phase_derivs,
    steering_factors,
)

DTH = 1e-6   # rad
DR = 1e-5    # m
PAIRS = [(mode, topology) for mode in (Mode.MIMO, Mode.PHASED)
         for topology in (Topology.MONOSTATIC, Topology.BISTATIC_NEAR_FAR_TX)]


def phase_slope(up, dn, step):
    """Central difference of the phase of unit-modulus values."""
    return np.angle(up * dn.conj()) / (2.0 * step)


def fd_check(make, tgt, range_constant=0.0, rel=1e-4):
    """Central-difference check of psi against the phase of the values;
    range_constant is the part of d phi/dr that psi leaves out."""
    sv = make(tgt)
    fd_th = phase_slope(make(target(tgt.range_m, tgt.angle_rad + DTH)).values,
                        make(target(tgt.range_m, tgt.angle_rad - DTH)).values, DTH)
    fd_r = phase_slope(make(target(tgt.range_m + DR, tgt.angle_rad)).values,
                       make(target(tgt.range_m - DR, tgt.angle_rad)).values, DR)
    psi_th, psi_r = sv.psi
    scale_th = max(np.abs(psi_th).max(), 1e-30)
    scale_r = max(np.abs(psi_r).max(), 1e-30)
    assert np.abs(psi_th - fd_th).max() < rel * scale_th
    assert np.abs(psi_r - (fd_r - range_constant)).max() < rel * scale_r


def test_tx_steering_unit_modulus_and_center_phase():
    geom = mono_geom(65)
    tgt = target(18.0, 0.3)
    sv = transmit_response(geom, tgt)
    assert np.abs(np.abs(sv.values) - 1.0).max() < 1e-12
    center = np.exp(-2j * math.pi * tgt.range_m / CARRIER.wavelength)
    assert abs(sv.values[32] - center) < 1e-12


def test_tx_steering_derivatives_match_finite_differences():
    geom = mono_geom(33)
    for th, r in ((0.0, 10.0), (0.4, 5.0), (-1.0, 18.0)):
        fd_check(lambda t: transmit_response(geom, t), target(r, th),
                 -2.0 * math.pi / CARRIER.wavelength)


def test_rx_near_degenerates_to_tx_when_colocated():
    # co-located arrays: the receive factor is the transmit factor, phase
    # derivatives included
    geom = mono_geom(9)
    a, b = steering_factors(geom, CARRIER, Mode.MIMO, [-0.4, 0.2], [7.0, 12.0])
    assert b is a
    single = transmit_response(geom, target(7.0, -0.4))
    assert np.array_equal(a[:, 0], single.values)
    obs = build_observation(geom, target(7.0, -0.4), CARRIER, Mode.MIMO)
    assert obs.b is obs.a
    assert np.array_equal(obs.a.psi, single.psi)


def test_rx_far_unit_modulus_and_center_element():
    geom = bi_geom(9, 9, 35.0)
    sv = receive_response(geom, target(18.0, 0.3))
    assert np.abs(np.abs(sv.values) - 1.0).max() < 1e-12
    assert sv.values[4] == 1.0 + 0.0j  # bulk phase dropped, center index is 0


def test_rx_far_phase_slope_matches_direction_sine():
    geom = bi_geom(9, 8, 35.0)
    tgt = target(18.0, 0.3)
    sv = receive_response(geom, tgt)
    # adjacent-element phase difference = 2 pi d sin(phi)/lambda
    step = np.angle(sv.values[1:] * sv.values[:-1].conj())
    l2 = 35.0 ** 2 + 18.0 ** 2 - 2 * 35.0 * 18.0 * math.cos(0.3)
    sin_phi = 18.0 * math.sin(0.3) / math.sqrt(l2)
    expect = 2.0 * math.pi * geom.rx_spacing * sin_phi / CARRIER.wavelength
    assert np.abs(step - expect).max() < 1e-12


def test_rx_far_derivatives_match_finite_differences():
    geom = bi_geom(9, 8, 35.0)
    for th, r in ((0.0, 18.0), (0.3, 18.0), (-0.8, 50.0)):
        fd_check(lambda t: receive_response(geom, t), target(r, th))


def test_direction_sine_derivs_match_finite_differences():
    R, r, th = 35.0, 18.0, 0.3

    def sphi(rr, tt):
        return rr * math.sin(tt) / math.sqrt(R * R + rr * rr - 2 * R * rr * math.cos(tt))

    g_th, g_r = direction_sine_derivs(R, r, th)
    assert g_th == pytest.approx((sphi(r, th + DTH) - sphi(r, th - DTH)) / (2 * DTH), rel=1e-6)
    assert g_r == pytest.approx((sphi(r + DR, th) - sphi(r - DR, th)) / (2 * DR), rel=1e-6)
    # array inputs are evaluated elementwise
    arr_th, arr_r = direction_sine_derivs(R, np.array([50.0, r]), np.array([-0.8, th]))
    assert arr_th[1] == pytest.approx(g_th, rel=1e-14)
    assert arr_r[1] == pytest.approx(g_r, rel=1e-14)


# --- the kernel at paired points ---------------------------------------------------

def kernel_case(topology):
    if topology is Topology.MONOSTATIC:
        return mono_geom(9)
    return bi_geom(9, 8, 35.0)


@pytest.mark.parametrize("mode,topology", PAIRS)
def test_kernel_derivatives_at_paired_points(mode, topology):
    # psi at each point against the phase of the kernel's values at the
    # paired points around it
    geom = kernel_case(topology)
    ths = np.array([0.0, 0.3, -0.8, 1.1])
    rs = np.array([18.0, 10.0, 50.0, 7.0])

    def at(dth, dr):
        return steering_factors(geom, CARRIER, mode, ths + dth, rs + dr)

    up_t, dn_t, up_r, dn_r = at(DTH, 0.0), at(-DTH, 0.0), at(0.0, DR), at(0.0, -DR)
    for j in range(ths.size):
        obs = build_observation(geom, target(rs[j], ths[j]), CARRIER, mode)
        for i, (factor, c_r) in enumerate(zip((obs.a, obs.b), range_constants(obs, geom))):
            fd_th = phase_slope(up_t[i][:, j], dn_t[i][:, j], DTH)
            fd_r = phase_slope(up_r[i][:, j], dn_r[i][:, j], DR)
            # point by point, so a weak point is not hidden by a strong one
            scale_th = max(np.abs(factor.psi[0]).max(), 1e-30)
            scale_r = max(np.abs(factor.psi[1]).max(), 1e-30)
            assert np.abs(factor.psi[0] - fd_th).max() < 1e-4 * scale_th
            assert np.abs(factor.psi[1] - (fd_r - c_r)).max() < 1e-4 * scale_r


@pytest.mark.parametrize("mode,topology", PAIRS)
def test_kernel_layout(mode, topology):
    geom = kernel_case(topology)
    a, b = steering_factors(geom, CARRIER, mode, [0.1, 0.2, 0.3],
                            [10.0, 12.0, 14.0])
    has_tx = mode is Mode.MIMO or topology is Topology.MONOSTATIC
    has_rx = topology is Topology.BISTATIC_NEAR_FAR_TX or mode is Mode.MIMO
    rx_len = geom.num_tx if topology is Topology.MONOSTATIC else geom.num_rx
    assert a.shape == (geom.num_tx if has_tx else 1, 3)
    assert b.shape == (rx_len if has_rx else 1, 3)
    assert (b is a) == (topology is Topology.MONOSTATIC and mode is Mode.MIMO)
    obs = build_observation(geom, target(10.0, 0.1), CARRIER, mode)
    assert (obs.b is obs.a) == (b is a)
    for present, factor, one in ((has_tx, a, obs.a), (has_rx, b, obs.b)):
        assert one.psi.shape == (2, len(factor))
        if not present:
            assert np.array_equal(factor, np.ones((1, 3)))
            assert np.array_equal(one.values, np.ones(1)) and not one.psi.any()


@pytest.mark.parametrize("mode,topology", PAIRS)
def test_kernel_values_are_the_exponential_of_the_phase(mode, topology):
    # bit for bit: each factor is exp of its phase array, formed in place
    geom = kernel_case(topology)
    rng = np.random.default_rng(11)
    th, r = rng.uniform(-1.2, 1.2, 40), rng.uniform(6.0, 40.0, 40)
    a, b = steering_factors(geom, CARRIER, mode, th, r)
    k_tx, k_rx = -2j * math.pi / CARRIER.wavelength, 2j * math.pi / CARRIER.wavelength
    md = (geom.tx_indices() * geom.tx_spacing)[:, None]
    r_m = np.sqrt(r * r - 2.0 * r * md * np.sin(th) + md * md)
    want_a = np.exp(k_tx * r_m)
    if topology is Topology.MONOSTATIC:
        want_b = want_a
    else:
        R = geom.array_separation
        nd = (geom.rx_indices() * geom.rx_spacing)[:, None]
        sin_phi = r * np.sin(th) / np.sqrt(R * R + r * r - 2.0 * R * r * np.cos(th))
        want_b = np.exp(k_rx * nd * sin_phi)
    if mode is Mode.PHASED:
        if topology is Topology.MONOSTATIC:
            want_b = np.ones((1, th.size))
        else:
            want_a = np.ones((1, th.size))
    assert a.tobytes() == want_a.tobytes()
    assert b.tobytes() == want_b.tobytes()


# --- observation assembly ------------------------------------------------------

def obs_case(mode, topology):
    if topology is Topology.MONOSTATIC:
        return mono_geom(9), target(10.0, 0.3)
    return bi_geom(9, 8, 35.0), target(18.0, 0.3)


def coordinate_factors(geom, tgt):
    """Independent oracle: the transmit response from planar element-to-target
    distances, and the far-field receive response from the direction seen at
    the receive centre (R, 0)."""
    k = 2.0 * math.pi / CARRIER.wavelength
    qx = tgt.range_m * math.cos(tgt.angle_rad)
    qy = tgt.range_m * math.sin(tgt.angle_rad)
    ys = geom.tx_indices() * geom.tx_spacing
    a = np.exp(-1j * k * np.hypot(qx, qy - ys))
    sin_phi = qy / math.hypot(qx - geom.array_separation, qy)
    b = np.exp(1j * k * geom.rx_indices() * geom.rx_spacing * sin_phi)
    return a, b


@pytest.mark.parametrize("mode", [Mode.MIMO, Mode.PHASED])
@pytest.mark.parametrize("topology", [Topology.MONOSTATIC, Topology.BISTATIC_NEAR_FAR_TX])
def test_observation_layout_and_factors(mode, topology):
    geom, tgt = obs_case(mode, topology)
    obs = build_observation(geom, tgt, CARRIER, mode)
    assert obs.tx_array_size == geom.num_tx
    assert obs.g.shape[0] == obs.num_tx * obs.num_rx

    a, b = coordinate_factors(geom, tgt)
    if topology is Topology.MONOSTATIC:
        expect = np.kron(a, a) if mode is Mode.MIMO else a
        assert (obs.num_tx, obs.num_rx) == ((9, 9) if mode is Mode.MIMO else (9, 1))
    else:
        expect = np.kron(b, a) if mode is Mode.MIMO else b
        assert (obs.num_tx, obs.num_rx) == ((9, 8) if mode is Mode.MIMO else (1, 8))
    assert np.abs(obs.g - expect).max() < 1e-12
    # reshape contract: y.reshape(num_rx, num_tx) never fails
    obs.g.reshape(obs.num_rx, obs.num_tx)


@pytest.mark.parametrize("mode", [Mode.MIMO, Mode.PHASED])
@pytest.mark.parametrize("topology", [Topology.MONOSTATIC, Topology.BISTATIC_NEAR_FAR_TX])
def test_observation_derivatives_match_finite_differences(mode, topology):
    geom, tgt = obs_case(mode, topology)

    def g_of(t):
        return build_observation(geom, t, CARRIER, mode).g

    g_theta, g_range = kron_partials(build_observation(geom, tgt, CARRIER, mode), geom)
    fd_th = (g_of(target(tgt.range_m, tgt.angle_rad + DTH))
             - g_of(target(tgt.range_m, tgt.angle_rad - DTH))) / (2 * DTH)
    fd_r = (g_of(target(tgt.range_m + DR, tgt.angle_rad))
            - g_of(target(tgt.range_m - DR, tgt.angle_rad))) / (2 * DR)
    assert np.abs(g_theta - fd_th).max() < 1e-4 * np.abs(g_theta).max()
    assert np.abs(g_range - fd_r).max() < 1e-4 * max(np.abs(g_range).max(), 1e-30)


def test_mono_mimo_product_rule():
    geom, tgt = mono_geom(9), target(10.0, 0.3)
    a = transmit_response(geom, tgt)
    obs = build_observation(geom, tgt, CARRIER, Mode.MIMO)
    for got, d_a in zip(kron_partials(obs, geom),
                        factor_partials(a, -2.0 * math.pi / CARRIER.wavelength)):
        expect = np.kron(d_a, a.values) + np.kron(a.values, d_a)
        assert np.abs(got - expect).max() < 1e-12


# --- values formed on read -------------------------------------------------------

VALUE_POINTS = [(18.0, 0.3), (10.0, -1.2), (0.2, 1.57), (0.12, 1.55), (500.0, 0.0)]


@pytest.mark.parametrize("mode,topology", PAIRS)
@pytest.mark.parametrize("num_tx", [1, 9, 33])
def test_observation_values_are_the_kernel_values(mode, topology, num_tx):
    # bit for bit: the simulator draws its snapshots from obs.g
    geom = mono_geom(num_tx) if topology is Topology.MONOSTATIC else bi_geom(num_tx, 8, 35.0)
    for r, th in VALUE_POINTS:
        obs = build_observation(geom, target(r, th), CARRIER, mode)
        a, b = steering_factors(geom, CARRIER, mode, [th], [r])
        assert np.array_equal(obs.g, np.kron(b[:, 0], a[:, 0]))
        assert np.array_equal(obs.a.values, a[:, 0])


@pytest.mark.parametrize("name", ["fig2", "fig3"])
def test_observation_values_at_every_preset_point(name):
    cfg = presets()[name]
    for run in validate_config(cfg):
        (tgt,) = run.targets
        obs = build_observation(run.geometry, tgt, run.carrier, cfg.mode)
        a, b = steering_factors(run.geometry, run.carrier, cfg.mode,
                                [tgt.angle_rad], [tgt.range_m])
        assert np.array_equal(obs.g, np.kron(b[:, 0], a[:, 0]))


@pytest.mark.parametrize("name", ["fig2", "fig3"])
def test_bounds_never_form_the_steering_values(name, monkeypatch):
    cfg = presets()[name]
    want = csv_text(run_experiment(cfg))

    def refuse(self):
        raise AssertionError("steering values formed on the bound path")

    monkeypatch.setattr(PhaseFactor, "values", property(refuse))
    with pytest.raises(AssertionError, match="bound path"):
        transmit_response(mono_geom(9), target(10.0, 0.3)).values
    assert csv_text(run_experiment(cfg)) == want


# --- the transmit-element guard -----------------------------------------------------

def _refused_element_by_element(geom, th, r) -> bool:
    """The guard as each element's float (r_m/r)^2 = 1 - 2 u sin(theta) + u^2
    decides it, u = m d_tx/r: a location is refused unless every element's
    is positive."""
    u = geom.tx_indices() * geom.tx_spacing / r
    rm2 = (1.0 - 2.0 * (u * math.sin(th))) + u * u
    return not rm2.min() > 0.0


def _ulps(x, n):
    """x moved n ulps up (n > 0) or down."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.inf if n > 0 else 0.0)
    return x


@st.composite
def _near_endfire(draw):
    """A geometry and one to three locations near theta = +-pi/2: on a
    transmit element, a few ulps beside one, or anywhere along the aperture,
    at angles from pi/2 itself out past the scalar bound's edge."""
    geom = mono_geom(draw(st.sampled_from((3, 9, 65, 1025, 100_001))))
    half = geom.num_tx // 2
    locations = []
    for _ in range(draw(st.integers(1, 3))):
        on = draw(st.integers(1, half)) * SPACING
        r = draw(st.one_of(st.just(on), st.integers(-4, 4).map(lambda n: _ulps(on, n)),
                           st.floats(1e-3, 2.0 * half * SPACING)))
        reach = 1.0 + half * SPACING / r
        offset = draw(st.one_of(
            st.just(0.0),
            st.integers(1, 64).map(lambda n: math.pi / 2 - _ulps(math.pi / 2, -n)),
            # either side of the scalar bound, cos^2 ~ 2^-47 (1 + U)^2, and
            # down to where sin(theta) rounds to 1
            st.floats(-62.0, -40.0).map(lambda e: 2.0 ** (e / 2.0) * reach),
            st.integers(-170, -20).map(lambda e: 10.0 ** (e / 10.0))))
        locations.append((draw(st.sampled_from((1.0, -1.0))) * (math.pi / 2 - offset), r))
    return geom, locations


def _guard_raises(thetas, ranges, geom) -> bool:
    try:
        phase_derivs(geom, CARRIER, Mode.MIMO, thetas, ranges)
    except DegenerateGeometryError as exc:
        assert str(exc) == "target coincides with a transmit element"
        return True
    return False


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(drawn=_near_endfire())
def test_element_guard_refuses_what_each_element_refuses(drawn):
    # the guard clears a location from two scalars, cos(theta) and U, and
    # forms the per-element expression only where they do not clear it; the
    # refused set must be the per-element expression's, at a lone location
    # and over a block
    geom, locations = drawn
    refused = [_refused_element_by_element(geom, th, r) for th, r in locations]
    for (th, r), want in zip(locations, refused):
        assert _guard_raises(th, r, geom) == want, (th, r)
    if len(locations) > 1:
        thetas, ranges = zip(*locations)
        assert _guard_raises(thetas, ranges, geom) == any(refused)
