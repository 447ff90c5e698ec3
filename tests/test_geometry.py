"""Geometry layer: constructor validation and validity helpers, and the
paper's distance identities (exact and Fresnel transmit distances, the
bistatic (l, phi) transform, the angular span) checked against
coordinate-space oracles through the surviving code: the steering kernel
and the closed forms' span term."""

import math

import numpy as np
import pytest

from conftest import (
    CARRIER,
    SPACING,
    bi_geom,
    fresnel_distance,
    mono_geom,
    receive_response,
    target,
    transmit_response,
)
from nfcrb.closedform import _stable_terms, intermediates_closed
from nfcrb.errors import DegenerateGeometryError, DomainError, SingularGeometryError
from nfcrb.geometry import (
    ArrayGeometry,
    CarrierConfig,
    Mode,
    SensingScenario,
    TargetLocation,
    amplitude_model_valid,
    epsilon_tx,
)
from nfcrb.steering import steering_factors

# a carrier so long that every phase k r_m stays inside (-pi, pi], so the
# kernel's exact distances can be read back from its transmit phases
LONG_WAVE = CarrierConfig.from_wavelength(1.0e3)


def kernel_distances(geom, tgt):
    k = 2.0 * math.pi / LONG_WAVE.wavelength
    return -np.angle(transmit_response(geom, tgt, LONG_WAVE).values) / k


def euclid_to_target(x, y, tgt):
    # planar oracle: array on the y axis, target at (r cos, r sin)
    qx = tgt.range_m * math.cos(tgt.angle_rad)
    qy = tgt.range_m * math.sin(tgt.angle_rad)
    return math.hypot(qx - x, qy - y)


def kernel_direction_sine(geom, tgt):
    # adjacent-element phase step of the far-field receive response
    b = receive_response(geom, tgt).values
    step = np.angle(b[1] * b[0].conj())
    return step * CARRIER.wavelength / (2.0 * math.pi * geom.rx_spacing)


# --- exact transmit distances ------------------------------------------------

def test_center_tx_element_distance_is_range():
    geom = mono_geom(9)
    tgt = target(10.0, math.pi / 6)
    a = transmit_response(geom, tgt).values
    assert a[4] == np.exp(-2j * math.pi / CARRIER.wavelength * tgt.range_m)


def test_tx_distance_matches_coordinate_oracle():
    geom = mono_geom(201)
    tgt = target(10.0, math.pi / 6)
    dist = kernel_distances(geom, tgt)
    for m in (-100, -37, 1, 64, 100):
        expect = euclid_to_target(0.0, m * SPACING, tgt)
        assert abs(dist[m + 100] - expect) <= 1e-12 * expect


def test_tx_distance_zero_when_target_sits_on_element():
    geom = ArrayGeometry(11, 11, 2.0, 2.0, 0.0)
    tgt = target(10.0, math.pi / 2)
    a, _ = steering_factors(geom, CARRIER, Mode.PHASED, [tgt.angle_rad], [tgt.range_m])
    assert a[10, 0] == 1.0   # r_m = 0: no phase


# --- Fresnel (Taylor) approximation ------------------------------------------

def test_taylor_center_and_broadside():
    geom = mono_geom(101)
    dist = kernel_distances(geom, target(10.0, 0.3))
    assert fresnel_distance(0.0, target(10.0, 0.3)) == 10.0
    assert abs(dist[50] - 10.0) < 1e-12
    # at broadside the Fresnel error is the next term of sqrt(r^2 + x^2)
    tgt = target(10.0, 0.0)
    md = 40 * SPACING
    err = kernel_distances(geom, tgt)[90] - fresnel_distance(md, tgt)
    assert err == pytest.approx(-md ** 4 / (8.0 * 10.0 ** 3), rel=0.05)


def test_taylor_error_is_third_order():
    geom = mono_geom(101)
    tgt = target(10.0, math.pi / 6)
    m = 50
    md = m * SPACING
    err = abs(fresnel_distance(md, tgt) - kernel_distances(geom, tgt)[m + 50])
    scale = md / tgt.range_m
    assert err < tgt.range_m * scale ** 3


def test_taylor_error_grows_with_element_offset():
    geom = mono_geom(101)
    tgt = target(10.0, 0.4)
    dist = kernel_distances(geom, tgt)
    errs = [
        abs(fresnel_distance(m * SPACING, tgt) - dist[m + 50])
        for m in range(0, 51, 10)
    ]
    assert all(b >= a for a, b in zip(errs, errs[1:]))


# --- bistatic transform and receive directions --------------------------------

def test_transform_collinear_and_isoceles():
    # target on the line through both centres: phi = 0, a flat receive response
    geom = bi_geom(9, 8, 35.0)
    assert np.array_equal(receive_response(geom, target(18.0, 0.0)).values, np.ones(8))

    # isosceles: r = R gives l = 2 r sin(theta/2) and sin(phi) = cos(theta/2)
    geom2 = bi_geom(9, 8, 20.0)
    th = 0.7
    assert kernel_direction_sine(geom2, target(20.0, th)) == pytest.approx(
        math.cos(th / 2.0), rel=1e-12)


def test_transform_rejects_target_on_receive_center():
    geom = bi_geom(9, 8, 18.0)
    for mode in (Mode.MIMO, Mode.PHASED):
        with pytest.raises(DegenerateGeometryError):
            steering_factors(geom, CARRIER, mode, [0.0], [18.0])


def test_rx_distance_center_equals_transform_length():
    # sin(phi) = y / l with l the distance from the receive centre (R, 0)
    geom = bi_geom(9, 9, 35.0)
    tgt = target(18.0, 0.25)
    qy = tgt.range_m * math.sin(tgt.angle_rad)
    l = euclid_to_target(35.0, 0.0, tgt)
    assert kernel_direction_sine(geom, tgt) == pytest.approx(qy / l, rel=1e-12)


def test_rx_distance_matches_coordinate_oracle():
    # the far-field receive phase is the first-order term of the exact
    # receive distances: k (l - l_n) up to k (n d)^2 / (2 l)
    geom = bi_geom(9, 9, 35.0)
    tgt = target(18.0, math.pi / 12)
    k = 2.0 * math.pi / CARRIER.wavelength
    l = euclid_to_target(35.0, 0.0, tgt)
    b = receive_response(geom, tgt).values
    for n in (-4, -1, 3):
        exact = euclid_to_target(35.0, n * SPACING, tgt)
        miss = abs(np.angle(b[n + 4] * np.exp(-1j * k * (l - exact))))
        assert miss <= k * (n * SPACING) ** 2 / (2.0 * l)


def test_rx_degenerates_to_tx_when_colocated():
    # co-located arrays put every receive element on a transmit element
    geom = mono_geom(9)
    assert np.array_equal(geom.rx_indices() * geom.rx_spacing,
                          geom.tx_indices() * geom.tx_spacing)


def test_half_integer_rx_indices_for_even_counts():
    geom = bi_geom(9, 8, 35.0)
    idx = geom.rx_indices()
    assert idx.sum() == 0.0
    assert np.allclose(idx, np.arange(8) - 3.5)
    assert mono_geom(9).rx_indices().dtype.kind == "f"


# --- angular span and validity helpers ---------------------------------------

def span(geom, tgt):
    # the angular span term of the closed forms, at u = aperture / range
    th = tgt.angle_rad
    return _stable_terms(geom.tx_aperture / tgt.range_m, th, math.sin(th), math.cos(th))[4]


def test_angular_span_broadside():
    geom = mono_geom(9)
    tgt = target(10.0, 0.0)
    assert span(geom, tgt) == pytest.approx(
        2.0 * math.atan(geom.tx_aperture / 20.0), rel=1e-14)


def test_angular_span_approaches_pi():
    geom = ArrayGeometry(1001, 1001, 1.0, 1.0, 0.0)
    assert span(geom, target(0.01, 0.2)) > 0.99 * math.pi


def test_angular_span_matches_vector_angle_oracle():
    geom = ArrayGeometry(5, 5, 0.2, 0.2, 0.0)  # aperture 1 m
    tgt = target(10.0, math.pi / 6)
    qx = tgt.range_m * math.cos(tgt.angle_rad)
    qy = tgt.range_m * math.sin(tgt.angle_rad)
    v1 = np.array([-qx, 0.5 - qy])
    v2 = np.array([-qx, -0.5 - qy])
    cosang = v1 @ v2 / (np.linalg.norm(v1) * np.linalg.norm(v2))
    assert span(geom, tgt) == pytest.approx(math.acos(cosang), rel=1e-12)


def test_angular_span_singular_at_endfire():
    # the span (and every closed form built on it) is undefined at theta = +-pi/2
    with pytest.raises(SingularGeometryError):
        intermediates_closed(mono_geom(9), target(10.0, math.pi / 2), CARRIER)


def test_amplitude_model_validity_threshold():
    geom = ArrayGeometry(5, 5, 2.0, 2.0, 0.0)  # aperture 10 m
    assert not amplitude_model_valid(geom, target(10.0, 0.0))
    assert amplitude_model_valid(geom, target(12.1, 0.0))
    assert amplitude_model_valid(mono_geom(9), target(10.0, 0.0))


def test_epsilon_is_spacing_over_range():
    assert epsilon_tx(mono_geom(9), target(10.0, 0.3)) == SPACING / 10.0


# --- constructor validation ---------------------------------------------------

def test_array_geometry_validation():
    with pytest.raises(DomainError):
        ArrayGeometry(8, 8, 0.1, 0.1, 0.0)  # even tx count
    with pytest.raises(DomainError):
        ArrayGeometry(9, 0, 0.1, 0.1, 0.0)
    with pytest.raises(DomainError):
        ArrayGeometry(9, 9, 0.0, 0.1, 0.0)
    with pytest.raises(DomainError):
        ArrayGeometry(9, 9, 0.1, 0.1, -1.0)
    geom = bi_geom(9, 8, 35.0)
    assert not geom.is_monostatic
    assert geom.tx_aperture == pytest.approx(9 * SPACING)


def test_target_validation():
    with pytest.raises(DomainError):
        TargetLocation(range_m=0.0, angle_rad=0.0)
    with pytest.raises(DomainError):
        TargetLocation(range_m=5.0, angle_rad=1.7)
    TargetLocation(range_m=5.0, angle_rad=math.pi / 2)  # boundary allowed


def test_carrier_validation_and_roundtrip():
    with pytest.raises(DomainError):
        CarrierConfig(carrier_freq=0.0)
    with pytest.raises(DomainError):
        CarrierConfig.from_wavelength(-1.0)
    assert CARRIER.wavelength == pytest.approx(0.1265, rel=1e-15)
    f = CarrierConfig(carrier_freq=2.37e9)
    assert CarrierConfig.from_wavelength(f.wavelength).carrier_freq == pytest.approx(
        2.37e9, rel=1e-15)


def test_scenario_requires_separation_for_bistatic():
    scn = SensingScenario(mono_geom(9), target(10.0, 0.0), CARRIER)
    assert scn.mode is Mode.MIMO and scn.geometry.is_monostatic
