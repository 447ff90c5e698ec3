"""The steering model g = b (x) a in one kernel, and its assembly into the
unified observation vector.

a(theta, r) is the spherical-wave transmit response over the exact
element-to-target distances; b is the far-field receive response, a
function of the direction sine sin(phi) seen from the receive-array centre
(b := a when the arrays are co-located). steering_factors evaluates both at
any number of paired locations, with analytic partials on request; the
bounds, the simulator and the grid search all draw on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateGeometryError, DomainError
from .geometry import (
    ArrayGeometry,
    CarrierConfig,
    Mode,
    SensingScenario,
    TargetLocation,
    Topology,
)


@dataclass(frozen=True)
class SteeringVector:
    """Complex array response with its analytic partials.

    values has unit-modulus entries, one row per element and one column per
    location (a 1-D array at a single location); d_theta and d_range are
    elementwise derivatives of values with respect to the target angle and
    range (None when not requested).
    """

    values: np.ndarray
    d_theta: np.ndarray | None
    d_range: np.ndarray | None

    @property
    def length(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class ObservationVector:
    """Unified observation vector g = b (x) a, held as its two factors.

    a and b are 1-D SteeringVectors with partials (b is a itself for
    monostatic orthogonal waveforms); a missing factor is a single one, so
    num_tx and num_rx are the factor lengths and y.reshape(num_rx, num_tx)
    is always valid. g is formed by np.kron only when read, and then kept.
    tx_array_size is the physical transmit element count, which sets the
    power split/gain even when the transmit factor is absent from g
    (beamformed bistatic data).
    """

    a: SteeringVector
    b: SteeringVector
    mode: Mode
    topology: Topology
    tx_array_size: int

    @property
    def num_tx(self) -> int:
        return self.a.length

    @property
    def num_rx(self) -> int:
        return self.b.length

    @cached_property
    def g(self) -> np.ndarray:
        return np.kron(self.b.values, self.a.values)


def _receive_path_sq(separation, range_m, angle_rad):
    # squared distance l^2 from the receive-array centre at (R, 0)
    R, r = separation, range_m
    l2 = R * R + r * r - 2.0 * R * r * np.cos(angle_rad)
    if np.any(l2 <= 0.0):
        raise DegenerateGeometryError("target coincides with the receive-array center")
    return l2


def direction_sine_derivs(separation, range_m, angle_rad):
    """Derivatives of the receive direction sine sin(phi) = r sin(theta)/l
    with respect to theta and r, elementwise over array inputs.
    Index-independent factors of the far-field receive steering derivatives."""
    R, r, th = separation, range_m, angle_rad
    l2 = _receive_path_sq(R, r, th)
    l3 = l2 * np.sqrt(l2)
    g_th = (r * np.cos(th) * (R * R + r * r - R * r * np.cos(th)) - R * r * r) / l3
    g_r = R * np.sin(th) * (R - r * np.cos(th)) / l3
    return g_th, g_r


def _absent(p: int, derivs: bool) -> SteeringVector:
    zeros = np.zeros((1, p)) if derivs else None
    return SteeringVector(np.ones((1, p)), zeros, zeros)


def steering_factors(
    geom: ArrayGeometry,
    carrier: CarrierConfig,
    mode: Mode,
    topology: Topology,
    thetas,
    ranges,
    derivs: bool = False,
) -> tuple[SteeringVector, SteeringVector]:
    """Factors (a, b) of g = b (x) a at P paired locations (thetas[j], ranges[j]).

    a[m, j] = exp(-j 2 pi r_m / lambda) with r_m the exact distance from
    transmit element m; d r_m/d theta = -m d_tx r cos(theta)/r_m and
    d r_m/d r = (r - m d_tx sin(theta))/r_m. b[n, j] = exp(+j 2 pi n d_rx
    sin(phi)/lambda), its bulk phase exp(-j 2 pi l/lambda) absorbed into the
    reflection coefficient; its partials use d sin(phi)/d theta and
    d sin(phi)/d r.

    Each factor is a SteeringVector of (len, P) arrays, with partials only
    when derivs is set. Orthogonal waveforms observe both factors, with b
    aliased to a for monostatic sensing; beamformed data keep a alone
    (monostatic) or b alone (bistatic). An absent factor is a row of ones.
    """
    if topology is Topology.BISTATIC_NEAR_FAR_TX and geom.array_separation <= 0.0:
        raise DomainError("bistatic observation requires array_separation > 0")
    lam = carrier.wavelength
    th = np.asarray(thetas, dtype=float)
    r = np.asarray(ranges, dtype=float)

    if topology is Topology.BISTATIC_NEAR_FAR_TX:
        R = geom.array_separation
        nd = (geom.rx_indices() * geom.rx_spacing)[:, None]
        k_rx = 2j * math.pi / lam
        # sin(phi) = r sin(theta) / l
        vals = np.exp(k_rx * nd * (r * np.sin(th) / np.sqrt(_receive_path_sq(R, r, th))))
        b = SteeringVector(vals, None, None)
        if derivs:
            g_th, g_r = direction_sine_derivs(R, r, th)
            b = SteeringVector(vals, k_rx * nd * g_th * vals, k_rx * nd * g_r * vals)
        if mode is Mode.PHASED:
            return _absent(th.size, derivs), b

    md = (geom.tx_indices() * geom.tx_spacing)[:, None]
    rm = np.sqrt(r * r - 2.0 * r * md * np.sin(th) + md * md)
    k_tx = -2j * math.pi / lam
    vals = np.exp(k_tx * rm)
    a = SteeringVector(vals, None, None)
    if derivs:
        # the partials divide by r_m; the values alone stay finite at r_m = 0
        if not rm.min() > 0.0:
            raise DegenerateGeometryError("target coincides with a transmit element")
        drm_dth = -r * md * np.cos(th) / rm
        drm_dr = (r - md * np.sin(th)) / rm
        a = SteeringVector(vals, k_tx * drm_dth * vals, k_tx * drm_dr * vals)
    if mode is Mode.PHASED:
        return a, _absent(th.size, derivs)
    return a, (a if topology is Topology.MONOSTATIC else b)


def build_observation(
    geom: ArrayGeometry,
    tgt: TargetLocation,
    carrier: CarrierConfig,
    mode: Mode,
    topology: Topology,
) -> ObservationVector:
    """The observation g = b (x) a for a mode/topology pair: the kernel's two
    factors at the target, with partials."""
    a, b = steering_factors(
        geom, carrier, mode, topology, [tgt.angle_rad], [tgt.range_m], derivs=True)
    a1 = _at_first_point(a)
    return ObservationVector(
        a=a1, b=a1 if b is a else _at_first_point(b),
        mode=mode, topology=topology, tx_array_size=geom.num_tx,
    )


def _at_first_point(f: SteeringVector) -> SteeringVector:
    return SteeringVector(f.values[:, 0], f.d_theta[:, 0], f.d_range[:, 0])


def observation_from_scenario(scn: SensingScenario) -> ObservationVector:
    return build_observation(scn.geometry, scn.target, scn.carrier, scn.mode, scn.topology)
