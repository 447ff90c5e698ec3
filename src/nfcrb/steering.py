"""The steering model g = b (x) a in one kernel, and its assembly into the
unified observation vector.

a(theta, r) is the spherical-wave transmit response over the exact
element-to-target distances; b is the far-field receive response, a
function of the direction sine sin(phi) seen from the receive-array centre
(b := a when the arrays are co-located). steering_factors evaluates both at
any number of paired locations, and phase_derivs the real derivatives of
their elements' phases, which the bounds read. phase_derivs writes every
step of the transmit rows into planes of one float workspace, the caller's
or a fresh one, with the same expressions at one location (1-D rows) and
at a block of them; build_observation holds its result at one location,
in a workspace of its own.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateGeometryError
from .geometry import ArrayGeometry, CarrierConfig, Mode, TargetLocation


@dataclass(frozen=True, eq=False)
class PhaseFactor:
    """One factor exp(j phi) of g at one location: psi = (d phi/d theta,
    d phi/d r), shape (2, len), less any part common to every element (the
    amplitude absorbs it); values is formed by form() when first read."""

    psi: np.ndarray
    form: Callable[[], np.ndarray]

    @cached_property
    def values(self) -> np.ndarray:
        return self.form()


@dataclass(frozen=True)
class ObservationVector:
    """Unified observation vector g = b (x) a, held as its two factors.

    a and b are PhaseFactors (b is a itself for monostatic orthogonal
    waveforms); a missing factor is a single one, so num_tx and num_rx are
    the factor lengths and y.reshape(num_rx, num_tx) is always valid. g is
    formed by np.kron only when read, and then kept. tx_array_size is the
    physical transmit element count, which sets the power split/gain even
    when the transmit factor is absent from g (beamformed bistatic data).
    """

    a: PhaseFactor
    b: PhaseFactor
    mode: Mode
    tx_array_size: int

    @property
    def num_tx(self) -> int:
        return self.a.psi.shape[1]

    @property
    def num_rx(self) -> int:
        return self.b.psi.shape[1]

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
    Index-independent factors of the far-field receive phase derivatives."""
    R, r, th = separation, range_m, angle_rad
    l2 = _receive_path_sq(R, r, th)
    l3 = l2 * np.sqrt(l2)
    g_th = (r * np.cos(th) * (R * R + r * r - R * r * np.cos(th)) - R * r * r) / l3
    g_r = R * np.sin(th) * (R - r * np.cos(th)) / l3
    return g_th, g_r


def steering_factors(
    geom: ArrayGeometry,
    carrier: CarrierConfig,
    mode: Mode,
    thetas,
    ranges,
) -> tuple[np.ndarray, np.ndarray]:
    """Factors (a, b) of g = b (x) a at P paired locations (thetas[j], ranges[j]).

    a[m, j] = exp(-j 2 pi r_m / lambda) with r_m the exact distance from
    transmit element m. b[n, j] = exp(+j 2 pi n d_rx sin(phi)/lambda), its
    bulk phase exp(-j 2 pi l/lambda) absorbed into the reflection
    coefficient.

    Each factor is a (len, P) complex array. Orthogonal waveforms
    observe both factors, with b aliased to a for monostatic sensing (the
    geometry's is_monostatic); beamformed data keep a alone (monostatic) or
    b alone (bistatic). An absent factor is a row of ones.
    """
    lam = carrier.wavelength
    th = np.asarray(thetas, dtype=float)
    r = np.asarray(ranges, dtype=float)
    absent = np.ones((1, th.size))

    if not geom.is_monostatic:
        R = geom.array_separation
        nd = (geom.rx_indices() * geom.rx_spacing)[:, None]
        k_rx = 2j * math.pi / lam
        # sin(phi) = r sin(theta) / l
        b = np.multiply(k_rx * nd, r * np.sin(th) / np.sqrt(_receive_path_sq(R, r, th)))
        np.exp(b, out=b)
        if mode is Mode.PHASED:
            return absent, b

    md = (geom.tx_indices() * geom.tx_spacing)[:, None]
    rm = np.sqrt(r * r - 2.0 * r * md * np.sin(th) + md * md)
    k_tx = -2j * math.pi / lam
    # each complex phase array becomes its factor in place: a search's coarse
    # factor peaks at r_m beside a, 1.5x the factor it holds
    a = np.multiply(k_tx, rm)
    del rm
    np.exp(a, out=a)
    if mode is Mode.PHASED:
        return a, absent
    return a, (a if geom.is_monostatic else b)


# A location is clear of every transmit element when cos^2(theta) exceeds
# this times (1 + U)^2, U = (M - 1)/2 d_tx/r the largest |u| = |m| d_tx/r.
# Basis: (r_m/r)^2 = 1 - 2 u s + u^2 = (u - s)^2 + 1 - s^2, where 1 - s^2
# is within 2^-51 of cos^2(theta) for math's s = sin(theta) and cos, and
# the float expression rounds within 2^-52 (1 + |u|)^2 of it; 2^-47 leaves
# a margin of 2^4. Only a location within ~1e-7 (1 + U) of theta = +-pi/2
# is checked element by element
_GUARD_COS_SQ = 2.0 ** -47


def _shared(column: np.ndarray) -> bool:
    """Whether every entry of a float column has the first one's bits
    (+0.0 and -0.0 are different operands)."""
    bits = column.view(np.int64)
    return bool((bits == bits[0]).all())


def phase_derivs(
    geom: ArrayGeometry,
    carrier: CarrierConfig,
    mode: Mode,
    thetas,
    ranges,
    work: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Real derivatives psi = d phi/d(theta, r) of the phases phi of the
    factors (a, b) of g, less the part every element shares (the amplitude
    absorbs it).

    thetas and ranges are floats for one location, or equal-length sequences
    of P paired locations. The element axis comes last: each psi is a
    (2, len) or a (2, P, len) array, and a location's values do not depend
    on the others. b is a for monostatic orthogonal waveforms; an absent
    factor is one element with zero derivatives.

    The transmit rows are formed step by step in work, a float array of
    shape (4, len) or (4, P, len), fresh when None; psi_a is its last two
    planes, so a caller that passes work gets psi_a back in it and must not
    keep it past the next call.

    With k = 2 pi/lambda and lin = r - m d_tx sin(theta), the transmit phase
    -k r_m has d/d theta = k r m d_tx cos(theta)/r_m; its d/dr + k =
    k (r_m - lin)/r_m is formed as k (m d_tx cos(theta))^2/(r_m (r_m + lin))
    where lin > 0, so neither form cancels. The receive phase
    k n d_rx sin(phi) has d/d(theta, r) = k n d_rx d sin(phi)/d(theta, r).
    """
    k = 2.0 * math.pi / carrier.wavelength
    if np.isscalar(thetas):
        th, r = float(thetas), float(ranges)
        locations = ()
    else:
        # one location per row. A sweep varies theta or r, not both: a value
        # every location shares is passed on as one float, the same operand,
        # which numpy runs contiguous-by-scalar instead of as a stride-0
        # column. One of the two at most, so the receive rows keep their
        # (P, 1) factors when a run repeats one target
        th, r = (np.array(x, dtype=float)[:, None] for x in (thetas, ranges))
        locations = (th.shape[0],)
        if _shared(th):
            th = float(th[0, 0])
        elif _shared(r):
            r = float(r[0, 0])
    count = locations[0] if locations else 1
    if isinstance(th, float):
        sth, cth = math.sin(th), math.cos(th)
        cos_sq = [cth * cth] * count
    else:
        # sin and cos per location, as a lone location takes them
        ths = th[:, 0].tolist()
        sins, coss = [math.sin(t) for t in ths], [math.cos(t) for t in ths]
        sth, cth = np.array(sins)[:, None], np.array(coss)[:, None]
        cos_sq = [c * c for c in coss]

    if not geom.is_monostatic:
        knd = k * (geom.rx_indices() * geom.rx_spacing)
        g_th, g_r = direction_sine_derivs(geom.array_separation, r, th)
        psi_b = np.array((g_th * knd, g_r * knd))
        if mode is Mode.PHASED:
            return np.zeros((2, *locations, 1)), psi_b
    # the locations that _GUARD_COS_SQ does not clear, from Python scalars
    half_d = geom.num_tx // 2 * geom.tx_spacing
    near = []
    for j, (c2, rj) in enumerate(zip(cos_sq, [r] * count if isinstance(r, float)
                                     else r[:, 0].tolist())):
        reach = 1.0 + half_d / rj
        if not c2 > _GUARD_COS_SQ * reach * reach:
            near.append((j,) if locations else ())
    nd = geom.tx_indices() * geom.tx_spacing
    if work is None:
        work = np.empty((4, *locations, nd.size))
    w0, w1, w2, w3 = work
    # in units of r: u = m d_tx/r, rho = r_m/r. A range every location
    # shares (a theta sweep) gives u as one row, the first of its plane,
    # which the (P, 1) sin and cos columns broadcast against
    u = np.divide(nd, r, out=w0[0] if locations and isinstance(r, float) else w0)
    us = np.multiply(u, sth, out=w1)
    # the derivatives divide by r_m: (r_m/r)^2 = 1 - 2 u sin(theta) + u^2,
    # formed over the elements of each location the scalar bound left
    for at in near:
        u_at = u if u.ndim == 1 else u[at]
        rm2 = np.subtract(1.0, np.multiply(2.0, us[at], out=w2[at]), out=w2[at])
        np.add(rm2, np.multiply(u_at, u_at, out=w3[at]), out=rm2)
        if not rm2.min() > 0.0:
            raise DegenerateGeometryError("target coincides with a transmit element")
    mc = np.multiply(u, cth, out=w2)
    lin = np.subtract(1.0, us, out=w3)
    mc2 = np.multiply(mc, mc, out=w0)
    rho = np.multiply(lin, lin, out=w1)
    np.sqrt(np.add(rho, mc2, out=rho), out=rho)
    np.multiply(k * r, mc, out=w2)
    # rho - lin: mc^2/(rho + lin) where lin > 0, rho + |lin| elsewhere; s
    # takes lin's plane, so its sign is read first
    positive = lin > 0.0
    s = np.add(rho, np.abs(lin, out=w3), out=w3)
    np.divide(mc2, s, out=s, where=positive)
    np.multiply(k, s, out=s)
    # (k r mc, k s) / rho
    psi_a = np.divide(work[2:], rho, out=work[2:])
    if mode is Mode.PHASED:
        return psi_a, np.zeros((2, *locations, 1))
    return psi_a, (psi_a if geom.is_monostatic else psi_b)


def build_observation(
    geom: ArrayGeometry,
    tgt: TargetLocation,
    carrier: CarrierConfig,
    mode: Mode,
) -> ObservationVector:
    """The observation g = b (x) a for a mode on the geometry at the target:
    the factors' phase derivatives from phase_derivs at this one location,
    their values formed on read by steering_factors."""
    th, r = tgt.angle_rad, tgt.range_m
    psi_a, psi_b = phase_derivs(geom, carrier, mode, th, r)

    def factor(i, psi):
        return PhaseFactor(psi, lambda: steering_factors(
            geom, carrier, mode, [th], [r])[i][:, 0])

    a = factor(0, psi_a)
    b = a if psi_b is psi_a else factor(1, psi_b)
    return ObservationVector(a, b, mode, geom.num_tx)
