"""Fisher information on angle and range with the reflection coefficient
Schur-complemented out, and the exact-summation CRB path.

This module is the numerical oracle: it never uses the closed forms, only
analytic steering derivatives and direct element summations.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .geometry import ArrayGeometry, CarrierConfig, Mode, TargetLocation, Topology
from .steering import ObservationVector, SteeringVector, direction_sine_derivs

# relative determinant threshold below which the angle/range information
# block is declared singular
DET_REL_TOL = 1e-12


@dataclass(frozen=True)
class NoiseAndPowerConfig:
    """Power, noise, and integration bookkeeping.

    snr_linear is gamma = P|kappa|^2/(N0 B); time_bandwidth is L = B T_p.
    When only snr_linear is given the remaining fields become normalized
    representatives (P = gamma, N0 = B = 1, |kappa| = 1); when raw physical
    values are supplied they must be consistent with snr_linear.
    """

    snr_linear: float
    time_bandwidth: float = 1.0
    reflection_coeff: complex = 1.0 + 0.0j
    total_power: float | None = None
    noise_psd: float = 1.0
    bandwidth: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.snr_linear < math.inf:
            raise ConfigError(f"snr_linear must be finite and > 0, got {self.snr_linear}")
        if not 1.0 <= self.time_bandwidth < math.inf:
            raise ConfigError(f"time_bandwidth must be finite and >= 1, got {self.time_bandwidth}")
        if not (0.0 < self.noise_psd < math.inf and 0.0 < self.bandwidth < math.inf):
            raise ConfigError("noise_psd and bandwidth must be positive and finite")
        k2 = abs(self.reflection_coeff) ** 2
        if not 0.0 < k2 < math.inf:
            raise ConfigError("reflection_coeff must be nonzero and finite")
        if self.total_power is None:
            object.__setattr__(
                self, "total_power",
                self.snr_linear * self.noise_psd * self.bandwidth / k2,
            )
        else:
            implied = self.total_power * k2 / (self.noise_psd * self.bandwidth)
            if not abs(implied - self.snr_linear) <= 1e-9 * self.snr_linear:
                raise ConfigError(
                    "inconsistent power/noise fields: "
                    f"P|kappa|^2/(N0 B) = {implied}, snr_linear = {self.snr_linear}"
                )

    @property
    def pulse_duration(self) -> float:
        return self.time_bandwidth / self.bandwidth

    @property
    def snr_db(self) -> float:
        return 10.0 * math.log10(self.snr_linear)

    @classmethod
    def from_snr(cls, snr_db: float, time_bandwidth: float = 1.0) -> "NoiseAndPowerConfig":
        """Normalized representative config from an SNR in dB."""
        return cls(snr_linear=10.0 ** (snr_db / 10.0), time_bandwidth=time_bandwidth)

    @classmethod
    def from_physical(
        cls,
        total_power: float,
        noise_psd: float,
        bandwidth: float,
        pulse_duration: float,
        reflection_coeff: complex = 1.0 + 0.0j,
    ) -> "NoiseAndPowerConfig":
        if total_power <= 0 or pulse_duration <= 0:
            raise ConfigError("total_power and pulse_duration must be positive")
        gamma = total_power * abs(reflection_coeff) ** 2 / (noise_psd * bandwidth)
        return cls(
            snr_linear=gamma,
            time_bandwidth=bandwidth * pulse_duration,
            reflection_coeff=reflection_coeff,
            total_power=total_power,
            noise_psd=noise_psd,
            bandwidth=bandwidth,
        )


@dataclass(frozen=True)
class FimMatrix:
    """Angle/range Fisher information, parameter order (theta, r), with the
    reflection coefficient Schur-complemented out: the symmetric 2x2 block
    whose inverse is the CRB."""

    reduced: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.reduced, dtype=float)
        if q.shape != (2, 2):
            raise DomainError(f"reduced FIM must be 2x2, got shape {q.shape}")
        object.__setattr__(self, "reduced", q)


class CrbMethod(enum.Enum):
    """Bound evaluators; the values are the method names of configs and CSVs."""

    CLOSED_FORM = "ClosedForm"
    EXACT_SUM = "ExactSum"
    NUMERICAL_FIM = "NumericalFim"
    ASYMPTOTIC = "Asymptotic"
    TAYLOR = "Taylor"
    FARFIELD_UPW = "FarFieldUPW"


@dataclass(frozen=True)
class IntermediateParams:
    """The quadratic/overlap sums that the CRBs are built from.

    angle_power and range_power are sums of squared phase derivatives with
    respect to angle and range; cross_power is their mixed sum; the two
    overlap terms (response vs derivative) are purely imaginary. The rx_*
    fields carry the receive-side counterparts for the bistatic topology
    (zero for monostatic; the receive overlap terms vanish by index
    symmetry).
    """

    angle_power: float
    angle_overlap: complex
    cross_power: float
    range_power: float
    range_overlap: complex
    rx_angle_power: float = 0.0
    rx_range_power: float = 0.0
    rx_cross_power: float = 0.0

    def __post_init__(self):
        if self.angle_power < 0 or self.range_power < 0:
            raise DomainError("power sums must be nonnegative")


@dataclass(frozen=True)
class CrbResult:
    """Bounds on angle (rad^2) and range (m^2) variance.

    Unidentifiable scenarios carry +inf bounds; warnings collect regime or
    validity notes without changing values.
    """

    crb_theta: float
    crb_range: float
    identifiable: bool
    method: CrbMethod
    warnings: tuple = ()

    @classmethod
    def unidentifiable(cls, method: CrbMethod, warnings: tuple = ()) -> "CrbResult":
        return cls(
            crb_theta=math.inf, crb_range=math.inf,
            identifiable=False, method=method, warnings=warnings,
        )


def mode_energy_scale(cfg: NoiseAndPowerConfig, tx_array_size: int, mode: Mode) -> float:
    """Coherent post-filter signal energy per observation entry, |rho/kappa|^2.

    T_p P / M when transmitters send orthogonal waveforms (power split),
    T_p P M when they beamform (coherent gain).
    """
    s = cfg.pulse_duration * cfg.total_power
    return s / tx_array_size if mode is Mode.MIMO else s * tx_array_size


def _centred_gram(f: SteeringVector) -> tuple[float, np.ndarray]:
    """(|v|^2, Gram of the partials with their component along v removed).

    Centring the vectors before the inner products (two-pass) keeps the
    digits that |v|^2 <x, y> - <x, v><v, y> would cancel."""
    v = f.values
    vv = float(np.vdot(v, v).real)
    x = np.column_stack([f.d_theta, f.d_range])
    x = x - np.outer(v, (v.conj() @ x) / vv)
    return vv, x.conj().T @ x


def fim_numeric(obs: ObservationVector, cfg: NoiseAndPowerConfig) -> FimMatrix:
    """Angle/range block of F = (2/N0) Re{J^H J} for the mean w = rho g,
    J = dw/d(theta,r,k_re,k_im), with the amplitude (k_re, k_im)
    Schur-complemented out.

    rho = kappa sqrt(T_p P/M) in MIMO mode (power split across transmitters)
    and kappa sqrt(T_p P M) in phased mode (coherent transmit gain).

    The complement projects g out of the partials: P(b_x (x) a + b (x) a_x) =
    b'_x (x) a + b (x) a'_x with a', b' the centred factor partials, two
    orthogonal terms, so by <b1 (x) a1, b2 (x) a2> = <b1, b2><a1, a2>,
    Q = (2/N0)|rho|^2 Re{|a|^2 <b'_x, b'_y> + |b|^2 <a'_x, a'_y>}, formed in
    O(M + N) from the two factors and without cancellation.
    """
    energy = mode_energy_scale(cfg, obs.tx_array_size, obs.mode)
    kap = complex(cfg.reflection_coeff)
    aa, cent_a = _centred_gram(obs.a)
    bb, cent_b = (aa, cent_a) if obs.b is obs.a else _centred_gram(obs.b)
    q = (2.0 / cfg.noise_psd) * abs(kap) ** 2 * energy * (aa * cent_b + bb * cent_a).real
    return FimMatrix(0.5 * (q + q.T))


def crb_from_fim(fim: FimMatrix) -> CrbResult:
    """Invert the 2x2 angle/range information fim.reduced."""
    q = fim.reduced
    det_q = q[0, 0] * q[1, 1] - q[0, 1] * q[1, 0]
    tr_q = 0.5 * (q[0, 0] + q[1, 1])
    if not det_q > DET_REL_TOL * tr_q * tr_q:
        return CrbResult.unidentifiable(CrbMethod.NUMERICAL_FIM)
    return CrbResult(
        crb_theta=q[1, 1] / det_q,
        crb_range=q[0, 0] / det_q,
        identifiable=True,
        method=CrbMethod.NUMERICAL_FIM,
    )


def transmit_sums(geom: ArrayGeometry, tgt: TargetLocation, carrier: CarrierConfig):
    """Exact element summations of the five transmit-side intermediates.

    Returns (angle_power, angle_overlap, cross_power, range_power,
    range_overlap); the two overlap terms are purely imaginary complex
    numbers, everything else accumulates in real arithmetic.
    """
    lam = carrier.wavelength
    r, th = tgt.range_m, tgt.angle_rad
    md = geom.tx_indices() * geom.tx_spacing
    sth, cth = math.sin(th), math.cos(th)
    u = md / r
    dd = 1.0 - 2.0 * u * sth + u ** 2
    rng = 1.0 - u * sth
    root = np.sqrt(dd)
    k = 2.0 * math.pi / lam
    total = np.add.reduce
    angle_power = k * k * cth * cth * float(total(md * md / dd))
    angle_im = k * cth * float(total(md / root))
    cross_power = -k * k * cth * float(total(md * rng / dd))
    range_power = k * k * float(total(rng * rng / dd))
    range_im = k * float(total(rng / root))
    return angle_power, -1j * angle_im, cross_power, range_power, 1j * range_im


def receive_sums(geom: ArrayGeometry, tgt: TargetLocation, carrier: CarrierConfig):
    """Receive-side intermediate sums for the far-field receive model.

    The first-moment sums vanish by index symmetry, so only the three
    quadratic terms (angle power, range power, cross power) are returned.
    """
    lam = carrier.wavelength
    g_th, g_r = map(float, direction_sine_derivs(
        geom.array_separation, tgt.range_m, tgt.angle_rad))
    nd = geom.rx_indices() * geom.rx_spacing
    base = (2.0 * math.pi / lam) ** 2 * float(np.sum(nd * nd))
    return base * g_th * g_th, base * g_r * g_r, base * g_th * g_r


def intermediates_exact(geom: ArrayGeometry, tgt: TargetLocation, carrier: CarrierConfig) -> IntermediateParams:
    """The intermediates by direct summation over the elements, with the
    receive-side terms whenever the arrays are separated."""
    rx = receive_sums(geom, tgt, carrier) if geom.array_separation > 0.0 else ()
    return IntermediateParams(*transmit_sums(geom, tgt, carrier), *rx)


def _crb_from_intermediates(
    ip: IntermediateParams,
    geom: ArrayGeometry,
    cfg: NoiseAndPowerConfig,
    mode: Mode,
    topology: Topology,
    method: CrbMethod,
    warnings: tuple = (),
) -> CrbResult:
    """Shared determinant algebra turning intermediate sums into CRBs.

    Used by both the exact-summation and the closed-form paths, which
    differ only in how the sums are produced.
    """
    prefactor = 1.0 / (2.0 * cfg.snr_linear * cfg.time_bandwidth)
    m = float(geom.num_tx)
    cross_ov = (ip.angle_overlap.conjugate() * ip.range_overlap).real

    if geom.num_tx < 2:
        # no transmit baseline: monostatic information vanishes and the
        # receive-only bistatic block is rank one, exactly in both cases
        return CrbResult.unidentifiable(method, warnings)

    if topology is Topology.BISTATIC_NEAR_FAR_TX:
        if mode is Mode.PHASED:
            # receive-only data: theta and r enter through the single
            # direction sine, so the information block is rank one
            return CrbResult.unidentifiable(method, warnings)
        n = float(geom.num_rx)
        aa = m * ip.rx_angle_power + n * ip.angle_power - (n / m) * abs(ip.angle_overlap) ** 2
        pp = m * ip.rx_range_power + n * ip.range_power - (n / m) * abs(ip.range_overlap) ** 2
        ee = m * ip.rx_cross_power + n * ip.cross_power - (n / m) * cross_ov
        det = aa * pp - ee * ee
        if not det > DET_REL_TOL * aa * pp:
            return CrbResult.unidentifiable(method, warnings)
        return CrbResult(
            crb_theta=prefactor * m * pp / det,
            crb_range=prefactor * m * aa / det,
            identifiable=True, method=method, warnings=warnings,
        )

    aa = m * ip.angle_power - abs(ip.angle_overlap) ** 2
    pp = m * ip.range_power - abs(ip.range_overlap) ** 2
    ee = m * ip.cross_power - cross_ov
    det = aa * pp - ee * ee
    if not det > DET_REL_TOL * aa * pp:
        return CrbResult.unidentifiable(method, warnings)
    if mode is Mode.MIMO:
        crb_t = prefactor * m * pp / (2.0 * det)
        crb_r = prefactor * m * aa / (2.0 * det)
    else:
        crb_t = prefactor * pp / det
        crb_r = prefactor * aa / det
    return CrbResult(
        crb_theta=crb_t, crb_range=crb_r,
        identifiable=True, method=method, warnings=warnings,
    )


def crb_exact_sum(
    geom: ArrayGeometry,
    tgt: TargetLocation,
    carrier: CarrierConfig,
    cfg: NoiseAndPowerConfig,
    mode: Mode,
    topology: Topology,
) -> CrbResult:
    """CRBs with every intermediate accumulated by exact summation over the
    array elements; algebraically identical to the numerical FIM path."""
    if topology is Topology.BISTATIC_NEAR_FAR_TX and geom.array_separation <= 0.0:
        raise DomainError("bistatic bounds require array_separation > 0")
    ip = intermediates_exact(geom, tgt, carrier)
    return _crb_from_intermediates(ip, geom, cfg, mode, topology, CrbMethod.EXACT_SUM)
