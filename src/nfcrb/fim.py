"""Fisher information over (angle, range, reflection re/im), its Schur
reduction to the angle/range block, and the exact-summation CRB path.

This module is the numerical oracle: it never uses the closed forms, only
analytic steering derivatives and direct element summations.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, NumericalError
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


def _checked_entries(entries) -> np.ndarray:
    e = np.asarray(entries, dtype=float)
    if e.shape != (4, 4):
        raise DomainError(f"FIM must be 4x4, got shape {e.shape}")
    scale = max(float(np.abs(e).max()), 1.0)
    if float(np.abs(e - e.T).max()) > 1e-10 * scale:
        raise NumericalError("FIM is not symmetric within tolerance")
    return e


@dataclass(frozen=True)
class FimMatrix:
    """4x4 Fisher information, parameter order (theta, r, kappa_re, kappa_im).

    reduced, when set, is the 2x2 angle/range information with the
    amplitude already Schur-complemented out, formed without cancellation;
    crb_from_fim then inverts it instead of reducing entries.
    """

    entries: np.ndarray
    reduced: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "entries", _checked_entries(self.entries))
        if self.reduced is not None:
            q = np.asarray(self.reduced, dtype=float)
            if q.shape != (2, 2):
                raise DomainError(f"reduced FIM must be 2x2, got shape {q.shape}")
            object.__setattr__(self, "reduced", q)


class _FactoredFim(FimMatrix):
    """fim_numeric's result: reduced is set at construction, and the 4x4
    entries, which crb_from_fim does not read, are formed and checked only
    when first read."""

    def __init__(self, form_entries, reduced: np.ndarray):
        object.__setattr__(self, "_form_entries", form_entries)
        object.__setattr__(self, "reduced", reduced)

    @functools.cached_property
    def entries(self) -> np.ndarray:
        return _checked_entries(self._form_entries())


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


# g_theta, g_range and g as sums of the nine products b_i (x) a_j, with
# i, j indexing (d_theta, d_range, values); row 3 i + j is the pair (i, j)
_G_FROM_PAIRS = np.zeros((9, 3))
_G_FROM_PAIRS[[2, 6], 0] = 1.0   # g_theta = b_theta (x) a + b (x) a_theta
_G_FROM_PAIRS[[5, 7], 1] = 1.0   # g_range = b_range (x) a + b (x) a_range
_G_FROM_PAIRS[8, 2] = 1.0        # g = b (x) a


def _gram(f: SteeringVector) -> np.ndarray:
    x = np.column_stack([f.d_theta, f.d_range, f.values])
    return x.conj().T @ x


def _centred_gram(f: SteeringVector) -> tuple[float, np.ndarray]:
    """(|v|^2, Gram of the partials with their component along v removed).

    Centring the vectors before the inner products (two-pass) keeps the
    digits that |v|^2 <x, y> - <x, v><v, y> would cancel."""
    v = f.values
    vv = float(np.vdot(v, v).real)
    x = np.column_stack([f.d_theta, f.d_range])
    x = x - np.outer(v, (v.conj() @ x) / vv)
    return vv, x.conj().T @ x


def _fim_entries(a: SteeringVector, b: SteeringVector, kap: complex, energy: float,
                 noise_psd: float) -> np.ndarray:
    """The symmetrized 4x4 F of fim_numeric, from the 3x3 factor Grams."""
    root = math.sqrt(energy)
    gram_a = _gram(a)
    gram_b = gram_a if b is a else _gram(b)
    # J = [g_theta, g_range, g] @ coef
    coef = np.array([
        [kap * root, 0.0, 0.0, 0.0],
        [0.0, kap * root, 0.0, 0.0],
        [0.0, 0.0, root, 1j * root],
    ])
    pairs = _G_FROM_PAIRS @ coef
    f = (2.0 / noise_psd) * (pairs.conj().T @ np.kron(gram_b, gram_a) @ pairs).real
    return 0.5 * (f + f.T)


def fim_numeric(obs: ObservationVector, cfg: NoiseAndPowerConfig, mode: Mode | None = None) -> FimMatrix:
    """F = (2/N0) Re{J^H J} for the mean w = rho g, J = dw/d(theta,r,k_re,k_im).

    rho = kappa sqrt(T_p P/M) in MIMO mode (power split across transmitters)
    and kappa sqrt(T_p P M) in phased mode (coherent transmit gain).

    J^H J comes from the Grams of the factors of g = b (x) a, by
    <b1 (x) a1, b2 (x) a2> = <b1, b2><a1, a2>, in O(M + N). The reduced
    block projects g out of the partials: P(b_x (x) a + b (x) a_x) =
    b'_x (x) a + b (x) a'_x with a', b' the centred factor partials, two
    orthogonal terms, so Q = (2/N0)|rho|^2 Re{|a|^2 <b'_x, b'_y> + |b|^2 <a'_x, a'_y>}.
    The reduced block is formed here; the 4x4 entries only when read.
    """
    mode = obs.mode if mode is None else mode
    energy = mode_energy_scale(cfg, obs.tx_array_size, mode)
    kap = complex(cfg.reflection_coeff)
    aa, cent_a = _centred_gram(obs.a)
    bb, cent_b = (aa, cent_a) if obs.b is obs.a else _centred_gram(obs.b)
    q = (2.0 / cfg.noise_psd) * abs(kap) ** 2 * energy * (aa * cent_b + bb * cent_a).real
    form = functools.partial(_fim_entries, obs.a, obs.b, kap, energy, cfg.noise_psd)
    return _FactoredFim(form, 0.5 * (q + q.T))


def _inv_2x2(m: np.ndarray, det: float) -> np.ndarray:
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det


def crb_from_fim(fim: FimMatrix) -> CrbResult:
    """Invert the 2x2 angle/range information left once the
    reflection-coefficient block is Schur-complemented out: fim.reduced
    when set, otherwise the complement formed from the entries."""
    q = fim.reduced
    if q is None:
        f = fim.entries
        p11, p12, p22 = f[:2, :2], f[:2, 2:], f[2:, 2:]
        det22 = p22[0, 0] * p22[1, 1] - p22[0, 1] * p22[1, 0]
        tr22 = 0.5 * (p22[0, 0] + p22[1, 1])
        if not det22 > DET_REL_TOL * tr22 * tr22:
            # nuisance block singular: no usable information remains
            return CrbResult.unidentifiable(CrbMethod.NUMERICAL_FIM)
        q = p11 - p12 @ _inv_2x2(p22, det22) @ p12.T
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
    rx = ()
    if topology is Topology.BISTATIC_NEAR_FAR_TX:
        if geom.array_separation <= 0.0:
            raise DomainError("bistatic bounds require array_separation > 0")
        rx = receive_sums(geom, tgt, carrier)
    ip = IntermediateParams(*transmit_sums(geom, tgt, carrier), *rx)
    return _crb_from_intermediates(ip, geom, cfg, mode, topology, CrbMethod.EXACT_SUM)
