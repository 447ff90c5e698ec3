"""Fisher information on angle and range with the reflection coefficient
Schur-complemented out, the exact-summation CRB path, and the one 2x2
inversion every bound goes through.

This module is the numerical oracle: it never uses the closed forms, only
the analytic phase derivatives of steering.phase_derivs and direct element
summations. NumericalFim reads them at one location through
build_observation; ExactSum reads a run of locations in blocks, formed and
centred in place in one workspace that every block of the run reuses. Both
centre them (_centred_gram), form the 2x2 block with one expression
(_reduced_block) and invert it with one rule (_inverse_diagonal), so the two
methods agree to the bit; a block that rule finds singular gives an
unidentifiable bound that says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DomainError
from .geometry import ArrayGeometry, CarrierConfig, Mode, TargetLocation, Topology
from .steering import ObservationVector, direction_sine_derivs, phase_derivs

# relative determinant threshold below which the angle/range information
# block is declared singular
DET_REL_TOL = 1e-12
# the reason an unidentifiable bound from that block carries
SINGULAR_WARNING = "angle/range information is singular at working precision"

# elements per block of ExactSum's multi-location sums. A run's rows are
# formed and centred in one (4, P, len) float workspace, so the size no
# longer bounds fresh temporaries: it trades a block's fixed cost (~80 us at
# M = 1025) against the workspace, 32 B per element (1.0 MB here). On two
# cores, ExactSum over fig4-fig7 took 4.6 ms a pass in blocks of 8 192
# elements, 3.8 ms at 16 384, 3.4 ms at this size and 3.5 ms at 65 536
# (best of 15 x 40 passes; 4.4-4.8 ms with fresh temporaries at 8 192),
# and bench/run.py bounds_curves read 16% more rows/s at this size than
# with fresh temporaries at 8 192, at 1.0% more peak RSS
_BLOCK_ELEMENTS = 32_768


@dataclass(frozen=True)
class NoiseAndPowerConfig:
    """SNR and integration bookkeeping.

    snr_linear is gamma = P|kappa|^2/(N0 B); time_bandwidth is L = B T_p.
    The bounds see the power budget only through gamma L, so the model is
    kept in one normalisation: N0 = B = 1 and kappa = 1, which makes the
    transmit power P = gamma and the pulse duration T_p = L. snr_db is the
    value from_snr was given, else 10 log10(snr_linear): the dB round trip
    can move the last digit (3 dB comes back as 2.9999999999999991).
    """

    snr_linear: float
    time_bandwidth: float = 1.0
    snr_db: float = field(init=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.snr_linear < math.inf:
            raise ConfigError(f"snr_linear must be finite and > 0, got {self.snr_linear}")
        if not 1.0 <= self.time_bandwidth < math.inf:
            raise ConfigError(f"time_bandwidth must be finite and >= 1, got {self.time_bandwidth}")
        object.__setattr__(self, "snr_db", 10.0 * math.log10(self.snr_linear))

    @classmethod
    def from_snr(cls, snr_db: float, time_bandwidth: float = 1.0) -> "NoiseAndPowerConfig":
        """Config from an SNR in dB."""
        try:
            cfg = cls(snr_linear=10.0 ** (snr_db / 10.0), time_bandwidth=time_bandwidth)
        except OverflowError:
            raise ConfigError(f"snr_db = {snr_db} overflows the linear SNR") from None
        object.__setattr__(cfg, "snr_db", float(snr_db))
        return cfg


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


class CrbResult(NamedTuple):
    """Bounds on angle (rad^2) and range (m^2) variance.

    Unidentifiable scenarios carry +inf bounds; warnings collect regime or
    validity notes without changing values. Which method gave a result is
    where it sits in a sweep table, not a field. A tuple record: immutable
    and hashable, and built at tuple cost, which every bound row pays.
    """

    crb_theta: float
    crb_range: float
    identifiable: bool
    warnings: tuple = ()

    @classmethod
    def unidentifiable(cls, warnings: tuple = ()) -> "CrbResult":
        return cls(math.inf, math.inf, False, warnings)


def mode_energy_scale(cfg: NoiseAndPowerConfig, tx_array_size: int, mode: Mode) -> float:
    """Coherent post-filter signal energy per observation entry, |rho|^2.

    T_p P / M = L gamma / M when transmitters send orthogonal waveforms
    (power split), L gamma M when they beamform (coherent gain).
    """
    s = cfg.time_bandwidth * cfg.snr_linear
    return s / tx_array_size if mode is Mode.MIMO else s * tx_array_size


def _centred_gram(psi: np.ndarray, out: np.ndarray | None = None) -> tuple:
    """Gram (xx, xy, yx, yy) of the partials j psi exp(j phi) of a unit-modulus
    factor less their component along it: that of the rows of a (2, len) or
    (2, P, len) psi less their means, which keeps what L sum(x y) - sum(x)
    sum(y) cancels. Each location is reduced on its own row of elements.
    The centred rows go to out, which may be psi itself."""
    t, r = np.subtract(psi, np.add.reduce(psi, -1, keepdims=True) / psi.shape[-1], out=out)
    tr = np.vecdot(t, r)
    return np.vecdot(t, t), tr, tr, np.vecdot(r, r)


def _reduced_block(psi_a, psi_b, cfg: NoiseAndPowerConfig, tx_array_size: int, mode: Mode,
                   in_place: bool = False):
    """Entries (q00, q01, q10, q11) of the angle/range information with the
    amplitude projected out, from the factors' phase derivatives (see
    fim_numeric); arrays over the locations of a (2, P, len) psi. in_place
    centres each psi where it lies, which a caller whose psi is scratch may
    ask for. At an extreme gamma L an entry may overflow to +inf, which
    _inverse_diagonal reads as information past the float range, and an
    infinite scale turns a zero entry into NaN. Such entries say nothing of
    singularity, so where one is not finite the unscaled Gram decides it,
    by _inverse_diagonal's rule (_past_float_range)."""
    scale = 2.0 * mode_energy_scale(cfg, tx_array_size, mode)
    cent_a = _centred_gram(psi_a, psi_a if in_place else None)
    cent_b = cent_a if psi_b is psi_a else _centred_gram(psi_b, psi_b if in_place else None)
    len_a, len_b = psi_a.shape[-1], psi_b.shape[-1]
    gram = [len_a * qb + len_b * qa for qa, qb in zip(cent_a, cent_b)]
    with np.errstate(over="ignore", invalid="ignore"):
        q = [scale * g for g in gram]
        # a finite sum has finite terms: one scalar test at one location,
        # one isfinite over a block
        total = q[0] + q[1] + q[2] + q[3]
    if not (math.isfinite(total) if total.ndim == 0 else np.isfinite(total).all()):
        return _past_float_range(q, gram)
    return q


def _past_float_range(q, gram) -> np.ndarray:
    """q as a (4, P) array, with the unscaled Gram in place of each
    location whose entries are not all finite and whose Gram is singular.
    Singularity does not depend on scale, so such a location gets the
    verdict it has wherever its entries are in range; any other keeps its
    overflowed entries."""
    q, gram = np.reshape(q, (4, -1)), np.reshape(gram, (4, -1))
    for j in np.flatnonzero(~np.isfinite(q).all(axis=0)):
        if not _inverse_diagonal(*gram[:, j].tolist()).identifiable:
            q[:, j] = gram[:, j]
    return q


def fim_numeric(obs: ObservationVector, cfg: NoiseAndPowerConfig) -> FimMatrix:
    """Angle/range block of F = 2 Re{J^H J} (N0 = 1) for the mean
    w = kappa rho g at kappa = 1, J = dw/d(theta,r,k_re,k_im), with the
    amplitude kappa = k_re + j k_im Schur-complemented out.

    rho = sqrt(T_p P/M) in MIMO mode (power split across transmitters) and
    sqrt(T_p P M) in phased mode (coherent transmit gain).

    The complement projects g out of the partials: P(b_x (x) a + b (x) a_x) =
    b'_x (x) a + b (x) a'_x with a', b' the centred factor partials, two
    orthogonal terms, so by <b1 (x) a1, b2 (x) a2> = <b1, b2><a1, a2>,
    Q = 2|rho|^2 (M <b'_x, b'_y> + N <a'_x, a'_y>) for the unit-modulus
    factors, formed in O(M + N) from their real phase derivatives.
    """
    q = _reduced_block(obs.a.psi, obs.b.psi, cfg, obs.tx_array_size, obs.mode)
    return FimMatrix(np.reshape(q, (2, 2)))


def _inverse_diagonal(q00, q01, q10, q11, scale=1.0, warnings: tuple = (),
                      pow2=1.0) -> CrbResult:
    """scale times the diagonal of the inverse of [[q00, q01], [q10, q11]],
    times the power of two pow2 last, under the one identifiability rule of
    every bound, det > DET_REL_TOL q00 q11. The rule does not move when a
    parameter changes units (q -> D q D, D diagonal); for a centred Gram it
    is what rounding of det warrants.

    The entries are first taken to D q D with D = diag(2^-a, 2^-b) bringing
    q00 and q11 near 1, so det neither overflows nor underflows at an
    extreme SNR. Powers of two scale exactly: no bit of a bound moves while
    the unscaled arithmetic stays in the normal range. A q00 or q11 that
    overflowed to +inf is information past the float range, not a singular
    block (_reduced_block has given a singular one its unscaled Gram): its
    bounds lie beneath the normal range and are returned as 0,
    identifiable, which run_experiment refuses."""
    if q00 == math.inf or q11 == math.inf:
        return CrbResult(0.0, 0.0, True, warnings)
    fa = 2.0 ** -(math.frexp(q00)[1] // 2)
    fb = 2.0 ** -(math.frexp(q11)[1] // 2)
    q00, q01, q10, q11 = q00 * fa * fa, q01 * fa * fb, q10 * fa * fb, q11 * fb * fb
    det = q00 * q11 - q01 * q10
    if not det > DET_REL_TOL * q00 * q11:
        return CrbResult.unidentifiable(warnings + (SINGULAR_WARNING,))
    return CrbResult(scale * q11 * fa * fa / det * pow2, scale * q00 * fb * fb / det * pow2,
                     True, warnings)


def crb_from_fim(fim: FimMatrix) -> CrbResult:
    """Invert the 2x2 angle/range information fim.reduced."""
    (q00, q01), (q10, q11) = fim.reduced.tolist()
    return _inverse_diagonal(q00, q01, q10, q11)


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
    """The intermediates by direct summation over the elements: uncentred
    moments of the transmit phase derivatives, with the constant -k that
    phase_derivs leaves out put back into the range row, and the
    receive-side terms whenever the arrays are separated."""
    t, r = phase_derivs(geom, carrier, Mode.MIMO, Topology.MONOSTATIC,
                        tgt.angle_rad, tgt.range_m)[0]
    r = r - 2.0 * math.pi / carrier.wavelength
    rx = receive_sums(geom, tgt, carrier) if geom.array_separation > 0.0 else ()
    return IntermediateParams(
        t @ t, -1j * np.add.reduce(t), t @ r, r @ r, -1j * np.add.reduce(r), *rx)


def crb_exact_sum(
    geom: ArrayGeometry,
    targets,
    carrier: CarrierConfig,
    cfg: NoiseAndPowerConfig,
    mode: Mode,
    topology: Topology,
) -> list:
    """CRBs at each of the targets, in order, by exact summation over the
    array elements: the centred Grams of phase_derivs' rows, reduced and
    inverted by fim_numeric's and crb_from_fim's expressions, so each bound
    has NumericalFim's bits. A run of targets that share one geometry is
    summed in blocks of (P, len) rows of about _BLOCK_ELEMENTS elements,
    each formed and centred in the same (4, P, len) workspace."""
    out = []
    step = max(1, _BLOCK_ELEMENTS // max(geom.num_tx, geom.num_rx))
    # every block's transmit rows are formed and centred in this one buffer
    work = np.empty((4, min(step, len(targets)), geom.num_tx))
    for lo in range(0, len(targets), step):
        block = targets[lo:lo + step]
        th, r = zip(*((t.angle_rad, t.range_m) for t in block))
        q = _reduced_block(*phase_derivs(geom, carrier, mode, topology, th, r,
                                         work[:, :len(block)]),
                           cfg, geom.num_tx, mode, in_place=True)
        out += [_inverse_diagonal(*qj) for qj in np.reshape(q, (4, -1)).T.tolist()]
    return out
