"""Closed-form CRBs: exact-integral intermediates, the theorem-level bounds
for every mode/topology, asymptotic regime formulas, second-order Taylor
results, and far-field plane-wave references."""

from __future__ import annotations

import enum
import math
import sys

from .errors import DomainError, SingularGeometryError
from .geometry import (
    EPS_WARN_THRESHOLD,
    ArrayGeometry,
    CarrierConfig,
    Mode,
    TargetLocation,
    Topology,
    amplitude_model_valid,
    epsilon_tx,
)
from .fim import (
    CrbResult,
    IntermediateParams,
    NoiseAndPowerConfig,
    _inverse_diagonal,
    receive_sums,
)

# powers of pi in the bounds, taken once: the same floats wherever they sit
# in a product. Products of them with other constants are left to run in
# their written order.
_PI_SQ = math.pi ** 2
_PI_CUBE = math.pi ** 3
_HALF_PI = math.pi / 2
_MIN_NORMAL = sys.float_info.min


def _split_prefactor(cfg: NoiseAndPowerConfig) -> tuple:
    """The prefactor 1/(2 gamma L) as (mantissa in [1, 2), power of two). A
    bound formed with the mantissa and multiplied by the power last has the
    bits of the product formed with the prefactor wherever that product
    stays in the normal range, since powers of two scale exactly. Where only
    the bound is past the range, the last multiplication gives +inf, not an
    intermediate overflowed before a division (math.ldexp would raise)."""
    mant, exp = math.frexp(1.0 / (2.0 * cfg.snr_linear * cfg.time_bandwidth))
    return 2.0 * mant, 2.0 ** (exp - 1)


def _stable_terms(u: float, th: float, sth: float, cth: float):
    # shared pieces of the closed forms, arranged to avoid cancellation for
    # small u: differences of near-equal square roots and logarithms of
    # near-unity ratios are rewritten via their exact difference forms.
    # sth and cth are sin(th) and cos(th), as the caller has taken them
    a_plus = 0.25 * u * u + u * sth + 1.0
    a_minus = 0.25 * u * u - u * sth + 1.0
    s_plus, s_minus = math.sqrt(a_plus), math.sqrt(a_minus)
    root_diff = -2.0 * u * sth / (s_minus + s_plus)
    log_ratio = math.log1p(-2.0 * u * sth / a_plus)
    half, tth = 0.5 * u / cth, math.tan(th)
    span = math.atan(half - tth) + math.atan(half + tth)
    rise = math.asinh((0.5 * u - sth) / cth) - math.asinh((-0.5 * u - sth) / cth)
    return s_minus, s_plus, root_diff, log_ratio, span, rise


def _transmit_eps(geom: ArrayGeometry, tgt: TargetLocation) -> float:
    """The spacing-to-range ratio eps = d_tx/r of a target the closed forms
    can evaluate, else the reason they cannot."""
    # the float cos of pi/2 is ~6e-17, so gate on the angle itself
    if abs(tgt.angle_rad) >= _HALF_PI:
        raise SingularGeometryError("closed forms are singular at theta = +-pi/2")
    eps = epsilon_tx(geom, tgt)
    if eps >= 1.0:
        raise DomainError("element spacing must be smaller than the target range")
    return eps


def _closed_sums(geom: ArrayGeometry, tgt: TargetLocation, carrier: CarrierConfig,
                 eps: float) -> tuple:
    """The fields of intermediates_closed's record, in order, as plain
    scalars, at a target whose ratio eps _transmit_eps gave."""
    lam = carrier.wavelength
    r, th = tgt.range_m, tgt.angle_rad
    u = geom.num_tx * eps
    sth, cth = math.sin(th), math.cos(th)
    c2th = math.cos(2.0 * th)
    _, _, root_diff, log_ratio, span, rise = _stable_terms(u, th, sth, cth)

    angle_power = (4.0 * _PI_SQ * r * r * cth * cth / (lam * lam * eps)) * (
        u + sth * log_ratio - (c2th / cth) * span
    )
    angle_im = (2.0 * math.pi * r * cth / (lam * eps)) * (root_diff + rise * sth)
    cross_power = (4.0 * _PI_SQ * r * cth / (lam * lam * eps)) * (
        u * sth - 0.5 * c2th * log_ratio - span * math.sin(2.0 * th)
    )
    range_power = (4.0 * _PI_SQ / (lam * lam * eps)) * (
        sth * sth * u - log_ratio * cth * cth * sth + span * cth * c2th
    )
    range_im = (2.0 * math.pi / (lam * eps)) * (rise * cth * cth - sth * root_diff)

    rx_a = rx_s = rx_k = 0.0
    if geom.array_separation > 0.0:
        rx_a, rx_s, rx_k = receive_sums(geom, tgt, carrier)
    return (max(angle_power, 0.0), -1j * angle_im, cross_power, max(range_power, 0.0),
            1j * range_im, rx_a, rx_s, rx_k)


def intermediates_closed(geom: ArrayGeometry, tgt: TargetLocation, carrier: CarrierConfig) -> IntermediateParams:
    """Closed-form (integral) evaluation of the intermediate sums.

    Exact up to the sum-to-integral (midpoint) step. Its gap to the
    summation path is a far-field floor plus an eps^2 remainder: angle_power,
    angle_overlap and cross_power are led by the moment sum(m^2), whose
    integral M^3/12 exceeds M(M^2-1)/12 by the factor 1 + 1/(M^2-1) at every
    range; only the remainder beyond that floor shrinks as the
    spacing-to-range ratio eps shrinks. Receive-side terms are produced
    whenever the geometry is bistatic; they involve no integral
    approximation.
    """
    return IntermediateParams(*_closed_sums(geom, tgt, carrier, _transmit_eps(geom, tgt)))


def _model_warnings(geom: ArrayGeometry, tgt: TargetLocation, eps: float) -> tuple:
    w = []
    if eps >= EPS_WARN_THRESHOLD:
        w.append(
            f"tx spacing-to-range ratio {eps:.3g} >= "
            f"{EPS_WARN_THRESHOLD}; closed-form intermediates lose accuracy"
        )
    if not amplitude_model_valid(geom, tgt):
        w.append("target range is close to the transmit aperture; the constant-amplitude model is strained")
    return tuple(w)


def crb_closed(geom, tgt, carrier, cfg: NoiseAndPowerConfig, mode: Mode, topology: Topology) -> CrbResult:
    """Closed-form bounds for any mode/topology pair.

    Monostatic beamformed bounds are exactly 2/M times the
    orthogonal-waveform ones. Bistatic bounds (near-field transmit,
    far-field receive) need array_separation > 0; beamformed bistatic data
    leave a rank-one angle/range information block, so nothing is
    identifiable there. The block is formed from the uncentred
    intermediates (intermediates_closed's sums, read as plain scalars),
    M sum(x y) - sum(x) sum(y) per entry.
    """
    if topology is Topology.BISTATIC_NEAR_FAR_TX:
        if geom.array_separation <= 0.0:
            raise DomainError("bistatic bounds require array_separation > 0")
        if mode is Mode.PHASED:
            return CrbResult.unidentifiable()
    eps = _transmit_eps(geom, tgt)
    a_pow, a_ov, c_pow, r_pow, r_ov, rx_a, rx_s, rx_k = _closed_sums(geom, tgt, carrier, eps)
    warnings = _model_warnings(geom, tgt, eps)
    if geom.num_tx < 2:
        # no transmit baseline: monostatic information vanishes and the
        # receive-only bistatic block is rank one, exactly in both cases
        return CrbResult.unidentifiable(warnings)
    mant, pow2 = _split_prefactor(cfg)
    m = float(geom.num_tx)
    cross_ov = (a_ov.conjugate() * r_ov).real
    if topology is Topology.BISTATIC_NEAR_FAR_TX:
        n = float(geom.num_rx)
        aa = m * rx_a + n * a_pow - (n / m) * abs(a_ov) ** 2
        pp = m * rx_s + n * r_pow - (n / m) * abs(r_ov) ** 2
        ee = m * rx_k + n * c_pow - (n / m) * cross_ov
        scale = mant * m
    else:
        aa = m * a_pow - abs(a_ov) ** 2
        pp = m * r_pow - abs(r_ov) ** 2
        ee = m * c_pow - cross_ov
        # orthogonal waveforms see the information twice (transmit and
        # receive); halving the scale is exact
        scale = mant * m * 0.5 if mode is Mode.MIMO else mant
    return _inverse_diagonal(aa, ee, ee, pp, scale, warnings, pow2)


class AsymptoticRegime(enum.Enum):
    LARGE_APERTURE = "LargeAperture"
    INFINITE_APERTURE = "InfiniteAperture"
    SMALL_APERTURE = "SmallAperture"


# a plane-wave or small-aperture angle bound is kept for reference curves,
# flagged as carrying no range information
_NO_RANGE = ("no range information in this model",)
_DROPPED = ("formula left its validity region; bound dropped",)


def _result(pow2: float, warnings: tuple, crb_t: float, crb_r: float | None = None) -> CrbResult:
    """The result of an asymptotic, Taylor or plane-wave formula whose
    bounds crb_t and crb_r (None: an angle-only model) were formed with the
    mantissa of _split_prefactor. A formula is judged there, once: a bound
    outside [0, inf) at that scale left its validity region and is dropped,
    whatever gamma L is. The bounds are then multiplied by the power of two
    pow2. A bound that this takes out of the normal float range is gamma
    L's doing, and its result is marked identifiable, angle-only ones too,
    for run_experiment to refuse."""
    if not (0.0 <= crb_t < math.inf and (crb_r is None or 0.0 <= crb_r < math.inf)):
        return CrbResult.unidentifiable(warnings + _DROPPED)
    crb_t *= pow2
    if crb_r is None:
        return CrbResult(crb_t, math.inf, not _MIN_NORMAL <= crb_t < math.inf,
                         warnings + _NO_RANGE)
    return CrbResult(crb_t, crb_r * pow2, True, warnings)


def crb_asymptotic(
    geom: ArrayGeometry,
    targets,
    carrier: CarrierConfig,
    cfg: NoiseAndPowerConfig,
    regime: AsymptoticRegime,
    mode: Mode,
    topology: Topology,
) -> list:
    """Regime-limit bounds at each of the targets, in order.

    They approximate the exact-distance bound (ExactSum) in a limit of the
    aperture-to-range ratio u = M d_tx/r. Monostatic: LARGE_APERTURE keeps
    the leading aperture terms, trusted for aperture >> range;
    INFINITE_APERTURE is the aperture-to-infinity limit; SMALL_APERTURE is
    the continuum (M^3 rather than M(M^2-1)) plane-wave angle bound, with no
    range information surviving there. Bistatic: the boresight limits, with
    range information vanishing as the aperture grows. A limit states no
    error at finite u; its judges are ClosedForm as u grows (criterion 4,
    M = 100 001 at u = 1e3 and 1e4) and ExactSum as u shrinks (within 2e-4
    at u <= 1e-2), and a target far from its regime carries a warning.

    What no target changes is formed once per run; each target's own
    arithmetic is a one-target run's, in the same order, so a run gives its
    targets' one-target results, and raises where the first of them would.
    """
    lam = carrier.wavelength
    m, n = geom.num_tx, geom.num_rx
    d_t, d_r = geom.tx_spacing, geom.rx_spacing
    sep = geom.array_separation
    mant, pow2 = _split_prefactor(cfg)
    bistatic = topology is Topology.BISTATIC_NEAR_FAR_TX
    mimo = mode is Mode.MIMO
    # the left prefixes of the written products that no target changes
    md, pll, pll3, lam2 = m * d_t, mant * lam * lam, mant * 3.0 * lam * lam, lam * lam
    if bistatic:
        pi_n, rx_lever, tx_small = _PI_SQ * n, d_r * d_r, d_t * d_t * m * m
        rx_large = d_r * d_r * (n * n - 1.0)
    elif regime is AsymptoticRegime.SMALL_APERTURE:
        den_small = (2.0 * _PI_SQ * d_t * d_t * m ** 3 if mimo
                     else _PI_SQ * d_t * d_t * m ** 4)
    elif regime is AsymptoticRegime.INFINITE_APERTURE:
        pll_d = pll * d_t
        den_inf = 8.0 * _PI_CUBE if mimo else 4.0 * m * _PI_CUBE
    else:
        den_t = 8.0 * _PI_SQ if mimo else 4.0 * _PI_SQ
        den_r = 8.0 * _PI_SQ * m if mimo else 4.0 * _PI_SQ * m * m

    out = []
    for tgt in targets:
        r, th = tgt.range_m, tgt.angle_rad
        u = md / r
        sth, cth = math.sin(th), math.cos(th)
        if regime is AsymptoticRegime.LARGE_APERTURE and u < 10.0:
            warns = (f"aperture-to-range ratio {u:.3g} is below the large-aperture regime",)
        elif regime is AsymptoticRegime.INFINITE_APERTURE and u < 100.0:
            warns = (f"aperture-to-range ratio {u:.3g} is far from the infinite-aperture limit",)
        elif regime is AsymptoticRegime.SMALL_APERTURE and u > 0.1:
            warns = (f"aperture-to-range ratio {u:.3g} is above the small-aperture regime",)
        else:
            warns = ()

        if bistatic:
            if mode is Mode.PHASED:
                out.append(CrbResult.unidentifiable(warns))
                continue
            if sep <= 0.0:
                raise DomainError("bistatic asymptotics require array_separation > 0")
            if th != 0.0:
                warns = warns + ("boresight-only formula evaluated off boresight",)
            if sep == r:
                raise SingularGeometryError("target range equals the array separation")
            if regime is AsymptoticRegime.SMALL_APERTURE:
                lever = (r / (sep - r)) ** 2
                crb_t = pll3 / (pi_n * (rx_lever * lever * (n * n - 1.0) + tx_small))
                warns = warns + ("range bound diverges in this regime",)
            else:
                lever = rx_large / (3.0 * (sep - r) ** 2) + 4.0
                crb_t = pll / (_PI_SQ * r * r * n * lever)
                warns = warns + ("range bound grows without limit with the aperture",)
            out.append(_result(pow2, warns, crb_t))
            continue

        # monostatic
        if abs(th) >= _HALF_PI:
            raise SingularGeometryError("asymptotic bounds are singular at theta = +-pi/2")
        if regime is AsymptoticRegime.SMALL_APERTURE:
            warns = warns + ("range bound diverges in this regime",)
            out.append(_result(pow2, warns, pll3 / (den_small * cth * cth)))
            continue
        if regime is AsymptoticRegime.INFINITE_APERTURE:
            crb_t = pll_d * sth * sth / (den_inf * r ** 3 * cth)
            crb_r = pll_d * cth / (den_inf * r)
            if th == 0.0:
                warns = warns + ("angle limit degenerates to 0 at boresight",)
        else:
            # large aperture: leading-order aperture expansion
            if u <= 0.0 or cth <= 0.0:
                raise SingularGeometryError(
                    "large-aperture expansion needs u > 0 and |theta| < pi/2")
            log_t = math.log(u / cth)
            core = math.pi * u / cth - 4.0 * log_t * log_t
            c2th = math.cos(2.0 * th)
            num_t = lam2 * ((u * sth) ** 2 + math.pi * u * cth * c2th
                            - 4.0 * (cth * cth * log_t + sth * sth) ** 2)
            num_r = lam2 * (
                u * u + math.pi * u * c2th / cth - 4.0 * (log_t - 1.0) ** 2 * sth * sth)
            den = den_t * r * r * m if mimo else den_t * r * r * m * m
            crb_t = mant * num_t / (den * core * cth * cth)
            crb_r = mant * num_r / (den_r * core)
        out.append(_result(pow2, warns, crb_t, crb_r))
    return out


def crb_taylor(geom, targets, carrier, cfg: NoiseAndPowerConfig, mode: Mode) -> list:
    """Monostatic bounds under the second-order (Fresnel) distance
    approximation, at each of the targets, in order.

    They are the exact bounds of the quadratic-phase model, which is what
    judges them: a finite-difference FIM of that model agrees to 1e-5
    (test_taylor_matches_quadratic_phase_fim_oracle). The angle bound
    collapses to the plane-wave reference (to 1e-12, criterion 6); the range
    bound stays finite but scales differently from the exact-distance one.

    The prefactor 1/(2 gamma L) and what no target changes are formed once
    per run; each target's own arithmetic is a one-target run's, in the
    same order, so a run gives its targets' one-target results, and raises
    where the first of them would.
    """
    lam = carrier.wavelength
    m = geom.num_tx
    d_t = geom.tx_spacing
    mant, pow2 = _split_prefactor(cfg)
    m2 = float(m) * m
    m2_1, m2_4 = m2 - 1.0, m2 - 4.0
    # the left prefixes of the written products that no target changes
    num_t, pi_dd = mant * 3.0 * lam * lam, math.pi * d_t * d_t
    if mode is Mode.MIMO:
        den_t, num_r, m_r = 2.0 * _PI_SQ * d_t * d_t * m * m2_1, mant * 6.0 * lam * lam, m
    else:
        den_t, num_r, m_r = _PI_SQ * d_t * d_t * m2 * m2_1, mant * 12.0 * lam * lam, m2
    out = []
    for tgt in targets:
        r, th = tgt.range_m, tgt.angle_rad
        if abs(th) >= _HALF_PI:
            raise SingularGeometryError("Taylor bounds are singular at theta = +-pi/2")
        if m < 3:
            out.append(CrbResult.unidentifiable())
            continue
        cth = math.cos(th)
        quartic = (pi_dd * cth * cth) ** 2
        # range numerator shared by both modes
        inner = 15.0 * r * r + (d_t * math.sin(th)) ** 2 * m2_4
        out.append(_result(pow2, (), num_t / (den_t * cth * cth),
                           num_r * r * r * inner / (quartic * m_r * m2_1 * m2_4)))
    return out


def crb_farfield_upw(geom, targets, carrier, cfg: NoiseAndPowerConfig, mode: Mode,
                     topology: Topology) -> list:
    """Plane-wave reference bounds at each of the targets, in order: finite
    for angle, none for range.

    They are the exact angle bounds of the linear-phase (far-field) model
    over the discrete M(M^2 - 1) aperture, which is what judges them; the
    exact-distance bound (ExactSum) approaches their continuum form to 2e-4
    at an aperture-to-range ratio of 1e-2 and below.

    What no target changes is formed once per run; each target's own
    arithmetic is a one-target run's, in the same order, so a run gives its
    targets' one-target results, and raises where the first of them would.
    """
    lam = carrier.wavelength
    m, n = geom.num_tx, geom.num_rx
    d_t, d_r = geom.tx_spacing, geom.rx_spacing
    mant, pow2 = _split_prefactor(cfg)
    m2 = float(m) * m
    bistatic = topology is Topology.BISTATIC_NEAR_FAR_TX
    # the left prefixes of the written products that no target changes
    num = mant * 3.0 * lam * lam
    if bistatic:
        none = mode is Mode.PHASED
        den = _PI_SQ * n * (d_r * d_r * (n * n - 1.0) + d_t * d_t * (m2 - 1.0))
    else:
        none = m < 2
        den = (2.0 * _PI_SQ * d_t * d_t * m * (m2 - 1.0) if mode is Mode.MIMO
               else _PI_SQ * d_t * d_t * m2 * (m2 - 1.0))
    out = []
    for tgt in targets:
        th = tgt.angle_rad
        if abs(th) >= _HALF_PI:
            raise SingularGeometryError("plane-wave bounds are singular at theta = +-pi/2")
        if none:
            out.append(CrbResult.unidentifiable())
            continue
        cth = math.cos(th)
        denom = den * cth * cth
        if bistatic and denom <= 0.0:
            out.append(CrbResult.unidentifiable())
            continue
        out.append(_result(pow2, (), num / denom))
    return out


def boresight_range_crb(aperture_ratio: float, num_rx: int, wavelength: float, cfg: NoiseAndPowerConfig) -> float:
    """Bistatic boresight range bound as a function of x = half-aperture
    over range. Independent of the receive spacing and of range itself.

    The bound is inversely proportional to the shape function
    atan(x)/x - (asinh(x)/x)^2, so it is least at x* ~ 6.1503, the root of
    that function's derivative.
    """
    x = aperture_ratio
    if x <= 0.0:
        raise DomainError("aperture ratio must be positive")
    shape = math.atan(x) / x - (math.asinh(x) / x) ** 2
    pref = 1.0 / (2.0 * cfg.snr_linear * cfg.time_bandwidth)
    return pref * wavelength ** 2 / (4.0 * _PI_SQ * num_rx * shape)


def _golden_min(fn, lo: float, hi: float, tol: float) -> float:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def bistatic_range_crb_minimizer(geom, tgt, carrier, cfg: NoiseAndPowerConfig) -> tuple:
    """Golden-section minimum of the boresight range bound over the
    half-aperture-to-range ratio. Returns (best ratio, minimal bound); the
    ratio is x* ~ 6.1503, the root of the derivative of the shape function
    atan(x)/x - (asinh(x)/x)^2, for every receive array."""
    if tgt.angle_rad != 0.0:
        raise DomainError("the boresight range bound requires theta = 0")
    fn = lambda x: boresight_range_crb(x, geom.num_rx, carrier.wavelength, cfg)
    x_opt = _golden_min(fn, 1e-3, 100.0, 1e-6)
    return x_opt, fn(x_opt)
