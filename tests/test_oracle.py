"""NumericalFim and ExactSum against a high-precision oracle.

The oracle works in mpmath at 60 significant digits and shares no code with
the package's bounds. It places the elements and the target in plane
coordinates, takes the phase of every observed entry from exact distances,
differentiates those phases by central differences (step 1e-25, so the
truncation error is far below double precision), and forms the angle/range
information with the amplitude projected out as the centred covariance of
the phase derivatives over the entries of g:

    Q_xy = c * (sum psi_x psi_y - sum psi_x sum psi_y / K),

where c = 2 L gamma / M (orthogonal waveforms) or 2 L gamma M
(beamformed), and K is the length of g. By gamma = P |kappa|^2 / (N0 B) and
L = B T_p, 2 L gamma is the physical model's (2/N0) |kappa|^2 T_p P. At 60
digits the uncentred form loses nothing that matters.

Both methods centre the real phase derivatives in double precision and
invert the 2x2 block with one rule, so they agree with the oracle to
RTOL = 1e-10 wherever det(Q)/(Q00 Q11) >= 1e-11; what is left there is the
rounding of the 2x2 determinant, not of the derivatives. That ratio does
not depend on the units of angle and range. Points where the range
derivative sits close to its constant part (small aperture, and endfire
inside the aperture) are held to 1e-12.
"""

import dataclasses
import math

import mpmath
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nfcrb.experiment import SweepSpec, presets, validate_config
from nfcrb.fim import DET_REL_TOL, NoiseAndPowerConfig, crb_exact_sum, crb_from_fim, fim_numeric
from nfcrb.geometry import ArrayGeometry, CarrierConfig, Mode, TargetLocation, Topology
from nfcrb.steering import build_observation

DIGITS = 60
STEP = mpmath.mpf("1e-25")
# NumericalFim and ExactSum must match the oracle this closely where the
# oracle's det(Q)/(Q00 Q11) is at least RATIO_ACCURATE; the verdicts must
# agree outside the band around DET_REL_TOL
RTOL = 1e-10
RATIO_ACCURATE = 1e-11
RATIO_BAND = (1e-13, 1e-11)


def _phases(geom, carrier, mode, topology, theta, r):
    """Phases of the factors observed in g, as lists: (transmit, receive);
    None marks a factor absent from g."""
    k = 2 * mpmath.pi / mpmath.mpf(carrier.wavelength)
    x, y = r * mpmath.sin(theta), r * mpmath.cos(theta)
    tx = None
    if not (topology is Topology.BISTATIC_NEAR_FAR_TX and mode is Mode.PHASED):
        half = (geom.num_tx - 1) // 2
        d = mpmath.mpf(geom.tx_spacing)
        # transmit element m sits at (m d, 0), the target at (x, y)
        tx = [-k * mpmath.sqrt((x - m * d) ** 2 + y * y) for m in range(-half, half + 1)]
    rx = None
    if topology is Topology.BISTATIC_NEAR_FAR_TX:
        # receive-array centre at (0, R); far-field phase of element n
        sin_phi = x / mpmath.sqrt(x * x + (y - mpmath.mpf(geom.array_separation)) ** 2)
        d = mpmath.mpf(geom.rx_spacing)
        n0 = mpmath.mpf(geom.num_rx - 1) / 2
        rx = [k * (n - n0) * d * sin_phi for n in range(geom.num_rx)]
    elif mode is Mode.MIMO:
        rx = tx  # the transmit array receives
    return tx, rx


def _phase_moments(psi):
    """(K, [sum psi_x psi_y for x, y], [sum psi_x]) over the entries of g,
    from the per-factor phase derivatives psi[f] = (d_theta list, d_r list)."""
    factors = [f for f in psi if f is not None]
    size = 1
    for f in factors:
        size *= len(f[0])
    first = [mpmath.mpf(0), mpmath.mpf(0)]
    second = [[mpmath.mpf(0)] * 2 for _ in range(2)]
    for f in factors:
        rest = size // len(f[0])
        for x in range(2):
            first[x] += rest * mpmath.fsum(f[x])
            for y in range(2):
                second[x][y] += rest * mpmath.fsum(p * q for p, q in zip(f[x], f[y]))
    # cross terms of the entry phase psi_n + phi_m over the product grid
    if len(factors) == 2:
        a, b = factors
        for x in range(2):
            for y in range(2):
                second[x][y] += mpmath.fsum(a[x]) * mpmath.fsum(b[y]) \
                    + mpmath.fsum(b[x]) * mpmath.fsum(a[y])
    return size, second, first


def oracle(geom, tgt, carrier, cfg, mode, topology):
    """(crb_theta, crb_range, det(Q)/(Q00 Q11)) at DIGITS digits."""
    with mpmath.workdps(DIGITS):
        th, r = mpmath.mpf(tgt.angle_rad), mpmath.mpf(tgt.range_m)
        h_th, h_r = STEP, STEP * r
        plus_th = _phases(geom, carrier, mode, topology, th + h_th, r)
        less_th = _phases(geom, carrier, mode, topology, th - h_th, r)
        plus_r = _phases(geom, carrier, mode, topology, th, r + h_r)
        less_r = _phases(geom, carrier, mode, topology, th, r - h_r)
        psi = []
        for f in range(2):
            if plus_th[f] is None:
                psi.append(None)
                continue
            d_th = [(p - q) / (2 * h_th) for p, q in zip(plus_th[f], less_th[f])]
            d_r = [(p - q) / (2 * h_r) for p, q in zip(plus_r[f], less_r[f])]
            psi.append((d_th, d_r))
        size, second, first = _phase_moments(psi)
        q = [[second[x][y] - first[x] * first[y] / size for y in range(2)] for x in range(2)]
        energy = mpmath.mpf(cfg.time_bandwidth) * mpmath.mpf(cfg.snr_linear)
        energy = energy / geom.num_tx if mode is Mode.MIMO else energy * geom.num_tx
        c = 2 * energy
        det = q[0][0] * q[1][1] - q[0][1] * q[1][0]
        diag = q[0][0] * q[1][1]
        ratio = det / diag if diag > 0 else mpmath.mpf(0)
        if det <= 0:
            return math.inf, math.inf, float(ratio)
        return float(q[1][1] / (c * det)), float(q[0][0] / (c * det)), float(ratio)


def _check(geom, tgt, carrier, cfg, mode, topology, rtol=RTOL):
    want_th, want_r, ratio = oracle(geom, tgt, carrier, cfg, mode, topology)
    obs = build_observation(geom, tgt, carrier, mode, topology)
    where = (f"{mode.value}/{topology.value} M={geom.num_tx} N={geom.num_rx} "
             f"r={tgt.range_m!r} theta={tgt.angle_rad!r} ratio={ratio:.3e}")
    for method, got in (("NumericalFim", crb_from_fim(fim_numeric(obs, cfg))),
                        ("ExactSum", crb_exact_sum(geom, (tgt,), carrier, cfg, mode, topology)[0])):
        if ratio < RATIO_BAND[0] or ratio > RATIO_BAND[1]:
            assert got.identifiable == (ratio > RATIO_BAND[1]), (method, where)
        if ratio >= RATIO_ACCURATE:
            assert abs(got.crb_theta / want_th - 1.0) < rtol, (method, where)
            assert abs(got.crb_range / want_r - 1.0) < rtol, (method, where)
    return ratio


def test_band_brackets_the_verdict_threshold():
    assert RATIO_BAND[0] < DET_REL_TOL < RATIO_BAND[1] == RATIO_ACCURATE


def _preset_points(name, largest):
    cfg = presets()[name]
    return cfg, [(run, tgt) for run in validate_config(cfg) for tgt in run.targets
                 if run.geometry.num_tx <= largest]


@pytest.mark.parametrize("name,largest", [("fig2", 257), ("fig3", 257), ("fig8", 65)])
def test_preset_points_match_oracle(name, largest):
    cfg, points = _preset_points(name, largest)
    for run, tgt in points:
        ratio = _check(run.geometry, tgt, run.carrier, run.noise, cfg.mode, cfg.topology)
        assert ratio >= RATIO_ACCURATE


# the range derivative is k less a small part: at this small-aperture point
# a complex range partial kept it below the rounding of k (7.5e-9 off)
SMALL_APERTURE = (ArrayGeometry(33, 33, 2.13e-3, 2.13e-3, 0.0),
                  TargetLocation(range_m=23.87, angle_rad=-1.418),
                  CarrierConfig.from_wavelength(15.27e-3))
# endfire inside the aperture: r - m d sin(theta) < 0 for the outer elements,
# where k (m d cos(theta))^2 / (r_m (r_m + lin)) would cancel in r_m + lin
ENDFIRE = [(ArrayGeometry(9, 9, 0.0628, 0.0628, 0.0), TargetLocation(range_m=r, angle_rad=th),
            CarrierConfig(carrier_freq=2.37e9))
           for th in (1.55, 1.57) for r in (0.12, 0.2)]


# monostatic phased, M=117, d=11.014 mm, lambda=12.794 mm, r=30.331 m,
# theta=1.4827 rad: ExactSum's uncentred sums were 1.9e-3 off in range
NEAR_ENDFIRE = (ArrayGeometry(117, 117, 11.014e-3, 11.014e-3, 0.0),
                TargetLocation(range_m=30.331, angle_rad=1.4827),
                CarrierConfig.from_wavelength(12.794e-3))


def test_far_range_preset_point_is_identifiable_and_matches_oracle():
    # fig2 at M=257 moved out to r = 2000 m, where det(Q)/tr(Q)^2 = 8e-13: a
    # rule scaled by the trace called the point unidentifiable, and
    # ExactSum's uncentred sums were 2.1e-5 off in range
    far = dataclasses.replace(presets()["fig2"], target_range_m=2000.0,
                              sweep=SweepSpec(axis="M", values=(257,)))
    (run,) = validate_config(far)
    assert _check(run.geometry, run.targets[0], run.carrier, run.noise, far.mode,
                  far.topology) > RATIO_BAND[1]


def test_exact_sum_worst_sweep_point_matches_oracle():
    geom, tgt, carrier = NEAR_ENDFIRE
    cfg = NoiseAndPowerConfig.from_snr(0.0)
    assert _check(geom, tgt, carrier, cfg, Mode.PHASED, Topology.MONOSTATIC) > RATIO_BAND[1]


@pytest.mark.parametrize("geom,tgt,carrier", [SMALL_APERTURE, *ENDFIRE], ids=[
    "small_aperture", *(f"endfire_r{t.range_m}_theta{t.angle_rad}" for _, t, _ in ENDFIRE)])
def test_range_derivative_keeps_its_small_part(geom, tgt, carrier):
    cfg = NoiseAndPowerConfig.from_snr(0.0)
    ratio = _check(geom, tgt, carrier, cfg, Mode.MIMO, Topology.MONOSTATIC, rtol=1e-12)
    assert ratio >= RATIO_ACCURATE


def test_moments_match_the_product_grid_sum():
    # the oracle's marginal sums against every entry phase psi_n + phi_m
    with mpmath.workdps(DIGITS):
        a = ([mpmath.mpf(v) for v in (0.3, -1.1, 2.0)], [mpmath.mpf(v) for v in (5, 1, -2)])
        b = ([mpmath.mpf(v) for v in (0.7, 4.0)], [mpmath.mpf(v) for v in (-3, 0.5)])
        size, second, first = _phase_moments([a, b])
        entries = [(a[0][m] + b[0][n], a[1][m] + b[1][n]) for n in range(2) for m in range(3)]
        assert size == len(entries)
        for x in range(2):
            assert mpmath.almosteq(first[x], mpmath.fsum(e[x] for e in entries), 1e-50)
            for y in range(2):
                assert mpmath.almosteq(
                    second[x][y], mpmath.fsum(e[x] * e[y] for e in entries), 1e-50)


@st.composite
def scenarios(draw):
    mode, topology = draw(st.sampled_from([(m, t) for m in Mode for t in Topology]))
    m = 2 * draw(st.integers(0, 128)) + 1
    lam = draw(st.floats(0.01, 1.0))
    d_tx = lam * draw(st.floats(0.1, 2.0))
    d_rx = lam * draw(st.floats(0.1, 2.0))
    r = draw(st.floats(0.5, 1000.0))
    theta = draw(st.floats(-1.45, 1.45))
    if topology is Topology.MONOSTATIC:
        n, sep = m, 0.0
    else:
        n, sep = draw(st.integers(1, 16)), draw(st.floats(1.0, 200.0))
        if abs(sep - r) < 1e-3 * r:
            sep += 0.1 * r  # keep the target off the receive-array centre
    geom = ArrayGeometry(m, n, d_tx, d_rx, sep)
    tgt = TargetLocation(range_m=r, angle_rad=theta)
    cfg = NoiseAndPowerConfig.from_snr(draw(st.floats(-10.0, 30.0)),
                                       time_bandwidth=draw(st.floats(1.0, 64.0)))
    return geom, tgt, CarrierConfig.from_wavelength(lam), cfg, mode, topology


@settings(derandomize=True, max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_sweep_matches_oracle(scenario):
    _check(*scenario)
