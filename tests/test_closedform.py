"""Closed-form bounds: integral intermediates against the summation path,
regression anchors for every formula family, regime guards, and warnings."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CARRIER,
    SPACING,
    bi_geom,
    fresnel_distance,
    intermediate_rel_errors,
    mono_geom,
    rel_err,
    target,
)
from nfcrb.closedform import (
    AsymptoticRegime,
    IntermediateParams,
    bistatic_range_crb_minimizer,
    boresight_range_crb,
    crb_asymptotic,
    crb_closed,
    crb_farfield_upw,
    crb_taylor,
    intermediates_closed,
)
from nfcrb.errors import DomainError, SingularGeometryError
from nfcrb.fim import (
    NoiseAndPowerConfig,
    crb_exact_sum,
    intermediates_exact,
    mode_energy_scale,
)
from nfcrb.geometry import Mode, Topology

CFG = NoiseAndPowerConfig.from_snr(0.0, 1.0)
MONO, BI = Topology.MONOSTATIC, Topology.BISTATIC_NEAR_FAR_TX


# --- intermediates ---------------------------------------------------------------

def test_intermediates_converge_to_exact_sums():
    tgt = target(10.0, 0.4)
    worst = []
    for m in (9, 17, 65, 257, 1025):
        geom = mono_geom(m)
        errs = intermediate_rel_errors(
            intermediates_closed(geom, tgt, CARRIER),
            intermediates_exact(geom, tgt, CARRIER), m)
        worst.append(max(errs.values()))
    # second-order convergence in the element count
    assert all(b < a for a, b in zip(worst, worst[1:]))
    assert worst[1] < 1e-2     # M = 17 already inside the stated tolerance
    assert worst[-1] < 1e-5


def test_intermediates_boresight_symmetry():
    geom = mono_geom(65)
    ic = intermediates_closed(geom, target(18.0, 0.0), CARRIER)
    # the sign-odd terms vanish exactly at theta = 0 in the integral forms
    assert ic.angle_overlap == 0.0
    assert ic.cross_power == 0.0
    errs = intermediate_rel_errors(
        ic, intermediates_exact(geom, target(18.0, 0.0), CARRIER), 65)
    # discretization gap scales as 1/M^2, about 2.4e-4 at M = 65
    assert max(errs.values()) < 5e-4


def test_intermediates_carry_receive_terms_when_bistatic():
    geom = bi_geom(9, 8, 35.0)
    ic = intermediates_closed(geom, target(18.0, 0.3), CARRIER)
    ie = intermediates_exact(geom, target(18.0, 0.3), CARRIER)
    assert ic.rx_angle_power > 0.0
    # no integral approximation on the receive side
    assert ic.rx_angle_power == ie.rx_angle_power
    assert ic.rx_range_power == ie.rx_range_power
    assert ic.rx_cross_power == ie.rx_cross_power


def test_intermediates_guards():
    with pytest.raises(SingularGeometryError):
        intermediates_closed(mono_geom(9), target(10.0, math.pi / 2), CARRIER)
    with pytest.raises(DomainError):
        intermediates_closed(mono_geom(9), target(0.05, 0.0), CARRIER)  # eps >= 1
    with pytest.raises(DomainError):
        IntermediateParams(angle_power=-1.0, angle_overlap=0j, cross_power=0.0,
                           range_power=1.0, range_overlap=0j)


# --- theorem-level bounds ---------------------------------------------------------

def test_mono_mimo_frozen_values():
    res = crb_closed(mono_geom(65), target(18.0, 0.3), CARRIER, CFG, Mode.MIMO, MONO)
    assert res.identifiable
    assert rel_err(res.crb_theta, 1.2478904911405165e-06) < 1e-12
    assert rel_err(res.crb_range, 0.5152209329023044) < 1e-12


def test_closed_tracks_exact_sum():
    caps = {17: (5e-3, 2.5e-2), 65: (5e-4, 2.5e-3), 1025: (2e-6, 3e-6)}
    for m, (cap_t, cap_r) in caps.items():
        geom, tgt = mono_geom(m), target(5.0, -0.9)
        c = crb_closed(geom, tgt, CARRIER, CFG, Mode.MIMO, MONO)
        e = crb_exact_sum(geom, (tgt,), CARRIER, CFG, Mode.MIMO, Topology.MONOSTATIC)[0]
        assert rel_err(c.crb_theta, e.crb_theta) < cap_t
        assert rel_err(c.crb_range, e.crb_range) < cap_r


def test_phased_is_two_over_m_times_mimo():
    geom, tgt = mono_geom(129), target(10.0, 0.5)
    mimo = crb_closed(geom, tgt, CARRIER, CFG, Mode.MIMO, MONO)
    phased = crb_closed(geom, tgt, CARRIER, CFG, Mode.PHASED, MONO)
    assert phased.crb_theta == pytest.approx(mimo.crb_theta * 2.0 / 129.0, rel=1e-14)
    assert phased.crb_range == pytest.approx(mimo.crb_range * 2.0 / 129.0, rel=1e-14)


def test_bistatic_mimo_frozen_values_and_guard():
    res = crb_closed(bi_geom(65, 8, 35.0), target(18.0, 0.3), CARRIER, CFG, Mode.MIMO, BI)
    assert rel_err(res.crb_theta, 2.0230877314595216e-05) < 1e-12
    assert rel_err(res.crb_range, 1.2803914978927584) < 1e-12
    with pytest.raises(DomainError):
        crb_closed(mono_geom(9), target(10.0, 0.0), CARRIER, CFG, Mode.MIMO, BI)


def test_bistatic_phased_never_identifiable():
    res = crb_closed(bi_geom(65, 8, 35.0), target(18.0, 0.3), CARRIER, CFG, Mode.PHASED, BI)
    assert not res.identifiable
    with pytest.raises(DomainError):
        crb_closed(mono_geom(9), target(10.0, 0.0), CARRIER, CFG, Mode.PHASED, BI)


def test_dispatcher_covers_all_pairs():
    mono, bi = mono_geom(17), bi_geom(17, 8, 35.0)
    tgt = target(18.0, 0.2)
    assert crb_closed(mono, tgt, CARRIER, CFG, Mode.MIMO, Topology.MONOSTATIC).identifiable
    assert crb_closed(mono, tgt, CARRIER, CFG, Mode.PHASED, Topology.MONOSTATIC).identifiable
    assert crb_closed(bi, tgt, CARRIER, CFG, Mode.MIMO,
                      Topology.BISTATIC_NEAR_FAR_TX).identifiable
    assert not crb_closed(bi, tgt, CARRIER, CFG, Mode.PHASED,
                          Topology.BISTATIC_NEAR_FAR_TX).identifiable


def test_closed_form_single_element_unidentifiable():
    for mode in (Mode.MIMO, Mode.PHASED):
        res = crb_closed(mono_geom(1), target(10.0, 0.3), CARRIER, CFG,
                         mode, Topology.MONOSTATIC)
        assert not res.identifiable


def test_model_warnings():
    # spacing close to range
    res = crb_closed(mono_geom(9), target(0.5, 0.0), CARRIER, CFG, Mode.MIMO, MONO)
    assert any("lose accuracy" in w for w in res.warnings)
    # range close to the aperture
    res = crb_closed(mono_geom(65), target(3.0, 0.0), CARRIER, CFG, Mode.MIMO, MONO)
    assert any("strained" in w for w in res.warnings)
    # regular scenario carries none
    res = crb_closed(mono_geom(65), target(18.0, 0.3), CARRIER, CFG, Mode.MIMO, MONO)
    assert res.warnings == ()


# --- asymptotic regimes ------------------------------------------------------------

def test_large_aperture_frozen_value_and_regime_warning():
    res = crb_asymptotic(mono_geom(65), (target(18.0, 0.3),), CARRIER, CFG,
                         AsymptoticRegime.LARGE_APERTURE, Mode.MIMO, Topology.MONOSTATIC)[0]
    assert rel_err(res.crb_theta, 3.8090698088409075e-09) < 1e-12
    assert rel_err(res.crb_range, 2.919690027960027e-07) < 1e-12
    assert any("below the large-aperture regime" in w for w in res.warnings)


def test_closed_form_approaches_infinite_aperture_limit():
    th = math.pi / 6
    m = 100001
    rels = []
    for ratio in (1e3, 1e4):
        r = m * SPACING / (ratio * math.cos(th))
        geom, tgt = mono_geom(m), target(r, th)
        cl = crb_closed(geom, tgt, CARRIER, CFG, Mode.MIMO, Topology.MONOSTATIC)
        lim = crb_asymptotic(geom, (tgt,), CARRIER, CFG,
                             AsymptoticRegime.INFINITE_APERTURE,
                             Mode.MIMO, Topology.MONOSTATIC)[0]
        rels.append((rel_err(cl.crb_theta, lim.crb_theta),
                     rel_err(cl.crb_range, lim.crb_range)))
    assert rels[0][0] < 0.10 and rels[0][1] < 0.10
    assert rels[1][0] < 0.02 and rels[1][1] < 0.02
    assert rels[1][0] < rels[0][0] and rels[1][1] < rels[0][1]


def test_small_aperture_matches_scaled_plane_wave():
    m = 1025
    geom, tgt = mono_geom(m), target(5000.0, math.pi / 6)
    small = crb_asymptotic(geom, (tgt,), CARRIER, CFG, AsymptoticRegime.SMALL_APERTURE,
                           Mode.MIMO, Topology.MONOSTATIC)[0]
    upw = crb_farfield_upw(geom, (tgt,), CARRIER, CFG, Mode.MIMO, Topology.MONOSTATIC)[0]
    # identical up to the discrete-vs-continuum factor (1 - 1/M^2)
    want = 1.0 - 1.0 / (m * m)
    assert small.crb_theta / upw.crb_theta == pytest.approx(want, rel=1e-12)
    assert not small.identifiable and math.isinf(small.crb_range)


def test_infinite_aperture_boresight_warning():
    res = crb_asymptotic(mono_geom(65), (target(18.0, 0.0),), CARRIER, CFG,
                         AsymptoticRegime.INFINITE_APERTURE, Mode.MIMO,
                         Topology.MONOSTATIC)[0]
    assert res.crb_theta == 0.0
    assert any("degenerates" in w for w in res.warnings)


def test_bistatic_asymptotic_guards():
    geom = bi_geom(65, 8, 35.0)
    with pytest.raises(SingularGeometryError):
        crb_asymptotic(geom, (target(35.0, 0.0),), CARRIER, CFG,
                       AsymptoticRegime.LARGE_APERTURE, Mode.MIMO,
                       Topology.BISTATIC_NEAR_FAR_TX)[0]
    res = crb_asymptotic(geom, (target(18.0, 0.2),), CARRIER, CFG,
                         AsymptoticRegime.LARGE_APERTURE, Mode.MIMO,
                         Topology.BISTATIC_NEAR_FAR_TX)[0]
    assert any("off boresight" in w for w in res.warnings)
    assert not crb_asymptotic(geom, (target(18.0, 0.0),), CARRIER, CFG,
                              AsymptoticRegime.LARGE_APERTURE, Mode.PHASED,
                              Topology.BISTATIC_NEAR_FAR_TX)[0].identifiable


def test_asymptotic_endfire_rejected():
    with pytest.raises(SingularGeometryError):
        crb_asymptotic(mono_geom(65), (target(18.0, math.pi / 2),), CARRIER, CFG,
                       AsymptoticRegime.LARGE_APERTURE, Mode.MIMO, Topology.MONOSTATIC)[0]


# --- Taylor bounds -----------------------------------------------------------------

def test_taylor_frozen_values():
    tgt = target(10.0, math.pi / 6)
    mimo = crb_taylor(mono_geom(65), (tgt,), CARRIER, CFG, Mode.MIMO)[0]
    assert rel_err(mimo.crb_theta, 1.4973549133001509e-06) < 1e-12
    assert rel_err(mimo.crb_range, 0.07215781554497518) < 1e-12
    phased = crb_taylor(mono_geom(65), (tgt,), CARRIER, CFG, Mode.PHASED)[0]
    assert rel_err(phased.crb_theta, 4.607245887077387e-08) < 1e-12
    assert rel_err(phased.crb_range, 0.0022202404783069284) < 1e-12


def test_taylor_angle_equals_plane_wave_identically():
    for m in (3, 9, 65, 513):
        for th in (0.0, 0.3, -1.1):
            tgt = target(10.0, th)
            for mode in (Mode.MIMO, Mode.PHASED):
                tay = crb_taylor(mono_geom(m), (tgt,), CARRIER, CFG, mode)[0]
                upw = crb_farfield_upw(mono_geom(m), (tgt,), CARRIER, CFG,
                                       mode, Topology.MONOSTATIC)[0]
                assert rel_err(tay.crb_theta, upw.crb_theta) < 1e-12


def test_taylor_matches_quadratic_phase_fim_oracle():
    """The Taylor bounds must be the exact CRB of the quadratic-phase model,
    checked against a finite-difference FIM that knows nothing of the
    closed forms."""
    m_count = 15
    geom, tgt = mono_geom(m_count), target(8.0, 0.35)
    lam = CARRIER.wavelength
    root = math.sqrt(mode_energy_scale(CFG, m_count, Mode.MIMO))

    def mean(th, r, kr, ki):
        t = target(r, th)
        phases = fresnel_distance(geom.tx_indices() * geom.tx_spacing, t)
        a = np.exp(-2j * math.pi * phases / lam)
        return (kr + 1j * ki) * root * np.kron(a, a)

    base = (tgt.angle_rad, tgt.range_m, 1.0, 0.0)
    h = (1e-7, 1e-6, 1e-6, 1e-6)
    cols = []
    for i in range(4):
        up, dn = list(base), list(base)
        up[i] += h[i]
        dn[i] -= h[i]
        cols.append((mean(*up) - mean(*dn)) / (2.0 * h[i]))
    jac = np.column_stack(cols)
    fim = 2.0 * (jac.conj().T @ jac).real
    q = fim[:2, :2] - fim[:2, 2:] @ np.linalg.inv(fim[2:, 2:]) @ fim[2:, :2]
    cov = np.linalg.inv(q)

    res = crb_taylor(geom, (tgt,), CARRIER, CFG, Mode.MIMO)[0]
    assert rel_err(res.crb_theta, cov[0, 0]) < 1e-5
    assert rel_err(res.crb_range, cov[1, 1]) < 1e-5


def test_taylor_needs_three_elements():
    assert not crb_taylor(mono_geom(1), (target(10.0, 0.0),), CARRIER, CFG,
                          Mode.MIMO)[0].identifiable
    with pytest.raises(SingularGeometryError):
        crb_taylor(mono_geom(65), (target(10.0, math.pi / 2),), CARRIER, CFG, Mode.MIMO)[0]


# --- plane-wave reference ------------------------------------------------------------

def test_plane_wave_frozen_values():
    res = crb_farfield_upw(mono_geom(65), (target(18.0, 0.3),), CARRIER, CFG,
                           Mode.MIMO, Topology.MONOSTATIC)[0]
    assert rel_err(res.crb_theta, 1.230476385605047e-06) < 1e-12
    assert math.isinf(res.crb_range) and not res.identifiable
    assert any("no range information" in w for w in res.warnings)

    bi = crb_farfield_upw(bi_geom(65, 8, 35.0), (target(18.0, 0.3),), CARRIER, CFG,
                          Mode.MIMO, Topology.BISTATIC_NEAR_FAR_TX)[0]
    assert rel_err(bi.crb_theta, 1.9701399372038817e-05) < 1e-12
    assert not crb_farfield_upw(bi_geom(65, 8, 35.0), (target(18.0, 0.3),), CARRIER,
                                CFG, Mode.PHASED,
                                Topology.BISTATIC_NEAR_FAR_TX)[0].identifiable


def test_xi_correction_values_and_domain():
    # the small-aperture limit of the angle bound over the continuum
    # plane-wave bound is 1 at every angle (no aspect factor in this model).
    # Oracle: the exact-summation angle bound over the continuum plane-wave
    # bound as aperture/range falls from 1e-2 to 1e-4
    m = 1025
    geom = mono_geom(m)
    for ratio in (1e-2, 1e-3, 1e-4):
        r = m * SPACING / ratio
        for th in (0.0, math.pi / 6, math.pi / 3, -1.2):
            tgt = target(r, th)
            for mode in (Mode.MIMO, Mode.PHASED):
                exact = crb_exact_sum(geom, (tgt,), CARRIER, CFG, mode, Topology.MONOSTATIC)[0]
                assert exact.identifiable
                # discrete M(M^2-1) plane-wave bound -> continuum M^3 bound
                upw = crb_farfield_upw(geom, (tgt,), CARRIER, CFG, mode, Topology.MONOSTATIC)[0]
                continuum = upw.crb_theta * (1.0 - 1.0 / (m * m))
                assert abs(exact.crb_theta / continuum - 1.0) <= 2e-4
                small = crb_asymptotic(geom, (tgt,), CARRIER, CFG,
                                       AsymptoticRegime.SMALL_APERTURE, mode,
                                       Topology.MONOSTATIC)[0]
                assert rel_err(small.crb_theta, exact.crb_theta) <= 2e-4


# --- boresight range bound -----------------------------------------------------------

def test_boresight_minimizer_frozen_and_seed_independent():
    vals = []
    for n in (1, 8, 64):
        geom = bi_geom(9, n, 35.0)
        x, best = bistatic_range_crb_minimizer(geom, target(18.0, 0.0), CARRIER, CFG)
        vals.append(x)
        assert best == pytest.approx(
            boresight_range_crb(x, n, CARRIER.wavelength, CFG), rel=1e-12)
    # the optimal aperture-to-range ratio does not depend on the array size
    assert max(vals) - min(vals) < 1e-5
    assert vals[0] == pytest.approx(6.150283741124573, abs=1e-5)


def test_boresight_bound_guards():
    with pytest.raises(DomainError):
        boresight_range_crb(0.0, 8, CARRIER.wavelength, CFG)
    with pytest.raises(DomainError):
        bistatic_range_crb_minimizer(bi_geom(9, 8, 35.0), target(18.0, 0.1),
                                     CARRIER, CFG)


# --- run-shaped evaluators ------------------------------------------------------------

# snr_db values that reach every path: -3070 and +3000 dB take bounds past
# the float range (marked identifiable for refusal, or dropped formulas),
# -3060 dB bounds that fit only through the split prefactor
_RUN_SNR_DB = (-3070.0, -3060.0, -10.0, 0.0, 20.0, 3000.0)
_RUN_THETAS = st.one_of(
    st.floats(-math.pi / 2, math.pi / 2),
    st.sampled_from((0.0, -0.0, math.pi / 2, -math.pi / 2, 1.5707963, -1.2, 0.3)))
# 35 m is the bistatic separation, where Asymptotic raises
_RUN_RANGES = st.one_of(st.floats(1e-3, 1e6), st.sampled_from((35.0, 0.05, 10.0, 5e3)))


@st.composite
def _bound_runs(draw):
    """A mode, topology, geometry, noise config and a run of targets that
    share theta (a range sweep) or r (an angle sweep)."""
    mode, topology = draw(st.sampled_from(Mode)), draw(st.sampled_from(Topology))
    m = draw(st.sampled_from((1, 3, 9, 65, 1025)))
    geom = (bi_geom(m, draw(st.sampled_from((1, 8))), 35.0) if topology is BI
            else mono_geom(m))
    cfg = NoiseAndPowerConfig.from_snr(draw(st.sampled_from(_RUN_SNR_DB)))
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        r = draw(_RUN_RANGES)
        locations = [(draw(_RUN_THETAS), r) for _ in range(n)]
    else:
        th = draw(_RUN_THETAS)
        locations = [(th, draw(_RUN_RANGES)) for _ in range(n)]
    return mode, topology, geom, cfg, [target(r, th) for th, r in locations]


def _outcome(evaluate, targets):
    """Each result's bits, identifiability and warnings, or the error the
    evaluation raised."""
    try:
        results = evaluate(targets)
    except Exception as exc:  # the error itself is compared
        return type(exc), str(exc)
    return [(np.array([res.crb_theta, res.crb_range]).tobytes(), res.identifiable,
             res.warnings) for res in results]


def _one_by_one(evaluate, targets):
    """The one-target runs' outcomes in order, up to the first that raises."""
    out = []
    for tgt in targets:
        alone = _outcome(evaluate, (tgt,))
        if isinstance(alone, tuple):
            return alone
        out += alone
    return out


def _run_evaluators(mode, topology, geom, cfg):
    """Taylor (monostatic), FarFieldUPW and each Asymptotic regime, as
    functions of a run of targets."""
    evaluators = [lambda ts: crb_farfield_upw(geom, ts, CARRIER, cfg, mode, topology)]
    evaluators += [lambda ts, reg=reg: crb_asymptotic(geom, ts, CARRIER, cfg, reg, mode, topology)
                   for reg in AsymptoticRegime]
    if topology is MONO:
        evaluators.append(lambda ts: crb_taylor(geom, ts, CARRIER, cfg, mode))
    return evaluators


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(drawn=_bound_runs())
def test_run_evaluators_equal_their_one_target_calls(drawn):
    mode, topology, geom, cfg, targets = drawn
    for evaluate in _run_evaluators(mode, topology, geom, cfg):
        assert _outcome(evaluate, targets) == _one_by_one(evaluate, targets)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(drawn=_bound_runs())
def test_a_result_that_is_not_identifiable_holds_no_bound_to_refuse(drawn):
    # the one range rule: where gamma L takes a bound out of the normal
    # float range the result is marked identifiable, angle-only ones too, so
    # run_experiment, which checks identifiable results only, refuses it; an
    # unidentifiable result's angle bound is absent (+inf) or a normal float
    mode, topology, geom, cfg, targets = drawn
    for evaluate in _run_evaluators(mode, topology, geom, cfg):
        try:
            results = evaluate(targets)
        except (DomainError, SingularGeometryError):
            continue
        for res in results:
            if not res.identifiable:
                assert (res.crb_theta == math.inf
                        or sys.float_info.min <= res.crb_theta < math.inf), res


def test_a_formula_is_judged_at_the_prefactor_mantissa():
    # Taylor's range numerator at r = 1e77 m fits a float at prefactor 1
    # (2 gamma L = 1) but overflows at 1.9, the mantissa of this gamma L's
    # prefactor: the formula is judged at the mantissa, so the bound is
    # dropped as having left its validity region, not kept for refusal
    tgt = target(1e77, 0.3)
    unit = crb_taylor(mono_geom(9), (tgt,), CARRIER, NoiseAndPowerConfig(0.5), Mode.MIMO)[0]
    assert unit.identifiable and unit.crb_range < math.inf
    res = crb_taylor(mono_geom(9), (tgt,), CARRIER, NoiseAndPowerConfig(0.5 / 1.9), Mode.MIMO)[0]
    assert (res.crb_theta, res.crb_range, res.identifiable) == (math.inf, math.inf, False)
    assert res.warnings == ("formula left its validity region; bound dropped",)

