"""Shared constants and helpers for the test suite."""

import math
import warnings

import numpy as np

from nfcrb.experiment import ESTIMATOR_NAME
from nfcrb.fim import mode_energy_scale
from nfcrb.geometry import ArrayGeometry, CarrierConfig, Mode, TargetLocation
from nfcrb.steering import build_observation

# hypothesis reports a failing example through a module that imports
# libcst, whose import warns that mypy_extensions.TypedDict is deprecated.
# Under filterwarnings = ["error"] that warning, raised inside pytest's
# report hook, aborts the whole run with INTERNALERROR before the example
# is printed. Importing the module once here with deprecations ignored
# keeps the error gate for every other warning.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: hypothesis skips the report itself
        pass

# reference carrier used by most oracle values (wavelength pinned, not freq)
WAVELENGTH = 0.1265
CARRIER = CarrierConfig.from_wavelength(WAVELENGTH)
SPACING = 0.0628


def rel_err(value, reference):
    return abs(value - reference) / abs(reference)


def mono_geom(num_tx, spacing=SPACING):
    return ArrayGeometry(num_tx, num_tx, spacing, spacing, 0.0)


def bi_geom(num_tx, num_rx, separation, spacing=SPACING):
    return ArrayGeometry(num_tx, num_rx, spacing, spacing, separation)


def far_field_floors(num_tx):
    """Gaps between the closed forms and the element sums that no range
    removes: the midpoint (sum-to-integral) error of the far-field moments.

    With centred indices m, sum(m^2) = M(M^2-1)/12 where the closed forms
    integrate M^3/12, and the range Schur moment
    sum(m^4) - sum(m^2)^2/M = M(M^2-1)(M^2-4)/180 where they integrate
    M^5/180. Relative to the sums this gives:

    - "intermediate": closed/exact - 1 = 1/(M^2-1) for the three
      intermediates led by sum(m^2) (angle_power, angle_overlap,
      cross_power);
    - "theta": 1 - closed/exact = 1/M^2 for the angle bound, the inverse
      of the sum(m^2) information;
    - "range": 1 - closed/exact = 1 - (M^2-1)(M^2-4)/M^4 = (5M^2-4)/M^4 for
      the range bound, the inverse of the Schur moment.
    """
    m2 = float(num_tx) ** 2
    return {
        "intermediate": 1.0 / (m2 - 1.0),
        "theta": 1.0 / m2,
        "range": (5.0 * m2 - 4.0) / (m2 * m2),
    }


def intermediate_rel_errors(closed, exact, num_tx, floor=0.0):
    """Relative errors of the five transmit intermediates.

    The two overlap terms and the cross term change sign with theta and are
    exactly zero at boresight, where the summation path leaves only rounding
    residue; their errors are therefore floored against the Cauchy-Schwarz
    ceiling of each quantity so a zero-vs-residue comparison reads as zero
    error instead of blowing up.

    With floor = far_field_floors(M)["intermediate"], the three sum(m^2)-led
    intermediates are compared against the sums scaled by (1 + floor), so
    what is returned is the error beyond that floor. The scaled zero of an
    odd term at boresight stays zero, so no floor applies there.
    """
    m = float(num_tx)
    ceil_c = math.sqrt(m * exact.angle_power)
    ceil_e = math.sqrt(exact.angle_power * exact.range_power)
    ceil_q = math.sqrt(m * exact.range_power)
    lift = 1.0 + floor
    tiny = 1e-9
    return {
        "angle_power": abs(closed.angle_power - lift * exact.angle_power) / exact.angle_power,
        "angle_overlap": abs(closed.angle_overlap - lift * exact.angle_overlap)
        / max(abs(exact.angle_overlap), tiny * ceil_c),
        "cross_power": abs(closed.cross_power - lift * exact.cross_power)
        / max(abs(exact.cross_power), tiny * ceil_e),
        "range_power": abs(closed.range_power - exact.range_power) / exact.range_power,
        "range_overlap": abs(closed.range_overlap - exact.range_overlap)
        / max(abs(exact.range_overlap), tiny * ceil_q),
    }


def target(range_m, angle_rad):
    return TargetLocation(range_m=range_m, angle_rad=angle_rad)


def transmit_response(geom, tgt, carrier=CARRIER):
    """The transmit factor a at one location, with its phase derivatives
    (orthogonal waveforms observe it on every geometry)."""
    return build_observation(geom, tgt, carrier, Mode.MIMO).a


def receive_response(geom, tgt, carrier=CARRIER):
    """The far-field receive factor b at one location of a bistatic
    geometry, with its phase derivatives (beamformed bistatic data carry b
    alone)."""
    return build_observation(geom, tgt, carrier, Mode.PHASED).b


def factor_partials(factor, range_constant=0.0):
    """Complex partials j (psi + c) values of a factor with respect to theta
    and r, where c = (0, range_constant) restores the phase derivative's
    common part that psi leaves out (-2 pi/lambda for the transmit range)."""
    d_theta = 1j * factor.psi[0] * factor.values
    d_range = 1j * (factor.psi[1] + range_constant) * factor.values
    return d_theta, d_range


def fresnel_distance(md, tgt):
    """Second-order (Fresnel) approximation of the distance from the
    transmit element at offset md to the target."""
    r, th = tgt.range_m, tgt.angle_rad
    return r + (md * math.cos(th)) ** 2 / (2.0 * r) - md * math.sin(th)


def range_constants(obs, geom, carrier=CARRIER):
    """The constants (c_a, c_b) that the range rows of obs.a and obs.b, an
    observation on geom, leave out: -2 pi/lambda for a transmit factor, 0
    otherwise. Only beamformed bistatic data have no transmit factor."""
    k_tx = -2.0 * math.pi / carrier.wavelength
    has_tx = obs.mode is Mode.MIMO or geom.is_monostatic
    return (k_tx if has_tx else 0.0), (k_tx if obs.b is obs.a else 0.0)


def kron_partials(obs, geom, carrier=CARRIER):
    """Partials of the Kronecker observation g = b (x) a on geom with respect
    to theta and r, by the product rule over the two factors."""
    c_a, c_b = range_constants(obs, geom, carrier)
    a_th, a_r = factor_partials(obs.a, c_a)
    b_th, b_r = factor_partials(obs.b, c_b)
    g_theta = np.kron(b_th, obs.a.values) + np.kron(obs.b.values, a_th)
    g_range = np.kron(b_r, obs.a.values) + np.kron(obs.b.values, a_r)
    return g_theta, g_range


def kron_fim_oracle(obs, geom, cfg, carrier=CARRIER):
    """The brute-force FIM over the length-M*N observation on geom: the
    Jacobian of w = kappa rho g at kappa = 1 as columns of the Kronecker
    vectors, then (2/N0) Re{J^H J} at N0 = 1, and the Schur complement of
    its amplitude block."""
    root = math.sqrt(mode_energy_scale(cfg, obs.tx_array_size, obs.mode))
    g_theta, g_range = kron_partials(obs, geom, carrier)
    jac = np.column_stack([
        root * g_theta, root * g_range, root * obs.g, 1j * root * obs.g,
    ])
    f = 2.0 * (jac.conj().T @ jac).real
    f = 0.5 * (f + f.T)
    return f, schur_complement(f)


def schur_complement(f):
    """Angle/range block of a 4x4 FIM with the amplitude block projected out."""
    return f[:2, :2] - f[:2, 2:] @ np.linalg.inv(f[2:, 2:]) @ f[2:, :2]


def _oracle_fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _oracle_cell(text: str) -> str:
    if any(ch in text for ch in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def table_rows(table) -> list:
    """One dict per (sweep point x method) of a SweepTable, in sweep order,
    keyed and ordered by the CSV columns (crb values linear); a Monte Carlo
    report is repeated on each method row of its point."""
    cfg, rows, i = table.cfg, [], 0
    for run in table.runs:
        geom, ncfg = run.geometry, run.noise
        for tgt in run.targets:
            point = {
                "mode": cfg.mode.value, "topology": cfg.topology.value,
                "M": geom.num_tx, "N": geom.num_rx, "d_tx_m": geom.tx_spacing,
                "d_rx_m": geom.rx_spacing, "R_m": geom.array_separation,
                "theta_rad": tgt.angle_rad, "r_m": tgt.range_m,
                "snr_db": ncfg.snr_db, "L": ncfg.time_bandwidth,
            }
            rep = table.reports[i] if table.reports is not None else None
            mc = {} if rep is None else {
                "rmse_theta_rad": rep.rmse_theta, "rmse_range_m": rep.rmse_range,
                "trials": rep.trials, "estimator": ESTIMATOR_NAME,
                "master_seed": rep.master_seed,
            }
            for method, results in zip(cfg.methods, table.results):
                res = results[i]
                rows.append({
                    "method": method.value, **point,
                    "crb_theta_rad2": res.crb_theta, "crb_r_m2": res.crb_range,
                    "identifiable": res.identifiable,
                    "warnings": "; ".join(run.note + res.warnings), **mc,
                })
            i += 1
    return rows


def csv_text_oracle(table, db=False):
    """The CSV renderer as it was before its per-type fast path: every cell
    of the table's rows (table_rows) through one isinstance chain and one
    generic quote scan. csv_text must give the same bytes. The header
    counts the points the rows hold, one row per point and method."""
    from nfcrb.experiment import BASE_COLUMNS, MC_COLUMNS, _db_of

    cfg, rows = table.cfg, table_rows(table)
    cols = list(BASE_COLUMNS) + (list(MC_COLUMNS) if cfg.montecarlo else [])
    if db:
        cols[cols.index("crb_theta_rad2")] = "crb_theta_db"
        cols[cols.index("crb_r_m2")] = "crb_r_db"
    out = [
        "# near-field angle/range CRB sweep\n",
        f"# mode={cfg.mode.value} topology={cfg.topology.value} "
        f"axis={cfg.sweep.axis} points={len(rows) // len(cfg.methods)}\n",
        f"# methods={','.join(m.value for m in cfg.methods)}\n",
        "# units: theta_rad in radians (CLI angles are degrees); "
        "crb_theta in rad^2, crb_r in m^2"
        + (", both emitted as 10*log10" if db else "") + "\n",
    ]
    if cfg.montecarlo:
        mc = cfg.montecarlo
        out.append(
            f"# montecarlo: estimator={ESTIMATOR_NAME} trials={mc.trials} "
            f"master_seed={mc.master_seed} "
            f"grid={mc.theta_points}x{mc.range_points} "
            f"(theta +-{_oracle_fmt(mc.theta_halfspan_deg)} deg, "
            f"r +-{_oracle_fmt(100.0 * mc.range_span_frac)}%) "
            f"refine_levels={mc.refine_levels}\n"
        )
    out.append(",".join(cols) + "\n")
    for row in rows:
        vals = dict(row)
        if db:
            vals["crb_theta_rad2"] = _db_of(vals["crb_theta_rad2"])
            vals["crb_r_m2"] = _db_of(vals["crb_r_m2"])
        out.append(",".join(_oracle_cell(_oracle_fmt(vals[k])) for k in row) + "\n")
    return "".join(out)
