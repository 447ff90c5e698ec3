"""Sweep configuration, figure presets, and CSV emission.

Configs live in a flat INI file with four sections: [scenario] (array,
target, carrier, power), [sweep] (one axis: M | theta | r | snr_db),
[methods] (bound evaluators to run per point), and an optional [montecarlo]
block. Angles are degrees at this layer; emitted CSV stores radians.
Output is deterministic: the same config and seed give byte-identical CSV.
"""

import configparser
import itertools
import math
import sys
from dataclasses import dataclass

from .closedform import (
    AsymptoticRegime,
    crb_asymptotic,
    crb_closed,
    crb_farfield_upw,
    crb_taylor,
)
from .errors import ConfigError, NfcrbError
from .estimator import GridSpec, ObservationGridBuilder, monte_carlo_rmse
from .fim import CrbMethod, NoiseAndPowerConfig, crb_exact_sum, crb_from_fim, fim_numeric
from .geometry import (
    ArrayGeometry,
    CarrierConfig,
    Mode,
    SensingScenario,
    TargetLocation,
    Topology,
)
from .steering import build_observation

# sweeps longer than this are refused before any point is generated; the
# largest preset has 61 points
MAX_SWEEP_POINTS = 10_000

# points with more transmit or receive elements than this are refused before
# any point is evaluated when a per-element method runs. Measured tracemalloc
# peaks at M = 100 001 and 1 000 001, every mode/topology with a transmit
# factor: under 89 B per element for ExactSum or NumericalFim, one location
# or a run of them (89 MB at this cap). The Monte Carlo search holds coarse
# factors of ObservationGridBuilder.location_bytes per grid location, read
# from the kernel's layout (362 MB for fig8 at M=1025, N=8 on a 181x121
# grid), refused above MAX_COARSE_FACTOR_BYTES. The closed forms are O(1)
# in M.
MAX_ELEMENTS = 1_000_001
MAX_COARSE_FACTOR_BYTES = 2 * 2**30
_PER_ELEMENT_METHODS = frozenset((CrbMethod.EXACT_SUM.value, CrbMethod.NUMERICAL_FIM.value))

METHOD_NAMES = tuple(m.value for m in CrbMethod)
SWEEP_AXES = ("M", "theta", "r", "snr_db")
REGIME_NAMES = tuple(r.value for r in AsymptoticRegime)
ESTIMATOR_NAME = "MatchedFieldML"

BASE_COLUMNS = (
    "method", "mode", "topology", "M", "N", "d_tx_m", "d_rx_m", "R_m",
    "theta_rad", "r_m", "snr_db", "L", "crb_theta_rad2", "crb_r_m2",
    "identifiable", "warnings",
)
MC_COLUMNS = ("rmse_theta_rad", "rmse_range_m", "trials", "estimator", "master_seed")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep axis, specified as an explicit value list, an arithmetic
    start/stop/step progression, or a geometric start/stop/factor one."""

    axis: str
    values: tuple | None = None
    start: float | None = None
    stop: float | None = None
    step: float | None = None
    factor: float | None = None

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ConfigError(
                f"sweep.axis must be one of {', '.join(SWEEP_AXES)} (got {self.axis!r})"
            )
        forms = (self.values is not None, self.step is not None, self.factor is not None)
        if sum(forms) != 1:
            raise ConfigError(
                "sweep needs exactly one of: values, start/stop/step, start/stop/factor"
            )
        if self.values is None and (self.start is None or self.stop is None):
            raise ConfigError("sweep start and stop are required with step or factor")
        given = self.values if self.values is not None else (
            self.start, self.stop, self.step, self.factor)
        if not all(math.isfinite(v) for v in given if v is not None):
            raise ConfigError("sweep values must be finite")
        if self.step is not None:
            if self.step == 0.0 or (self.stop - self.start) * self.step < 0.0:
                raise ConfigError("sweep.step must move start toward stop")
        if self.factor is not None:
            if self.start <= 0.0 or self.stop <= 0.0:
                raise ConfigError("geometric sweeps need positive start and stop")
            ascending = self.stop >= self.start
            if self.factor <= 0.0 or (self.factor <= 1.0 if ascending else self.factor >= 1.0):
                raise ConfigError("sweep.factor must move start toward stop")
        if self.values is not None and not self.values:
            raise ConfigError("sweep.values lists no points")
        if self._span() >= MAX_SWEEP_POINTS:
            raise ConfigError(f"sweep has more than {MAX_SWEEP_POINTS} points")

    def _span(self) -> float:
        """The number of points less one, in closed form (to within one)."""
        if self.values is not None:
            return len(self.values) - 1
        if self.step is not None:
            return (self.stop - self.start) / self.step
        return (math.log(self.stop) - math.log(self.start)) / math.log(self.factor)

    def points(self) -> tuple:
        if self.values is not None:
            return tuple(self.values)
        pts = []
        if self.step is not None:
            v, k = self.start, 0
            tol = abs(self.step) * 1e-9
            while (v <= self.stop + tol) if self.step > 0 else (v >= self.stop - tol):
                pts.append(v)
                k += 1
                v = self.start + k * self.step
        else:
            v = self.start
            up = self.factor > 1.0
            while (v <= self.stop * (1 + 1e-9)) if up else (v >= self.stop * (1 - 1e-9)):
                pts.append(v)
                v *= self.factor
        return tuple(pts)


@dataclass(frozen=True)
class MonteCarloConfig:
    estimator: str
    trials: int
    master_seed: int
    theta_halfspan_deg: float = 5.0
    theta_points: int = 181
    range_span_frac: float = 0.2
    range_points: int = 121
    refine_levels: int = 3

    def __post_init__(self):
        if self.estimator != ESTIMATOR_NAME:
            raise ConfigError(f"montecarlo.estimator must be {ESTIMATOR_NAME}")
        if self.trials < 1:
            raise ConfigError("montecarlo.trials must be >= 1")
        if self.master_seed < 0:
            raise ConfigError("montecarlo.master_seed must be >= 0")
        # GridSpec.around clips a finite span to the domain, but a NaN or
        # infinite one would pass through its max/min unchecked
        for name in ("theta_halfspan_deg", "range_span_frac"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ConfigError(f"montecarlo.{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Scenario scalars plus one sweep; everything the CSV emitter needs."""

    num_tx: int
    num_rx: int
    tx_spacing_m: float
    rx_spacing_m: float
    separation_m: float
    target_range_m: float
    target_angle_deg: float
    carrier_freq_hz: float
    snr_db: float
    time_bandwidth: float
    mode: Mode
    topology: Topology
    sweep: SweepSpec
    methods: tuple
    asymptotic_regime: str = "LargeAperture"
    montecarlo: MonteCarloConfig | None = None

    def __post_init__(self):
        if not self.methods:
            raise ConfigError("methods.use must list at least one method")
        seen = set()
        for m in self.methods:
            if m not in METHOD_NAMES:
                raise ConfigError(
                    f"unknown method {m!r}; valid: {', '.join(METHOD_NAMES)}"
                )
            if m in seen:
                raise ConfigError(f"method {m!r} listed twice")
            seen.add(m)
        if self.asymptotic_regime not in REGIME_NAMES:
            raise ConfigError(
                f"asymptotic_regime must be one of {', '.join(REGIME_NAMES)}"
            )
        if CrbMethod.TAYLOR.value in self.methods and self.topology is not Topology.MONOSTATIC:
            raise ConfigError("the Taylor method applies to monostatic sensing only")
        if self.topology is Topology.MONOSTATIC and self.separation_m != 0.0:
            raise ConfigError("monostatic topology requires separation_m = 0")
        if self.topology is not Topology.MONOSTATIC and self.separation_m <= 0.0:
            raise ConfigError("bistatic topology requires separation_m > 0")


def _round_odd(m: int):
    if m < 1:
        raise ConfigError(f"num_tx must be >= 1, got {m}")
    if m % 2 == 1:
        return m, ()
    return m + 1, (f"num_tx {m} is even; rounded up to {m + 1}",)


def _carrier_in_range(g: ArrayGeometry, carrier: CarrierConfig) -> bool:
    """Whether lambda^2 (the closed forms divide by it) and, unless the arrays
    have no extent, (k^2 sum (n d)^2)^2 over both arrays are normal floats:
    that sum sets the size of an information entry, and the 2x2
    determinant multiplies two of them."""
    lam2 = carrier.wavelength * carrier.wavelength
    moment = (g.num_tx * (g.num_tx * g.num_tx - 1) * g.tx_spacing * g.tx_spacing
              + g.num_rx * (g.num_rx * g.num_rx - 1) * g.rx_spacing * g.rx_spacing) / 12.0
    info = 4.0 * math.pi ** 2 / lam2 * moment if lam2 > 0.0 else math.inf
    return (sys.float_info.min <= lam2 < math.inf
            and (moment == 0.0 or sys.float_info.min <= info * info < math.inf))


def _check_geometry(cfg: ExperimentConfig, geom: ArrayGeometry, carrier: CarrierConfig,
                    where: str):
    """The checks that depend on a point's geometry only: carrier range,
    element cap and Monte Carlo coarse-factor budget."""
    if not _carrier_in_range(geom, carrier):
        raise ConfigError(
            f"{where}: carrier_freq_hz = {cfg.carrier_freq_hz!r} is out of range: the "
            "bounds need lambda^2 and (k^2 sum (n d)^2)^2 normal floats")
    mc = cfg.montecarlo
    per_element = mc is not None or not _PER_ELEMENT_METHODS.isdisjoint(cfg.methods)
    if per_element and max(geom.num_tx, geom.num_rx) > MAX_ELEMENTS:
        raise ConfigError(
            f"{where}: {geom.num_tx} transmit / {geom.num_rx} receive elements exceed "
            f"{MAX_ELEMENTS} for ExactSum, NumericalFim or Monte Carlo")
    coarse = (ObservationGridBuilder(geom, carrier, cfg.mode, cfg.topology).location_bytes
              * mc.theta_points * mc.range_points) if mc else 0
    if coarse > MAX_COARSE_FACTOR_BYTES:
        raise ConfigError(f"{where}: the Monte Carlo coarse factor needs {coarse} B, "
                          f"over {MAX_COARSE_FACTOR_BYTES} B")


def validate_config(cfg: ExperimentConfig) -> list:
    """Materialize every sweep point up front so bad values fail as config
    errors before any output is produced.

    Returns the points' (scenario, noise_cfg, warnings) triples in sweep
    order. Each distinct geometry (one per M after rounding), the carrier
    and each distinct noise config (one per snr_db) is built once and
    shared by every point that has it. Even transmit counts of 2 or more
    round up to the next odd integer so the symmetric-index layout holds,
    with a warning on that point, and a count below 1 is refused before
    rounding; monostatic scenarios receive on the transmit array, so N is
    forced to M there. Each geometry is checked once (_check_geometry).
    """
    axis = cfg.sweep.axis
    mono = cfg.topology is Topology.MONOSTATIC
    geoms, noises, carrier = {}, {}, None
    points = []
    for v in cfg.sweep.points():
        num_tx, angle_deg, range_m, snr_db = (
            cfg.num_tx, cfg.target_angle_deg, cfg.target_range_m, cfg.snr_db)
        if axis == "M":
            if float(v) != int(v):
                raise ConfigError(f"sweep value {v!r} is not an integer M")
            num_tx = int(v)
        elif axis == "theta":
            angle_deg = float(v)
        elif axis == "r":
            range_m = float(v)
        else:
            snr_db = float(v)
        num_tx, warns = _round_odd(num_tx)
        try:
            geom = geoms.get(num_tx)
            new_geom = geom is None
            if new_geom:
                geom = geoms[num_tx] = ArrayGeometry(
                    num_tx=num_tx,
                    num_rx=num_tx if mono else cfg.num_rx,
                    tx_spacing=cfg.tx_spacing_m,
                    rx_spacing=cfg.rx_spacing_m,
                    array_separation=cfg.separation_m,
                )
            tgt = TargetLocation(range_m=range_m, angle_rad=math.radians(angle_deg))
            carrier = carrier or CarrierConfig(carrier_freq=cfg.carrier_freq_hz)
            ncfg = noises.get(snr_db)
            if ncfg is None:
                ncfg = noises[snr_db] = NoiseAndPowerConfig.from_snr(
                    snr_db, time_bandwidth=cfg.time_bandwidth)
            scn = SensingScenario(geom, tgt, carrier, cfg.mode, cfg.topology)
        except ConfigError:
            raise
        except NfcrbError as exc:
            raise ConfigError(f"sweep point {axis}={v!r}: {exc}") from exc
        if new_geom:
            _check_geometry(cfg, geom, carrier, f"sweep point {axis}={v!r}")
        points.append((scn, ncfg, warns))
    return points


def _eval_method(method: CrbMethod, targets, scn: SensingScenario,
                 ncfg: NoiseAndPowerConfig, regime: str) -> list:
    """One result per target of a run: points that share scn's geometry,
    carrier, mode and topology and the noise config ncfg."""
    # evaluators are looked up as module globals at call time, so that a
    # wrapper installed on a module binding (a tracer) sees every call
    g, c, mode, topology = scn.geometry, scn.carrier, scn.mode, scn.topology
    if method is CrbMethod.EXACT_SUM:
        return crb_exact_sum(g, targets, c, ncfg, mode, topology)
    if method is CrbMethod.CLOSED_FORM:
        return [crb_closed(g, t, c, ncfg, mode, topology) for t in targets]
    if method is CrbMethod.NUMERICAL_FIM:
        return [crb_from_fim(fim_numeric(build_observation(g, t, c, mode, topology), ncfg))
                for t in targets]
    if method is CrbMethod.ASYMPTOTIC:
        reg = AsymptoticRegime(regime)
        return [crb_asymptotic(g, t, c, ncfg, reg, mode, topology) for t in targets]
    if method is CrbMethod.TAYLOR:
        return [crb_taylor(g, t, c, ncfg, mode) for t in targets]
    return [crb_farfield_upw(g, t, c, ncfg, mode, topology) for t in targets]


def _run_key(point) -> tuple:
    # validate_config shares one geometry and one noise object among the
    # points that have them, so a run is found by identity
    scn, ncfg, _ = point
    return id(scn.geometry), id(ncfg)


def _run_point_mc(cfg: ExperimentConfig, scn: SensingScenario, ncfg: NoiseAndPowerConfig):
    mc = cfg.montecarlo
    grid = GridSpec.around(
        scn.target,
        theta_halfspan_deg=mc.theta_halfspan_deg,
        theta_points=mc.theta_points,
        range_span_frac=mc.range_span_frac,
        range_points=mc.range_points,
        refine_levels=mc.refine_levels,
    )
    return monte_carlo_rmse(scn, ncfg, grid, trials=mc.trials, master_seed=mc.master_seed)


@dataclass(frozen=True)
class SweepTable:
    """What one sweep computed: validate_config's points, one CrbResult list
    per cfg.methods entry (a result per point), and one RmseReport per point
    when Monte Carlo runs (else None). Rows and cells are formed only on
    read: rows() for callers that want dicts, csv_text for the file."""

    cfg: ExperimentConfig
    points: list
    results: list
    reports: list | None = None

    def rows(self) -> list:
        """One dict per (sweep point x method), in sweep order, keyed and
        ordered by the CSV columns (crb values linear); a Monte Carlo report
        is repeated on each method row of its point."""
        cfg, rows = self.cfg, []
        for i, (scn, ncfg, warns) in enumerate(self.points):
            geom, tgt = scn.geometry, scn.target
            point = {
                "mode": cfg.mode.value, "topology": cfg.topology.value,
                "M": geom.num_tx, "N": geom.num_rx, "d_tx_m": geom.tx_spacing,
                "d_rx_m": geom.rx_spacing, "R_m": geom.array_separation,
                "theta_rad": tgt.angle_rad, "r_m": tgt.range_m,
                "snr_db": ncfg.snr_db, "L": ncfg.time_bandwidth,
            }
            rep = self.reports[i] if self.reports is not None else None
            mc = {} if rep is None else {
                "rmse_theta_rad": rep.rmse_theta, "rmse_range_m": rep.rmse_range,
                "trials": rep.trials, "estimator": cfg.montecarlo.estimator,
                "master_seed": rep.master_seed,
            }
            for name, results in zip(cfg.methods, self.results):
                res = results[i]
                rows.append({
                    "method": name, **point,
                    "crb_theta_rad2": res.crb_theta, "crb_r_m2": res.crb_range,
                    "identifiable": res.identifiable,
                    "warnings": "; ".join(warns + res.warnings), **mc,
                })
        return rows


def run_experiment(cfg: ExperimentConfig) -> SweepTable:
    """Evaluate every method at every sweep point.

    Each method is evaluated once per run: consecutive points that share
    one geometry and one noise object (validate_config builds each once).
    Monte Carlo, when configured, runs once per sweep point.
    """
    points = validate_config(cfg)
    methods = [CrbMethod(name) for name in cfg.methods]
    results = [[] for _ in methods]
    reports = [] if cfg.montecarlo else None
    for _, run in itertools.groupby(points, _run_key):
        run = list(run)
        scn, ncfg, _ = run[0]
        if reports is not None:
            reports += [_run_point_mc(cfg, s, n) for s, n, _ in run]
        targets = [s.target for s, _, _ in run]
        for method, out in zip(methods, results):
            out += _eval_method(method, targets, scn, ncfg, cfg.asymptotic_regime)
    return SweepTable(cfg, points, results, reports)


def _text_cell(text: str) -> str:
    # RFC 4180: a cell holding a comma, a quote or a newline is quoted
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _scenario_cells(points) -> list:
    """The M .. L cells of each point, one string per point; a run's
    geometry cells are formatted once."""
    cells, geom, geom_cells = [], None, ""
    for scn, ncfg, _ in points:
        if scn.geometry is not geom:
            geom = scn.geometry
            geom_cells = (f"{geom.num_tx},{geom.num_rx},{geom.tx_spacing:.17g},"
                          f"{geom.rx_spacing:.17g},{geom.array_separation:.17g}")
        tgt = scn.target
        cells.append(f"{geom_cells},{tgt.angle_rad:.17g},{tgt.range_m:.17g},"
                     f"{ncfg.snr_db:.17g},{ncfg.time_bandwidth:.17g}")
    return cells


def _mc_cells(cfg: ExperimentConfig, reports) -> list:
    """The Monte Carlo cells of each point, each with its leading comma."""
    est = cfg.montecarlo.estimator
    return [f",{rep.rmse_theta:.17g},{rep.rmse_range:.17g},{rep.trials},{est},"
            f"{rep.master_seed}" for rep in reports]


_BOOL_TEXT = ("false", "true")


def csv_text(cfg: ExperimentConfig, table: SweepTable, db: bool = False) -> str:
    """Render a SweepTable as CSV with self-describing '#' header comments.

    Comment lines carry the sweep and grid description so the file stands
    alone; they contain nothing run-dependent, keeping output byte-stable.
    With db=True the CRB columns switch to 10*log10 values and the _db
    column names. Cells are formatted by column type: floats as .17g, ints
    and the fixed names as they are, and the free-text warnings column is
    the one that can need RFC 4180 quoting.
    """
    cols = list(BASE_COLUMNS) + (list(MC_COLUMNS) if cfg.montecarlo else [])
    if db:
        cols[cols.index("crb_theta_rad2")] = "crb_theta_db"
        cols[cols.index("crb_r_m2")] = "crb_r_db"

    lines = [
        "# near-field angle/range CRB sweep",
        f"# mode={cfg.mode.value} topology={cfg.topology.value} "
        f"axis={cfg.sweep.axis} points={len(cfg.sweep.points())}",
        f"# methods={','.join(cfg.methods)}",
        "# units: theta_rad in radians (CLI angles are degrees); "
        "crb_theta in rad^2, crb_r in m^2" + (", both emitted as 10*log10" if db else ""),
    ]
    if cfg.montecarlo:
        mc = cfg.montecarlo
        lines.append(
            f"# montecarlo: estimator={mc.estimator} trials={mc.trials} "
            f"master_seed={mc.master_seed} "
            f"grid={mc.theta_points}x{mc.range_points} "
            f"(theta +-{mc.theta_halfspan_deg:.17g} deg, "
            f"r +-{100.0 * mc.range_span_frac:.17g}%) "
            f"refine_levels={mc.refine_levels}"
        )
    lines.append(",".join(cols))

    heads = [f"{name},{cfg.mode.value},{cfg.topology.value}," for name in cfg.methods]
    tails = (_mc_cells(cfg, table.reports) if table.reports is not None
             else itertools.repeat(""))
    for i, (cells, (_, _, warns), tail) in enumerate(
            zip(_scenario_cells(table.points), table.points, tails)):
        for head, results in zip(heads, table.results):
            res = results[i]
            theta, rng = res.crb_theta, res.crb_range
            if db:
                theta, rng = _db_of(theta), _db_of(rng)
            notes = _text_cell("; ".join(warns + res.warnings))
            lines.append(f"{head}{cells},{theta:.17g},{rng:.17g},"
                         f"{_BOOL_TEXT[res.identifiable]},{notes}{tail}")
    lines.append("")
    return "\n".join(lines)


def _db_of(x: float) -> float:
    if x == math.inf:
        return math.inf
    if x <= 0.0:
        return -math.inf
    return 10.0 * math.log10(x)


# --- INI parsing / serialization -------------------------------------------

_SCENARIO_KEYS = {
    "num_tx": int, "num_rx": int, "tx_spacing_m": float, "rx_spacing_m": float,
    "separation_m": float, "target_range_m": float, "target_angle_deg": float,
    "carrier_freq_hz": float, "snr_db": float, "time_bandwidth": float,
    "mode": str, "topology": str,
}
_SCENARIO_DEFAULTS = {
    "num_rx": 1, "tx_spacing_m": 0.0628, "rx_spacing_m": 0.0628,
    "separation_m": 0.0, "carrier_freq_hz": 2.37e9, "snr_db": 0.0,
    "time_bandwidth": 1.0, "mode": "mimo", "topology": "monostatic",
}
_SWEEP_KEYS = {"axis": str, "values": str, "start": float, "stop": float,
               "step": float, "factor": float}
_METHODS_KEYS = {"use": str, "asymptotic_regime": str}
_MC_KEYS = {
    "enabled": bool, "estimator": str, "trials": int, "master_seed": int,
    "theta_halfspan_deg": float, "theta_points": int, "range_span_frac": float,
    "range_points": int, "refine_levels": int,
}
_SECTIONS = {"scenario": _SCENARIO_KEYS, "sweep": _SWEEP_KEYS,
             "methods": _METHODS_KEYS, "montecarlo": _MC_KEYS}


def _typed(section: str, key: str, raw: str, kind):
    try:
        if kind is bool:
            lowered = raw.strip().lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
            raise ValueError(raw)
        return kind(raw.strip())
    except ValueError as exc:
        raise ConfigError(
            f"[{section}] {key} = {raw!r} is not a valid {kind.__name__}"
        ) from exc


def _section_dict(parser: configparser.ConfigParser, name: str) -> dict:
    if not parser.has_section(name):
        return {}
    keys = _SECTIONS[name]
    out = {}
    for key, raw in parser.items(name):
        if key not in keys:
            raise ConfigError(f"unknown key [{name}] {key}")
        out[key] = _typed(name, key, raw, keys[key])
    return out


def _parse_sweep_values(raw: str) -> tuple:
    vals = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            vals.append(int(tok))
        except ValueError:
            try:
                vals.append(float(tok))
            except ValueError as exc:
                raise ConfigError(f"[sweep] values entry {tok!r} is not a number") from exc
    return tuple(vals)


def config_from_parser(parser: configparser.ConfigParser) -> ExperimentConfig:
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
    scenario = dict(_SCENARIO_DEFAULTS)
    scenario.update(_section_dict(parser, "scenario"))
    for required in ("num_tx", "target_range_m", "target_angle_deg"):
        if required not in scenario:
            raise ConfigError(f"[scenario] {required} is required")
    try:
        mode = Mode(scenario["mode"])
    except ValueError:
        raise ConfigError("[scenario] mode must be mimo or phased")
    try:
        topology = Topology(scenario["topology"])
    except ValueError:
        raise ConfigError("[scenario] topology must be monostatic or bistatic")

    sweep_raw = _section_dict(parser, "sweep")
    if "axis" not in sweep_raw:
        raise ConfigError("[sweep] axis is required")
    values = None
    if "values" in sweep_raw:
        values = _parse_sweep_values(sweep_raw["values"])
    sweep = SweepSpec(
        axis=sweep_raw["axis"],
        values=values,
        start=sweep_raw.get("start"),
        stop=sweep_raw.get("stop"),
        step=sweep_raw.get("step"),
        factor=sweep_raw.get("factor"),
    )

    methods_raw = _section_dict(parser, "methods")
    if "use" not in methods_raw:
        raise ConfigError("[methods] use is required")
    methods = tuple(m.strip() for m in methods_raw["use"].split(",") if m.strip())
    regime = methods_raw.get("asymptotic_regime", "LargeAperture")

    mc = None
    mc_raw = _section_dict(parser, "montecarlo")
    if mc_raw and mc_raw.get("enabled", True):
        mc_raw.pop("enabled", None)
        for required in ("estimator", "trials", "master_seed"):
            if required not in mc_raw:
                raise ConfigError(f"[montecarlo] {required} is required")
        mc = MonteCarloConfig(**mc_raw)

    return ExperimentConfig(
        num_tx=scenario["num_tx"],
        num_rx=scenario["num_rx"],
        tx_spacing_m=scenario["tx_spacing_m"],
        rx_spacing_m=scenario["rx_spacing_m"],
        separation_m=scenario["separation_m"],
        target_range_m=scenario["target_range_m"],
        target_angle_deg=scenario["target_angle_deg"],
        carrier_freq_hz=scenario["carrier_freq_hz"],
        snr_db=scenario["snr_db"],
        time_bandwidth=scenario["time_bandwidth"],
        mode=mode,
        topology=topology,
        sweep=sweep,
        methods=methods,
        asymptotic_regime=regime,
        montecarlo=mc,
    )


def apply_overrides(parser: configparser.ConfigParser, overrides):
    """Apply --set section.key=value pairs onto a parsed config."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set needs section.key=value (got {item!r})")
        target, value = item.split("=", 1)
        if "." not in target:
            raise ConfigError(f"--set needs section.key=value (got {item!r})")
        section, key = target.split(".", 1)
        section, key = section.strip(), key.strip()
        if section not in _SECTIONS:
            raise ConfigError(f"--set: unknown section [{section}]")
        if key not in _SECTIONS[section]:
            raise ConfigError(f"--set: unknown key [{section}] {key}")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value.strip())


def parse_config_text(text: str, overrides=()) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from exc
    apply_overrides(parser, overrides)
    return config_from_parser(parser)


def parse_config_file(path, overrides=()) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read(), overrides)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _ini_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def serialize_config(cfg: ExperimentConfig) -> str:
    """INI text that parses back to an identical ExperimentConfig."""
    lines = ["[scenario]"]
    scen = {
        "num_tx": cfg.num_tx, "num_rx": cfg.num_rx,
        "tx_spacing_m": cfg.tx_spacing_m, "rx_spacing_m": cfg.rx_spacing_m,
        "separation_m": cfg.separation_m, "target_range_m": cfg.target_range_m,
        "target_angle_deg": cfg.target_angle_deg,
        "carrier_freq_hz": cfg.carrier_freq_hz, "snr_db": cfg.snr_db,
        "time_bandwidth": cfg.time_bandwidth, "mode": cfg.mode.value,
        "topology": cfg.topology.value,
    }
    lines += [f"{k} = {_ini_value(v)}" for k, v in scen.items()]
    lines += ["", "[sweep]", f"axis = {cfg.sweep.axis}"]
    if cfg.sweep.values is not None:
        lines.append("values = " + ", ".join(_ini_value(v) for v in cfg.sweep.values))
    else:
        lines.append(f"start = {_ini_value(cfg.sweep.start)}")
        lines.append(f"stop = {_ini_value(cfg.sweep.stop)}")
        if cfg.sweep.step is not None:
            lines.append(f"step = {_ini_value(cfg.sweep.step)}")
        else:
            lines.append(f"factor = {_ini_value(cfg.sweep.factor)}")
    lines += ["", "[methods]",
              "use = " + ", ".join(cfg.methods),
              f"asymptotic_regime = {cfg.asymptotic_regime}"]
    if cfg.montecarlo is not None:
        mc = cfg.montecarlo
        lines += ["", "[montecarlo]", "enabled = true"]
        for k in ("estimator", "trials", "master_seed", "theta_halfspan_deg",
                  "theta_points", "range_span_frac", "range_points",
                  "refine_levels"):
            lines.append(f"{k} = {_ini_value(getattr(mc, k))}")
    return "\n".join(lines) + "\n"


# --- presets ----------------------------------------------------------------

_MONO_M_VALUES = (9, 17, 33, 65, 129, 257, 513, 1025)
_GEOM_FACTOR = 100.0 ** (1.0 / 24.0)  # 5 m .. 500 m in 25 log-spaced points


def _mono(mode: Mode, sweep: SweepSpec, methods, num_tx=9, angle=30.0, range_m=10.0):
    return ExperimentConfig(
        num_tx=num_tx, num_rx=num_tx,
        tx_spacing_m=0.0628, rx_spacing_m=0.0628, separation_m=0.0,
        target_range_m=range_m, target_angle_deg=angle,
        carrier_freq_hz=2.37e9, snr_db=0.0, time_bandwidth=1.0,
        mode=mode, topology=Topology.MONOSTATIC,
        sweep=sweep, methods=methods,
    )


def _bistatic_mc(snr_db: float, refine_levels: int) -> ExperimentConfig:
    return ExperimentConfig(
        num_tx=65, num_rx=8,
        tx_spacing_m=0.0628, rx_spacing_m=0.0628, separation_m=35.0,
        target_range_m=18.0, target_angle_deg=0.0,
        carrier_freq_hz=2.37e9, snr_db=snr_db, time_bandwidth=16.0,
        mode=Mode.MIMO, topology=Topology.BISTATIC_NEAR_FAR_TX,
        sweep=SweepSpec(axis="M", values=(65, 257, 1025)),
        methods=("ClosedForm", "ExactSum", "NumericalFim"),
        montecarlo=MonteCarloConfig(
            estimator=ESTIMATOR_NAME, trials=500, master_seed=20260814,
            refine_levels=refine_levels,
        ),
    )


_ALL_MONO = ("ClosedForm", "ExactSum", "NumericalFim", "Taylor", "FarFieldUPW")
_CURVE_MONO = ("ClosedForm", "ExactSum", "Taylor", "FarFieldUPW")


def presets() -> dict:
    """Named configs reproducing each figure's data series."""
    m_sweep = SweepSpec(axis="M", values=_MONO_M_VALUES)
    th_sweep = SweepSpec(axis="theta", start=-75.0, stop=75.0, step=2.5)
    r_sweep = SweepSpec(axis="r", start=5.0, stop=500.0, factor=_GEOM_FACTOR)
    return {
        "fig2": _mono(Mode.MIMO, m_sweep, _ALL_MONO),
        "fig3": _mono(Mode.PHASED, m_sweep, _ALL_MONO),
        "fig4": _mono(Mode.MIMO, th_sweep, _CURVE_MONO, num_tx=1024),
        "fig5": _mono(Mode.PHASED, th_sweep, _CURVE_MONO, num_tx=1024),
        "fig6": _mono(Mode.MIMO, r_sweep, _CURVE_MONO, num_tx=1024),
        "fig7": _mono(Mode.PHASED, r_sweep, _CURVE_MONO, num_tx=1024),
        "fig8": _bistatic_mc(snr_db=0.0, refine_levels=3),
        "fig9": _bistatic_mc(snr_db=10.0, refine_levels=6),
    }


PRESET_SUMMARIES = {
    "fig2": "monostatic mimo: bounds vs element count (r=10 m, theta=30 deg)",
    "fig3": "monostatic phased: bounds vs element count (r=10 m, theta=30 deg)",
    "fig4": "monostatic mimo: bounds vs angle (M=1024->1025, r=10 m)",
    "fig5": "monostatic phased: bounds vs angle (M=1024->1025, r=10 m)",
    "fig6": "monostatic mimo: bounds vs range (M=1024->1025, theta=30 deg)",
    "fig7": "monostatic phased: bounds vs range (M=1024->1025, theta=30 deg)",
    "fig8": "bistatic mimo + ML Monte Carlo, snr 0 dB (N=8, r=18 m, R=35 m)",
    "fig9": "bistatic mimo + ML Monte Carlo, snr 10 dB, finer refinement",
}
