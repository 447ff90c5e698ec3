"""Sweep configuration, figure presets, and CSV emission.

Configs live in a flat INI file with four sections: [scenario] (array,
target, carrier, power), [sweep] (one axis: M | theta | r | snr_db),
[methods] (bound evaluators to run per point), and an optional [montecarlo]
block; the keys are the fields of the config dataclasses (_schema). Angles
are degrees at this layer; emitted CSV stores radians.
Output is deterministic: the same config and seed give byte-identical CSV.
"""

import configparser
import enum
import itertools
import math
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from types import NoneType
from typing import NamedTuple, get_args, get_origin

from .closedform import (
    AsymptoticRegime,
    crb_asymptotic,
    crb_closed,
    crb_farfield_upw,
    crb_taylor,
)
from .errors import ConfigError, NfcrbError
from .fim import (
    CrbResult,
    NoiseAndPowerConfig,
    crb_exact_sum,
    crb_from_fim,
    fim_numeric,
)
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
# any point is evaluated when ExactSum, NumericalFim or Monte Carlo runs.
# Basis: tracemalloc peaks at M = 100 001 and 1 000 001, every mode/topology
# with a transmit factor, are under 49 B per element for ExactSum and
# NumericalFim, one location or a run of them (49 MB at this cap): the
# kernel's 32 B workspace and the element offsets. Its test asserts under
# 52 B. The closed forms are O(1) in M and stay uncapped.
#
# The Monte Carlo search is bounded on its own: its coarse factors take
# ObservationGridBuilder.location_bytes per grid location, read from the
# kernel's layout (362 MB held for fig8 at M=1025, N=8 on a 181x121 grid),
# and a point whose factors exceed MAX_COARSE_FACTOR_BYTES is refused.
# Forming them peaks at 1.5x what is held (the real phase argument beside
# the complex factor it becomes in place; its test asserts under 1.6x), so
# a point at the budget peaks near 3 GiB.
MAX_ELEMENTS = 1_000_001
MAX_COARSE_FACTOR_BYTES = 2 * 2**30


class CrbMethod(enum.Enum):
    """Bound evaluators; the values are the method names of configs and CSVs."""

    CLOSED_FORM = "ClosedForm"
    EXACT_SUM = "ExactSum"
    NUMERICAL_FIM = "NumericalFim"
    ASYMPTOTIC = "Asymptotic"
    TAYLOR = "Taylor"
    FARFIELD_UPW = "FarFieldUPW"


_PER_ELEMENT_METHODS = frozenset((CrbMethod.EXACT_SUM, CrbMethod.NUMERICAL_FIM))

SWEEP_AXES = ("M", "theta", "r", "snr_db")
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
    values: tuple[int | float, ...] | None = None
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
        if self.values is not None and (self.start is not None or self.stop is not None):
            raise ConfigError("sweep start and stop go with step or factor, not with values")
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
        # with the search grid's own bounds (GridSpec's), before any bound runs
        for name, least in (("trials", 1), ("master_seed", 0), ("theta_points", 2),
                            ("range_points", 2), ("refine_levels", 0)):
            value = getattr(self, name)
            if value < least:
                raise ConfigError(f"montecarlo.{name} must be >= {least}, got {value}")
        # GridSpec.around clips a finite span to the domain, but a NaN or
        # infinite one would pass through its max/min unchecked
        for name in ("theta_halfspan_deg", "range_span_frac"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ConfigError(f"montecarlo.{name} must be finite and > 0, got {value}")


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Scenario scalars plus one sweep; everything the CSV emitter needs.

    The fields are the config schema (_schema): each is the [scenario] key
    of its name unless its "ini" metadata names another, a field without a
    default is a required key, and sweep and montecarlo are sections."""

    num_tx: int
    num_rx: int = 1
    tx_spacing_m: float = 0.0628
    rx_spacing_m: float = 0.0628
    separation_m: float = 0.0
    target_range_m: float
    target_angle_deg: float
    carrier_freq_hz: float = 2.37e9
    snr_db: float = 0.0
    time_bandwidth: float = 1.0
    mode: Mode = Mode.MIMO
    topology: Topology = Topology.MONOSTATIC
    sweep: SweepSpec
    methods: tuple[CrbMethod, ...] = field(metadata={"ini": "methods.use"})
    asymptotic_regime: AsymptoticRegime = field(default=AsymptoticRegime.LARGE_APERTURE,
                                                metadata={"ini": "methods.asymptotic_regime"})
    montecarlo: MonteCarloConfig | None = None

    def __post_init__(self):
        if not self.methods:
            raise ConfigError("methods.use must list at least one method")
        # the INI reader turns names into members; a Python caller passes members
        if not (all(isinstance(m, CrbMethod) for m in self.methods)
                and isinstance(self.asymptotic_regime, AsymptoticRegime)):
            raise ConfigError("methods and asymptotic_regime take members, not names")
        for i, m in enumerate(self.methods):
            if m in self.methods[:i]:
                raise ConfigError(f"method {m.value!r} listed twice")
        if CrbMethod.TAYLOR in self.methods and self.topology is not Topology.MONOSTATIC:
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
    """Whether lambda^2 (the closed forms divide by it) and, unless both
    arrays are single elements, (k^2 sum (n d)^2)^2 over the transmit and
    the receive array are normal floats: that sum sets the size of an
    information entry, and the 2x2 determinant multiplies two of them. A
    monostatic geometry's receive array is its transmit array
    (validate_config), so it counts that array twice. A spacing whose square
    underflows makes the sum 0 and is refused, as its information is."""
    lam2 = carrier.wavelength * carrier.wavelength
    tx = g.num_tx * (g.num_tx * g.num_tx - 1) * g.tx_spacing * g.tx_spacing
    rx = g.num_rx * (g.num_rx * g.num_rx - 1) * g.rx_spacing * g.rx_spacing
    lone = g.num_tx == g.num_rx == 1
    info = 4.0 * math.pi ** 2 / lam2 * ((tx + rx) / 12.0) if lam2 > 0.0 else math.inf
    return (sys.float_info.min <= lam2 < math.inf
            and (lone or sys.float_info.min <= info * info < math.inf))


def _window_in_range(geom: ArrayGeometry, carrier: CarrierConfig, range_m: float,
                     mc: MonteCarloConfig) -> bool:
    """Whether the Monte Carlo search can form its steering factors out to
    the range window's far edge r = range_m (1 + range_span_frac). There
    the kernel forms r_m^2 = r^2 - 2 r m d sin(theta) + (m d)^2 to each
    transmit element and l^2 = R^2 + r^2 - 2 R r cos(theta) to the receive
    centre, both at most (r + R + |m d|)^2, and a phase 2 pi r_m / lambda:
    that square and that phase must be finite floats."""
    reach = (range_m * (1.0 + mc.range_span_frac) + geom.array_separation
             + geom.num_tx // 2 * geom.tx_spacing)
    return reach * reach < math.inf and 2.0 * math.pi * reach / carrier.wavelength < math.inf


def _receive_in_range(geom: ArrayGeometry, range_m: float) -> bool:
    """Whether a bistatic point's receive terms are finite floats. The
    direction-sine derivatives (steering.direction_sine_derivs) form
    l^2 = R^2 + r^2 - 2 R r cos(theta) to the receive centre and l^2 sqrt(l^2),
    and their numerators r (R^2 + r^2 - R r cos(theta)) and R r^2: all of
    order (r + R)^3, which must be a finite float."""
    reach = range_m + geom.array_separation
    return reach * reach * reach < math.inf


def _snr_in_range(ncfg: NoiseAndPowerConfig) -> bool:
    """Whether 2 gamma L and its reciprocal are normal floats. Every bound is
    1/(2 gamma L) times a factor of the geometry alone: the closed forms form
    that prefactor, the exact sums scale their information by 2 gamma L / M
    or M, and neither may lose bits to it."""
    two_gl = 2.0 * ncfg.snr_linear * ncfg.time_bandwidth
    return sys.float_info.min <= two_gl < math.inf and sys.float_info.min <= 1.0 / two_gl


def _first_out_of_range(method: CrbMethod, results) -> int | None:
    """Index of the first identifiable result with a bound outside the
    normal float range [sys.float_info.min, inf), 0 included, bar
    Asymptotic's 0, which is its model's (closedform._result); else None.
    Every evaluator marks a result identifiable where gamma L takes its
    bounds out of that range, so a result that is not identifiable holds
    no bound to refuse."""
    low, inf = sys.float_info.min, math.inf
    zero_ok = method is CrbMethod.ASYMPTOTIC
    for i, (t, r, identifiable, _) in enumerate(results):
        if identifiable:
            if zero_ok:
                t, r = t or low, r or low
            if not (low <= t < inf and low <= r < inf):
                return i
    return None


def _check_geometry(cfg: ExperimentConfig, geom: ArrayGeometry, carrier: CarrierConfig,
                    where: str):
    """The checks that depend on a point's geometry only: carrier range,
    element cap and Monte Carlo coarse-factor budget."""
    if not _carrier_in_range(geom, carrier):
        spacings = (f"tx_spacing_m = {cfg.tx_spacing_m!r} (transmit and receive)"
                    if cfg.topology is Topology.MONOSTATIC else
                    f"tx_spacing_m = {cfg.tx_spacing_m!r} and rx_spacing_m = {cfg.rx_spacing_m!r}")
        raise ConfigError(
            f"{where}: carrier_freq_hz = {cfg.carrier_freq_hz!r} is out of range with "
            f"{spacings}: the bounds need lambda^2 and (k^2 sum (n d)^2)^2 normal floats")
    mc = cfg.montecarlo
    per_element = mc is not None or not _PER_ELEMENT_METHODS.isdisjoint(cfg.methods)
    if per_element and max(geom.num_tx, geom.num_rx) > MAX_ELEMENTS:
        raise ConfigError(
            f"{where}: {geom.num_tx} transmit / {geom.num_rx} receive elements exceed "
            f"{MAX_ELEMENTS} for ExactSum, NumericalFim or Monte Carlo")
    if mc:
        # the estimator (and with it signalsim and numpy.random) loads only
        # for a Monte Carlo run
        from .estimator import ObservationGridBuilder

        coarse = (ObservationGridBuilder(geom, carrier, cfg.mode, cfg.topology).location_bytes
                  * mc.theta_points * mc.range_points)
        if coarse > MAX_COARSE_FACTOR_BYTES:
            raise ConfigError(f"{where}: the Monte Carlo coarse factor needs {coarse} B, "
                              f"over {MAX_COARSE_FACTOR_BYTES} B")


class SweepRun(NamedTuple):
    """Sweep points that share one geometry, carrier and noise config, in
    sweep order: every point of a theta or r sweep, or one point of an M or
    snr_db sweep. note is the rounding note of an even transmit count, ()
    if none, which each of the run's rows carries."""

    geometry: ArrayGeometry
    carrier: CarrierConfig
    noise: NoiseAndPowerConfig
    note: tuple
    targets: list


def validate_config(cfg: ExperimentConfig) -> list:
    """Materialize every sweep point up front so bad values fail as config
    errors before any output is produced.

    Returns the sweep's runs (SweepRun) in sweep order. The axis decides
    them: an M or snr_db point changes the geometry or the noise config, so
    each is a run of its own, and a theta or r sweep moves the target alone,
    so one run holds every point. The carrier is built once, a geometry per
    M point (else once) and a noise config per snr_db point (else once).
    Even transmit counts of 2 or more round up to the next odd integer so
    the symmetric-index layout holds, with a note on that run, and a count
    below 1 is refused before rounding; monostatic scenarios receive on the
    transmit array, so N and d_rx are forced to M and d_tx there. Each
    geometry is checked once (_check_geometry), each noise config's
    2 gamma L (_snr_in_range), each point's target, each bistatic point's
    receive terms (_receive_in_range), and with Monte Carlo each point's
    search window (_window_in_range); a refusal names its sweep point.
    """
    axis = cfg.sweep.axis
    mono = cfg.topology is Topology.MONOSTATIC
    runs, geom, carrier, ncfg = [], None, None, None
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
        new_geom = geom is None or axis == "M"
        try:
            if new_geom:
                num_tx, note = _round_odd(num_tx)
                geom = ArrayGeometry(
                    num_tx=num_tx,
                    num_rx=num_tx if mono else cfg.num_rx,
                    tx_spacing=cfg.tx_spacing_m,
                    rx_spacing=cfg.tx_spacing_m if mono else cfg.rx_spacing_m,
                    array_separation=cfg.separation_m,
                )
            tgt = TargetLocation(range_m=range_m, angle_rad=math.radians(angle_deg))
            carrier = carrier or CarrierConfig(carrier_freq=cfg.carrier_freq_hz)
            if ncfg is None or axis == "snr_db":
                ncfg = NoiseAndPowerConfig.from_snr(snr_db, time_bandwidth=cfg.time_bandwidth)
                if not _snr_in_range(ncfg):
                    raise ConfigError(
                        f"sweep point {axis}={v!r}: snr_db = {snr_db!r} and time_bandwidth = "
                        f"{cfg.time_bandwidth!r} put 2 gamma L past the normal float range")
        except ConfigError:
            raise
        except NfcrbError as exc:
            raise ConfigError(f"sweep point {axis}={v!r}: {exc}") from exc
        if new_geom:
            _check_geometry(cfg, geom, carrier, f"sweep point {axis}={v!r}")
        if not mono and not _receive_in_range(geom, range_m):
            raise ConfigError(f"sweep point {axis}={v!r}: the receive terms at target_range_m = "
                              f"{range_m!r} overflow: (r + R)^3 is past the float range")
        if cfg.montecarlo and not _window_in_range(geom, carrier, range_m, cfg.montecarlo):
            raise ConfigError(f"sweep point {axis}={v!r}: the Monte Carlo range window's "
                              "far edge is past the float range")
        if axis in ("M", "snr_db") or not runs:
            runs.append(SweepRun(geom, carrier, ncfg, note, []))
        runs[-1].targets.append(tgt)
    return runs


def _exact(run: SweepRun, cfg: ExperimentConfig) -> list:
    """ExactSum's and NumericalFim's bounds over a run, which are the same
    bits: a lone target (an M or snr_db sweep's run) on the per-location
    path, which costs it less, and a longer run in crb_exact_sum's blocks."""
    if len(run.targets) == 1:
        obs = build_observation(run.geometry, run.targets[0], run.carrier, cfg.mode,
                                cfg.topology)
        return [crb_from_fim(fim_numeric(obs, run.noise))]
    return crb_exact_sum(run.geometry, run.targets, run.carrier, run.noise, cfg.mode,
                         cfg.topology)


# one evaluator per method: (run, cfg) -> one result per target of the run.
# ExactSum and NumericalFim share one, so run_experiment evaluates it once
# for both names. crb_exact_sum sums a run in blocks, and Taylor,
# FarFieldUPW and Asymptotic form once per run what its targets share;
# ClosedForm evaluates target by target. Each looks its bound function up
# as a module global at call time, so that a wrapper installed on a module
# binding (a tracer) sees every call
_EVALUATORS = {
    CrbMethod.EXACT_SUM: _exact,
    CrbMethod.CLOSED_FORM: lambda run, cfg: [
        crb_closed(run.geometry, t, run.carrier, run.noise, cfg.mode, cfg.topology)
        for t in run.targets],
    CrbMethod.NUMERICAL_FIM: _exact,
    CrbMethod.ASYMPTOTIC: lambda run, cfg: crb_asymptotic(
        run.geometry, run.targets, run.carrier, run.noise, cfg.asymptotic_regime, cfg.mode,
        cfg.topology),
    CrbMethod.TAYLOR: lambda run, cfg: crb_taylor(
        run.geometry, run.targets, run.carrier, run.noise, cfg.mode),
    CrbMethod.FARFIELD_UPW: lambda run, cfg: crb_farfield_upw(
        run.geometry, run.targets, run.carrier, run.noise, cfg.mode, cfg.topology),
}


def _out_of_range_error(method: CrbMethod, res: CrbResult, run: SweepRun,
                        tgt: TargetLocation) -> ConfigError:
    ncfg = run.noise
    return ConfigError(
        f"{method.value} at M = {run.geometry.num_tx}, theta_rad = {tgt.angle_rad!r}, "
        f"r_m = {tgt.range_m!r} gives crb_theta_rad2 = {res.crb_theta!r} and crb_r_m2 = "
        f"{res.crb_range!r}, outside the normal float range [{sys.float_info.min!r}, inf): "
        f"the bounds scale as 1/(gamma L), and snr_db = {ncfg.snr_db!r} with "
        f"time_bandwidth = {ncfg.time_bandwidth!r} is out of their range at this point")


def _run_point_mc(cfg: ExperimentConfig, run: SweepRun, tgt: TargetLocation):
    from .estimator import GridSpec, monte_carlo_rmse

    mc = cfg.montecarlo
    scn = SensingScenario(run.geometry, tgt, run.carrier, cfg.mode, cfg.topology)
    grid = GridSpec.around(
        tgt,
        theta_halfspan_deg=mc.theta_halfspan_deg,
        theta_points=mc.theta_points,
        range_span_frac=mc.range_span_frac,
        range_points=mc.range_points,
        refine_levels=mc.refine_levels,
    )
    return monte_carlo_rmse(scn, run.noise, grid, trials=mc.trials, master_seed=mc.master_seed)


@dataclass(frozen=True)
class SweepTable:
    """What one sweep computed: validate_config's runs, one CrbResult list
    per cfg.methods entry (a result per point, in sweep order; methods one
    evaluator serves share one list), and one RmseReport per point when
    Monte Carlo runs (else None). csv_text forms its rows and cells."""

    cfg: ExperimentConfig
    runs: list
    results: list
    reports: list | None = None


def run_experiment(cfg: ExperimentConfig) -> SweepTable:
    """Evaluate every method at every sweep point.

    Each distinct evaluator runs once per run of validate_config's, and
    every listed method it serves reads its one result list: ExactSum and
    NumericalFim give the same bits and share one. A bound outside the
    normal float range is refused (_first_out_of_range) as soon as its
    evaluator has run. Monte Carlo, when configured, runs once per sweep
    point.
    """
    runs = validate_config(cfg)
    # evaluator -> (first method it serves, its result list), in listed order
    lists = {}
    for method in cfg.methods:
        lists.setdefault(_EVALUATORS[method], (method, []))
    reports = [] if cfg.montecarlo else None
    for run in runs:
        for evaluate, (method, out) in lists.items():
            res = evaluate(run, cfg)
            bad = _first_out_of_range(method, res)
            if bad is not None:
                raise _out_of_range_error(method, res[bad], run, run.targets[bad])
            out += res
        # after the bounds, so that a refused run spends no trials
        if reports is not None:
            reports += [_run_point_mc(cfg, run, tgt) for tgt in run.targets]
    return SweepTable(cfg, runs, [lists[_EVALUATORS[m]][1] for m in cfg.methods], reports)


def _text_cell(text: str) -> str:
    # RFC 4180: a cell holding a comma, a quote or a newline is quoted
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _point_cells(runs):
    """The M .. L cells and the note of each point, in sweep order. A run's
    geometry cells are formatted once, and so are its noise config's (snr_db
    and L); a theta or r cell is formatted again only where its value's
    bits change, so a sweep formats its axis column per point and the other
    once. Equal values of one bit pattern print alike; 0.0 == -0.0 does not,
    so a zero is never reused."""
    th_prev = r_prev = None
    for geom, _, ncfg, note, targets in runs:
        geom_cells = (f"{geom.num_tx},{geom.num_rx},{geom.tx_spacing:.17g},"
                      f"{geom.rx_spacing:.17g},{geom.array_separation:.17g}")
        noise_cells = f"{ncfg.snr_db:.17g},{ncfg.time_bandwidth:.17g}"
        for tgt in targets:
            th, r = tgt.angle_rad, tgt.range_m
            if not (th is th_prev or th == th_prev != 0.0):
                th_prev, th_cell = th, f"{th:.17g}"
            if not (r is r_prev or r == r_prev != 0.0):
                r_prev, r_cell = r, f"{r:.17g}"
            yield f"{geom_cells},{th_cell},{r_cell},{noise_cells}", note


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
        f"axis={cfg.sweep.axis} points={sum(len(run.targets) for run in table.runs)}",
        f"# methods={','.join(m.value for m in cfg.methods)}",
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

    heads = [f"{m.value},{cfg.mode.value},{cfg.topology.value}," for m in cfg.methods]
    tails = (_mc_cells(cfg, table.reports) if table.reports is not None
             else itertools.repeat(""))
    # the warnings cell of each distinct (run note, result notes) pair:
    # a sweep repeats few of them (every fig4-fig7 row has the rounding note)
    notes_cells = {}
    for i, ((cells, note), tail) in enumerate(zip(_point_cells(table.runs), tails)):
        for head, results in zip(heads, table.results):
            res = results[i]
            theta, rng = res.crb_theta, res.crb_range
            if db:
                theta, rng = _db_of(theta), _db_of(rng)
            notes = notes_cells.get((note, res.warnings))
            if notes is None:
                notes = notes_cells[note, res.warnings] = _text_cell(
                    "; ".join(note + res.warnings))
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

def _plain(kind):
    """A field type without its `| None`."""
    args = get_args(kind)
    return next(a for a in args if a is not NoneType) if NoneType in args else kind


def _reader(kind):
    """The function (INI text, key) -> value of field type kind: a tuple
    type reads a comma list (empty entries skipped), an enum one of its
    values, an int | float union the first type that reads the text."""
    if get_origin(kind) is tuple:
        item = _reader(get_args(kind)[0])
        return lambda raw, where: tuple(item(tok, f"{where} entry")
                                        for tok in raw.split(",") if tok.strip())
    kinds = get_args(kind) or (kind,)

    def read(raw: str, where: str):
        text = raw.strip()
        for k in kinds:
            try:
                return _BOOLS[text.lower()] if k is bool else k(text)
            except (KeyError, ValueError):
                pass
        if isinstance(kind, enum.EnumType):
            raise ConfigError(f"{where} must be {' or '.join(m.value for m in kind)}, got {text!r}")
        if isinstance(kind, type):
            raise ConfigError(f"{where} = {raw!r} is not a valid {kind.__name__}")
        raise ConfigError(f"{where} {text!r} is not a number")
    return read


def _schema() -> dict:
    """section -> key -> (field name, reader, required), read off the
    config dataclasses: a field's key is its own name in its class's
    section unless its "ini" metadata names another "section.key", and a
    dataclass-typed field is a section, not a key. [montecarlo] enabled is
    the one key with no field: a block is on unless it says enabled = false."""
    sections = {"scenario": {}, "sweep": {}, "methods": {},
                "montecarlo": {"enabled": ("enabled", _reader(bool), False)}}
    for cls, home in ((ExperimentConfig, "scenario"), (SweepSpec, "sweep"),
                      (MonteCarloConfig, "montecarlo")):
        for f in fields(cls):
            kind = _plain(f.type)
            if not is_dataclass(kind):
                section, key = f.metadata.get("ini", f"{home}.{f.name}").split(".")
                sections[section][key] = (f.name, _reader(kind), f.default is MISSING)
    return sections


_BOOLS = configparser.ConfigParser.BOOLEAN_STATES
_SECTIONS = _schema()


def _read_section(parser: configparser.ConfigParser, name: str) -> dict | None:
    """Field name -> typed value of each key the section sets, once every
    required key is there; None for a [montecarlo] block that is absent,
    empty or says enabled = false."""
    keys, out = _SECTIONS[name], {}
    for key, raw in parser.items(name) if parser.has_section(name) else ():
        if key not in keys:
            raise ConfigError(f"unknown key [{name}] {key}")
        field_name, read, _ = keys[key]
        out[field_name] = read(raw, f"[{name}] {key}")
    if name == "montecarlo" and not (out and out.pop("enabled", True)):
        return None
    for key, (field_name, _, required) in keys.items():
        if required and field_name not in out:
            raise ConfigError(f"[{name}] {key} is required")
    return out


def config_from_parser(parser: configparser.ConfigParser) -> ExperimentConfig:
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
    scenario = _read_section(parser, "scenario")
    sweep = SweepSpec(**_read_section(parser, "sweep"))
    methods = _read_section(parser, "methods")
    mc = _read_section(parser, "montecarlo")
    return ExperimentConfig(**scenario, sweep=sweep, **methods,
                            montecarlo=None if mc is None else MonteCarloConfig(**mc))


# a sweep form set by --set replaces the config's form: the keys it drops
_SWEEP_FORM_RIVALS = {"values": ("start", "stop", "step", "factor"),
                      "step": ("values", "factor"), "factor": ("values", "step")}


def apply_overrides(parser: configparser.ConfigParser, overrides):
    """Apply --set section.key=value pairs onto a parsed config. Setting
    sweep.values, .step or .factor first drops the config's keys of the
    other sweep forms (_SWEEP_FORM_RIVALS); other --set pairs are kept."""
    pairs = []
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
        pairs.append((section, key, value.strip()))
    for section, key, _ in pairs:
        if section == "sweep" and parser.has_section(section):
            for rival in _SWEEP_FORM_RIVALS.get(key, ()):
                parser.remove_option(section, rival)
    for section, key, value in pairs:
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)


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
    if isinstance(v, tuple):
        return ", ".join(map(_ini_value, v))
    if isinstance(v, enum.Enum):
        return v.value
    return repr(v) if isinstance(v, float) else str(v)


def serialize_config(cfg: ExperimentConfig) -> str:
    """INI text that parses back to an identical ExperimentConfig: every
    field that is set, in field order; a montecarlo block only when on."""
    owners = {"scenario": cfg, "sweep": cfg.sweep, "methods": cfg,
              "montecarlo": cfg.montecarlo}
    blocks = []
    for name, keys in _SECTIONS.items():
        owner = owners[name]
        if owner is not None:
            # the default answers the field-less key, montecarlo's enabled
            values = ((key, getattr(owner, field_name, "true"))
                      for key, (field_name, _, _) in keys.items())
            blocks.append("\n".join([f"[{name}]"] + [
                f"{key} = {_ini_value(v)}" for key, v in values if v is not None]))
    return "\n\n".join(blocks) + "\n"


# --- presets ----------------------------------------------------------------

_MONO_M_VALUES = (9, 17, 33, 65, 129, 257, 513, 1025)
_GEOM_FACTOR = 100.0 ** (1.0 / 24.0)  # 5 m .. 500 m in 25 log-spaced points


def _mono(mode: Mode, sweep: SweepSpec, methods, num_tx=9):
    return ExperimentConfig(num_tx=num_tx, num_rx=num_tx, target_range_m=10.0,
                            target_angle_deg=30.0, mode=mode, sweep=sweep, methods=methods)


def _bistatic_mc(snr_db: float, refine_levels: int) -> ExperimentConfig:
    return ExperimentConfig(
        num_tx=65, num_rx=8, separation_m=35.0, target_range_m=18.0, target_angle_deg=0.0,
        snr_db=snr_db, time_bandwidth=16.0, topology=Topology.BISTATIC_NEAR_FAR_TX,
        sweep=SweepSpec(axis="M", values=(65, 257, 1025)),
        methods=(CrbMethod.CLOSED_FORM, CrbMethod.EXACT_SUM, CrbMethod.NUMERICAL_FIM),
        montecarlo=MonteCarloConfig(estimator=ESTIMATOR_NAME, trials=500,
                                    master_seed=20260814, refine_levels=refine_levels),
    )


_ALL_MONO = (CrbMethod.CLOSED_FORM, CrbMethod.EXACT_SUM, CrbMethod.NUMERICAL_FIM,
             CrbMethod.TAYLOR, CrbMethod.FARFIELD_UPW)
_CURVE_MONO = (CrbMethod.CLOSED_FORM, CrbMethod.EXACT_SUM, CrbMethod.TAYLOR,
               CrbMethod.FARFIELD_UPW)


_M_SWEEP = SweepSpec(axis="M", values=_MONO_M_VALUES)
_THETA_SWEEP = SweepSpec(axis="theta", start=-75.0, stop=75.0, step=2.5)
_R_SWEEP = SweepSpec(axis="r", start=5.0, stop=500.0, factor=_GEOM_FACTOR)

# name -> builder of that preset's config, so that a run builds only its own
_PRESET_BUILDERS = {
    "fig2": lambda: _mono(Mode.MIMO, _M_SWEEP, _ALL_MONO),
    "fig3": lambda: _mono(Mode.PHASED, _M_SWEEP, _ALL_MONO),
    "fig4": lambda: _mono(Mode.MIMO, _THETA_SWEEP, _CURVE_MONO, num_tx=1024),
    "fig5": lambda: _mono(Mode.PHASED, _THETA_SWEEP, _CURVE_MONO, num_tx=1024),
    "fig6": lambda: _mono(Mode.MIMO, _R_SWEEP, _CURVE_MONO, num_tx=1024),
    "fig7": lambda: _mono(Mode.PHASED, _R_SWEEP, _CURVE_MONO, num_tx=1024),
    "fig8": lambda: _bistatic_mc(snr_db=0.0, refine_levels=3),
    "fig9": lambda: _bistatic_mc(snr_db=10.0, refine_levels=6),
}


def presets() -> dict:
    """Named configs reproducing each figure's data series."""
    return {name: build() for name, build in _PRESET_BUILDERS.items()}


def preset(name: str) -> ExperimentConfig:
    """The config of one named preset, built alone."""
    build = _PRESET_BUILDERS.get(name)
    if build is None:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(_PRESET_BUILDERS)}")
    return build()


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
