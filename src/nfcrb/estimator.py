"""Matched-field grid search and Monte Carlo root-mean-square error runs.

The matched-field statistic |g(theta, r)^H y|^2 / ||g||^2 is the likelihood
surface for a single snapshot with unknown complex reflection coefficient;
its maximizer is the ML location estimate. One function, _ml_stat, evaluates
it as |g^T y*|^2 over the factor columns of g = b (x) a as the kernel forms
them, so the snapshot is conjugated, not the factors. The search calls it on
a coarse rectangular grid, whose factors are formed once per Monte Carlo
run, and then at each level of a local step-halving refinement.
"""

import math
from dataclasses import dataclass

import numpy as np

# not called here: bench/test_bench.py checks that its tracer rebinds every
# package module's crb_closed, this one included
from .closedform import crb_closed  # noqa: F401
from .errors import ConfigError
from .fim import NoiseAndPowerConfig
from .geometry import ArrayGeometry, CarrierConfig, Mode, SensingScenario, TargetLocation
from .signalsim import synth_snapshot
from .steering import build_observation, steering_factors

# Cells within AMBIGUITY_REL_TOL of the peak form the near-peak set. A
# healthy mainlobe keeps that set compact and interior; a ridge or aliased
# lobe stretches it across the window or out to the boundary, which is what
# the ambiguity flag reports.
AMBIGUITY_REL_TOL = 1e-3
AMBIGUITY_SPAN_FRAC = 0.25
_CHUNK = 8192


@dataclass(frozen=True)
class GridSpec:
    """Rectangular search grid with optional step-halving refinement.

    refine_levels successive local passes halve both steps and re-search a
    9 x 9 window around the running best point, clipped to the original
    bounds, so the final quantization step is coarse_step / 2**levels.
    """

    theta_range: tuple
    theta_points: int
    range_range: tuple
    range_points: int
    refine_levels: int = 0

    def __post_init__(self):
        t_lo, t_hi = self.theta_range
        r_lo, r_hi = self.range_range
        if not (self.theta_points >= 2 and self.range_points >= 2):
            raise ConfigError("grid needs at least two points per axis")
        if self.refine_levels < 0:
            raise ConfigError("refine_levels must be >= 0")
        if not all(math.isfinite(b) for b in (t_lo, t_hi, r_lo, r_hi)):
            raise ConfigError("grid bounds must be finite")
        if not (t_lo < t_hi and r_lo < r_hi):
            raise ConfigError("grid bounds must be ordered (lo < hi)")
        if not (-math.pi / 2 <= t_lo and t_hi <= math.pi / 2):
            raise ConfigError("angle grid must lie within [-pi/2, pi/2]")
        if r_lo <= 0.0:
            raise ConfigError("range grid must be positive")

    def theta_values(self) -> np.ndarray:
        return np.linspace(self.theta_range[0], self.theta_range[1], self.theta_points)

    def range_values(self) -> np.ndarray:
        return np.linspace(self.range_range[0], self.range_range[1], self.range_points)

    @property
    def theta_step(self) -> float:
        return (self.theta_range[1] - self.theta_range[0]) / (self.theta_points - 1)

    @property
    def range_step(self) -> float:
        return (self.range_range[1] - self.range_range[0]) / (self.range_points - 1)

    @classmethod
    def around(
        cls,
        tgt: TargetLocation,
        theta_halfspan_deg: float,
        theta_points: int,
        range_span_frac: float,
        range_points: int,
        refine_levels: int,
    ) -> "GridSpec":
        """Window centered on a nominal target, clipped to the valid domain."""
        half = math.radians(theta_halfspan_deg)
        t_lo = max(-math.pi / 2, tgt.angle_rad - half)
        t_hi = min(math.pi / 2, tgt.angle_rad + half)
        r_lo = tgt.range_m * (1.0 - range_span_frac)
        r_hi = tgt.range_m * (1.0 + range_span_frac)
        if r_lo <= 0.0:
            r_lo = tgt.range_m * 1e-3
        return cls(
            theta_range=(t_lo, t_hi),
            theta_points=theta_points,
            range_range=(r_lo, r_hi),
            range_points=range_points,
            refine_levels=refine_levels,
        )


@dataclass(frozen=True)
class EstimateResult:
    theta: float
    range_m: float
    ambiguous: bool


@dataclass(frozen=True)
class RmseReport:
    """RMSE over trials noise draws; ambiguous_trials counts the trials
    whose coarse search flagged its peak ambiguous (not a CSV column)."""

    rmse_theta: float
    rmse_range: float
    trials: int
    master_seed: int
    ambiguous_trials: int


class ObservationGridBuilder:
    """Steering factor matrices for one scenario at trial target locations.

    Grid searches evaluate thousands of candidate locations with one matrix
    product. Factors follow the g = b (x) a layout: y.reshape(rx_len,
    tx_len) pairs with (B, A).
    """

    def __init__(
        self,
        geom: ArrayGeometry,
        carrier: CarrierConfig,
        mode: Mode,
    ):
        self.geom = geom
        self.carrier = carrier
        self.mode = mode
        # an empty evaluation fixes the layout
        a, b = steering_factors(geom, carrier, mode, (), ())
        self.tx_len, self.rx_len = len(a), len(b)
        # bytes per location of the factors a search holds: b shares a's
        # when aliased; an absent factor is a real row
        self.location_bytes = a.itemsize * len(a) + (0 if b is a else b.itemsize * len(b))

    def factor_matrices(self, thetas, ranges):
        """(A, B) steering factor matrices at paired candidate locations.

        A is (tx_len, P), B is (rx_len, P); an absent factor is a row of
        ones. Monostatic orthogonal-waveform sensing returns B aliased to A.
        """
        return steering_factors(self.geom, self.carrier, self.mode, thetas, ranges)


def _paired_grid(thetas_axis: np.ndarray, ranges_axis: np.ndarray):
    # theta-major layout so flat argmax tie-breaks to smallest theta, then r
    th = np.repeat(thetas_axis, ranges_axis.size)
    ra = np.tile(ranges_axis, thetas_axis.size)
    return th, ra


def _ml_stat(ymat_conj: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|g^H y|^2 / ||g||^2 at each column of the factors (A, B), with
    ymat_conj = conj(y).reshape(rx_len, tx_len): g^T y* = sum(B * (ymat_conj
    @ A)) down each column is the conjugate of g^H y, and ||g||^2 =
    ymat_conj.size."""
    p = a.shape[1]
    stat = np.empty(p)
    for s in range(0, p, _CHUNK):
        sl = slice(s, min(s + _CHUNK, p))
        c = ymat_conj @ a[:, sl]
        val = np.einsum("nj,nj->j", b[:, sl], c)
        stat[sl] = (val.real**2 + val.imag**2) / ymat_conj.size
    return stat


def _argmax_with_ambiguity(stat: np.ndarray, n_ranges: int):
    flat = int(np.argmax(stat))
    it, ir = divmod(flat, n_ranges)
    peak = stat[flat]
    nt = stat.size // n_ranges
    if peak <= 0.0:
        return it, ir, True  # flat zero surface carries no location information
    near = np.flatnonzero(stat >= (1.0 - AMBIGUITY_REL_TOL) * peak)
    jt, jr = np.divmod(near, n_ranges)
    ambiguous = False
    if nt > 2:
        ambiguous |= bool(jt.min() == 0 or jt.max() == nt - 1)
        ambiguous |= bool(np.abs(jt - it).max() > AMBIGUITY_SPAN_FRAC * (nt - 1))
    if n_ranges > 2:
        ambiguous |= bool(jr.min() == 0 or jr.max() == n_ranges - 1)
        ambiguous |= bool(np.abs(jr - ir).max() > AMBIGUITY_SPAN_FRAC * (n_ranges - 1))
    return it, ir, ambiguous


def _refine(builder: ObservationGridBuilder, ymat_conj: np.ndarray, grid: GridSpec,
            best_t: float, best_r: float):
    step_t, step_r = grid.theta_step, grid.range_step
    offsets = np.arange(-4, 5, dtype=float)
    for _ in range(grid.refine_levels):
        step_t, step_r = step_t / 2.0, step_r / 2.0
        ts = np.clip(best_t + offsets * step_t, *grid.theta_range)
        rs = np.clip(best_r + offsets * step_r, *grid.range_range)
        stat = _ml_stat(ymat_conj, *builder.factor_matrices(*_paired_grid(ts, rs)))
        it, ir = divmod(int(np.argmax(stat)), rs.size)
        best_t, best_r = float(ts[it]), float(rs[ir])
    return best_t, best_r


class _PreparedMlSearch:
    """Coarse-grid factors precomputed once and reused across trials."""

    def __init__(self, builder: ObservationGridBuilder, grid: GridSpec):
        self.builder = builder
        self.grid = grid
        self.thetas = grid.theta_values()
        self.ranges = grid.range_values()
        self.a, self.b = builder.factor_matrices(*_paired_grid(self.thetas, self.ranges))

    def estimate(self, y: np.ndarray) -> EstimateResult:
        ymat_conj = y.conj().reshape(self.builder.rx_len, self.builder.tx_len)
        stat = _ml_stat(ymat_conj, self.a, self.b)
        it, ir, ambiguous = _argmax_with_ambiguity(stat, self.ranges.size)
        best_t, best_r = _refine(self.builder, ymat_conj, self.grid,
                                 float(self.thetas[it]), float(self.ranges[ir]))
        return EstimateResult(theta=best_t, range_m=best_r, ambiguous=ambiguous)


def monte_carlo_rmse(
    scn: SensingScenario,
    cfg: NoiseAndPowerConfig,
    grid: GridSpec,
    trials: int,
    master_seed: int,
) -> RmseReport:
    """Empirical RMSE of the matched-field estimate over independent noise draws.

    Trial t draws its noise from the (master_seed, t) substream of a
    counter-based generator, so reports are reproducible for a fixed
    master_seed regardless of execution order.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    obs = build_observation(scn.geometry, scn.target, scn.carrier, scn.mode)
    builder = ObservationGridBuilder(scn.geometry, scn.carrier, scn.mode)
    prepared = _PreparedMlSearch(builder, grid)
    tgt = scn.target

    se_theta = 0.0
    se_range = 0.0
    ambiguous = 0
    for t in range(trials):
        est = prepared.estimate(synth_snapshot(obs, cfg, seed=(master_seed, t)))
        se_theta += (est.theta - tgt.angle_rad) ** 2
        se_range += (est.range_m - tgt.range_m) ** 2
        ambiguous += est.ambiguous

    return RmseReport(
        rmse_theta=math.sqrt(se_theta / trials),
        rmse_range=math.sqrt(se_range / trials),
        trials=trials,
        master_seed=master_seed,
        ambiguous_trials=ambiguous,
    )
