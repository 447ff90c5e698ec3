"""Which nfcrb callables the traced run wraps, and the per-layer metrics
derived from their spans.

Layers are the package modules. geometry is dataclass construction only and
gets no span of its own; private helpers count toward their caller. Times
are self times (span minus wrapped children) unless a name says otherwise;
"per pass" means per pass of the workload's CLI invocations.
"""

import importlib
from collections import defaultdict

import numpy as np

from tracer import self_times

COMPLEX_BYTES = 16
MB = 2.0 ** 20

# (metric, unit); README.md says which workload measures each
PER_LAYER = (
    ("estimator.prepare_s", "s"),
    ("estimator.prepare.M1025.peak_mb", "MB"),
    ("estimator.search_ms_per_trial.M65", "ms"),
    ("estimator.search_ms_per_trial.M257", "ms"),
    ("estimator.search_ms_per_trial.M1025", "ms"),
    ("estimator.refine_factor_ms_per_trial.M1025", "ms"),
    ("estimator.factor_matrices.calls", "count"),
    ("estimator.factor_matrices.points_per_trial", "count"),
    ("estimator.coarse.bytes_per_trial.M1025", "B"),
    ("estimator.coarse.flops_per_trial.M1025", "flop"),
    ("signalsim.synth_snapshot.ms_per_trial.M1025", "ms"),
    ("signalsim.synth_snapshot.calls", "count"),
    ("estimator.search_ms_per_trial.M1025.t1", "ms"),
    ("steering.build_observation.M1025.ms", "ms"),
    ("steering.build_observation.M2049.ms", "ms"),
    ("steering.build_observation.M2049.peak_mb", "MB"),
    ("fim.fim_numeric.M1025.ms", "ms"),
    ("fim.fim_numeric.M2049.ms", "ms"),
    ("fim.fim_numeric.M2049.peak_mb", "MB"),
    ("fim.fim_numeric.M2049.bytes_computed", "B"),
    ("fim.fim_numeric.M2049.ms.t1", "ms"),
    ("fim.crb_exact_sum.us_per_call", "us"),
    ("closedform.crb_closed.us_per_call", "us"),
    ("closedform.crb_taylor.us_per_call", "us"),
    ("closedform.crb_farfield_upw.us_per_call", "us"),
    ("closedform.calls", "count"),
    ("experiment.csv_text.ms_per_call", "ms"),
    ("experiment.run_experiment.self_ms_per_call", "ms"),
    ("experiment.validate_config.ms_per_call", "ms"),
    ("experiment.parse_config_text.ms_per_call", "ms"),
    ("experiment.rows", "count"),
    ("cli.main.self_ms_per_call", "ms"),
    ("trace.overhead_frac.mc_ml", "fraction"),
    ("trace.overhead_frac.bounds_vs_m", "fraction"),
    ("trace.overhead_frac.bounds_curves", "fraction"),
)

PREPARE_WINDOW = "estimator.prepare.M1025"
PEAK_M = 2049


def _mc_attrs(a):
    scn, grid = a["scn"], a["grid"]
    return {
        "M": scn.geometry.num_tx, "N": scn.geometry.num_rx, "trials": a["trials"],
        "points": grid.theta_points * grid.range_points,
    }


def _obs_attrs(a):
    return {"M": a["obs"].tx_array_size, "length": a["obs"].g.size}


def _geom_attrs(a):
    return {"M": a["geom"].num_tx}


def _at_peak_m(label):
    return lambda attrs: label if attrs.get("M") == PEAK_M else None


# span name -> (module, attribute, class or None, wrap keyword arguments)
SPANS = {
    "cli.main": ("cli", "main", None, {}),
    "experiment.presets": ("experiment", "presets", None, {}),
    "experiment.serialize_config": ("experiment", "serialize_config", None, {}),
    "experiment.parse_config_text": ("experiment", "parse_config_text", None, {}),
    "experiment.validate_config": ("experiment", "validate_config", None, {}),
    "experiment.run_experiment": ("experiment", "run_experiment", None, {}),
    "experiment.csv_text": ("experiment", "csv_text", None, {}),
    "estimator.monte_carlo_rmse": ("estimator", "monte_carlo_rmse", None, {
        "describe": _mc_attrs,
        "mem_open": lambda attrs: PREPARE_WINDOW if attrs.get("M") == 1025 else None,
    }),
    "estimator.factor_matrices": (
        "estimator", "factor_matrices", "ObservationGridBuilder",
        {"describe": lambda a: {"points": int(np.size(a["thetas"]))}},
    ),
    "signalsim.synth_snapshot": ("signalsim", "synth_snapshot", None, {
        "describe": _obs_attrs, "closes_window": True,
    }),
    "steering.build_observation": ("steering", "build_observation", None, {
        "describe": _geom_attrs,
        "mem_open": _at_peak_m(f"steering.build_observation.M{PEAK_M}"),
    }),
    "steering.observation_from_scenario": ("steering", "observation_from_scenario", None, {}),
    "fim.fim_numeric": ("fim", "fim_numeric", None, {
        "describe": _obs_attrs, "mem_open": _at_peak_m(f"fim.fim_numeric.M{PEAK_M}"),
    }),
    "fim.crb_from_fim": ("fim", "crb_from_fim", None, {}),
    "fim.crb_exact_sum": ("fim", "crb_exact_sum", None, {}),
    "closedform.crb_closed": ("closedform", "crb_closed", None, {}),
    "closedform.crb_taylor": ("closedform", "crb_taylor", None, {}),
    "closedform.crb_farfield_upw": ("closedform", "crb_farfield_upw", None, {}),
    "closedform.crb_asymptotic": ("closedform", "crb_asymptotic", None, {}),
}


def install(tracer, package="nfcrb"):
    """Wrap every callable in SPANS; missing modules, classes or names are
    recorded as absent."""
    for name, (module_name, attr, cls, kwargs) in SPANS.items():
        try:
            owner = importlib.import_module(f"{package}.{module_name}")
        except ImportError:
            tracer.absent.append(name)
            continue
        if cls is not None:
            owner = getattr(owner, cls, None)
            if not isinstance(owner, type):
                tracer.absent.append(name)
                continue
        tracer.wrap(name, owner, attr, **kwargs)


class _Spans:
    """Span lookups for one traced run of one workload."""

    def __init__(self, spans):
        self.spans = spans
        self.self_s = self_times(spans)
        self.kids = defaultdict(list)
        for i, span in enumerate(spans):
            if span[3] >= 0:
                self.kids[span[3]].append(i)

    def named(self, name, **match):
        return [
            i for i, s in enumerate(self.spans)
            if s[0] == name and all((s[4] or {}).get(k) == v for k, v in match.items())
        ]

    def dur(self, i):
        return self.spans[i][2] - self.spans[i][1]

    def self_sum(self, idx):
        return sum(self.self_s[i] for i in idx)

    def mean_self(self, name, scale):
        idx = self.named(name)
        return self.self_sum(idx) / len(idx) * scale if idx else None

    def module_self(self) -> dict:
        out = defaultdict(float)
        for span, t in zip(self.spans, self.self_s):
            out[span[0].split(".")[0]] += t
        return dict(out)


def _mc_ml(sp: _Spans, mem_peak, passes) -> dict:
    per_m = defaultdict(lambda: defaultdict(float))
    prepare = 0.0
    fm_points = 0
    trials = 0
    for i in sp.named("estimator.monte_carlo_rmse"):
        attrs = sp.spans[i][4]
        synth = [k for k in sp.kids[i] if sp.spans[k][0] == "signalsim.synth_snapshot"]
        if not attrs or not synth:
            continue
        first = sp.spans[synth[0]][1]
        prepare += first - sp.spans[i][1]
        after = [k for k in sp.kids[i] if sp.spans[k][1] >= first]
        refine = [k for k in after if sp.spans[k][0] == "estimator.factor_matrices"]
        d = per_m[attrs["M"]]
        d["search"] += sp.spans[i][2] - first - sum(sp.dur(k) for k in after)
        d["refine"] += sum(sp.dur(k) for k in refine)
        d["synth"] += sum(sp.dur(k) for k in synth)
        d["trials"] += attrs["trials"]
        d["N"], d["points"] = attrs["N"], attrs["points"]
        fm_points += sum((sp.spans[k][4] or {}).get("points", 0) for k in refine)
        trials += attrs["trials"]

    def per_trial_ms(m, key):
        d = per_m.get(m)
        return d[key] / d["trials"] * 1e3 if d and d["trials"] else None

    out = {
        "estimator.prepare_s": prepare / passes if trials else None,
        "estimator.refine_factor_ms_per_trial.M1025": per_trial_ms(1025, "refine"),
        "signalsim.synth_snapshot.ms_per_trial.M1025": per_trial_ms(1025, "synth"),
        "estimator.factor_matrices.points_per_trial": fm_points / trials if trials else None,
    }
    for m in (65, 257, 1025):
        out[f"estimator.search_ms_per_trial.M{m}"] = per_trial_ms(m, "search")
    for name in ("estimator.factor_matrices", "signalsim.synth_snapshot"):
        calls = len(sp.named(name))
        out[f"{name}.calls"] = calls / passes if calls else None
    if PREPARE_WINDOW in mem_peak:
        out["estimator.prepare.M1025.peak_mb"] = mem_peak[PREPARE_WINDOW] / MB
    d = per_m.get(1025)
    if d:
        # the coarse search: (N x M) @ (M x P) complex product, a row-wise
        # dot with the N x P receive factor, and |.|^2 per grid point
        m, n, p = 1025, int(d["N"]), int(d["points"])
        out["estimator.coarse.bytes_per_trial.M1025"] = (
            COMPLEX_BYTES * (p * (m + n) + m * n) + 8 * p)
        out["estimator.coarse.flops_per_trial.M1025"] = 8 * n * m * p + 8 * n * p + 4 * p
    return out


def _bounds_vs_m(sp: _Spans, mem_peak, passes) -> dict:
    out = {}
    for name in ("steering.build_observation", "fim.fim_numeric"):
        for m in (1025, PEAK_M):
            idx = sp.named(name, M=m)
            out[f"{name}.M{m}.ms"] = sp.self_sum(idx) / passes * 1e3 if idx else None
        label = f"{name}.M{PEAK_M}"
        if label in mem_peak:
            out[f"{label}.peak_mb"] = mem_peak[label] / MB
    # g, dg/dtheta and dg/dr read, and the four-column Jacobian written
    idx = sp.named("fim.fim_numeric", M=PEAK_M)
    if idx:
        length = sum(sp.spans[i][4]["length"] for i in idx)
        out[f"fim.fim_numeric.M{PEAK_M}.bytes_computed"] = (
            COMPLEX_BYTES * 7 * length / passes)
    return out


def _bounds_curves(sp: _Spans, mem_peak, passes) -> dict:
    out = {
        "fim.crb_exact_sum.us_per_call": sp.mean_self("fim.crb_exact_sum", 1e6),
        "experiment.run_experiment.self_ms_per_call":
            sp.mean_self("experiment.run_experiment", 1e3),
        "cli.main.self_ms_per_call": sp.mean_self("cli.main", 1e3),
    }
    for name in ("crb_closed", "crb_taylor", "crb_farfield_upw"):
        out[f"closedform.{name}.us_per_call"] = sp.mean_self(f"closedform.{name}", 1e6)
    for name in ("csv_text", "validate_config", "parse_config_text"):
        out[f"experiment.{name}.ms_per_call"] = sp.mean_self(f"experiment.{name}", 1e3)
    calls = sum(1 for s in sp.spans if s[0].startswith("closedform."))
    out["closedform.calls"] = calls / passes if calls else None
    return out


_DERIVE = {"mc_ml": _mc_ml, "bounds_vs_m": _bounds_vs_m, "bounds_curves": _bounds_curves}


def derive(workload, spans, mem_peak, passes) -> tuple:
    """(per-layer metric values, self seconds per module) for one traced run."""
    sp = _Spans(spans)
    return _DERIVE[workload](sp, mem_peak, passes), sp.module_self()
