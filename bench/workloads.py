"""The nfcrb CLI invocations that make up one pass of each workload.

A pass runs every case of a workload once, in order, through
`nfcrb.cli.main`. Each case names the reference CSV it is checked against
(`refs/<case_id>.csv`, written by make_refs.py at DEFAULT_SEED).
"""

from dataclasses import dataclass

# The fig8/fig9 presets' own master_seed: at this workload seed the CLI's
# --seed changes nothing, and Monte Carlo RMSE columns are compared with the
# stored references. Presets without Monte Carlo ignore --seed.
DEFAULT_SEED = 20260814

# Enough trials that the per-trial search is about half of an mc_ml pass
# (at the presets' 500 trials it is most of it), few enough that a traced
# pass takes seconds.
MC_TRIALS = 20
M_SWEEP = "9,17,33,65,129,257,513,1025,2049"
TINY_GRID = ("montecarlo.theta_points=31", "montecarlo.range_points=21")

NAMES = ("mc_ml", "bounds_vs_m", "bounds_curves")
SIZES = ("full", "tiny")

# Passes a traced run makes per workload, with and without tracing; a
# single-threaded baseline worker makes the traced passes only.
TRACE_PASSES = {"mc_ml": 1, "bounds_vs_m": 2, "bounds_curves": 25}
SINGLE_THREAD_WORKLOADS = ("mc_ml", "bounds_vs_m")
# Workloads whose invocation times are scaled to reference speed by the
# speed probe (speed.py). Its interpreter-bound kernel tracks the drift of
# interpreter-bound work; it did not track the large-array workloads.
PROBED = ("bounds_curves",)


@dataclass(frozen=True)
class Case:
    case_id: str
    preset: str
    overrides: tuple = ()

    def argv(self, seed: int) -> list:
        args = ["preset", self.preset]
        for item in self.overrides:
            args += ["--set", item]
        return args + ["--seed", str(seed)]


def _mc(trials, extra=(), suffix=""):
    return tuple(
        Case(name + suffix, name, (f"montecarlo.trials={trials}",) + extra)
        for name in ("fig8", "fig9")
    )


def _vs_m(values, suffix=""):
    return tuple(
        Case(name + suffix, name, (f"sweep.values={values}",)) for name in ("fig2", "fig3")
    )


_CURVES = tuple(Case(name, name) for name in ("fig4", "fig5", "fig6", "fig7"))

# The tiny size keeps every array size M the per-layer metrics name, so a
# quick run still emits all of them; it shrinks the grid, trials and sweeps.
WORKLOADS = {
    "mc_ml": {"full": _mc(MC_TRIALS), "tiny": _mc(2, TINY_GRID, "_tiny")},
    "bounds_vs_m": {"full": _vs_m(M_SWEEP), "tiny": _vs_m("9,1025,2049", "_tiny")},
    "bounds_curves": {"full": _CURVES, "tiny": _CURVES},
}


def cases(workload: str, size: str) -> tuple:
    return WORKLOADS[workload][size]


def all_cases() -> dict:
    """Every distinct case, keyed by case_id."""
    out = {}
    for sizes in WORKLOADS.values():
        for group in sizes.values():
            for case in group:
                out[case.case_id] = case
    return out
