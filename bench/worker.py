"""One fresh benchmark worker: imports nfcrb from the checkout's src/, drives
`nfcrb.cli.main` in-process in a closed loop (each invocation starts after
the previous one returns) and checks every output.

Modes:
  setup  time the import and config loading only
  run    setup, a warm-up pass, then whole passes until --seconds have
         elapsed (at least MIN_PASSES); on workloads.PROBED each invocation
         is followed by the speed probe (speed.py)
  trace  setup, a warm-up pass, --untraced passes, then --traced passes with
         spans recorded; the spans are written to --trace-file

Every invocation, the warm-up pass's too, is checked, and repeats of a case
must be byte-identical to its first output.

The result is one JSON object on the last line of standard output. BLAS
threads are pinned by the parent through the environment before numpy loads.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_PASSES = 2


def setup(cases):
    """Import nfcrb from the checkout and load each case's config the way
    `nfcrb preset` does (preset -> serialize -> parse). Returns the cli
    module and the seconds since this process began running Python code."""
    if not (SRC / "nfcrb" / "__init__.py").is_file():
        raise SystemExit(f"worker: no nfcrb package under {SRC}")
    sys.path.insert(0, str(SRC))
    from nfcrb import cli, experiment

    table = experiment.presets()
    for case in cases:
        experiment.parse_config_text(
            experiment.serialize_config(table[case.preset]), overrides=case.overrides)
    return cli, time.perf_counter() - T0


class Outputs:
    """First output of each case, and the invocations that failed."""

    def __init__(self):
        self.first = {}
        self.problems = {}
        self.failed = 0
        self.attempted = 0

    def record(self, case_id, code, text, err):
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.problems.setdefault(case_id, []).append(f"exit {code}: {err.strip()[-300:]}")
        elif case_id not in self.first:
            self.first[case_id] = text
        elif text != self.first[case_id]:
            self.failed += 1
            self.problems.setdefault(case_id, []).append(
                "output differs from this run's first invocation")

    def check_references(self, counts, seed):
        """Compare each case's first output with its stored reference; a
        failing case fails every one of its invocations that succeeded."""
        from check import check_csv
        from workloads import DEFAULT_SEED

        for case_id, text in self.first.items():
            ref = (HERE / "refs" / f"{case_id}.csv").read_text(encoding="utf-8")
            problems = check_csv(text, ref, seed, DEFAULT_SEED)
            if problems:
                same = counts[case_id] - len(self.problems.get(case_id, []))
                self.failed += same
                self.problems.setdefault(case_id, []).extend(problems[:10])


def invoke(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # a crash is a failed invocation, not a benchmark error
        code = f"exception {type(exc).__name__}"
        err.write(str(exc))
    return code, time.perf_counter() - start, out.getvalue(), err.getvalue()


def run_pass(cli, cases, seed, outputs, latencies, counts, probe=None, slowdowns=None):
    """Run each case once; returns the pass's wall time. With a probe, the
    slowdown each invocation ran under goes to slowdowns[case_id]."""
    start = time.perf_counter()
    for case in cases:
        code, dt, text, err = invoke(cli, case.argv(seed))
        if probe is not None:
            slowdowns.setdefault(case.case_id, []).append(probe.slowdown_after(dt))
        latencies.setdefault(case.case_id, []).append(dt)
        counts[case.case_id] = counts.get(case.case_id, 0) + 1
        outputs.record(case.case_id, code, text, err)
    return time.perf_counter() - start


def data_rows(text):
    return sum(1 for ln in text.splitlines() if ln and not ln.startswith("#")) - 1


def mc_trials(text):
    """Monte Carlo trials behind one CSV: trials per sweep point, summed."""
    from check import split_csv

    _, header, table = split_csv(text)
    if "trials" not in header or not table:
        return 0
    method, trials = header.index("method"), header.index("trials")
    return sum(int(row[trials]) for row in table if row[method] == table[0][method])


def blas_info():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads_reported": _openblas_threads(np),
    }


def _openblas_threads(np):
    import ctypes

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    for lib in libs:
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--untraced", type=int, default=0)
    ap.add_argument("--traced", type=int, default=0)
    ap.add_argument("--trace-file")
    args = ap.parse_args()

    from workloads import cases as workload_cases

    cases = workload_cases(args.workload, args.size)
    cli, setup_s = setup(cases)
    from speed import SpeedProbe

    # import and config loading are interpreter-bound: the probe scales them
    result = {"setup_s": setup_s, "setup_slowdown": SpeedProbe().slowdown_after(setup_s)}
    if args.mode != "setup":
        result.update(measure(args, cli, cases))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


def measure(args, cli, cases):
    outputs, latencies, counts = Outputs(), {}, {}
    # the first invocations of a process run cold (about 1.5x on mc_ml):
    # one untimed pass, still checked, warms them up
    run_pass(cli, cases, args.seed, outputs, {}, counts)
    untraced, traced = [], []
    out = {}
    if args.mode == "run":
        from speed import SpeedProbe
        from workloads import PROBED

        probe = SpeedProbe() if args.workload in PROBED else None
        slowdowns = {}
        start = time.perf_counter()
        while True:
            untraced.append(run_pass(cli, cases, args.seed, outputs, latencies, counts,
                                     probe, slowdowns))
            wall = time.perf_counter() - start
            if wall >= args.seconds and len(untraced) >= MIN_PASSES:
                break
        out.update(wall_s=wall, slowdown=slowdowns, kernel_s=probe.kernel_s if probe else [])
    else:
        from layers import derive, install
        from tracer import Tracer

        for _ in range(args.untraced):
            untraced.append(run_pass(cli, cases, args.seed, outputs, latencies, counts))
        tracer = Tracer()
        install(tracer)
        try:
            for _ in range(args.traced):
                traced.append(run_pass(cli, cases, args.seed, outputs, latencies, counts))
        finally:
            tracer.unwrap()
        layer, module_self = derive(args.workload, tracer.spans, tracer.mem_peak, args.traced)
        out.update(layer=layer, module_self_s=module_self, absent=tracer.absent)
        if args.trace_file:
            Path(args.trace_file).parent.mkdir(parents=True, exist_ok=True)
            with open(args.trace_file, "w", encoding="utf-8") as fh:
                json.dump({"workload": args.workload, "passes": args.traced,
                           "absent": tracer.absent, "mem_peak_bytes": tracer.mem_peak,
                           "spans": tracer.spans}, fh)

    outputs.check_references(counts, args.seed)
    out.update(
        attempted=outputs.attempted, failed=outputs.failed, problems=outputs.problems,
        untraced_pass_s=untraced, traced_pass_s=traced,
        latency_s=latencies,
        rows_per_pass=sum(
            data_rows(outputs.first[c.case_id]) for c in cases if c.case_id in outputs.first),
        mc_trials_per_pass=sum(mc_trials(text) for text in outputs.first.values()),
        env=blas_info(),
    )
    return out


if __name__ == "__main__":
    main()
