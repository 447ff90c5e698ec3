"""Benchmark of the nfcrb figure pipeline, driven through `nfcrb.cli.main`.

    python3 bench/run.py --workload mc_ml --seed 1 --seconds 20 --trace 0

Every workload run starts fresh worker processes (worker.py) one at a time:
a few that only time set-up, then one that runs the workload's presets in a
closed loop for --seconds. With --trace 1 it instead makes the traced run
of every workload, plus single-threaded traced passes of mc_ml and
bounds_vs_m, because each per-layer metric is measured on one workload and
a traced run reports all of them.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it give the environment
record and the metrics the result line leaves out. Full results and spans
go to .bench_out/ in the checkout. See README.md for the metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from speed import REF_KERNEL_S  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    NAMES,
    SINGLE_THREAD_WORKLOADS,
    SIZES,
    TRACE_PASSES,
)

END_TO_END_UNITS = {
    "rows_per_s": "rows/s",
    "pass_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SETUP_WORKERS = 4
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def run_worker(workload, size, seed, mode, threads, **opts):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--size", size, "--seed", str(seed), "--mode", mode]
    for key, value in opts.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"{mode} worker for {workload} printed no result") from exc


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed, threads, worker_env) -> dict:
    return {
        "nproc": os.cpu_count(), "usable_cpus": usable_cpus(), "cpu_model": cpu_model(),
        "python": platform.python_version(), **worker_env,
        "blas_threads_pinned": threads, "git_commit": git_commit(), "seed": seed,
    }


def percentile(values, q):
    """Nearest-rank percentile q (0-100) of values."""
    ordered = sorted(values)
    return ordered[max(0, -(-q * len(ordered) // 100) - 1)]


def latency_lines(latency_s) -> list:
    out = []
    for case_id, values in latency_s.items():
        ms = [v * 1e3 for v in values]
        line = f"call_p50_ms[{case_id}] {statistics.median(ms):.3f} ms (n={len(ms)})"
        if len(ms) >= 100:
            line += f"; call_p90_ms {percentile(ms, 90):.3f} ms"
        out.append(line)
    return out


def end_to_end(args, threads):
    workers = [run_worker(args.workload, args.size, args.seed, "setup", threads)
               for _ in range(SETUP_WORKERS)]
    res = run_worker(args.workload, args.size, args.seed, "run", threads,
                     seconds=args.seconds)
    workers.append(res)
    raw_setups = [w["setup_s"] for w in workers]
    setups = [w["setup_s"] / w["setup_slowdown"] for w in workers]
    lat, slow = res["latency_s"], res["slowdown"]
    n = len(res["untraced_pass_s"])
    busy = [sum(lat[c][k] for c in lat) for k in range(n)]
    # each invocation's wall time, at reference speed where probed (speed.py)
    ref = [sum(lat[c][k] / slow[c][k] if slow else lat[c][k] for c in lat) for k in range(n)]
    rows = res["rows_per_pass"] * n
    metrics = {
        "rows_per_s": rows / sum(ref),
        "pass_p50_ms": statistics.median(ref) * 1e3,
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    notes = latency_lines(lat) + [
        f"passes {n}, rows per pass {res['rows_per_pass']}, timed wall {res['wall_s']:.3f} s, "
        f"setup samples {len(setups)}, setup at this run's own speed "
        f"{statistics.median(raw_setups):.4f} s",
    ]
    if slow:
        notes.append(
            f"at this run's own speed: rows_per_s {rows / sum(busy):.4f} rows/s, pass_p50_ms "
            f"{statistics.median(busy) * 1e3:.4f} ms (speed-probe kernel median "
            f"{statistics.median(res['kernel_s']) * 1e3:.4f} ms, reference "
            f"{REF_KERNEL_S * 1e3} ms)")
    if res["mc_trials_per_pass"]:
        notes.append(f"trials_per_s {res['mc_trials_per_pass'] * n / sum(busy):.4f} trials/s "
                     f"({res['mc_trials_per_pass']} trials per pass)")
    results = {"metrics": metrics, "setup_samples_s": raw_setups, "worker": res}
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    return metrics, [res], notes, results, True


def traced(args, threads):
    values, workers, notes, results = {}, [], [], {}
    ok = True
    for workload in NAMES:
        n = TRACE_PASSES[workload]
        res = run_worker(workload, args.size, args.seed, "trace", threads,
                         untraced=n, traced=n, trace_file=OUT / f"trace_{workload}.json")
        workers.append(res)
        values.update(res["layer"])
        overhead = (statistics.median(res["traced_pass_s"])
                    / statistics.median(res["untraced_pass_s"]) - 1.0)
        values[f"trace.overhead_frac.{workload}"] = overhead
        if workload == "bounds_curves":
            values["experiment.rows"] = res["rows_per_pass"]
        # every traced second belongs to some layer's self time; what is
        # left is the benchmark loop itself, and must stay within the
        # tracing overhead (floored at 1% for overheads that measure ~0)
        wall = sum(res["traced_pass_s"])
        total = sum(res["module_self_s"].values()) or float("nan")
        unattributed = 1.0 - total / wall
        shares = " ".join(f"{k} {v / total:.3f}" for k, v in
                          sorted(res["module_self_s"].items(), key=lambda kv: -kv[1]))
        notes.append(f"self-time shares {workload}: {shares}")
        notes.append(f"unattributed {workload}: {unattributed:.4f} of traced wall "
                     f"{wall:.3f} s (overhead_frac {overhead:.4f})")
        if not 0.0 <= unattributed <= max(overhead, 0.01):
            ok = False
            print(f"trace check failed for {workload}: unattributed {unattributed:.4f}",
                  file=sys.stderr)
        if res["absent"]:
            notes.append(f"absent spans {workload}: {', '.join(res['absent'])}")
        results[workload] = res
    for workload in SINGLE_THREAD_WORKLOADS:
        res = run_worker(workload, args.size, args.seed, "trace", 1,
                         traced=TRACE_PASSES[workload],
                         trace_file=OUT / f"trace_{workload}_t1.json")
        workers.append(res)
        for name in ("estimator.search_ms_per_trial.M1025", "fim.fim_numeric.M2049.ms"):
            if name in res["layer"]:
                values[name + ".t1"] = res["layer"][name]
        results[workload + "_t1"] = res

    metrics = {}
    for name, unit in PER_LAYER:
        value = values.get(name)
        metrics[name] = ({"value": value, "unit": unit} if value is not None
                         else {"value": None, "unit": unit, "status": "absent"})
    results["metrics"] = metrics
    return metrics, workers, notes, results, ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=SIZES, default="full",
                    help="tiny: small grids and sweeps, for testing the benchmark")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nfcrb" / "__init__.py").is_file():
        print(f"bench: no nfcrb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = usable_cpus()
    try:
        metrics, workers, notes, results, ok = (traced if args.trace else end_to_end)(
            args, threads)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    for w in workers:
        for case_id, problems in w["problems"].items():
            for problem in problems:
                print(f"check failed: {case_id}: {problem}", file=sys.stderr)
    env = environment(args.seed, threads, workers[0]["env"])
    notes.append(f"error_rate {failed / attempted:.6f} fraction ({failed}/{attempted})")
    results.update(environment=env, attempted=attempted, failed=failed)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result_{args.workload}_trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)

    print(json.dumps({"environment": env}))
    for line in notes:
        print(line)
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": ok and failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
