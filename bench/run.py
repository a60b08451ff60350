"""flowdim benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round is one fresh process
(``workload.py``) that runs the workload once, the way a user runs the CLI;
rounds repeat, closed loop, until the next one would end after S seconds
(at least one round, two with --trace 1).  After each round the artifacts
are checked (``checks.py``) outside the timed interval.

--trace 0 prints the end-to-end metrics: medians over the rounds of
wall_s (first call into flowdim to the last artifact written), setup_s
(process start to the first call) and peak_rss_mb.  --trace 1 alternates
a traced round and a traced round that also records tracemalloc peaks
(``TRACE_CYCLE``).  It prints the per-layer metrics of the traced rounds,
among them trace_overhead_s (the spans of a round times the measured cost
of one wrapper), and the peaks of the second kind.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 when a result was printed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

WORKLOADS = ("certified_pipeline", "solenoid_roundtrip", "suspension_metrics")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("kernel.certify_constants.self_s", "s"),
    ("kernel.reverify_constants.self_s", "s"),
    ("kernel.bump_transform.self_s", "s"),
    ("kernel.bump_transform.points", "count"),
    ("kernel.interpolation_kernel.calls", "count"),
    ("kernel.kernel_band_leakage.self_s", "s"),
    ("kernel.certify_constants.peak_alloc_mb", "MB"),
    ("kernel.reverify_constants.peak_alloc_mb", "MB"),
    ("embedding.solenoid_embed.self_s", "s"),
    ("embedding.solenoid_embed.points", "count"),
    ("embedding.bohr_coefficient.self_s", "s"),
    ("embedding.bohr_coefficient.calls", "count"),
    ("embedding.solenoid_recover.self_s", "s"),
    ("embedding.perturb_signal_map.self_s", "s"),
    ("embedding.perturb_signal_map.calls", "count"),
    ("embedding.epsilon_embedding_search.self_s", "s"),
    ("embedding.epsilon_embedding_search.tries", "count"),
    ("embedding.verify_delta_embedding.self_s", "s"),
    ("embedding.verify_delta_embedding.pairs", "count"),
    ("bandlimited.signal_metric.self_s", "s"),
    ("bandlimited.signal_metric.calls", "count"),
    ("bandlimited.Signal.evaluate.self_s", "s"),
    ("bandlimited.band_support_check.self_s", "s"),
    ("instances.run_embedding_pipeline.self_s", "s"),
    ("instances.SuspensionInstance.build.self_s", "s"),
    ("dynamics.bw_distance.self_s", "s"),
    ("dynamics.bw_distance.calls", "count"),
    ("dynamics.BowenWaltersMetric.builds", "count"),
    ("dynamics.BowenWaltersMetric.build_s", "s"),
    ("dynamics.BowenWaltersMetric.distance.self_s", "s"),
    ("dynamics.BowenWaltersMetric.closure.self_s", "s"),
    ("dynamics.suspend.self_s", "s"),
    ("dynamics.suspend.calls", "count"),
    ("metric.orbit_metric_R.self_s", "s"),
    ("metric.widim_upper.self_s", "s"),
    ("io.write_table_csv.self_s", "s"),
    ("io.bytes_written", "B"),
    ("cli.main.self_s", "s"),
    ("trace_overhead_s", "s"),
)
# Thread count for BLAS and OpenMP in the measured process (nproc is 2 on
# the reference machine); one thread keeps rounds from contending.
THREADS = "1"
# Round kinds of a traced run; tracemalloc slows the "alloc" rounds, so
# only their allocation peaks are used.
TRACE_CYCLE = ("spans", "alloc")
ROUND_TIMEOUT_S = 150


class RoundFailed(Exception):
    pass


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = THREADS
    return env


def run_round(root, workload, seed, round_dir, trace=None):
    """Start one round process and return its report plus parent-side timings."""
    cmd = [sys.executable, str(root / "bench" / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--dir", str(round_dir)]
    if trace:
        cmd += ["--trace", trace]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(root), cwd=root)
    try:
        stdout, _ = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"round process ran over {ROUND_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"round process exited with {proc.returncode}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["t_first"] - t_spawn
    report["wall_s"] = report["t_last"] - report["t_first"]
    report["peak_rss_mb"] = report["maxrss_kb"] / 1024.0
    report["bytes_written"] = sum(p.stat().st_size for p in (round_dir / "out").iterdir())
    return report


def layer_metrics(traced, alloc):
    """Per-layer metrics: medians over the traced rounds (allocation peaks
    over the alloc rounds)."""
    def median_of(fn):
        return statistics.median(fn(r) for r in traced)

    def span(r, name, key):
        return r["spans"].get(name, {}).get(key, 0 if key == "calls" else 0.0)

    values = {}
    for name, _ in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if name == "trace_overhead_s":
            value = median_of(lambda r: r["trace_overhead_s"])
        elif name == "io.bytes_written":
            value = median_of(lambda r: r["bytes_written"])
        elif name == "dynamics.BowenWaltersMetric.builds":
            value = median_of(lambda r: span(r, "dynamics.BowenWaltersMetric.__init__", "calls"))
        elif name == "dynamics.BowenWaltersMetric.build_s":
            value = median_of(lambda r: span(r, "dynamics.BowenWaltersMetric.__init__", "total_s"))
        elif kind in ("self_s", "calls"):
            value = median_of(lambda r: span(r, base, kind))
        elif kind == "peak_alloc_mb":
            value = statistics.median(r["peak_alloc_mb"].get(base, 0.0) for r in alloc)
        else:
            value = median_of(lambda r: r["counts"].get(name, 0))
        values[name] = value
    return values


def result_line(correct, attempted, failed, values, spec):
    """The result JSON: every metric of spec, by name, with its unit."""
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in spec}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def main(argv=None):
    parser = argparse.ArgumentParser(description="flowdim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "flowdim" / "__init__.py").is_file():
        print(f"no flowdim sources under {root / 'src'}", file=sys.stderr)
        return 2
    work_dir = root / ".bench_out" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"

    rounds, failures = [], []
    attempted = failed = 0
    min_rounds = len(TRACE_CYCLE) if args.trace else 1
    start = time.monotonic()
    try:
        while True:
            trace = TRACE_CYCLE[len(rounds) % len(TRACE_CYCLE)] if args.trace else None
            round_dir = work_dir / f"round{len(rounds)}"
            round_start = time.monotonic()
            report = run_round(root, args.workload, args.seed, round_dir, trace=trace)
            attempted += report["attempted"]
            failed += sum(not ok for ok in report["ops"].values())
            ok_ops = [name for name, ok in report["ops"].items() if ok]
            try:
                failures += checks.check_round(args.workload, round_dir, ok_ops)
            except (OSError, ValueError, KeyError) as exc:
                failures.append(f"unreadable artifacts: {exc!r}")
            shutil.rmtree(round_dir)
            report["trace"] = trace
            rounds.append(report)
            now = time.monotonic()
            if len(rounds) >= min_rounds and now - start + now - round_start > args.seconds:
                break
        if args.trace:
            traced_rounds = [r for r in rounds if r["trace"] == "spans"]
            alloc_rounds = [r for r in rounds if r["trace"] == "alloc"]
            values = layer_metrics(traced_rounds, alloc_rounds)
            summary = work_dir.parent / f"trace-{args.workload}-seed{args.seed}.json"
            summary.write_text(json.dumps(
                {"spans": traced_rounds[0]["spans"], "metrics": values}, indent=1))
            spec = PER_LAYER
        else:
            values = {name: statistics.median(r[name] for r in rounds)
                      for name, _ in END_TO_END}
            spec = END_TO_END
    except RoundFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{time.monotonic() - start:.1f} s", file=sys.stderr)
    print(result_line(not failures, attempted, failed, values, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
