"""Steadiness of the benchmark: two sets of runs of the same code, apart in time.

    python3 bench/steadiness.py [--workloads a,b] [--runs 10] [--gap 60]
                                [--first-seed 1]

Runs ``bench/run.py --trace 0`` once per seed on each workload, for
``--runs`` distinct seeds per set, in two sets; the second set uses fresh
seeds and starts ``--gap`` seconds after the first ended.  For each
end-to-end metric it prints each set's median and spread (quartile
distance over median, as statistics.quantiles(n=4) gives them), and the
second set's median change against the first, next to the bound in
BENCHMARK.json.  The code is steady when every change, either way, and
every spread but setup_s's stays within the bound, and every run failed
the same share of its operations.  Raw values go to
.bench_out/steadiness.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def median_change(first, second):
    """The second set's median relative to the first's, signed."""
    return statistics.median(second) / statistics.median(first) - 1


def agree(first, second, bound, check_spread=True):
    """True when the two sets' medians differ by at most bound, in either
    direction, and (with check_spread) each set spreads at most bound."""
    ok = abs(median_change(first, second)) <= bound
    if check_spread:
        ok = ok and spread(first) <= bound and spread(second) <= bound
    return ok


def run_set(workloads, seeds, seconds):
    runs = {w: [] for w in workloads}
    for workload in workloads:
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[workload].append(result)
            values = " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
            print(f"  {workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
    return runs


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--gap", type=float, default=60.0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    sets = []
    for k in range(2):
        if k:
            time.sleep(args.gap)
        seeds = range(args.first_seed + k * args.runs, args.first_seed + (k + 1) * args.runs)
        print(f"set {k + 1}: seeds {seeds.start}..{seeds.stop - 1}", flush=True)
        sets.append(run_set(workloads, seeds, spec["run_seconds"]))

    out = ROOT / ".bench_out" / "steadiness.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(sets, indent=1))
    ok = True
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = ([r["metrics"][name]["value"] for r in s[workload]]
                             for s in sets)
            print(f"{workload:20s} {name:12s} bound {bound:6.1%}  medians "
                  f"{statistics.median(first):10.4f} {statistics.median(second):10.4f}"
                  f"  spreads {spread(first):6.2%} {spread(second):6.2%}"
                  f"  change {median_change(first, second):+7.2%}")
            ok &= agree(first, second, bound, check_spread=name != "setup_s")
        shares = {round(r["failed"] / r["attempted"], 12) for s in sets for r in s[workload]}
        print(f"{workload:20s} failed share {sorted(shares)}")
        ok &= len(shares) == 1
    print("steady within bounds" if ok else "NOT steady within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
