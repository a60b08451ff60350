"""One benchmark round: a fresh process that runs one workload once.

    python3 bench/workload.py --workload NAME --seed N --dir ROUND_DIR
                              [--trace spans|alloc]

The process imports flowdim from the checkout's ``src``, writes the seeded
inputs under ``ROUND_DIR/in`` and runs the workload's operations, which
write their artifacts under ``ROUND_DIR/out``.  Its last stdout line is a
JSON report: the monotonic times of the first call into flowdim and of the
end of the last operation, the peak resident set size at that point, and
whether each operation succeeded.  ``--trace`` wraps the layer functions
first and adds the span summary.  ``spans`` also reports the overhead of
the spans (their number times the cost of one wrapper, measured after the
last operation); ``alloc`` records the tracemalloc peaks of the kernel
certification.  ``run.py`` starts this process, times it and checks the
artifacts.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import flowdim
from flowdim import cli, io

import params as P


def certified_pipeline(seed, in_dir, out_dir):
    out = str(out_dir)
    kernel = ["--out", out, "kernel-report", "--rho", str(P.RHO), "--tau", str(P.TAU),
              "--band-lo", str(P.BAND[0]), "--band-hi", str(P.BAND[1]),
              "--delta", str(P.DELTA)]
    pipeline = ["--out", out, "embed-pipeline", "--delta", str(P.DELTA),
                "--rho", str(P.RHO), "--N", str(P.LATTICE_N),
                "--base-size", str(P.BASE_SIZE), "--heights", str(P.N_HEIGHTS),
                "--seed", str(seed)]
    return [("kernel-report", lambda: cli.main(kernel) == 0),
            ("embed-pipeline", lambda: cli.main(pipeline) == 0)]


def solenoid_roundtrip(seed, in_dir, out_dir):
    demo = ["--out", str(out_dir), "solenoid-demo", "--depth", str(P.SOLENOID_DEPTH),
            "--T", str(P.SOLENOID_T), "--n-points", str(P.SOLENOID_POINTS),
            "--seed", str(seed)]
    return [("solenoid-demo", lambda: cli.main(demo) == 0)]


def suspension_metrics(seed, in_dir, out_dir):
    system = in_dir / "system.json"
    system.write_text(json.dumps(P.make_system(seed)))
    bw = ["--out", str(out_dir), "bw-metric", "--system", str(system),
          "--height-grid", str(P.BW_HEIGHT_GRID)]
    window = {}

    def torus_window():
        torus = flowdim.mapping_torus(flowdim.instances.rotation_system(P.TORUS_STATES),
                                      height_grid=P.TORUS_HEIGHT_GRID)
        spec = flowdim.OrbitMetricSpec("R-window", P.TORUS_HORIZON, P.TORUS_STEP)
        window["sample"] = flowdim.orbit_metric_R(torus, spec)
        dist = window["sample"].dist
        rows = ((i, j, dist[i, j]) for i in range(len(dist)) for j in range(len(dist)))
        io.write_table_csv(out_dir / "torus-window.csv", rows, header=("i", "j", "d"))
        return True

    def torus_widim():
        value = flowdim.widim_upper(window["sample"], P.TORUS_EPS)
        io.write_table_csv(out_dir / "torus-widim.csv", [(P.TORUS_EPS, value)],
                           header=("eps", "widim_upper"))
        return True

    return [("bw-metric", lambda: cli.main(bw) == 0),
            ("torus-window", torus_window),
            ("widim-upper", torus_widim)]


WORKLOADS = {
    "certified_pipeline": certified_pipeline,
    "solenoid_roundtrip": solenoid_roundtrip,
    "suspension_metrics": suspension_metrics,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--trace", choices=("spans", "alloc"))
    args = parser.parse_args()

    src = Path(__file__).resolve().parent.parent / "src" / "flowdim"
    if Path(flowdim.__file__).resolve().parent != src:
        print(f"flowdim imported from {flowdim.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(track_alloc=args.trace == "alloc")
        tracing.install(tracer)
    in_dir, out_dir = args.dir / "in", args.dir / "out"
    in_dir.mkdir(parents=True)
    out_dir.mkdir()
    ops = WORKLOADS[args.workload](args.seed, in_dir, out_dir)

    t_first = time.monotonic()
    results = {}
    for name, op in ops:
        try:
            results[name] = bool(op())
        except Exception:
            traceback.print_exc()
            results[name] = False
    t_last = time.monotonic()
    report = {
        "t_first": t_first,
        "t_last": t_last,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": results,
        "attempted": len(ops),
    }
    if tracer is not None:
        report["spans"] = tracer.summary()
        report["counts"] = dict(tracer.counts)
        report["peak_alloc_mb"] = dict(tracer.peak_alloc_mb)
        if args.trace == "spans":
            report["trace_overhead_s"] = len(tracer.spans) * tracing.wrapper_cost_s()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
