"""The metric printer, the per-layer reduction and the span tracer."""

import json
import shutil
import subprocess
import sys
import time

import run
import tracing
from conftest import BENCH

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def declared(kind):
    return [(m["name"], m["unit"]) for m in SPEC[kind]]


def test_tables_match_benchmark_json():
    assert list(run.END_TO_END) == declared("end_to_end")
    assert list(run.PER_LAYER) == declared("per_layer")
    assert list(run.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


def fake_round(trace_overhead_s, peak_alloc_mb=0.0):
    return {"trace_overhead_s": trace_overhead_s, "bytes_written": 10, "spans": {
        "kernel.bump_transform": {"calls": 2, "total_s": 0.5, "self_s": 0.4},
        "dynamics.BowenWaltersMetric.__init__": {"calls": 3, "total_s": 0.3, "self_s": 0.3}},
        "counts": {"kernel.bump_transform.points": 7},
        "peak_alloc_mb": {"kernel.certify_constants": peak_alloc_mb}}


def fake_layer_metrics():
    return run.layer_metrics([fake_round(0.5)], [fake_round(3.0, 600.0)])


def test_printer_emits_every_declared_metric():
    for kind, spec, values in (
            ("end_to_end", run.END_TO_END, {"wall_s": 1.5, "setup_s": 0.4, "peak_rss_mb": 90.0}),
            ("per_layer", run.PER_LAYER, fake_layer_metrics())):
        line = json.loads(run.result_line(True, 4, 0, values, spec))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert [(k, v["unit"]) for k, v in line["metrics"].items()] == declared(kind)


def test_layer_metrics_read_spans_and_counts():
    values = fake_layer_metrics()
    assert values["kernel.bump_transform.self_s"] == 0.4
    assert values["kernel.bump_transform.points"] == 7
    assert values["dynamics.BowenWaltersMetric.builds"] == 3
    assert values["dynamics.BowenWaltersMetric.build_s"] == 0.3
    assert values["dynamics.suspend.calls"] == 0
    assert values["kernel.certify_constants.peak_alloc_mb"] == 600.0
    assert values["trace_overhead_s"] == 0.5


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        inner()
        inner()

    tracer.wrap("outer", outer_body)()
    summary = tracer.summary()
    assert summary["inner"]["calls"] == 2
    outer = summary["outer"]
    assert abs(outer["total_s"] - outer["self_s"] - summary["inner"]["total_s"]) < 1e-9
    assert outer["self_s"] < 0.01


def test_wrapper_cost_is_small_and_positive():
    cost = tracing.wrapper_cost_s(calls=20_000, repeats=3)
    assert 0.0 < cost < 1e-4


def test_install_rebinds_imported_names():
    code = (
        "import tracing, flowdim\n"
        "from flowdim import cli, instances, embedding, dynamics, kernel\n"
        "tracing.install(tracing.Tracer())\n"
        "for mod, name in ((cli, 'certify_constants'), (instances, 'certify_constants'),\n"
        "                  (cli, 'bw_distance'), (embedding, 'interpolation_kernel'),\n"
        "                  (instances, 'suspend'), (flowdim, 'widim_upper')):\n"
        "    assert hasattr(getattr(mod, name), '__wrapped__'), (mod, name)\n"
        "assert hasattr(dynamics.BowenWaltersMetric.closure, '__wrapped__')\n"
        "assert hasattr(instances.SuspensionInstance.build.__func__, '__wrapped__')\n")
    env = run.child_env(BENCH.parent)
    env["PYTHONPATH"] += f":{BENCH}"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "solenoid_roundtrip",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
