"""The benchmark's tracer wraps flowdim functions by name; they must exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing(monkeypatch):
    # Read-only: no bytecode cache is written next to the benchmark.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists(monkeypatch):
    tracing = load_tracing(monkeypatch)
    missing = []
    for short, names in tracing.WRAPPED.items():
        module = importlib.import_module(f"flowdim.{short}")
        missing += [f"{short}.{name}" for name in names
                    if not callable(getattr(module, name, None))]
    for short, classes in tracing.WRAPPED_METHODS.items():
        module = importlib.import_module(f"flowdim.{short}")
        for cls_name, methods in classes.items():
            cls = getattr(module, cls_name, None)
            missing += [f"{short}.{cls_name}.{method}" for method in methods
                        if cls is None or method not in vars(cls)]
    assert tracing.WRAPPED and tracing.WRAPPED_METHODS
    assert missing == []


def test_every_counter_reads_a_real_call(monkeypatch):
    # Each counter reads a parameter by name or the shape of a result; a
    # renamed parameter or a changed result would break only traced rounds.
    from flowdim.bandlimited import Band
    from flowdim.dynamics import solenoid_from_time
    from flowdim.embedding import SolenoidEmbedding, solenoid_embed
    from flowdim.kernel import KernelSpec
    from flowdim.metric import MetricSample

    tracing = load_tracing(monkeypatch)
    emb = SolenoidEmbedding(c=1.0, K=3, window=4.0)
    pts = [solenoid_from_time(t, 3) for t in (0.0, 1.3)]
    sigs = [solenoid_embed(p, emb) for p in pts]
    sample = MetricSample([0, 1], np.array([[0.0, 1.0], [1.0, 0.0]]))
    calls = {
        "kernel.bump_transform": (np.array([0.0, 1.5]), KernelSpec(Band(0.0, 2.0), 1, 0.5)),
        "embedding.solenoid_embed": (pts[0], emb),
        "embedding.epsilon_embedding_search": (np.array([[0.5], [0.2]]), sample, 0.5, 0.1, 0),
        "embedding.verify_delta_embedding": (sigs, pts, sample, 0.5),
    }
    assert set(calls) == set(tracing.COUNTERS)
    tracer = tracing.Tracer()
    for name, args in calls.items():
        short, func = name.split(".")
        fn = getattr(importlib.import_module(f"flowdim.{short}"), func)
        tracer.wrap(name, fn)(*args)
        count = tracer.counts[f"{name}.{tracing.COUNTERS[name][0]}"]
        assert isinstance(count, int) and count > 0, name
