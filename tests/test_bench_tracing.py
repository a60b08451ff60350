"""The benchmark's tracer wraps flowdim functions by name; they must exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

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
