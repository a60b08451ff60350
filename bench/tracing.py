"""In-memory span tracer that wraps flowdim's layer functions from outside.

``install`` replaces each function in ``WRAPPED`` (and each method in
``WRAPPED_METHODS``) with a wrapper that records a span: name, start, end
and the index of the enclosing span.  A name bound elsewhere by
``from .x import y`` is rebound in every flowdim module that holds it, so
calls through any import path are seen.  Self time is a span minus its
child spans; a wrapped function's self time therefore includes the time of
the unwrapped helpers it calls.  Only the traced round process installs
the wrappers; timed rounds run the package untouched.  tracemalloc slows
every allocation, so it runs only in a tracer made with ``track_alloc``,
whose round's times are not used.  ``wrapper_cost_s`` measures what one
span adds to a call, so that a traced round can report its own overhead.
"""

import functools
import inspect
import math
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

WRAPPED = {
    "kernel": ("certify_constants", "reverify_constants", "bump_transform",
               "interpolation_kernel", "kernel_band_leakage"),
    "embedding": ("solenoid_embed", "bohr_coefficient", "solenoid_recover",
                  "perturb_signal_map", "epsilon_embedding_search",
                  "verify_delta_embedding"),
    "bandlimited": ("signal_metric", "band_support_check"),
    "instances": ("run_embedding_pipeline",),
    "dynamics": ("bw_distance", "suspend"),
    "metric": ("orbit_metric_R", "widim_upper"),
    "io": ("write_table_csv",),
    "cli": ("main",),
}
WRAPPED_METHODS = {
    "bandlimited": {"Signal": ("evaluate",)},
    "dynamics": {"BowenWaltersMetric": ("__init__", "distance", "closure")},
    "instances": {"SuspensionInstance": ("build",)},
}

# Calls whose peak traced allocation is recorded by a track_alloc tracer.
ALLOC_TRACKED = ("kernel.certify_constants", "kernel.reverify_constants")

# Work counters read from a call's arguments and result.
COUNTERS = {
    "kernel.bump_transform": ("points", lambda a, r: int(np.size(a["z"]))),
    "embedding.solenoid_embed": (
        "points", lambda a, r: len(r.values) * len(a["emb"].frequencies())),
    "embedding.epsilon_embedding_search": ("tries", lambda a, r: r[1].tries),
    "embedding.verify_delta_embedding": ("pairs", lambda a, r: r.n_pairs),
}


class Tracer:
    def __init__(self, track_alloc=False):
        self.track_alloc = track_alloc
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = defaultdict(int)
        self.peak_alloc_mb = defaultdict(float)

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        track_alloc = self.track_alloc and name in ALLOC_TRACKED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if track_alloc:
                tracemalloc.start()
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
                if track_alloc:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.peak_alloc_mb[name] = max(self.peak_alloc_mb[name], peak)
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts[f"{name}.{counter[0]}"] += counter[1](bound.arguments, result)
            return result

        return traced

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - children
        return out


def wrapper_cost_s(calls=100_000, repeats=5):
    """Seconds one span wrapper adds to a call: the best time of ``calls``
    wrapped no-op calls minus the best time of as many bare ones."""
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("noop", noop)
    best = {noop: math.inf, wrapped: math.inf}
    for _ in range(repeats):
        for fn in best:
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            best[fn] = min(best[fn], time.perf_counter() - start)
            tracer.spans.clear()
    return max(best[wrapped] - best[noop], 0.0) / calls


def install(tracer):
    """Wrap the layer functions of the imported flowdim package in place."""
    replaced = {}
    for short, names in WRAPPED.items():
        module = sys.modules[f"flowdim.{short}"]
        for name in names:
            original = getattr(module, name)
            replaced[original] = tracer.wrap(f"{short}.{name}", original)
    for short, classes in WRAPPED_METHODS.items():
        module = sys.modules[f"flowdim.{short}"]
        for cls_name, methods in classes.items():
            cls = getattr(module, cls_name)
            for method in methods:
                raw = cls.__dict__[method]
                span = f"{short}.{cls_name}.{method}"
                if isinstance(raw, classmethod):
                    setattr(cls, method, classmethod(tracer.wrap(span, raw.__func__)))
                else:
                    setattr(cls, method, tracer.wrap(span, raw))
    for module_name, module in list(sys.modules.items()):
        if module_name != "flowdim" and not module_name.startswith("flowdim."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replaced:
                setattr(module, attr, replaced[value])
