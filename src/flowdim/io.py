"""JSON and CSV interchange for samples, systems, and tables.

CSV numeric columns are rendered with repr-faithful formatting so
reruns with identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .dynamics import DynSystem, RoofFunction
from .errors import ConfigurationError
from .metric import MetricSample


def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_table_csv(path, rows, header=("epsilon", "N", "value")):
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return path


def _pairwise(points, metric_kind):
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if metric_kind == "euclidean":
        return np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    if metric_kind == "sup":
        return np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2)
    raise ConfigurationError(f"unknown metric kind {metric_kind!r}")


def load_sample(data) -> MetricSample:
    """Build a MetricSample from a JSON-style dict.

    Either ``{"points": [...], "metric": "euclidean"|"sup"}`` with
    coordinate tuples, ``{"points": [...], "metric": "circle",
    "period": P}`` with scalars, or ``{"ids": [...], "matrix": [[...]]}``.
    """
    if "matrix" in data:
        ids = data.get("ids", list(range(len(data["matrix"]))))
        return MetricSample(ids, np.asarray(data["matrix"], dtype=float))
    points = data["points"]
    kind = data.get("metric", "euclidean")
    if kind == "circle":
        period = float(data["period"])
        vals = np.asarray(points, dtype=float)
        gaps = np.abs(vals[:, None] - vals[None, :]) % period
        dist = np.minimum(gaps, period - gaps)
        return MetricSample(list(range(len(points))), dist)
    dist = _pairwise(points, kind)
    ids = [tuple(p) if isinstance(p, (list, tuple)) else p for p in points]
    return MetricSample(ids, dist)


def load_sample_json(path) -> MetricSample:
    with Path(path).open() as fh:
        return load_sample(json.load(fh))


def load_system(data) -> tuple[DynSystem, RoofFunction | None]:
    """Build a DynSystem (and optional roof) from a JSON-style manifest.

    Expected keys: the sample description (as in ``load_sample``),
    ``step`` (index list), and optionally ``roof`` (positive values).
    """
    sample = load_sample(data)
    step = data["step"]
    if len(step) != len(sample):
        raise ConfigurationError("step table length must match the sample")
    roof = RoofFunction(data["roof"]) if "roof" in data else None
    return DynSystem(sample, step), roof


def load_system_json(path):
    with Path(path).open() as fh:
        return load_system(json.load(fh))
