"""JSON and CSV interchange for samples, systems, and tables.

A CSV table is its header row, quoted by ``csv``, then one line per row,
every line ended by CRLF.  Integers (other than ``bool``) are written in
decimal and every other value as ``%.17g`` of its float, so reruns with
identical inputs produce byte-identical files.  Rows are streamed in
chunks of ``CSV_CHUNK``; all rows of a table have one width.
"""

from __future__ import annotations

import csv
import json
import os
from itertools import islice
from pathlib import Path

import numpy as np

from .dynamics import DynSystem, RoofFunction
from .errors import ConfigurationError, InvariantViolationError, MetricInvariantError
from .metric import MetricSample


# Rows formatted per column and written per fh.write.  A chunk's live row
# tuples stay well under the default young-generation GC threshold (700),
# so streaming a table starts next to no collections.
CSV_CHUNK = 256


def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _column_format(column):
    """A column's format and the values it formats, giving ``_fmt``'s text.

    ``%d`` for a column of integers (``bool`` excluded), ``%.17g`` for a
    column of float subclasses, and for any other column ``%s`` of
    ``_fmt`` of each value.
    """
    kinds = set(map(type, column))
    if all(issubclass(k, float) for k in kinds):
        return "%.17g", column
    if all(issubclass(k, (int, np.integer)) and k is not bool for k in kinds):
        return "%d", column
    return "%s", tuple(map(_fmt, column))


def write_table_csv(path, rows, header=("epsilon", "N", "value")):
    """Write the header, then the rows, CSV_CHUNK at a time, with one format per column.

    Rows are taken lazily from any iterable of sequences; rows of unequal
    width raise ``InvariantViolationError``.  Their width need not be the
    header's.  The table is streamed into the hidden sibling
    ``.<name>.tmp`` and moved onto path only once its last row is written,
    so a write that fails leaves whatever file was at path untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    rows = iter(rows)
    done, width = 0, None
    try:
        with tmp.open("w", newline="") as fh:
            csv.writer(fh).writerow(header)
            while chunk := list(islice(rows, CSV_CHUNK)):
                widths = list(map(len, chunk))
                width = widths[0] if width is None else width
                if widths.count(width) != len(chunk):
                    bad = next(i for i, w in enumerate(widths) if w != width)
                    raise InvariantViolationError(
                        f"row {done + bad} has {widths[bad]} fields, row 0 has {width}")
                if width:
                    formats, columns = zip(*map(_column_format, zip(*chunk)))
                    lines = map(",".join(formats).__mod__, zip(*columns))
                else:
                    lines = [""] * len(chunk)
                fh.write("\r\n".join(lines) + "\r\n")
                done += len(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
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
    Any other shape, or no points, is a ``ConfigurationError``.
    """
    table = data.get("matrix", data.get("points")) if isinstance(data, dict) else None
    if not np.ndim(table):
        raise ConfigurationError("a sample manifest is an object with a points list or a matrix")
    if not len(table):
        raise ConfigurationError("a sample manifest needs at least one point")
    if "matrix" in data:
        ids = data.get("ids", list(range(len(data["matrix"]))))
        return MetricSample(ids, np.asarray(data["matrix"], dtype=float))
    points = data["points"]
    kind = data.get("metric", "euclidean")
    if kind == "circle":
        if "period" not in data:
            raise ConfigurationError("a circle sample needs a period")
        period = float(data["period"])
        vals = np.asarray(points, dtype=float)
        gaps = np.abs(vals[:, None] - vals[None, :]) % period
        dist = np.minimum(gaps, period - gaps)
        return MetricSample(list(range(len(points))), dist)
    dist = _pairwise(points, kind)
    ids = [tuple(p) if isinstance(p, (list, tuple)) else p for p in points]
    return MetricSample(ids, dist)


def load_sample_json(path) -> MetricSample:
    return _load_json(path, load_sample)


def load_system(data) -> tuple[DynSystem, RoofFunction | None]:
    """Build a DynSystem (and optional roof) from a JSON-style manifest.

    Expected keys: the sample description (as in ``load_sample``),
    ``step`` (integer index list), and optionally ``roof`` (positive,
    finite values), both with one entry per sample point.
    """
    sample = load_sample(data)
    n = len(sample)
    if np.shape(data.get("step")) != (n,) or np.shape(data.get("roof", np.ones(n))) != (n,):
        raise ConfigurationError(f"step and roof tables must have one entry per point ({n})")
    roof = RoofFunction(data["roof"]) if "roof" in data else None
    return DynSystem(sample, data["step"]), roof


def load_system_json(path):
    return _load_json(path, load_system)


def _load_json(path, load):
    """``load`` of the JSON file at path; a manifest failing its checks is a ConfigurationError."""
    with Path(path).open() as fh:
        data = json.load(fh)
    try:
        return load(data)
    except (InvariantViolationError, MetricInvariantError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
