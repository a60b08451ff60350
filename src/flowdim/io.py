"""JSON and CSV interchange for samples, systems, signals, and tables.

CSV numeric columns are rendered with repr-faithful formatting so
reruns with identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .bandlimited import Band, Signal
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


def write_trajectory_csv(path, rows):
    """Rows of (t, state, height) for a suspension trajectory."""
    return write_table_csv(path, rows, header=("t", "state", "height"))


def save_signal(path_prefix, sig: Signal):
    """JSON header plus CSV value block (t, re, im)."""
    prefix = Path(path_prefix)
    header = {
        "band": [sig.band.a, sig.band.b],
        "window": sig.window,
        "grid_step": sig.grid_step,
        "sup_bound": sig.sup_bound,
        "values": str(prefix.with_suffix(".csv").name),
    }
    with prefix.with_suffix(".json").open("w") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")
    t = sig.times()
    rows = zip(t, sig.values.real, sig.values.imag)
    write_table_csv(prefix.with_suffix(".csv"), rows, header=("t", "re", "im"))
    return prefix.with_suffix(".json"), prefix.with_suffix(".csv")


def load_signal(path_json) -> Signal:
    path_json = Path(path_json)
    with path_json.open() as fh:
        header = json.load(fh)
    csv_path = path_json.parent / header["values"]
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    values = data[:, 1] + 1j * data[:, 2]
    return Signal(Band(*header["band"]), header["window"], header["grid_step"],
                  values, sup_bound=header.get("sup_bound", False))


def write_spectrum_csv(path, sig: Signal, pad_factor: int = 4):
    """Export the tapered power spectrum as (freq, power) rows."""
    n = len(sig.values)
    padded = np.zeros(pad_factor * n, dtype=complex)
    padded[:n] = sig.values
    spectrum = np.fft.fftshift(np.fft.fft(padded))
    freqs = np.fft.fftshift(np.fft.fftfreq(len(padded), d=sig.grid_step))
    power = np.abs(spectrum) ** 2
    return write_table_csv(path, zip(freqs, power), header=("freq", "power"))
