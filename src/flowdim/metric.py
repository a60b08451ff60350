"""Finite-sample metric spaces, orbit metrics, and mean-dimension tables.

The central surrogate here is ``widim_upper``: a deterministic upper
estimate of the epsilon-width dimension of a finite metric sample,
computed from the nerve order of a greedily built cover by open
``eps/2`` balls.  A finite sample is honestly zero-dimensional, so the
estimate only carries information in the *grid regime*: when the sample
resolves a continuum at scales well below ``eps`` and ``eps`` stays
below the diameter.  All table outputs flag the value as an upper
estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidHorizonError, InvariantViolationError, MetricInvariantError

TRIANGLE_TOL = 1e-9
# Above this size an exhaustive O(n^3) triangle scan is replaced by a
# randomized one (the acceptance instances reach several thousand points).
EXHAUSTIVE_TRIANGLE_LIMIT = 300
RANDOM_TRIANGLE_SAMPLES = 100_000


class MetricSample:
    """A finite point set with a pairwise distance table.

    ``points`` are opaque hashable ids; ``dist`` is a symmetric
    nonnegative matrix with zero diagonal.  Distinct points may sit at
    distance zero (orbit metrics of short windows are pseudometrics).
    """

    def __init__(self, points, dist, validate=True):
        self.points = list(points)
        self.dist = np.asarray(dist, dtype=float)
        n = len(self.points)
        if self.dist.shape != (n, n):
            raise MetricInvariantError(
                f"distance table shape {self.dist.shape} does not match {n} points")
        if len(set(self.points)) != n:
            raise MetricInvariantError("point ids must be unique")
        if validate and n > 0:
            self._validate()

    def _validate(self):
        d = self.dist
        if not np.all(np.isfinite(d)):
            raise MetricInvariantError("distances must be finite")
        if np.any(d < -TRIANGLE_TOL):
            raise MetricInvariantError("distances must be nonnegative")
        if np.any(np.abs(np.diag(d)) > TRIANGLE_TOL):
            raise MetricInvariantError("diagonal must vanish")
        if not np.allclose(d, d.T, atol=TRIANGLE_TOL, rtol=0.0):
            raise MetricInvariantError("distance table must be symmetric")
        n = d.shape[0]
        if n <= EXHAUSTIVE_TRIANGLE_LIMIT:
            best = np.full_like(d, np.inf)
            for k in range(n):
                np.minimum(best, d[:, k:k + 1] + d[k:k + 1, :], out=best)
            if np.any(d > best + TRIANGLE_TOL):
                raise MetricInvariantError("triangle inequality violated")
        else:
            rng = np.random.default_rng(0)
            i, j, k = (rng.integers(0, n, size=RANDOM_TRIANGLE_SAMPLES) for _ in range(3))
            if np.any(d[i, j] > d[i, k] + d[k, j] + TRIANGLE_TOL):
                raise MetricInvariantError("triangle inequality violated (sampled)")

    def __len__(self):
        return len(self.points)

    def diameter(self):
        return float(self.dist.max()) if len(self.points) else 0.0


@dataclass
class OrbitMetricSpec:
    """Window description for an orbit metric of a flow.

    ``kind`` is ``"R-window"``: the horizon is a time length R, and
    ``time_step`` grids the sup over [0, R].
    """

    kind: str
    horizon: float
    time_step: float

    def __post_init__(self):
        if self.kind != "R-window":
            raise InvalidHorizonError(f"unknown window kind {self.kind!r}")
        if not 0 < self.horizon < math.inf:
            raise InvalidHorizonError("window horizon must be positive and finite")
        if not (0 < self.time_step <= self.horizon):
            raise InvalidHorizonError("time_step must lie in (0, horizon]")


@dataclass
class CoverNerve:
    """A cover of a sample by small sets together with its nerve order.

    ``order`` is the largest number of cover elements sharing a sample
    point (the exact nerve dimension of the point-set cover is
    ``order - 1``).  ``nerve_dim`` applies the brick-tiling correction
    ``floor(log2(order))``: on sup-metric product samples the greedy
    ball cover overlaps like a product of chains, whose standard
    brick refinement at the same mesh realizes order ``log2``-many.
    """

    cover: list
    order: int
    nerve_dim: int
    eps: float
    centers: list = field(default_factory=list)


def cover_nerve(sample: MetricSample, eps: float) -> CoverNerve:
    """Greedy open-ball cover with mesh < eps, plus its nerve order.

    Centers are chosen in point-id ascending order: each not-yet-covered
    point seeds the open ball of radius eps/2 around it.  Deterministic
    given the point enumeration.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    n = len(sample)
    if n == 0:
        return CoverNerve(cover=[], order=0, nerve_dim=0, eps=eps)
    if sample.diameter() < eps:
        # The whole sample is one admissible element; constant map.
        return CoverNerve(cover=[np.arange(n)], order=1, nerve_dim=0, eps=eps,
                          centers=[0])
    d = sample.dist
    radius = eps / 2.0
    covered = np.zeros(n, dtype=bool)
    elements = []
    centers = []
    counts = np.zeros(n, dtype=np.int64)
    for i in range(n):
        if covered[i]:
            continue
        member = d[i] < radius
        member[i] = True
        elements.append(np.flatnonzero(member))
        centers.append(i)
        covered |= member
        counts += member
    order = int(counts.max())
    return CoverNerve(cover=elements, order=order,
                      nerve_dim=int(math.floor(math.log2(order))),
                      eps=eps, centers=centers)


def widim_upper(sample: MetricSample, eps: float) -> int:
    """Brick-heuristic estimate of the eps-width dimension of the sample.

    Returns ``nerve_dim = floor(log2(order))`` of the greedy ball cover
    (see ``CoverNerve``).  What the cover proves is ``order - 1``: the
    partition of unity subordinate to the cover maps the sample into the
    nerve, of dimension ``order - 1``, and identifies only points lying in
    a common element, hence points at distance < eps.  The ``log2``
    correction is a heuristic from brick tilings of sup-metric products
    and can sit below the true eps-width dimension.  Meaningful in the
    grid regime only; always <= len(sample) - 1.
    """
    return cover_nerve(sample, eps).nerve_dim


def spanning_number(sample: MetricSample, eps: float) -> int:
    """Size of a greedy eps-spanning set (closed balls, d <= eps).

    Picks the center covering the most uncovered points (ties broken by
    lowest id) and carries the classical guarantee
    greedy <= (1 + ln n) * optimum.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    n = len(sample)
    if n == 0:
        return 0
    within = sample.dist <= eps
    covered = np.zeros(n, dtype=bool)
    count = 0
    while not covered.all():
        gains = (within & ~covered[None, :]).sum(axis=1)
        center = int(np.argmax(gains))
        covered |= within[center]
        count += 1
    return count


def _window_length(N) -> int:
    if not math.isfinite(N) or int(N) != N or N < 1:
        raise InvalidHorizonError("window length N must be a positive integer")
    return int(N)


def windows(flow, horizons, dt):
    """(R, W_R) at each ascending horizon R, from one walk of ``flow.window_blocks``.

    W_R, a ``MetricSample``, is the max of d(tx, ty) over the times k dt <= R
    (to 1e-12), and over R off that grid, by a call of its own: the window
    at R alone, bit for bit.  It is yielded once the tables up to its last
    grid time are in, and the max is written over the tables read.
    W is a lower bound of the sup over [0, R]; the gap is controlled by
    the flow's modulus of continuity over one grid step.  On a
    ``MappingTorus`` every grid time must sit on the torus's height grid
    (R and dt multiples of 1/height_grid; ``window_blocks`` raises
    ``ConfigurationError`` at the first time that does not).  Then the gap
    of its chain metric is at most dt, so W <= sup over [0, R] <= W + dt:
    every t in [0, R] lies within dt/2 of a grid time s, and the chain
    metric moves each of the two points by at most |t - s| (a vertical
    edge costs its flow time, the gluing costs 0).  A table that is not
    finite raises ``InvariantViolationError``.
    """
    times = np.arange(0.0, horizons[-1] + dt * 0.5, dt)
    times = times[times <= horizons[-1] + 1e-12]
    last = times[np.searchsorted(times, np.add(horizons, 1e-12), "right") - 1]
    out, j = None, 0

    def window(j):
        R = horizons[j]
        W = out if last[j] >= R - 1e-12 else _fold(out, R, next(flow.window_blocks([R]))[1][0])
        # A max of pseudometrics is a pseudometric; skip revalidation.
        return R, MetricSample(flow.point_ids(), W, validate=False)

    for block, tables in flow.window_blocks(times):
        for t, table in zip(block, tables):
            while last[j] < t:
                yield window(j)
                j += 1
            out = _fold(out, t, table)
            while j < len(horizons) and last[j] <= t:
                yield window(j)
                j += 1
    yield from map(window, range(j, len(horizons)))


def _fold(out, t, table):
    """The max of ``out`` (None for none) and the table of time t, written over the table."""
    if not np.isfinite(table).all():
        raise InvariantViolationError(f"non-finite evolution at grid time {t}")
    return table if out is None else np.maximum(out, table, out=table)


def orbit_metric_Z(sys, N: int) -> MetricSample:
    """Window metric max_{0<=n<N} d(T^n x, T^n y): the window at horizon N - 1."""
    return next(windows(sys, [_window_length(N) - 1], 1.0))[1]


def orbit_metric_R(flow, spec: OrbitMetricSpec) -> MetricSample:
    """Gridded sup metric over [0, R] (see ``windows``)."""
    return next(windows(flow, [spec.horizon], spec.time_step))[1]


@dataclass
class DimensionTable:
    """Rows of (epsilon, N, value) plus monotonicity diagnostics."""

    rows: list
    kind: str
    diagnostics: list = field(default_factory=list)

    def value(self, eps, N):
        for e, n, v in self.rows:
            if e == eps and n == N:
                return v
        raise KeyError((eps, N))


def mdim_table(sys, eps_list, N_list) -> DimensionTable:
    """Table of widim_upper(d_N^Z, eps) / N over the requested grid.

    Entries are upper estimates; for a system of mean dimension m the
    entries stabilize near m in the grid regime.  Diagnostics record
    epsilon-antitonicity failures (possible outside the regime).
    """
    return _table(sys, eps_list, N_list, "widim_upper/N",
                  lambda window, eps, N: widim_upper(window, eps) / N)


def metric_mdim_table(sys, eps_list, n_list) -> DimensionTable:
    """Table of log A(X, eps, d, n) / (n * |log eps|) with greedy spanning sets."""
    def value(window, eps, n):
        count = spanning_number(window, eps)
        return math.log(count) / (n * abs(math.log(eps))) if count > 0 else 0.0
    return _table(sys, eps_list, n_list, "log_spanning/(n|log eps|)", value)


def _table(sys, eps_list, n_list, kind, value) -> DimensionTable:
    """The rows (eps, n, value(orbit_metric_Z(sys, n), eps, n)) over sorted, nonempty lists."""
    if not len(eps_list) or not len(n_list):
        raise ValueError("epsilon and window lists must be nonempty")
    if list(eps_list) != sorted(eps_list) or list(n_list) != sorted(n_list):
        raise ValueError("epsilon and window lists must be sorted ascending")
    rows = []
    for n, (_, sample) in zip(n_list, windows(sys, [_window_length(n) - 1 for n in n_list], 1.0)):
        rows += [(float(eps), int(n), value(sample, eps, n)) for eps in eps_list]
    return DimensionTable(rows, kind=kind,
                          diagnostics=_antitone_diagnostics(rows, eps_list, n_list))


def _antitone_diagnostics(rows, eps_list, n_list):
    notes = []
    table = {(e, n): v for e, n, v in rows}
    for n in n_list:
        for lo, hi in zip(eps_list, eps_list[1:]):
            if table[(lo, n)] < table[(hi, n)] - 1e-12:
                notes.append(
                    f"value not antitone in epsilon at N={n}: "
                    f"({lo} -> {table[(lo, n)]:.6g}) < ({hi} -> {table[(hi, n)]:.6g})")
    return notes
