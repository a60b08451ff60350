"""Z-systems, suspension flows, the Bowen-Walters metric, and the solenoid.

Suspension points are stored in canonical form: height in [0, f(x)),
with (x, f(x)) rewritten as (Tx, 0), by ``_canonical`` on arrays of
points; ``_flow`` flows arrays of points, each by its own time, and
``suspend`` wraps it.  Under a general roof the flow crosses one roof per
step; under roof 1 the crossings have a closed form with the same bits
(x - 1 is exact for 1 <= x < 2^53), and T^n is applied by repeated
squaring.  The Bowen-Walters distance is computed on a finite
graph of (state, height-level) nodes in roof-1 normalized coordinates,
over chains of any number of segments; it is an upper bound of the true
path infimum, antitone as the height grid refines along nested
(divisibility) chains.  ``BowenWaltersMetric`` holds one graph, each
level's horizontal edges pruned of those that shorter ones imply, and
``closure(nodes)`` solves its rows by label-correcting relaxation
(``_chain_rows``), bit for bit the rows of scipy's Dijkstra, which the
tests keep as the oracle.  When T is a bijection and the sample metric d
is exactly symmetric and T-invariant, (x, t) -> (Tx, t) maps the level
graph onto itself cost for cost, so the pruning and the closure rows are
solved once per T-orbit, and the entries of the other states are read
from those rows through the power of T.  The same map
keys the tables of a ``MappingTorus`` window (``orbit_key``), so that the
window reads each distinct table once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    InvariantViolationError,
    UnsupportedDirectionError,
)
from .metric import MetricSample

CIRCLE_TOL = 1e-9
MAX_SUSPEND_STEPS = 10_000_000
# Entries held at once by one block of work: the (x, z, y) redundancy test of
# the pruning, the rows of one closure solve, the edges of one relaxation step,
# the column indices of one closure gather, the points of one window flow and
# a window's table stack.
BLOCK_ENTRIES = 1 << 16


class DynSystem:
    """A finite sample with a total step map of integer state indices (a Z-system)."""

    def __init__(self, base: MetricSample, step):
        self.base = base
        step = np.asarray(step)
        if step.size and step.dtype.kind not in "iu":
            raise InvariantViolationError("step entries must be integers")
        self.step = step.astype(np.int64)
        n = len(base)
        if self.step.shape != (n,) or (n and (self.step.min() < 0 or self.step.max() >= n)):
            raise InvariantViolationError("step must map state indices to state indices")
        if n and len(np.unique(self.step)) == n:
            self.inverse = np.empty(n, dtype=np.int64)
            self.inverse[self.step] = np.arange(n)
        else:
            self.inverse = None

    def __len__(self):
        return len(self.base)

    def point_ids(self):
        return list(self.base.points)

    def window_blocks(self, times):
        """Each time t, whole and >= 0, with the (1, n, n) stack base.dist[T^t x, T^t y]."""
        times = np.asarray(times, dtype=float)
        bad = ~(np.isfinite(times) & (times >= 0) & (times == np.floor(times)))
        if bad.any():
            raise ConfigurationError(f"time {times[np.argmax(bad)]} is not whole and >= 0")
        for i, t in enumerate(times):
            idx = _power(self.step, np.arange(len(self)), np.full(len(self), t))
            yield times[i:i + 1], self.base.dist[np.ix_(idx, idx)][None]


class RoofFunction:
    """Positive, finite return times over the base states."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 1 or not np.all((self.values > 0) & (self.values < np.inf)):
            raise InvariantViolationError("roof values must be positive and finite")

    @classmethod
    def constant(cls, value, n):
        return cls(np.full(n, float(value)))


def _canonical(sys: DynSystem, roof: RoofFunction, states, heights):
    """Canonical form of the points (states[i], heights[i]), as two arrays.

    Heights must lie in [0, f(x)] up to CIRCLE_TOL; below 0 they clamp to 0.
    """
    states = np.asarray(states, dtype=np.int64)
    heights = np.asarray(heights, dtype=float)
    f = roof.values[states]
    bad = ~((-CIRCLE_TOL <= heights) & (heights <= f + CIRCLE_TOL))
    if bad.any():
        i = int(np.argmax(bad))
        raise InvariantViolationError(
            f"height {heights[i]} outside [0, {f[i]}] for state {states[i]}")
    top = heights >= f - CIRCLE_TOL
    return np.where(top, sys.step[states], states), np.where(top, 0.0, np.maximum(heights, 0.0))


def _arrays(points):
    """The states and heights of a sequence of suspension points."""
    return [p.state for p in points], [p.height for p in points]


@dataclass(frozen=True)
class SuspensionPoint:
    """A point (state, height) of the suspension space."""

    state: int
    height: float


def _power(step, states, n):
    """T^n of each of the states, T given by ``step``, by repeated squaring.

    ``n`` holds whole floats >= 0, one per state.  Their binary digits are
    read as floats (n mod 2, then floor(n / 2), both exact), so no count
    overflows, however large.
    """
    while n.any():
        odd = np.fmod(n, 2.0) == 1.0
        states[odd] = step[states[odd]]
        n = np.floor(n / 2.0)
        step = step[step]
    return states


def _flow(sys: DynSystem, roof: RoofFunction, states, heights, t):
    """Flow the points (states[i], heights[i]) by the times t, broadcast per point.

    Returns the canonical states and heights of the points (T^n x, s'),
    where n and s' solve sum_{i<n} f(T^i x) + s' = t + s with
    0 <= s' < f(T^n x).  Each step moves the points not yet under their
    roof, forward where t >= 0 and backward where t < 0, by the same float
    operations one point flowed alone sees.  Backward flow needs an inverse.

    When every roof value is 1.0 the steps have a closed form with the
    same bits: (T^n x, x - n) with n = floor(x), x = s + t the total, then
    the canonical form.  For a float x with 1 <= x < 2^53, x - 1 is exact:
    x is a multiple of ulp(x) <= 1, so is x - 1, and |x - 1| < x.  So
    forward (x >= 0) the steps subtract 1 exactly down to x - n, and cross
    once more, to a height in [-CIRCLE_TOL, 0) read as 0, when x - n is at
    least 1 - CIRCLE_TOL, which is the crossing the canonical form makes.
    Backward (x < 1) each step adds 1 exactly while the sum stays at or
    below -1, so the steps end at one rounding of x - n, or one step
    earlier at a sum in [-CIRCLE_TOL, 0) read as 0; then x - n rounds to
    at least 1 - CIRCLE_TOL, and the canonical form steps it back up to
    the same point.  T^n, or T^-n for n < 0, is applied by repeated
    squaring, so the cost grows with log |n|, not |n|.  Totals of 2^53 and
    more in size, which the steps cannot count, are whole floats: they read
    n = x and s' = 0.
    """
    if not np.isfinite(t).all():
        raise InvariantViolationError("flow times must be finite")
    states, total = _canonical(sys, roof, states, heights)
    back = np.broadcast_to(np.less(t, 0), total.shape)
    total = total + t
    if back.any() and sys.inverse is None:
        raise UnsupportedDirectionError("negative flow time requires an invertible system")
    if np.all(roof.values == 1.0):
        n = np.floor(total)
        total -= n
        states = _power(sys.step, states, np.maximum(n, 0.0))
        states = _power(sys.inverse, states, np.maximum(-n, 0.0))
    else:
        for _ in range(MAX_SUSPEND_STEPS):
            up = np.flatnonzero(~back & (total >= roof.values[states] - CIRCLE_TOL))
            total[up] -= roof.values[states[up]]
            states[up] = sys.step[states[up]]
            down = np.flatnonzero(back & (total < -CIRCLE_TOL))
            if len(down):
                states[down] = sys.inverse[states[down]]
                total[down] += roof.values[states[down]]
            if not len(up) and not len(down):
                break
        else:
            raise ConfigurationError(
                f"suspension flow exceeded {MAX_SUSPEND_STEPS} roof crossings")
    return _canonical(sys, roof, states, np.maximum(total, 0.0))


def suspend(sys: DynSystem, roof: RoofFunction, points, t: float) -> list:
    """Flow a sequence of suspension points by time t (see ``_flow``), as a list."""
    states, heights = _flow(sys, roof, *_arrays(points), t)
    return [SuspensionPoint(int(x), float(h)) for x, h in zip(states, heights)]


def _chain_rows(graph, sources):
    """Least chain lengths from each source node, as a (len(sources), n) array.

    ``graph`` holds the CSR arrays (data, indices, indptr) of n nodes with
    nonnegative edge costs.  Label-correcting relaxation (Bellman 1958, On a
    routing problem): the sources start at 0 and every other node at inf;
    each round relaxes the out-edges of the nodes whose distance the last
    round lowered, by ``np.minimum.at`` into one flat (k n) distance array,
    and the rounds stop when none is lowered.  Every distance is then a
    path's left-to-right float sum and at most fl(D(u) + c) for each edge
    (u, v); float addition is monotone and a nonnegative cost never lowers
    a sum, so along a least path these bounds give its sum, and the
    fixpoint is the least left-to-right float sum over paths: the rows
    Dijkstra returns, bit for bit.  A least path can be taken simple, so
    there are at most n rounds.  A round expands its nodes' out-edges in
    pieces of at most BLOCK_ENTRIES edges plus one node's out-degree.
    """
    data, indices, indptr = graph
    n = len(indptr) - 1
    degree = np.diff(indptr)
    dist = np.full(len(sources) * n, np.inf)
    frontier = np.arange(len(sources)) * n + sources
    dist[frontier] = 0.0
    while len(frontier):
        before = dist.copy()
        nodes = frontier % n
        deg = degree[nodes]
        ends = deg.cumsum()
        # Edge index of each node's j-th out-edge, less its position j in the round.
        first = indptr[nodes] - ends + deg
        rows = frontier - nodes
        bounds = [0, len(frontier)]
        if ends[-1] > BLOCK_ENTRIES:
            bounds[1:1] = ends.searchsorted(np.arange(BLOCK_ENTRIES, ends[-1], BLOCK_ENTRIES), "right")
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if lo == hi:
                continue
            d = deg[lo:hi]
            edges = np.arange(ends[lo] - d[0], ends[hi - 1]) + first[lo:hi].repeat(d)
            np.minimum.at(dist, rows[lo:hi].repeat(d) + indices[edges],
                          dist[frontier[lo:hi]].repeat(d) + data[edges])
        frontier = (dist < before).nonzero()[0]
    return dist.reshape(len(sources), n)


class BowenWaltersMetric:
    """Shortest chains of horizontal and vertical segments on a height grid.

    Heights live in roof-1 normalized coordinates (the suspension over
    f is carried to the roof-1 suspension by (x, s) -> (x, s/f(x))).
    Horizontal segments at height t cost (1-t) d(x,y) + t d(Tx,Ty);
    vertical segments cost flow time.  ``height_grid`` counts the
    uniform grid cells, so levels are {j/height_grid}.

    ``closure(nodes)`` is the chain infimum over chains of any number of
    segments, solved on the one graph ``_build`` makes: the level graph
    without the horizontal edges that shorter ones imply.  Its chain
    lengths equal those of the full level graph up to rounding.

    Each state x = T^m r is stored with the representative r of its
    T-orbit and the shift m.  When ``sys.inverse`` is set and the base
    distances satisfy ``np.array_equal(d, d.T)`` and
    ``np.array_equal(d[np.ix_(step, step)], d)``, the map
    sigma: (x, t) -> (Tx, t) carries every horizontal, vertical and gluing
    edge to one of bit-identical cost: the horizontal cost of (Tx, Ty)
    reads the same two floats as that of (x, y), and symmetry makes it
    irrelevant which direction of a pair the graph reads.  So row (x, t)
    of the closure is row (r, t) read at the columns (T^-m y, k), bit for
    bit (see ``closure``).  Otherwise every state is its own
    representative, with shift 0.
    """

    def __init__(self, sys: DynSystem, roof: RoofFunction, height_grid: int = 16):
        if height_grid < 1:
            raise ConfigurationError("height_grid must be >= 1")
        self.sys = sys
        self.roof = roof
        self.height_grid = height_grid
        self.levels = np.arange(height_grid + 1) / height_grid
        self.n_states = len(sys)
        self.n_levels = len(self.levels)
        self._build()

    def _build(self):
        """The orbit data and the pruned level graph ``_graph``.

        Horizontal edge (x, y) of a level is dropped when some z has
        c(x, z) + c(z, y) <= c(x, y) with both c(x, z) < c(x, y) and
        c(z, y) < c(x, y).  By induction on edge cost every dropped edge is
        the length of a chain of kept ones, so the chain infimum is
        unchanged; the strict inequalities keep every zero-cost edge, and
        with them the zero-cost classes.  Only representative rows r are
        tested, BLOCK_ENTRIES entries at a time: for x = T^m r the costs
        satisfy c(x, y) = c(r, T^-m y) bit for bit, so edge (x, y) is
        dropped exactly when (r, T^-m y) is.
        """
        d = self.sys.base.dist
        step = self.sys.step
        nL, nS = self.n_levels, self.n_states
        n_nodes = nS * nL

        # Orbit representative and shift of each state; _back[m] is T^-m.
        self._rep, self._shift = np.arange(nS), np.zeros(nS, dtype=np.int64)
        back = [np.arange(nS)]
        inverse = self.sys.inverse
        if (inverse is not None and np.array_equal(d, d.T)
                and np.array_equal(d[np.ix_(step, step)], d)):
            self._rep[:] = -1
            for r in range(nS):
                x, m = r, 0
                while self._rep[x] < 0:
                    self._rep[x], self._shift[x] = r, m
                    x, m = step[x], m + 1
            while len(back) <= self._shift.max():
                back.append(inverse[back[-1]])
        self._back = np.array(back)

        # Horizontal costs of each level, read from the upper triangle and mirrored.
        iu, ju = np.triu_indices(nS, k=1)
        t = self.levels[:, None]
        cost = np.zeros((nL, nS, nS))
        cost[:, iu, ju] = (1.0 - t) * d[iu, ju] + t * d[step[iu], step[ju]]
        cost[:, ju, iu] = cost[:, iu, ju]
        reps = np.flatnonzero(self._rep == np.arange(nS))
        implied = np.zeros(cost.shape, dtype=bool)
        rows = max(1, BLOCK_ENTRIES // max(1, nS * nS))
        for c, out in zip(cost, implied):
            for lo in range(0, len(reps), rows):
                block = reps[lo:lo + rows]
                c_xz = c[block, :, None]
                c_xy = c[block, None, :]
                out[block] = ((c_xz + c <= c_xy) & (c_xz < c_xy) & (c < c_xy)).any(axis=1)
        keep = ~implied[:, self._rep[:, None], self._back[self._shift]]
        keep[:, np.arange(nS), np.arange(nS)] = False
        level, x, y = np.nonzero(keep)

        # The gluing, (x, 1) is the same point as (Tx, 0), then the vertical
        # edges within a fiber (adjacent levels).  Only these edges change
        # level, so only they can share a node pair (at height_grid 1 a fixed
        # point's vertical edge is its gluing edge); the first, of cost 0, is kept.
        fiber = np.arange(nS) * nL
        ends = np.concatenate([np.c_[fiber + nL - 1, step * nL]]
                              + [np.c_[fiber + li, fiber + li + 1] for li in range(nL - 1)])
        gaps = np.r_[np.zeros(nS), np.repeat(np.diff(self.levels), nS)]
        ends.sort(axis=1)
        _, first = np.unique(ends[:, 0] * n_nodes + ends[:, 1], return_index=True)
        low, high = ends[first].T

        # CSR arrays (data, indices, indptr): out-edges by tail node, heads sorted.
        tail = np.r_[x * nL + level, low, high]
        head = np.r_[y * nL + level, high, low]
        order = np.argsort(tail * n_nodes + head)
        self._graph = (np.r_[cost[level, x, y], gaps[first], gaps[first]][order], head[order],
                       np.r_[0, np.cumsum(np.bincount(tail, minlength=n_nodes))])
        # Chain-infimum rows of the representative nodes (r, t) only, row
        # _slot[x] * nL + t for every state x of r's orbit, solved on demand
        # and written in place, so the memory of rows that no table reads is
        # never touched.
        self._slot = np.searchsorted(reps, self._rep)
        self._sources = (reps[:, None] * nL + np.arange(nL)).ravel()
        self._rows = np.empty((len(self._sources), n_nodes))
        self._solved = np.zeros(len(self._sources), dtype=bool)

    def nodes(self, states, h):
        """Node of each point (states[i], normalized height h[i]), or -1 off the grid.

        The levels are evenly spaced, so the one a point can sit at is the
        nearest, j = rint(h height_grid) clipped to [0, height_grid]; the
        point sits there when levels[j] lies within CIRCLE_TOL of h.
        """
        j = np.clip(np.rint(h * self.height_grid), 0, self.height_grid).astype(np.int64)
        near = np.abs(self.levels[j] - h) <= CIRCLE_TOL
        return np.where(near, states * self.n_levels + j, -1)

    def closure(self, nodes=None):
        """Chain infimum between the nodes (all nodes by default).

        ``nodes`` is a vector, read as one (n, n) table, or a (k, n) stack
        of them, read as k tables.  Only representative nodes (r, t) get a
        row: those that no earlier query solved are solved by ``_solve``
        over ``_graph``, run as directed: the graph stores both directions
        of every edge, at one cost.  Entry ((T^m r, t), (y, k)) is then read
        from row (r, t) at column (T^-m y, k), BLOCK_ENTRIES entries of a
        table at a time.  That is exact: sigma^m maps the pruned graph onto
        itself with the same costs, and a row holds the least left-to-right
        float sum over paths (see ``_chain_rows``), which sigma^m keeps path
        by path.
        """
        nL = self.n_levels
        nodes = np.arange(self.n_states * nL) if nodes is None else np.asarray(nodes)
        states, levels = np.divmod(nodes, nL)
        rows = self._solve(nodes)
        # Row q of the stacked tables belongs to table q // n.
        n = nodes.shape[-1]
        k = math.prod(nodes.shape[:-1])
        states, levels = states.reshape(k, n), levels.reshape(k, n)
        rows, shifts = rows.ravel(), self._shift[states].ravel()
        out = np.empty((k * n, n))
        size = max(1, BLOCK_ENTRIES // max(1, n))
        for lo in range(0, k * n, size):
            table = np.arange(lo, min(lo + size, k * n)) // n
            cols = self._back[shifts[lo:lo + size, None], states[table]] * nL + levels[table]
            out[lo:lo + size] = self._rows[rows[lo:lo + size, None], cols]
        return out.reshape(nodes.shape + (n,))

    def _solve(self, nodes):
        """The representative rows of the nodes, solving those no earlier call solved.

        They are solved by ``_chain_rows`` from BLOCK_ENTRIES // (node
        count) sources at a time.
        """
        states, levels = np.divmod(nodes, self.n_levels)
        rows = self._slot[states] * self.n_levels + levels
        solve = np.unique(rows[~self._solved[rows]])
        size = max(1, BLOCK_ENTRIES // max(1, self._rows.shape[1]))
        for lo in range(0, len(solve), size):
            block = solve[lo:lo + size]
            self._rows[block] = _chain_rows(self._graph, self._sources[block])
        self._solved[solve] = True
        return rows

    def orbit_key(self, nodes):
        """Each node vector (the last axis) moved by sigma^-m, m the shift of its first state.

        Equal keys give bit-identical ``closure`` tables: the key's table is
        the vector's, read through sigma^-m (see ``closure``).  Without
        orbit representatives every shift is 0 and the key is the vector.
        """
        states, levels = np.divmod(nodes, self.n_levels)
        return self._back[self._shift[states[..., :1]], states] * self.n_levels + levels

    def matrix(self, points):
        """Chain-length upper bounds of the BW distance between the points.

        The ``closure`` table of the points' nodes; each point's normalized
        height must lie on the level grid.
        """
        states, heights = _canonical(self.sys, self.roof, *_arrays(points))
        h = heights / self.roof.values[states]
        nodes = self.nodes(states, h)
        if (nodes < 0).any():
            raise InvariantViolationError(
                f"normalized height {h[np.argmax(nodes < 0)]} is not on the metric's level grid")
        return self.closure(nodes)

    def distance(self, p: SuspensionPoint, q: SuspensionPoint) -> float:
        """Chain-length upper bound of the Bowen-Walters distance (see ``matrix``)."""
        return float(self.matrix([p, q])[0, 1])


def bw_distance(p: SuspensionPoint, q: SuspensionPoint, sys: DynSystem,
                roof: RoofFunction, height_grid: int = 16) -> float:
    """Bowen-Walters upper bound between two points on the level grid (see ``matrix``).

    Antitone in ``height_grid`` along nested grids (e.g. doubling counts).
    """
    return BowenWaltersMetric(sys, roof, height_grid).distance(p, q)


class MappingTorus:
    """The roof-1 suspension of a Z-system, sampled, under the BW metric.

    ``values`` are the height-0 points, on which the time-1 map is T; with
    ``every_height`` they are every grid point (i, j / height_grid),
    j < height_grid, state-major.  ``point_ids()`` are (base id, j) pairs
    and ``suspend(torus.sys, torus.roof, values, t)`` flows the values;
    ``metric.windows`` reads their tables from ``window_blocks``.
    """

    def __init__(self, sys: DynSystem, height_grid: int, every_height: bool):
        self.sys = sys
        self.roof = RoofFunction.constant(1.0, len(sys))
        self.height_grid = height_grid
        self._bw = BowenWaltersMetric(sys, self.roof, height_grid)
        slots = range(height_grid if every_height else 1)
        self.values = [SuspensionPoint(i, j / height_grid) for i in range(len(sys)) for j in slots]
        self._ids = [(x, j) for x in sys.base.points for j in slots]

    def point_ids(self):
        return list(self._ids)

    def window_blocks(self, times):
        """Runs of the times with the (k, n, n) stacks of their distinct tables.

        Each table is yielded once, with the first time it appears at; the
        later times that read it are left out.  Two times read one table
        when they share an ``orbit_key``.  The values are flowed by
        BLOCK_ENTRIES // n times per array flow, one level lookup per flow;
        the new tables are read a BLOCK_ENTRIES-sized stack at a time.  The
        first time whose flowed values leave the height grid raises
        ``ConfigurationError``: the times must be multiples of
        1/height_grid.
        """
        times = np.asarray(times)
        n = len(self.values)
        size = max(1, BLOCK_ENTRIES // max(1, n))
        states, heights = _arrays(self.values)
        seen = set()
        for lo in range(0, len(times), size):
            block = times[lo:lo + size]
            k = len(block)
            flowed = _flow(self.sys, self.roof, np.tile(states, k), np.tile(heights, k),
                           np.repeat(block, n))
            nodes = self._bw.nodes(*flowed).reshape(k, n)
            off = (nodes < 0).any(axis=1)
            if off.any():
                raise ConfigurationError(
                    f"grid time {block[np.argmax(off)]} moves the values off the height grid "
                    f"j/{self.height_grid}; the times must be multiples of 1/{self.height_grid}")
            yield from self._distinct(block, nodes, seen)

    def _distinct(self, block, nodes, seen):
        """The times and tables of the node rows whose ``orbit_key`` is not in ``seen``.

        The rows of all the new tables are solved in one ``_solve`` call
        first; the tables are then read BLOCK_ENTRIES // n^2 at a time.
        """
        new = []
        for i, key in enumerate(self._bw.orbit_key(nodes)):
            key = key.tobytes()
            if key not in seen:
                seen.add(key)
                new.append(i)
        self._bw._solve(nodes[new])
        n = nodes.shape[1]
        size = max(1, BLOCK_ENTRIES // max(1, n * n))
        for lo in range(0, len(new), size):
            rows = new[lo:lo + size]
            yield block[rows], self._bw.closure(nodes[rows])


def mapping_torus(sys: DynSystem, height_grid: int = 16,
                  every_height: bool = False) -> MappingTorus:
    """The ``MappingTorus`` of ``sys`` on the given height grid."""
    return MappingTorus(sys, height_grid, every_height)


def _factorials(K):
    return [math.factorial(n) for n in range(1, K + 1)]


@dataclass(frozen=True)
class SolenoidPoint:
    """Truncated solenoid coordinates (x_1, ..., x_K), x_n in [0, n!)."""

    coords: tuple

    def __init__(self, coords, tol: float = CIRCLE_TOL):
        coords = tuple(float(c) for c in coords)
        object.__setattr__(self, "coords", coords)
        facts = _factorials(len(coords))
        for n, (c, f) in enumerate(zip(coords, facts), start=1):
            if not (0.0 <= c < f + CIRCLE_TOL):
                raise InvariantViolationError(
                    f"coordinate x_{n}={c} outside [0, {f})")
        for n in range(len(coords) - 1):
            f = facts[n]
            gap = (coords[n + 1] - coords[n]) % f
            if min(gap, f - gap) > tol:
                raise InvariantViolationError(
                    f"compatibility x_{n + 2} = x_{n + 1} (mod {f}) fails by {min(gap, f - gap):.3g}")

    @property
    def depth(self):
        return len(self.coords)


def solenoid_act(p: SolenoidPoint, r: float) -> SolenoidPoint:
    """Translate every coordinate by r modulo its circumference."""
    facts = _factorials(p.depth)
    return SolenoidPoint(tuple((c + r) % f for c, f in zip(p.coords, facts)))


def solenoid_from_time(tau: float, depth: int) -> SolenoidPoint:
    """The orbit point of 0 at time tau, truncated to the given depth."""
    facts = _factorials(depth)
    return SolenoidPoint(tuple(tau % f for f in facts))


def _solenoid_gaps(a, b):
    """Solenoid distance along the last axis of coordinate arrays a and b.

    The max over coordinates n of the circle distance of a_n and b_n on
    the circle of circumference n!, scaled by that circumference.
    """
    facts = np.array(_factorials(np.shape(a)[-1]), dtype=float)
    gap = np.abs(a - b) % facts
    return (np.minimum(gap, facts - gap) / facts).max(axis=-1, initial=0.0)
