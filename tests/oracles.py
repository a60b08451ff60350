"""Reference implementations that the tests compare production code against.

Each one is the straightforward form of a quantity that ``src/`` computes
in a faster or more structured way; none is called outside the tests.
"""

import csv
import math
from pathlib import Path

import numpy as np

from numpy.lib.stride_tricks import sliding_window_view
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from flowdim.bandlimited import KAISER_BETA, TAPS, Signal
from flowdim.dynamics import (
    BLOCK_ENTRIES,
    CIRCLE_TOL,
    BowenWaltersMetric,
    DynSystem,
    RoofFunction,
    SolenoidPoint,
    SuspensionPoint,
    _canonical,
    _solenoid_gaps,
)
from flowdim.embedding import NODE_MARGIN, PHASE_TOL, bohr_cross_term_bound
from flowdim.errors import (
    ConfigurationError,
    InvalidHorizonError,
    InvariantViolationError,
    QuadratureError,
    UnsupportedDirectionError,
)
from flowdim.io import _fmt
from flowdim.kernel import (
    QUAD_NODES,
    QUAD_TOL,
    KernelSpec,
    Lattice,
    _snap_to_lattice,
    interpolation_kernel,
)
from flowdim.metric import MetricSample, OrbitMetricSpec

CERTIFY_GRID_POINTS = 10_000   # per side of the certification window


def grid_factors_per_entry(omega, t0: float, dt: float, n: int):
    """The block factors of ``flowdim.bandlimited._grid_factors``, one exponential per entry.

    head[q] = exp(i omega (t0 + q B dt)) and tail[r] = exp(i omega r dt),
    B = ceil(sqrt(n)), each from its own rounded argument.
    """
    B = max(1, math.ceil(math.sqrt(n)))
    rows = -(-n // B)
    head = np.exp(1j * np.outer(t0 + (B * dt) * np.arange(rows), omega))
    tail = np.exp(1j * np.outer(dt * np.arange(B), omega))
    return head, tail


def bump_transform_outer(z, spec: KernelSpec):
    """The bump transform as chunked cosines over the (points x nodes) outer product.

    The same rule, doubling and doubled-rule check as
    ``flowdim.kernel.bump_transform``, with every wave cos(2 pi z xi_k)
    evaluated directly.  Chunking keeps memory at O(chunk x nodes).
    """
    z = np.asarray(z)
    zz = z.ravel().astype(complex if np.iscomplexobj(z) else float)
    n = QUAD_NODES
    z_max = float(np.abs(zz).max()) if zz.size else 0.0
    while n < 4.0 * spec.tau * z_max:
        n *= 2
    xi, fine_wt = spec._trapezoid(2 * n)
    fine_wt = fine_wt * spec.bump_norm
    # The base rule's nodes are the even fine nodes, at twice the weight.
    coarse_wt = 2.0 * fine_wt[::2]
    out = np.empty(zz.shape, dtype=complex)
    worst = 0.0
    chunk = max(1, (1 << 16) // len(xi))
    for start in range(0, len(zz), chunk):
        waves = np.cos(2.0 * np.pi * np.outer(zz[start:start + chunk], xi))
        fine = waves @ fine_wt
        coarse = waves[:, ::2] @ coarse_wt
        scale = np.maximum(1.0, np.abs(fine))
        worst = max(worst, float((np.abs(fine - coarse) / scale).max()))
        out[start:start + chunk] = fine
    if worst > QUAD_TOL:
        raise QuadratureError(
            f"bump transform quadrature disagreement {worst:.3g} exceeds {QUAD_TOL:.3g}",
            achieved_tol=worst)
    return complex(out[0]) if z.ndim == 0 else out.reshape(z.shape)


def bump_integral_check(spec: KernelSpec):
    """Integral of the normalized bump under the doubled rule."""
    return float(spec._trapezoid(2 * QUAD_NODES)[1].sum() * spec.bump_norm)


def product_function(z, lat: Lattice, K_trunc: int):
    """Truncated lattice product prod_{k=1}^{K} (1 - (rho z)^2 / k^2).

    Evaluates to exactly 0 at included lattice points and exactly 1 at 0.
    The relative truncation error is bounded by
    ``product_truncation_bound``.  Accepts scalars or arrays.
    """
    if K_trunc < 1:
        raise ConfigurationError("K_trunc must be at least 1")
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    w = lat.rho_float * np.atleast_1d(z)
    real_axis = bool(np.all(w.imag == 0.0))
    w2 = (w.real * w.real) if real_axis else (w * w)
    out = np.ones(w2.shape, dtype=float if real_axis else complex)
    flat_w2, flat_out = w2.reshape(-1), out.reshape(-1)
    chunk = 1 << 16
    for start in range(1, K_trunc + 1, chunk):
        k2 = np.arange(start, min(start + chunk, K_trunc + 1), dtype=float) ** 2
        # Blocks of points keep each factor table near 2^20 entries.
        block = max(1, (1 << 20) // len(k2))
        for lo in range(0, len(flat_w2), block):
            factors = 1.0 - flat_w2[lo:lo + block, None] / k2
            flat_out[lo:lo + block] *= factors.prod(axis=-1)
    out = out.astype(complex)
    on, k_hit = _snap_to_lattice(w)
    out[on & (np.abs(k_hit) <= K_trunc)] = 0.0
    return complex(out[0]) if scalar else out


def product_truncation_bound(z, lat: Lattice, K_trunc: int):
    """Certified relative tail bound exp(|rho z|^2 / K_trunc) - 1.

    Valid once K_trunc exceeds roughly 2 |rho z|; the acceptance
    configurations satisfy this with orders of magnitude to spare.
    """
    w = np.abs(lat.rho_float * np.asarray(z, dtype=complex))
    return np.expm1(w * w / K_trunc)


def certify_scan(spec: KernelSpec, delta: float):
    """K_dec, S_sup and delta' from the envelope's max on 20,001 points of the window.

    The window scan that ``flowdim.kernel.certify_constants`` replaced by
    its half-line grid and closed-form tail: K_dec is 1.1 times the
    largest |phi(t)| (1 + t^2) on [-window, window].
    """
    t = np.linspace(-spec.window, spec.window, 2 * CERTIFY_GRID_POINTS + 1)
    envelope = np.abs(interpolation_kernel(t, spec)) * (1.0 + t * t)
    K_dec = 1.1 * float(envelope.max())
    x = np.pi * spec.rho_float
    S_sup = K_dec * x / math.tanh(x)
    return K_dec, S_sup, 0.9 * delta / S_sup


def kernel_rows(run, nodes, t0: float, dt: float, n: int):
    """Rows phi(t0 + j dt - node), j < n, for nodes within NODE_MARGIN of the grid.

    The node x grid matrix that ``flowdim.embedding.EmbeddingRun.kernel_sum``
    contracts with the weights without forming it.  Entry j of a node's
    row is a window of the table of its phase (``node_tables``).
    """
    which, steps, tables, span = node_tables(run, nodes, t0, dt, n)
    return sliding_window_view(np.array(tables), n, axis=1)[which, span - steps]


def node_tables(run, nodes, t0: float, dt: float, n: int):
    """Each node's phase table, its whole grid steps, the tables and their half-length span.

    Each offset node - t0 splits into m whole grid steps and a phase p, so
    phi(t0 + j dt - node) = phi((j - m) dt - p) is entry span - m + j of
    the table of phi at phase p over the grid steps.  Tables are built
    with one ``interpolation_kernel`` call per phase, the first time a
    node has it, and kept on the run apart from ``kernel_sum``'s; phases
    that agree modulo dt to within PHASE_TOL dt share one table.  Each
    table extends n zeros past its end, as ``kernel_sum``'s do.
    """
    span = n + math.ceil(NODE_MARGIN / dt)
    phases, tables = run.__dict__.setdefault("_oracle_tables", {}).setdefault((dt, n), ([], []))
    steps = np.rint((nodes - t0) / dt).astype(np.int64)
    offsets = nodes - t0 - steps * dt
    which = np.full(len(nodes), -1)
    k = 0
    while np.any(which < 0):
        if k == len(phases):
            phases.append(offsets[np.argmax(which < 0)])
            row = interpolation_kernel(dt * np.arange(-span, span + 1) - phases[k], run.kernel)
            tables.append(np.concatenate([row, np.zeros(n)]))
        gap = offsets - phases[k]
        wrap = np.rint(gap / dt).astype(np.int64)
        hit = (which < 0) & (np.abs(gap - wrap * dt) <= PHASE_TOL * dt)
        which[hit] = k
        steps[hit] += wrap[hit]
        k += 1
    return which, steps, tables, span


def kernel_sum_row(run, nodes, weights, t0: float, dt: float, n: int):
    """One row of ``flowdim.embedding.EmbeddingRun.kernel_sum``, summed on its own.

    The per-row sum that ``kernel_sum`` replaced by stacked rows: each
    phase's terms are one Toeplitz-by-blocks product on the lattice of
    the row's own starts, or one convolution per block column where the
    Toeplitz matrix would outgrow the node x grid matrix.  The tables
    (``node_tables``) get their phases in call order, so rows summed here
    in a batch's row order read the tables the batch reads.  Returns the
    n values and, per phase the row uses, the lattice (phase index,
    spacing g, first start c, lattice points, and whether it took the
    Toeplitz product).
    """
    which, steps, tables, span = node_tables(run, nodes, t0, dt, n)
    out = np.zeros(n, dtype=complex)
    lattices = []
    for k in np.unique(which):
        mine = which == k
        starts, table = span - steps[mine], tables[k]
        c = int(starts.min())
        g = int(np.gcd.reduce(starts - c)) or n
        width = min(g, n)
        blocks = -(-n // g)
        lattice = np.zeros((int(starts.max()) - c) // g + 1, dtype=complex)
        np.add.at(lattice, (starts - c) // g, weights[mine])
        size = blocks + len(lattice) - 1
        U = sliding_window_view(table, width)[c::g][:size]
        dense = blocks * size <= len(starts) * n
        if dense:
            padded = np.concatenate([np.zeros(blocks - 1), lattice, np.zeros(blocks - 1)])
            sums = np.ascontiguousarray(sliding_window_view(padded, size)[::-1]) @ U
        else:
            sums = np.stack([np.convolve(U[:, b], lattice[::-1], "valid") for b in range(width)],
                            axis=1)
        out += sums.ravel()[:n]
        lattices.append((int(k), g, c, len(lattice), dense))
    return out, lattices


def level_graph(bw: BowenWaltersMetric):
    """The full level graph of ``bw``, built from its d, step and levels alone.

    Node (x, level l) is x * n_levels + l.  At each level t every pair of
    distinct states is joined by a horizontal edge of cost
    (1 - t) d(x, y) + t d(Tx, Ty), read with x < y; adjacent levels of a
    fiber by a vertical edge of their gap; and (x, 1) to (Tx, 0) by a
    gluing edge of cost 0, which wins where it joins the pair of a vertical
    edge (a fixed point at height_grid 1).  Both directions of every edge
    are stored, zero costs included.
    """
    d, step, levels = bw.sys.base.dist, bw.sys.step, bw.levels
    n_states, n_levels = len(step), len(levels)
    node = np.arange(n_states * n_levels).reshape(n_states, n_levels)
    iu, ju = np.triu_indices(n_states, k=1)
    cost = {}
    for li, t in enumerate(levels):
        cost.update(zip(zip(node[iu, li], node[ju, li]),
                        (1.0 - t) * d[iu, ju] + t * d[step[iu], step[ju]]))
    for x in range(n_states):
        for li in range(n_levels - 1):
            cost[node[x, li], node[x, li + 1]] = levels[li + 1] - levels[li]
    for x in range(n_states):
        cost[tuple(sorted((node[x, -1], node[step[x], 0])))] = 0.0
    ends = np.array(list(cost), dtype=np.int64).reshape(-1, 2)
    data = np.array(list(cost.values()), dtype=float)
    size = n_states * n_levels
    return csr_matrix((np.r_[data, data], (np.r_[ends[:, 0], ends[:, 1]],
                                           np.r_[ends[:, 1], ends[:, 0]])), shape=(size, size))


def pruned_every_row(bw: BowenWaltersMetric):
    """The level graph without the horizontal edges that shorter ones imply.

    The redundancy test run on every row x of every level of
    ``level_graph(bw)``, which ``BowenWaltersMetric._build`` runs on orbit
    representatives only.  Edge (x, y) of a level is dropped when some z
    has c(x, z) + c(z, y) <= c(x, y) with both c(x, z) < c(x, y) and
    c(z, y) < c(x, y).  Rows of x are tested BLOCK_ENTRIES entries at a time.
    """
    graph = level_graph(bw).tocoo()
    nL, nS = bw.n_levels, bw.n_states
    level = graph.row % nL
    horizontal = level == graph.col % nL
    x, y = graph.row[horizontal] // nL, graph.col[horizontal] // nL
    cost = np.zeros((nL, nS, nS))
    cost[level[horizontal], x, y] = graph.data[horizontal]
    implied = np.zeros(cost.shape, dtype=bool)
    rows = max(1, BLOCK_ENTRIES // max(1, nS * nS))
    for c, out in zip(cost, implied):
        for lo in range(0, nS, rows):
            c_xz = c[lo:lo + rows, :, None]
            c_xy = c[lo:lo + rows, None, :]
            out[lo:lo + rows] = ((c_xz + c <= c_xy) & (c_xz < c_xy) & (c < c_xy)).any(axis=1)
    keep = ~horizontal
    keep[horizontal] = ~implied[level[horizontal], x, y]
    return csr_matrix((graph.data[keep], (graph.row[keep], graph.col[keep])),
                      shape=graph.shape)


def closure_every_row(bw: BowenWaltersMetric, nodes=None):
    """Chain infimum between the nodes by Dijkstra from every query node.

    ``BowenWaltersMetric.closure`` without its orbit representatives: every
    row a query reads is solved, BLOCK_ENTRIES // (node count) sources at a
    time, over ``pruned_every_row(bw)`` run as directed.
    """
    n_nodes = bw.n_states * bw.n_levels
    nodes = np.arange(n_nodes) if nodes is None else np.asarray(nodes)
    graph = pruned_every_row(bw)
    rows = np.empty((n_nodes, n_nodes))
    todo = np.unique(nodes)
    size = max(1, BLOCK_ENTRIES // n_nodes)
    for lo in range(0, len(todo), size):
        block = todo[lo:lo + size]
        rows[block] = dijkstra(graph, indices=block)
    return rows[nodes[..., :, None], nodes[..., None, :]]


def weighted_sup(t, v, others, n_max: int):
    """``flowdim.bandlimited.signal_metric`` from the values v to each row of ``others``.

    v and the rows hold values at the times of ``_near_values``, whose |t|
    is t; each ring's sup is a masked max over all of them, with no sort
    and no running maximum.
    """
    diff = np.abs(v - others)
    total = 0.0
    for n in range(1, int(n_max) + 1):
        total = total + diff[..., t <= n + 1e-12].max(axis=-1) / 2.0 ** n
    return total


def evaluate_per_pair(sig: Signal, t):
    """``Signal.evaluate`` with the Kaiser-sinc weight of every (point, tap) pair.

    The form that ``Signal.evaluate`` replaced by one weight row per
    distinct fractional offset.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    dt = sig.grid_step
    pos = (t + sig.window) / dt
    j0 = np.floor(pos).astype(np.int64)
    frac = pos - j0
    on_grid = frac < 1e-12
    near_next = frac > 1 - 1e-12
    j0[near_next] += 1
    frac[near_next] = 0.0
    on_grid |= near_next
    out = np.empty(len(t), dtype=complex)
    out[on_grid] = sig.values[j0[on_grid]]
    off = ~on_grid
    offsets = np.arange(-(TAPS - 1), TAPS + 1)
    rel = frac[off, None] - offsets[None, :]
    u = rel / TAPS
    win = (np.i0(KAISER_BETA * np.sqrt(np.clip(1.0 - u * u, 0.0, None)))
           / np.i0(KAISER_BETA))
    w = np.sinc(rel) * win
    idx = j0[off, None] + offsets[None, :]
    out[off] = (sig.values[idx] * w).sum(axis=1)
    return out


def spanning_number_exact(sample: MetricSample, eps: float) -> int:
    """Size of a smallest eps-spanning set (closed balls, d <= eps).

    A subset DP over covered sets, for samples of at most 15 points.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    n = len(sample)
    if n == 0:
        return 0
    within = sample.dist <= eps
    if n > 15:
        raise ValueError("exact mode supports at most 15 points")
    masks = []
    for row in within:
        m = 0
        for j in np.flatnonzero(row):
            m |= 1 << int(j)
        masks.append(m)
    full = (1 << n) - 1
    INF = n + 1
    dp = [INF] * (1 << n)
    dp[0] = 0
    for state in range(1 << n):
        if dp[state] >= INF:
            continue
        if state == full:
            break
        # Lowest uncovered point must be covered by some center.
        low = (~state & full)
        low = (low & -low).bit_length() - 1
        for c in range(n):
            if within[c, low]:
                nxt = state | masks[c]
                if dp[state] + 1 < dp[nxt]:
                    dp[nxt] = dp[state] + 1
    return dp[full]


def canonical(p: SuspensionPoint, sys: DynSystem, roof: RoofFunction) -> SuspensionPoint:
    """One suspension point in canonical form: height in [0, f(x)), (x, f(x)) as (Tx, 0)."""
    states, heights = _canonical(sys, roof, [p.state], [p.height])
    return SuspensionPoint(int(states[0]), float(heights[0]))


def scalar_suspend(sys: DynSystem, roof: RoofFunction, p: SuspensionPoint,
                   t: float) -> SuspensionPoint:
    """One point flowed by the per-step scalar loop, its own canonical form included.

    One roof crossing per step, under any roof: the form that
    ``flowdim.dynamics._flow`` has in closed form for roof 1.
    """
    def canon(state, height):
        f = float(roof.values[state])
        if not (-CIRCLE_TOL <= height <= f + CIRCLE_TOL):
            raise InvariantViolationError(f"height {height} outside [0, {f}]")
        if height >= f - CIRCLE_TOL:
            return int(sys.step[state]), 0.0
        return state, max(height, 0.0)

    state, total = canon(p.state, p.height)
    total += t
    if t >= 0:
        while total >= float(roof.values[state]) - CIRCLE_TOL:
            total -= float(roof.values[state])
            state = int(sys.step[state])
    else:
        if sys.inverse is None:
            raise UnsupportedDirectionError("negative flow time requires an invertible system")
        while total < -CIRCLE_TOL:
            state = int(sys.inverse[state])
            total += float(roof.values[state])
    return SuspensionPoint(*canon(state, max(total, 0.0)))


def solenoid_distance(p: SolenoidPoint, q: SolenoidPoint) -> float:
    """Max over coordinates of the circle distance scaled by circumference."""
    if p.depth != q.depth:
        raise InvariantViolationError("solenoid points must share a depth")
    return float(_solenoid_gaps(np.array(p.coords), np.array(q.coords)))


def _solenoid_terms(depth: int):
    """Circumferences n!, frequencies 2 pi / n! and moduli 2^-n of the embedding sum, n <= depth."""
    facts = np.array([math.factorial(n) for n in range(1, depth + 1)], dtype=float)
    return facts, 2.0 * np.pi / facts, 2.0 ** -np.arange(1, depth + 1)


def solenoid_coordinate_bound(n: int, depth: int, T: float) -> float:
    """n!/(2 pi) asin(c / 2^-n), c = ``bohr_cross_term_bound`` at coordinate n.

    A Bohr mean over any interval of length T is within c of the
    coefficient 2^-n at frequency 2 pi / n!, so its phase is within
    asin(c / 2^-n) and the recovered coordinate within this many units
    of its circle of circumference n!.
    """
    facts, lam, moduli = _solenoid_terms(depth)
    cross = bohr_cross_term_bound(moduli, lam, n - 1, T)
    return facts[n - 1] / (2.0 * math.pi) * math.asin(cross / moduli[n - 1])


def solenoid_exact_mean_error(tau: float, n: int, depth: int, T: float) -> float:
    """Circle error of coordinate n of the orbit point at time tau, read from the exact Bohr mean over [0, T].

    The mean of sum_k 2^-k exp(i lam_k (tau + t)) exp(-i lam_n t) over
    [0, T] in closed form: each k != n contributes its coefficient times
    (exp(i g T) - 1) / (i g T), g = lam_k - lam_n.
    """
    facts, lam, moduli = _solenoid_terms(depth)
    coeffs = moduli * np.exp(1j * lam * (tau % facts))
    others = np.arange(depth) != n - 1
    g = lam[others] - lam[n - 1]
    mean = coeffs[n - 1] + (coeffs[others] * np.expm1(1j * g * T) / (1j * g * T)).sum()
    fact = facts[n - 1]
    gap = abs(fact / (2.0 * math.pi) * np.angle(mean) % fact - tau % fact) % fact
    return min(gap, fact - gap)


def sample_distance(sample: MetricSample, p, q) -> float:
    """The distance between the points with ids p and q of a metric sample."""
    return float(sample.dist[sample.points.index(p), sample.points.index(q)])


def orbit_metric_R_loop(flow, spec: OrbitMetricSpec) -> MetricSample:
    """Gridded sup metric sup_{t in {0, dt, ..., R}} d(tx, ty).

    A lower bound of the true sup over [0, R]; the gap is controlled by
    the flow's modulus of continuity over one grid step.  The per-time
    loop that ``flowdim.metric.orbit_metric_R`` replaced by its blocks of
    grid times: each value flowed by ``scalar_suspend``, then one table
    per time from a ``BowenWaltersMetric`` on the flow's height grid, built
    apart from the flow's own.
    """
    if spec.kind != "R-window":
        raise InvalidHorizonError("orbit_metric_R expects an R-window spec")
    R, dt = spec.horizon, spec.time_step
    times = np.arange(0.0, R + dt * 0.5, dt)
    if times[-1] < R - 1e-12:
        times = np.append(times, R)
    bw = BowenWaltersMetric(flow.sys, flow.roof, flow.height_grid)
    out = None
    for t in times:
        mat = bw.matrix([scalar_suspend(flow.sys, flow.roof, p, float(t)) for p in flow.values])
        if not np.all(np.isfinite(mat)):
            raise ArithmeticError(f"non-finite evolution at grid time {t}")
        out = mat if out is None else np.maximum(out, mat)
    return MetricSample(flow.point_ids(), out, validate=False)


def write_table_csv_rowwise(path, rows, header=("epsilon", "N", "value")):
    """The table written one row per ``csv.writer.writerow`` call, ``_fmt`` on each value.

    The writer that ``flowdim.io.write_table_csv`` replaced by its chunks
    formatted column by column.
    """
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return path
