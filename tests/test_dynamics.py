import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import dijkstra

import flowdim.dynamics
from flowdim.dynamics import (
    BowenWaltersMetric,
    DynSystem,
    RoofFunction,
    SolenoidPoint,
    SuspensionPoint,
    _flow,
    bw_distance,
    mapping_torus,
    solenoid_act,
    solenoid_from_time,
    suspend,
)
from flowdim.errors import (
    ConfigurationError,
    FlowdimError,
    InvariantViolationError,
    UnsupportedDirectionError,
)
from flowdim.instances import (
    SuspensionInstance,
    cube_shift_system,
    rotation_system,
    run_embedding_pipeline,
)
from flowdim.metric import MetricSample, OrbitMetricSpec, orbit_metric_R, orbit_metric_Z
from oracles import (
    canonical,
    closure_every_row,
    level_graph,
    orbit_metric_R_loop,
    pruned_every_row,
    scalar_suspend,
    solenoid_distance,
)


def dense_min_plus(bw, source):
    """Chain lengths from one node by dense min-plus rounds, run to their fixpoint.

    Each round extends every chain by one move: a path of the vertical
    closure or one horizontal edge (a V x V matrix per level).
    """
    d, step, levels = bw.sys.base.dist, bw.sys.step, bw.levels
    nS, nL = len(step), len(levels)
    n = nS * nL
    fiber = np.arange(nS) * nL
    rows = np.concatenate([fiber + li for li in range(nL - 1)] + [fiber + nL - 1])
    cols = np.concatenate([fiber + li + 1 for li in range(nL - 1)] + [step * nL])
    gaps = np.concatenate([np.full(nS, gap) for gap in np.diff(levels)] + [np.zeros(nS)])
    vertical = dijkstra(coo_matrix((np.r_[gaps, gaps], (np.r_[rows, cols], np.r_[cols, rows])),
                                   shape=(n, n)).tocsr(), directed=False)
    horizontal = np.full((n, n), np.inf)
    for li, t in enumerate(levels):
        idx = fiber + li
        horizontal[np.ix_(idx, idx)] = (1.0 - t) * d + t * d[np.ix_(step, step)]
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    while True:
        through_v = (dist[:, None] + vertical).min(axis=0)
        through_h = (dist[:, None] + horizontal).min(axis=0)
        extended = np.minimum(dist, np.minimum(through_v, through_h))
        if np.array_equal(extended, dist):
            return dist
        dist = extended


def bits(points):
    """States and exact height bits, so that equal lists agree bit for bit."""
    return [(p.state, float(p.height).hex()) for p in points]


def flow_times():
    """Flow times in [-30, 30]: any float, or a half-integer within a few CIRCLE_TOL.

    From heights 0 and 1/2 the half-integers put totals on both sides of
    a roof crossing, where the steps decide with CIRCLE_TOL.
    """
    tol = flowdim.dynamics.CIRCLE_TOL
    edges = [0.0, 1e-12, tol / 2, tol, 1.5 * tol, 2 * tol]
    near = st.builds(lambda k, e: k / 2 + e, st.integers(-60, 60),
                     st.sampled_from(edges + [-e for e in edges[1:]]))
    return st.one_of(st.floats(-30.0, 30.0), near)


def seeded_metric(seed, grid):
    """A random sup-metric system with a random roof; odd seeds permute."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 8))
    pts = rng.uniform(size=(n, 2))
    dist = np.abs(pts[:, None] - pts[None, :]).max(axis=2)
    step = rng.permutation(n) if seed % 2 else rng.integers(0, n, n)
    sys = DynSystem(MetricSample(list(range(n)), dist), step)
    roof = RoofFunction(rng.uniform(0.5, 1.5, n))
    return BowenWaltersMetric(sys, roof, grid)


def drawn_metric(data, n, grid, classes, permute):
    """A BowenWaltersMetric on n drawn states, for the pruned-closure properties.

    Coordinates on a quarter grid make ties c(x,z) + c(z,y) = c(x,y)
    common; with ``classes`` the states share fewer base points, so the
    pseudometric has zero-distance classes.
    """
    m = data.draw(st.integers(1, n)) if classes else n
    coords = drawn_coords()
    pts = np.array(data.draw(st.lists(st.tuples(coords, coords), min_size=m, max_size=m)))
    pts = pts[data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
              if classes else np.arange(n)]
    dist = np.abs(pts[:, None] - pts[None, :]).max(axis=2)
    if permute:
        step = data.draw(st.permutations(range(n)))
    else:
        step = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    roof = RoofFunction(data.draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n)))
    return BowenWaltersMetric(DynSystem(MetricSample(list(range(n)), dist), step), roof, grid)


def arc_rotation(data, n, k):
    """Rotation by k on an n-cycle, under a drawn power and scale of the arc metric."""
    gaps = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    power = data.draw(st.sampled_from([1.0, 0.5]))
    dist = data.draw(st.sampled_from([1.0, 0.25, 0.3])) * np.minimum(gaps, n - gaps) ** power
    return dist, (np.arange(n) + k) % n


def metric_on(data, dist, step, grid):
    """A BowenWaltersMetric on the sample and step, with a drawn roof."""
    n = len(dist)
    roof = RoofFunction(data.draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n)))
    return BowenWaltersMetric(DynSystem(MetricSample(list(range(n)), dist), step), roof, grid)


def drawn_coords():
    """Coordinates in [0, 1], often on a quarter grid, where ties are common."""
    return st.one_of(st.integers(0, 4).map(lambda k: k / 4), st.floats(0.0, 1.0))


def isometric_sample(data, kind):
    """Distances and a step that is an exact isometry of them.

    ``rotation``: rotation by k on an n-cycle (several orbits when
    gcd(k, n) > 1, the identity at k = 0); ``identity``: the identity step
    on drawn points; ``mirror``: points mirrored across x = 0 in the sup
    metric, in a drawn order, with the mirror as step (points on the axis
    are fixed); ``cycles``: a step with cycles of distinct lengths on
    drawn points, under the sup of the sup metric along the orbit of each
    pair, which makes the step an isometry.
    """
    coords = drawn_coords()
    if kind == "rotation":
        n = data.draw(st.integers(1, 9))
        dist, step = arc_rotation(data, n, data.draw(st.integers(0, n - 1)))
    elif kind == "identity":
        n = data.draw(st.integers(1, 7))
        pts = np.array(data.draw(st.lists(st.tuples(coords, coords), min_size=n, max_size=n)))
        dist = np.abs(pts[:, None] - pts[None, :]).max(axis=2)
        step = np.arange(n)
    elif kind == "cycles":
        lengths = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=3, unique=True))
        n = sum(lengths)
        starts = np.cumsum([0] + lengths[:-1])
        cycle = np.concatenate([s + (np.arange(m) + 1) % m for s, m in zip(starts, lengths)])
        order = np.array(data.draw(st.permutations(range(n))))
        step = np.argsort(order)[cycle[order]]
        pts = np.array(data.draw(st.lists(st.tuples(coords, coords), min_size=n, max_size=n)))
        sup = np.abs(pts[:, None] - pts[None, :]).max(axis=2)
        dist = orbit_metric_Z(DynSystem(MetricSample(list(range(n)), sup), step),
                              math.lcm(*lengths)).dist
    else:
        half = np.array(data.draw(st.lists(st.tuples(coords, coords), min_size=1, max_size=4)))
        axis = np.array(data.draw(st.lists(coords, max_size=2)))
        pts = np.r_[half, half * [-1.0, 1.0], np.c_[np.zeros(len(axis)), axis]]
        m, n = len(half), len(pts)
        mirror = np.r_[np.arange(m, 2 * m), np.arange(m), np.arange(2 * m, n)]
        order = np.array(data.draw(st.permutations(range(n))))
        pts, step = pts[order], np.argsort(order)[mirror[order]]
        dist = np.abs(pts[:, None] - pts[None, :]).max(axis=2)
    assert np.array_equal(dist, dist.T) and np.array_equal(dist[np.ix_(step, step)], dist)
    return dist, step


def isometric_metric(data, kind, grid):
    """A BowenWaltersMetric on an ``isometric_sample`` of the given kind."""
    return metric_on(data, *isometric_sample(data, kind), grid)


def orbit_count(step):
    """The number of cycles of a permutation."""
    seen = np.zeros(len(step), dtype=bool)
    count = 0
    for r in range(len(step)):
        count += not seen[r]
        while not seen[r]:
            seen[r] = True
            r = step[r]
    return count


def count_sources(monkeypatch):
    """Patch the closure's row solver to record its source counts; returns the record."""
    sources = []
    solve = flowdim.dynamics._chain_rows

    def counted(graph, block):
        sources.append(len(block))
        return solve(graph, block)

    monkeypatch.setattr(flowdim.dynamics, "_chain_rows", counted)
    return sources


def pruned_csr(bw):
    """The CSR arrays of ``bw._graph`` as a scipy matrix (indices in scipy's dtype)."""
    n_nodes = bw.n_states * bw.n_levels
    return csr_matrix(bw._graph, shape=(n_nodes, n_nodes))


def same_csr(a, b):
    """Whether two CSR matrices hold the same arrays, dtypes included."""
    return all(np.array_equal(x, y) and x.dtype == y.dtype
               for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)))


@pytest.fixture
def rot12():
    return rotation_system(12)


@pytest.fixture
def roof1(rot12):
    return RoofFunction.constant(1.0, len(rot12))


class TestDynSystemWindowBlocks:
    def test_tables_are_the_base_read_through_the_power_of_the_step(self, rot12):
        blocks = list(rot12.window_blocks([0, 1, 5]))
        assert [block.tolist() for block, _ in blocks] == [[0.0], [1.0], [5.0]]
        for (block, tables), shift in zip(blocks, (0, 1, 5)):
            idx = (np.arange(12) + shift) % 12
            assert tables.shape == (1, 12, 12)
            assert np.array_equal(tables[0], rot12.base.dist[np.ix_(idx, idx)])
        assert rot12.point_ids() == list(range(12))

    @pytest.mark.parametrize("t", [2.5, -1.0, math.nan])
    def test_time_that_is_not_whole_and_nonnegative_is_refused(self, rot12, monkeypatch, t):
        # Refused before any table is read: _power reads 2.5 as 2 and never
        # returns on -1.
        def no_power(*args):
            raise AssertionError("_power ran")

        monkeypatch.setattr(flowdim.dynamics, "_power", no_power)
        with pytest.raises(ConfigurationError, match="is not whole and >= 0"):
            next(rot12.window_blocks([0.0, t]))


class TestSuspend:
    def test_full_roof_advances_base(self, rot12, roof1):
        out = suspend(rot12, roof1, [SuspensionPoint(3, 0.0)], 1.0)
        assert out == [SuspensionPoint(4, 0.0)]

    def test_stays_under_roof(self, rot12, roof1):
        [out] = suspend(rot12, roof1, [SuspensionPoint(3, 0.25)], 0.5)
        assert out.state == 3
        assert out.height == pytest.approx(0.75)

    def test_roof_two(self, rot12):
        roof = RoofFunction.constant(2.0, len(rot12))
        [out] = suspend(rot12, roof, [SuspensionPoint(3, 0.5)], 3.0)
        assert out.state == 4
        assert out.height == pytest.approx(1.5)

    def test_negative_time_needs_inverse(self, roof1):
        # A non-injective step map has no inverse.
        base = MetricSample([0, 1], np.array([[0.0, 1.0], [1.0, 0.0]]))
        sys = DynSystem(base, [0, 0])
        roof = RoofFunction.constant(1.0, 2)
        with pytest.raises(UnsupportedDirectionError):
            suspend(sys, roof, [SuspensionPoint(1, 0.5)], -1.0)

    def test_flow_law_random_times(self, rot12, roof1):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = SuspensionPoint(int(rng.integers(12)), float(rng.uniform(0, 1)))
            t1, t2 = rng.uniform(-5, 5, size=2)
            [via] = suspend(rot12, roof1, suspend(rot12, roof1, [p], t1), t2)
            [direct] = suspend(rot12, roof1, [p], t1 + t2)
            assert via.state == direct.state
            assert via.height == pytest.approx(direct.height, abs=1e-9)

    def test_roof_boundary_canonicalizes(self, rot12, roof1):
        assert canonical(SuspensionPoint(5, 1.0), rot12, roof1) == SuspensionPoint(6, 0.0)

    @settings(max_examples=160)
    @given(data=st.data(), n=st.integers(1, 6), permute=st.booleans(), unit=st.booleans(),
           t=flow_times())
    def test_batch_matches_the_scalar_loop(self, data, n, permute, unit, t):
        # Roof 1 takes the closed form, any other roof the steps; both must
        # match the scalar loop bit for bit, backward and at the roof.
        if permute:
            step = data.draw(st.permutations(range(n)))
        else:
            step = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
            t = abs(t)
        sys = DynSystem(MetricSample(list(range(n)), np.zeros((n, n))), step)
        roof = (RoofFunction.constant(1.0, n) if unit else
                RoofFunction(data.draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n))))
        tol = flowdim.dynamics.CIRCLE_TOL

        def heights(state):
            f = float(roof.values[state])
            return st.one_of(st.floats(0.0, f),
                             st.sampled_from([0.0, f / 2, f, f - tol / 2, -tol / 2]))

        point = st.integers(0, n - 1).flatmap(
            lambda x: heights(x).map(lambda h: SuspensionPoint(x, h)))
        if data.draw(st.booleans()):
            # Every grid height of every state, as an every-height torus samples them.
            grid = data.draw(st.integers(1, 8))
            points = [SuspensionPoint(x, j * float(roof.values[x]) / grid)
                      for x in range(n) for j in range(grid)]
        else:
            points = data.draw(st.lists(point, max_size=12))
        # Every batch holds a roof-top height.
        points.append(SuspensionPoint(n - 1, float(roof.values[n - 1])))
        want = [scalar_suspend(sys, roof, p, t) for p in points]
        assert bits(suspend(sys, roof, points, t)) == bits(want)
        # The array core flows each point by its own time, in both directions
        # at once when the step map is invertible.
        times = [t] + data.draw(st.lists(flow_times(), min_size=len(points) - 1,
                                         max_size=len(points) - 1))
        if not permute:
            times = [abs(s) for s in times]
        want = [scalar_suspend(sys, roof, p, s) for p, s in zip(points, times)]
        states, heights = _flow(sys, roof, *zip(*[(p.state, p.height) for p in points]), times)
        assert bits(map(SuspensionPoint, states, heights)) == bits(want)

    def test_huge_roof_one_times_are_powers_of_the_step(self, rot12, roof1):
        # Past 2^53 a step cannot subtract 1 from the total; the closed form
        # reads the whole float as the crossing count, past int64 too.
        for t in (1e17, 2.0 ** 53 + 2.0, 1e300, -1e17, -(2.0 ** 53) - 2.0, -1e300):
            [out] = suspend(rot12, roof1, [SuspensionPoint(5, 0.0)], t)
            assert out == SuspensionPoint((5 + int(t)) % 12, 0.0)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_time_is_an_invariant_violation(self, rot12, roof1, t):
        points = [SuspensionPoint(0, 0.0), SuspensionPoint(3, 0.5)]
        for roof in (roof1, RoofFunction.constant(0.5, 12)):
            with pytest.raises(InvariantViolationError, match="finite"):
                suspend(rot12, roof, points, t)
            with pytest.raises(InvariantViolationError, match="finite"):
                _flow(rot12, roof, [0, 3], [0.0, 0.5], [0.5, t])

    def test_step_budget_overrun_is_a_flowdim_error(self, monkeypatch, rot12, roof1):
        monkeypatch.setattr(flowdim.dynamics, "MAX_SUSPEND_STEPS", 8)
        point = [SuspensionPoint(0, 0.0)]
        with pytest.raises(FlowdimError, match="roof crossings"):
            suspend(rot12, RoofFunction.constant(0.5, 12), point, 100.0)
        assert suspend(rot12, RoofFunction.constant(0.5, 12), point, 3.0) == [
            SuspensionPoint(6, 0.0)]
        # Roof 1 counts its crossings in closed form, with no budget.
        assert suspend(rot12, roof1, point, 100.0) == [SuspensionPoint(4, 0.0)]

    def test_height_outside_the_roof_is_an_invariant_violation(self, rot12, roof1):
        for h in (-0.01, 1.01, float("nan")):
            bad = SuspensionPoint(3, h)
            with pytest.raises(InvariantViolationError):
                suspend(rot12, roof1, [SuspensionPoint(0, 0.5), bad], 0.5)
            with pytest.raises(InvariantViolationError):
                canonical(bad, rot12, roof1)

    @pytest.mark.parametrize("step", [[1.5, 0], [1.0, 0.0], [True, False], ["1", "0"]])
    def test_step_entries_must_be_integers(self, step):
        base = MetricSample([0, 1], np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(InvariantViolationError, match="integers"):
            DynSystem(base, step)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
    def test_roof_values_must_be_positive_and_finite(self, value):
        with pytest.raises(InvariantViolationError, match="positive and finite"):
            RoofFunction([1.0, value])


@st.composite
def csr_graphs(draw):
    """CSR arrays (data, indices, indptr) of a directed graph on 1-8 nodes.

    Costs are nonnegative, zeros and repeated values included; nodes may
    have no edges at all, and the graph need not be connected.
    """
    n = draw(st.integers(1, 8))
    cost = st.one_of(st.sampled_from([0.0, 0.1, 0.2, 0.3, 1 / 3, 1.0]),
                     st.floats(0.0, 10.0, allow_subnormal=False))
    data, indices, indptr = [], [], [0]
    for _ in range(n):
        heads = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
        indices += heads
        data += [draw(cost) for _ in heads]
        indptr.append(len(indices))
    return (np.array(data, dtype=float), np.array(indices, dtype=np.int64),
            np.array(indptr, dtype=np.int64))


class TestChainRows:
    @settings(max_examples=200)
    @given(data=st.data(), graph=csr_graphs())
    def test_rows_are_dijkstra_s_bit_for_bit(self, data, graph):
        n = len(graph[2]) - 1
        sources = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6)))
        rows = flowdim.dynamics._chain_rows(graph, sources)
        want = dijkstra(csr_matrix(graph, shape=(n, n)), indices=sources)
        assert rows.shape == (len(sources), n)
        assert np.array_equal(rows, want)

    def test_isolated_source_and_single_node(self):
        # Node 2 has no edges: its row is 0 at itself and inf elsewhere, and
        # nothing reaches it.
        graph = (np.array([0.0, 0.5]), np.array([1, 0]), np.array([0, 1, 2, 2]))
        rows = flowdim.dynamics._chain_rows(graph, np.array([2, 0]))
        np.testing.assert_array_equal(rows, [[np.inf, np.inf, 0.0], [0.0, 0.0, np.inf]])
        single = (np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(2, dtype=np.int64))
        np.testing.assert_array_equal(flowdim.dynamics._chain_rows(single, np.array([0])), [[0.0]])

    def test_dense_solve_expands_a_block_of_edges_at_a_time(self):
        # The cube-shift torus keeps 132,352 edges on 1,280 nodes; one round
        # from its 51 sources unchunked would expand some 6.7 million edges.
        sys = cube_shift_system(1, 4)
        bw = BowenWaltersMetric(sys, RoofFunction.constant(1.0, len(sys)), 4)
        n = bw.n_states * bw.n_levels
        sources = bw._sources[:flowdim.dynamics.BLOCK_ENTRIES // n]
        degree = np.diff(bw._graph[2])
        assert len(sources) == 51 and degree.max() < flowdim.dynamics.BLOCK_ENTRIES
        tracemalloc.start()
        try:
            rows = flowdim.dynamics._chain_rows(bw._graph, sources)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 8 * flowdim.dynamics.BLOCK_ENTRIES
        assert np.array_equal(rows, dijkstra(pruned_csr(bw), indices=sources))


class TestBowenWalters:
    def test_identical_points(self, rot12, roof1):
        p = SuspensionPoint(2, 0.5)
        assert bw_distance(p, p, rot12, roof1) == 0.0

    def test_base_pairs_bounded_by_base_metric(self, rot12, roof1):
        for j in (1, 3, 5):
            d = bw_distance(SuspensionPoint(0, 0.0), SuspensionPoint(j, 0.0),
                            rot12, roof1)
            assert d <= rot12.base.dist[0, j] + 1e-12

    def test_same_fiber_vertical(self, rot12, roof1):
        d = bw_distance(SuspensionPoint(4, 0.2), SuspensionPoint(4, 0.5),
                        rot12, roof1, height_grid=20)
        assert d <= 0.3 + 1e-12

    def test_symmetry_and_triangle_on_grid(self, rot12, roof1):
        bw = BowenWaltersMetric(rot12, roof1, height_grid=8)
        rng = np.random.default_rng(9)
        pts = [canonical(SuspensionPoint(int(rng.integers(12)), int(rng.integers(9)) / 8.0),
                         rot12, roof1) for _ in range(15)]
        mat = bw.matrix(pts)
        assert np.allclose(mat, mat.T, atol=1e-12)
        n = len(pts)
        for i in range(n):
            for j in range(n):
                assert np.all(mat[i, j] <= mat[i] + mat[:, j] + 1e-9)

    def test_antitone_in_grid(self, rot12, roof1):
        p, q = SuspensionPoint(1, 0.25), SuspensionPoint(7, 0.75)
        grid_vals = [bw_distance(p, q, rot12, roof1, height_grid=g) for g in (4, 8, 16)]
        assert grid_vals[0] >= grid_vals[1] >= grid_vals[2]

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("grid", [3, 5, 7, 10, 4, 8, 16])
    def test_matrix_matches_dense_min_plus(self, seed, grid):
        bw = seeded_metric(seed + grid, grid)
        nL = bw.n_levels
        # Every node but the top level, which is glued to the next fiber.
        nodes = [v for v in range(bw.n_states * nL) if v % nL < nL - 1]
        points = [SuspensionPoint(v // nL, bw.levels[v % nL] * bw.roof.values[v // nL])
                  for v in nodes]
        base = [i for i, v in enumerate(nodes) if v % nL == 0]
        mat = bw.matrix(points)
        ref = np.array([dense_min_plus(bw, v)[nodes] for v in nodes])
        np.testing.assert_allclose(mat, ref, rtol=1e-12, atol=0)
        if grid in (4, 8, 16):
            # Dyadic gaps add exactly, so height-0 tables are bit-equal.
            # From interior heights a run's gaps, added one step at a
            # time to a chain crossing a binade, can round one ulp away.
            assert np.array_equal(mat[np.ix_(base, base)], ref[np.ix_(base, base)])

    def test_bad_grid_is_a_configuration_error(self, rot12, roof1):
        with pytest.raises(ConfigurationError):
            BowenWaltersMetric(rot12, roof1, height_grid=0)

    @settings(max_examples=100)
    @given(data=st.data(), grid=st.integers(1, 32))
    def test_node_lookup_is_the_first_level_within_tolerance(self, data, grid):
        # Heights crowd within a few ulps of the levels and of the tolerance
        # boundary around them, where the product h * height_grid rounds.
        tol = flowdim.dynamics.CIRCLE_TOL

        def crowd(a, offset, ulps):
            x = a + offset
            for _ in range(abs(ulps)):
                x = np.nextafter(x, np.copysign(np.inf, ulps))
            return float(x)

        anchor = st.one_of(st.integers(0, grid).map(lambda j: j / grid), st.floats(0.0, 1.0))
        offset = st.sampled_from([0.0, tol, -tol, tol / 2, -tol / 2, 2 * tol, -2 * tol, 3e-10])
        near = st.builds(crowd, anchor, offset, st.integers(-3, 3))
        h = np.array(data.draw(st.lists(near, min_size=1, max_size=12)))
        sys = DynSystem(MetricSample([0, 1, 2], np.zeros((3, 3))), [1, 2, 0])
        bw = BowenWaltersMetric(sys, RoofFunction.constant(1.0, 3), grid)
        states = np.arange(len(h)) % 3
        on_level = np.abs(bw.levels - h[:, None]) <= tol
        want = np.where(on_level.any(axis=1), states * bw.n_levels + on_level.argmax(axis=1), -1)
        np.testing.assert_array_equal(bw.nodes(states, h), want)
        np.testing.assert_array_equal(bw.nodes(states[None], h[None]), want[None])

    def test_height_off_the_level_grid_is_an_invariant_violation(self, rot12, roof1):
        bw = BowenWaltersMetric(rot12, roof1, height_grid=4)
        with pytest.raises(InvariantViolationError, match="level grid"):
            bw.matrix([SuspensionPoint(0, 0.25), SuspensionPoint(1, 0.3)])
        # 0.2 is a level of grid 20 but not of the default grid 16.
        with pytest.raises(InvariantViolationError, match="0.2 is not on the metric's level grid"):
            bw_distance(SuspensionPoint(4, 0.2), SuspensionPoint(4, 0.5), rot12, roof1)

    @settings(max_examples=60)
    @given(data=st.data(), n=st.integers(1, 7), grid=st.integers(1, 6),
           classes=st.booleans(), permute=st.booleans())
    def test_pruned_closure_matches_the_dense_graph(self, data, n, grid, classes, permute):
        bw = drawn_metric(data, n, grid, classes, permute)
        assert same_csr(pruned_csr(bw), pruned_every_row(bw))
        np.testing.assert_allclose(bw.closure(), dijkstra(level_graph(bw), directed=False),
                                   rtol=1e-15, atol=0)

    @settings(max_examples=60)
    @given(data=st.data(), n=st.integers(1, 7), grid=st.integers(1, 6),
           classes=st.booleans(), permute=st.booleans())
    def test_directed_closure_is_the_undirected_one_bit_for_bit(self, data, n, grid, classes,
                                                               permute):
        bw = drawn_metric(data, n, grid, classes, permute)
        pruned = pruned_csr(bw).tocoo()
        size = pruned.shape[0]
        # Both directions of every stored edge, explicit zeros included, at one cost.
        forward = np.argsort(pruned.row * size + pruned.col)
        backward = np.argsort(pruned.col * size + pruned.row)
        np.testing.assert_array_equal(pruned.row[forward], pruned.col[backward])
        np.testing.assert_array_equal(pruned.col[forward], pruned.row[backward])
        np.testing.assert_array_equal(pruned.data[forward], pruned.data[backward])
        assert np.array_equal(bw.closure(), dijkstra(pruned_csr(bw), directed=False))

    @settings(max_examples=80)
    @given(data=st.data(), kind=st.sampled_from(["rotation", "identity", "mirror", "cycles"]),
           grid=st.integers(1, 6))
    def test_orbit_closure_matches_the_every_row_oracles(self, data, kind, grid):
        bw = isometric_metric(data, kind, grid)
        assert same_csr(pruned_csr(bw), pruned_every_row(bw))
        n_nodes = bw.n_states * bw.n_levels
        query = np.array(data.draw(st.lists(st.integers(0, n_nodes - 1), min_size=2,
                                            max_size=12)))
        with pytest.MonkeyPatch.context() as patch:
            sources = count_sources(patch)
            # A partial stack query first, so that later rows are filled from
            # representatives solved by an earlier query.
            head = query[None, :2]
            assert np.array_equal(bw.closure(head), closure_every_row(bw, head))
            assert np.array_equal(bw.closure(query), closure_every_row(bw, query))
            assert np.array_equal(bw.closure(), closure_every_row(bw))
        assert sum(sources) == orbit_count(bw.sys.step) * bw.n_levels

    @settings(max_examples=80)
    @given(data=st.data(), kind=st.sampled_from(["rotation", "mirror", "cycles"]),
           grid=st.integers(1, 4))
    def test_equal_orbit_keys_read_equal_tables(self, data, kind, grid):
        bw = isometric_metric(data, kind, grid)
        step, nL = bw.sys.step, bw.n_levels
        v = np.array(data.draw(st.lists(st.integers(0, bw.n_states * nL - 1), min_size=1,
                                        max_size=6)))
        states, levels = np.divmod(v, nL)

        def power(x, m):
            for _ in range(m):
                x = step[x]
            return x

        def period(x):
            return next(m for m in range(1, len(step) + 1) if power(x, m) == x)

        # The vector moved by one power of T, then each node by its own.
        m = data.draw(st.integers(0, 12))
        ms = data.draw(st.lists(st.integers(0, 12), min_size=len(v), max_size=len(v)))
        stack = np.stack([v, power(states, m) * nL + levels,
                          np.array([power(x, k) for x, k in zip(states, ms)]) * nL + levels])
        tables, keys = bw.closure(stack), bw.orbit_key(stack)
        assert np.array_equal(tables[1], tables[0])
        if all(period(states[0]) % period(x) == 0 for x in states):
            assert np.array_equal(keys[1], keys[0])
        for key, table in zip(keys[1:], tables[1:]):
            if np.array_equal(key, keys[0]):
                assert np.array_equal(table, tables[0])

    @pytest.mark.parametrize("sys,grid,orbits", [(rotation_system(96), 16, 1),
                                                  (rotation_system(12), 10, 1),
                                                  (rotation_system(12), 4, 1),
                                                  (rotation_system(7), 3, 1),
                                                  (cube_shift_system(1, 3), 4, 64)])
    def test_closure_solves_one_row_per_orbit_and_level(self, monkeypatch, sys, grid, orbits):
        # The cube shift's base metric reads block 0 only, so the shift is
        # no isometry: every row is its own representative.
        bw = BowenWaltersMetric(sys, RoofFunction.constant(1.0, len(sys)), grid)
        sources = count_sources(monkeypatch)
        got = bw.closure()
        assert sum(sources) == orbits * bw.n_levels
        assert same_csr(pruned_csr(bw), pruned_every_row(bw))
        assert np.array_equal(got, closure_every_row(bw))

    @settings(max_examples=40)
    @given(data=st.data(), n=st.integers(3, 9), grid=st.integers(1, 6),
           moved=st.sampled_from(["pair", "entry", "cycle"]))
    def test_near_isometry_solves_every_query_row(self, data, n, grid, moved):
        dist, step = arc_rotation(data, n, data.draw(st.integers(1, n - 1)))
        # Distances moved by an ulp, so that the rotation is an isometry to
        # the last digit but not exactly: one symmetric pair, one entry of
        # it, or every d(i, i + 1), which keeps d T-invariant but not symmetric.
        i, j = (np.arange(n), (np.arange(n) + 1) % n) if moved == "cycle" else (0, 1)
        dist[i, j] = np.nextafter(dist[i, j], np.inf)
        if moved == "pair":
            dist[1, 0] = dist[0, 1]
        bw = metric_on(data, dist, step, grid)
        assert same_csr(pruned_csr(bw), pruned_every_row(bw))
        n_nodes = bw.n_states * bw.n_levels
        query = np.array(data.draw(st.lists(st.integers(0, n_nodes - 1), min_size=1,
                                            max_size=12)))
        with pytest.MonkeyPatch.context() as patch:
            sources = count_sources(patch)
            assert np.array_equal(bw.closure(query), closure_every_row(bw, query))
            assert sum(sources) == len(np.unique(query))
            assert np.array_equal(bw.closure(), closure_every_row(bw))
        assert sum(sources) == n_nodes

    @pytest.mark.parametrize("N", [2, 3])
    def test_pruned_closure_keeps_the_cube_shift_zero_classes(self, N):
        # The base metric reads block 0 only: classes of 4^(N-1) states at
        # distance 0, and the shift moves them apart again.
        sys = cube_shift_system(1, N)
        bw = BowenWaltersMetric(sys, RoofFunction.constant(1.0, len(sys)), 4)
        dense = dijkstra(level_graph(bw), directed=False)
        assert np.count_nonzero(dense == 0.0) > len(dense)
        np.testing.assert_allclose(bw.closure(), dense, rtol=1e-15, atol=0)

    def test_torus_closure_keeps_only_the_cycle_edges(self):
        bw = BowenWaltersMetric(rotation_system(96), RoofFunction.constant(1.0, 96), 16)
        nL = bw.n_levels
        points = [SuspensionPoint(i, j / 16) for i in range(96) for j in range(16)]
        table = bw.matrix(points)
        graph = pruned_csr(bw).tocoo()
        horizontal = graph.row % nL == graph.col % nL
        gaps = (graph.col[horizontal] // nL - graph.row[horizontal] // nL) % 96
        assert graph.nnz == 6528 and level_graph(bw).nnz == 158_304
        assert np.count_nonzero(horizontal) == 2 * 96 * nL
        assert set(gaps.tolist()) == {1, 95}
        np.testing.assert_array_equal(table[::16, ::16], bw.sys.base.dist)

    def test_fixed_point_glue_and_vertical_edge_merge_to_the_cheaper(self):
        # At height_grid 1, (x, 0)-(x, 1) is both a vertical edge of cost 1
        # and, for Tx = x, the gluing edge of cost 0.
        sys = DynSystem(MetricSample([0, 1], np.array([[0.0, 1.0], [1.0, 0.0]])), [0, 1])
        bw = BowenWaltersMetric(sys, RoofFunction.constant(1.0, 2), height_grid=1)
        assert pruned_csr(bw)[0, 1] == 0.0 == level_graph(bw)[0, 1]
        assert bw.closure()[0, 1] == 0.0

    def test_empty_system_reads_empty_tables(self):
        sys = DynSystem(MetricSample([], np.zeros((0, 0))), np.array([], dtype=int))
        bw = BowenWaltersMetric(sys, RoofFunction(np.array([])), 4)
        assert bw.matrix([]).shape == (0, 0)
        assert bw.closure().shape == (0, 0)
        torus = mapping_torus(sys, 4, every_height=True)
        assert orbit_metric_R(torus, OrbitMetricSpec("R-window", 1.0, 0.3)).dist.shape == (0, 0)


class TestMappingTorus:
    def test_time_one_map_is_step(self, rot12):
        torus = mapping_torus(rot12)
        out = suspend(torus.sys, torus.roof, [SuspensionPoint(3, 0.0)], 1.0)
        assert out == [SuspensionPoint(4, 0.0)]

    def test_periodic_base_point(self, rot12):
        torus = mapping_torus(rot12)
        p = SuspensionPoint(2, 0.0)
        out = [p]
        for _ in range(12):
            out = suspend(torus.sys, torus.roof, out, 1.0)
        assert out == [p]

    @pytest.mark.parametrize("step", [[(i + 1) % 7 for i in range(7)], [3, 0, 6, 1, 5, 2, 4]])
    def test_every_height_flow_matches_the_scalar_loop(self, step):
        sys = DynSystem(MetricSample(list(range(7)), np.zeros((7, 7))), step)
        torus = mapping_torus(sys, height_grid=5, every_height=True)
        roof = RoofFunction.constant(1.0, 7)
        times = (0.0, 0.2, 1.0, 2.6, 13.35, 29.9, -0.4, -7.8, -30.0,
                 0.1, 0.3, 0.1 * 3, 0.7, 1 / 3, 2.4, 5.0, 6.9999999999, 100.1, -0.2, -1.0,
                 -2.6, -5.0, -1 / 3, -13.35, -100.1)
        wants = []
        for t in times:
            want = [scalar_suspend(sys, roof, p, t) for p in torus.values]
            assert bits(suspend(sys, roof, torus.values, t)) == bits(want)
            wants += want
        # Every (value, time) pair in one batch of the array core, as the
        # window flows them.
        n = len(torus.values)
        states, heights = _flow(sys, roof, np.tile([p.state for p in torus.values], len(times)),
                                np.tile([p.height for p in torus.values], len(times)),
                                np.repeat(times, n))
        assert bits(map(SuspensionPoint, states, heights)) == bits(wants)

    def test_off_grid_window_is_refused(self):
        torus = mapping_torus(rotation_system(12), height_grid=4)
        with pytest.raises(ConfigurationError, match=r"grid time 0\.1 .* height grid j/4"):
            orbit_metric_R(torus, OrbitMetricSpec("R-window", 2.0, 0.1))

    @settings(max_examples=60)
    @given(data=st.data(), kind=st.sampled_from(["cycles", "rotation", "mirror", "step"]),
           grid=st.integers(1, 4), every_height=st.booleans(), decimal=st.booleans(),
           steps=st.integers(1, 12))
    def test_window_tables_shared_along_orbits_match_the_per_time_loop(
            self, data, kind, grid, every_height, decimal, steps):
        if kind == "rotation":
            # Several orbits: gcd(k, n) > 1.
            n = data.draw(st.sampled_from([4, 6, 8, 9]))
            divisor = data.draw(st.sampled_from([d for d in range(2, n) if n % d == 0]))
            k = divisor * data.draw(st.integers(1, n // divisor - 1))
            dist, step = arc_rotation(data, n, k)
        elif kind == "step":
            n = data.draw(st.integers(1, 6))
            pts = np.array(data.draw(st.lists(st.tuples(drawn_coords(), drawn_coords()),
                                              min_size=n, max_size=n)))
            dist = np.abs(pts[:, None] - pts[None, :]).max(axis=2)
            step = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        else:
            dist, step = isometric_sample(data, kind)
        if decimal:
            # A step whose multiples round as floats, on a height grid that holds it.
            dt, grid = data.draw(st.sampled_from([(0.1, 10), (0.15, 20), (0.3, 10), (1 / 3, 3)]))
        else:
            dt = data.draw(st.integers(1, 2 * grid).map(lambda j: j / grid))
        sys = DynSystem(MetricSample(list(range(len(dist))), dist), step)
        spec = OrbitMetricSpec("R-window", steps * dt, dt)
        window = orbit_metric_R(mapping_torus(sys, grid, every_height), spec)
        loop = orbit_metric_R_loop(mapping_torus(sys, grid, every_height), spec)
        assert np.array_equal(window.dist, loop.dist)

    def test_benchmark_window_reads_each_distinct_table_once(self):
        # The 385 grid times of the benchmark torus window visit 16 levels;
        # times a whole number apart read one table, up to the rotation.
        torus = mapping_torus(rotation_system(96), height_grid=16)
        times = np.arange(0.0, 24.0 + 1 / 32, 1 / 16)
        blocks = list(torus.window_blocks(times))
        first = np.concatenate([block for block, _ in blocks])
        assert len(times) == 385
        np.testing.assert_array_equal(first, times[:16])
        assert sum(len(tables) for _, tables in blocks) == 16
        assert np.count_nonzero(torus._bw._solved) == 16

    def test_one_level_table_solves_only_its_rows(self, monkeypatch):
        sources = count_sources(monkeypatch)
        torus = mapping_torus(rotation_system(12), height_grid=4)
        bw = BowenWaltersMetric(torus.sys, torus.roof, 4)
        table = bw.matrix(suspend(torus.sys, torus.roof, torus.values, 0.25))
        # The 12 query nodes of a 12 x 5-node graph share one level and one
        # rotation orbit: one solver source, the other 11 rows permuted.
        assert sources == [1]
        np.testing.assert_allclose(table, rotation_system(12).base.dist, rtol=0, atol=1e-12)

    def test_window_allocates_under_half_the_closure_rows(self, monkeypatch):
        # The benchmark torus window.  Its rows are solved a block of sources
        # at a time and read as stacks of tables: one solve from all its
        # 1,536 nodes alone would allocate 20 MB.
        sources = count_sources(monkeypatch)
        torus = mapping_torus(rotation_system(96), height_grid=16)
        n_nodes = 96 * 17
        tracemalloc.start()
        try:
            window = orbit_metric_R(torus, OrbitMetricSpec("R-window", 24.0, 1.0 / 16.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n_nodes * n_nodes * 8 / 2
        # One source per level that a point visits: the rotation is one orbit.
        # The 16 new tables of the first time block are solved in one call.
        assert sum(sources) == 16
        assert sources == [16]
        assert max(sources) <= flowdim.dynamics.BLOCK_ENTRIES // n_nodes
        np.testing.assert_array_equal(window.dist, rotation_system(96).base.dist)

    def test_pipeline_window_solves_one_row_per_level(self, monkeypatch):
        sources = count_sources(monkeypatch)
        flow = SuspensionInstance.build(base_size=12, n_heights=10).flow
        window = orbit_metric_R(flow, OrbitMetricSpec("R-window", 2.0, 0.1))
        # The 120 every-height points of the 12-state rotation visit 10
        # levels; the rotation is one orbit, so one source per level.
        assert sum(sources) == 10
        bw = BowenWaltersMetric(rotation_system(12), RoofFunction.constant(1.0, 12), 10)
        want = 0.0
        for t in np.arange(0.0, 2.05, 0.1):
            moved = suspend(flow.sys, flow.roof, flow.values, float(t))
            nodes = bw.nodes(np.array([p.state for p in moved]),
                             np.array([p.height for p in moved]))
            want = np.maximum(want, closure_every_row(bw, nodes))
        assert np.array_equal(window.dist, want)

    def test_every_height_values_and_ids(self):
        torus = mapping_torus(rotation_system(6), height_grid=4, every_height=True)
        assert torus.values[4 * 2 + 3] == SuspensionPoint(2, 0.75)
        assert torus.point_ids()[:5] == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0)]
        assert mapping_torus(rotation_system(6)).point_ids() == [(i, 0) for i in range(6)]

    @settings(max_examples=40)
    @given(data=st.data(), n=st.integers(1, 5), grid=st.integers(2, 6))
    def test_every_height_table_is_a_metric_on_the_default(self, data, n, grid):
        step = data.draw(st.permutations(range(n)))
        xs = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
        sys = DynSystem(MetricSample(list(range(n)), np.abs(np.subtract.outer(xs, xs))), step)
        torus = mapping_torus(sys, grid, every_height=True)
        bw = BowenWaltersMetric(sys, torus.roof, grid)
        d = bw.matrix(torus.values)
        np.testing.assert_allclose(d, d.T, rtol=0, atol=1e-12)
        assert np.all(np.diag(d) == 0.0)
        assert np.all(d[:, None, :] <= d[:, :, None] + d[None, :, :] + 1e-12)
        base = mapping_torus(sys, grid)
        assert np.array_equal(d[::grid, ::grid], bw.matrix(base.values))

    def test_fixed_point_period_one(self):
        base = MetricSample(["p"], np.zeros((1, 1)))
        sys = DynSystem(base, [0])
        torus = mapping_torus(sys)
        p = SuspensionPoint(0, 0.0)
        assert suspend(sys, torus.roof, [p], 1.0) == [p]
        bw = BowenWaltersMetric(sys, torus.roof, torus.height_grid)
        assert bw.matrix([p] + suspend(sys, torus.roof, [p], 1.0))[0, 1] == 0.0


class TestSuspensionInstance:
    def test_advance_is_the_flow_on_grid_times(self):
        inst = SuspensionInstance.build(base_size=6, n_heights=5)
        flow, n = inst.flow, inst.n_heights
        index = {pid: i for i, pid in enumerate(flow.point_ids())}
        # Up to 64 / 5, past two cycles of length 6; some sums wrap to just
        # below the cycle length.
        for k in range(65):
            for t in (k / n, -k / n):
                for i, q in enumerate(suspend(flow.sys, flow.roof, flow.values, t)):
                    assert inst.advance(i, t) == index[q.state, round(q.height * n)]

    def test_advance_is_the_flow_at_the_pipeline_times(self, monkeypatch):
        # Every (index, time) pair the pipeline asks of advance: the period
        # starts of every state's perturbation, of both signs, in one call,
        # then -Phi_N and the two equivariance shifts.  The flowed point's
        # node (state, level) of the 11-level grid is sample index
        # state * 10 + level.
        calls = []
        advance = SuspensionInstance.advance

        def recorded(self, idx, t):
            calls.append(np.broadcast_arrays(idx, np.asarray(t, dtype=float)))
            return advance(self, idx, t)

        monkeypatch.setattr(SuspensionInstance, "advance", recorded)
        result = run_embedding_pipeline()
        inst, n = result.instance, result.instance.n_heights
        assert (inst.base_size, n) == (12, 10)
        assert len(calls) == 1 + 3
        assert any(np.array_equal(t, -result.run.phi_N) for _, t in calls)
        assert any(np.all(t == 2.0) for _, t in calls)
        idx = np.concatenate([i.ravel() for i, _ in calls])
        times = np.concatenate([t.ravel() for _, t in calls])
        assert times.min() < 0 < times.max()
        values = inst.flow.values
        states, heights = _flow(inst.flow.sys, inst.flow.roof, [values[i].state for i in idx],
                                [values[i].height for i in idx], times)
        nodes = inst.flow._bw.nodes(states, heights)
        assert (nodes >= 0).all()
        state, level = np.divmod(nodes, n + 1)
        assert (level < n).all()
        assert np.array_equal(advance(inst, idx, times), state * n + level)
        # An image off the height grid has no node, and advance refuses it.
        states, heights = _flow(inst.flow.sys, inst.flow.roof, [3], [0.4], 0.05)
        assert inst.flow._bw.nodes(states, heights)[0] == -1
        with pytest.raises(ConfigurationError, match="leaves the height grid"):
            inst.advance(3 * n + 4, 0.05)

    def test_advance_maps_an_array_of_times(self):
        inst = SuspensionInstance.build(base_size=6, n_heights=5)
        times = np.arange(-64, 65) / 5
        for i in (0, 7, 29):
            got = inst.advance(i, times)
            assert got.dtype == np.int64
            assert got.tolist() == [inst.advance(i, float(t)) for t in times]
            assert type(inst.advance(i, float(times[3]))) is int
        with pytest.raises(ConfigurationError, match="leaves the height grid"):
            inst.advance(0, np.array([0.2, 0.25]))

    def test_advance_maps_arrays_of_indices(self):
        inst = SuspensionInstance.build(base_size=6, n_heights=5)
        states = np.arange(30)
        times = 0.2 * np.arange(30) - 3.0
        got = inst.advance(states, times)
        assert got.tolist() == [inst.advance(i, float(t)) for i, t in zip(states, times)]
        assert inst.advance(states, 1.4).tolist() == [inst.advance(i, 1.4) for i in states]
        assert inst.advance(states[:, None], times[None, :4]).shape == (30, 4)
        with pytest.raises(ConfigurationError, match="state 3 leaves"):
            inst.advance(states[:5], np.array([0.2, 0.4, 0.6, 0.25, 0.8]))

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan,
                                   np.array([0.2, math.nan, 0.4])],
                             ids=["inf", "-inf", "nan", "nan-in-array"])
    def test_advance_refuses_a_time_that_is_not_finite(self, t):
        inst = SuspensionInstance.build(base_size=6, n_heights=5)
        # No numpy RuntimeWarning comes before the refusal.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantViolationError, match="finite"):
                inst.advance(3, t)

    def test_sample_is_the_torus_table(self):
        inst = SuspensionInstance.build(base_size=6, n_heights=5)
        assert len(inst.flow.values) == len(inst.flow.point_ids()) == 30
        assert inst.total_time(7) == pytest.approx(1.4)
        assert inst.factor(7).coords == pytest.approx((0.4, 1.4, 1.4))


class TestSolenoid:
    def test_identity_action(self):
        p = SolenoidPoint((0.5, 0.5, 2.5))
        assert solenoid_act(p, 0.0).coords == p.coords

    def test_translation_by_three_halves(self):
        p = SolenoidPoint((0.0, 0.0, 0.0))
        assert solenoid_act(p, 1.5).coords == (0.5, 1.5, 1.5)

    def test_full_period_on_truncation(self):
        p = solenoid_from_time(2.3, 3)
        out = solenoid_act(p, 6.0)  # 3! divides the shift
        for a, b in zip(out.coords, p.coords):
            assert a == pytest.approx(b, abs=1e-9)

    def test_group_law(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            p = solenoid_from_time(float(rng.uniform(0, 24)), 4)
            r1, r2 = rng.uniform(-10, 10, size=2)
            one = solenoid_act(solenoid_act(p, r1), r2)
            two = solenoid_act(p, r1 + r2)
            for a, b, period in zip(one.coords, two.coords, (1, 2, 6, 24)):
                gap = abs(a - b) % period
                assert min(gap, period - gap) < 1e-9

    def test_compatibility_preserved(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            p = solenoid_from_time(float(rng.uniform(0, 120)), 5)
            q = solenoid_act(p, float(rng.uniform(-50, 50)))
            SolenoidPoint(q.coords)  # re-validates the tower

    def test_invalid_point_rejected(self):
        with pytest.raises(InvariantViolationError):
            SolenoidPoint((0.5, 1.2, 1.2))  # 1.2 mod 1 != 0.5
        with pytest.raises(InvariantViolationError):
            SolenoidPoint((0.5, 2.5, 2.5))  # x_2 outside [0, 2)
        with pytest.raises(InvariantViolationError):
            SolenoidPoint((1.5,))  # x_1 outside [0, 1)

    def test_distance_scale(self):
        p = solenoid_from_time(0.0, 3)
        q = solenoid_from_time(3.0, 3)
        # farthest point on the mod-6 circle, coordinates 1 and 2 match
        assert solenoid_distance(p, q) == pytest.approx(0.5)
        assert solenoid_distance(p, p) == 0.0
