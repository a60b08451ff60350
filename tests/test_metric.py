import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowdim.errors import InvalidHorizonError, InvariantViolationError, MetricInvariantError
from flowdim.instances import (
    binary_shift_system,
    cube_shift_system,
    rotation_system,
)
from flowdim.metric import (
    MetricSample,
    OrbitMetricSpec,
    cover_nerve,
    mdim_table,
    metric_mdim_table,
    orbit_metric_R,
    orbit_metric_Z,
    spanning_number,
    widim_upper,
    windows,
)
from flowdim.dynamics import BowenWaltersMetric, DynSystem, mapping_torus
from oracles import (
    orbit_metric_R_loop,
    orbit_metric_Z_loop,
    sample_distance,
    spanning_number_exact,
)

LADDER_SYSTEMS = pytest.mark.parametrize("system", [
    lambda: rotation_system(8),
    lambda: binary_shift_system(),
    lambda: cube_shift_system(1, 4),
    lambda: cube_shift_system(2, 3),
], ids=["rotation-8", "binary-shift", "cube-1-4", "cube-2-3"])


def grid_sample(n, dims=1, upper=1.0):
    xs = np.linspace(0.0, upper, n)
    if dims == 1:
        pts = list(range(n))
        dist = np.abs(xs[:, None] - xs[None, :])
        return MetricSample(pts, dist)
    pts = [(i, j) for i in range(n) for j in range(n)]
    coords = np.array([(xs[i], xs[j]) for i, j in pts])
    dist = np.abs(coords[:, None, :] - coords[None, :, :]).max(axis=2)
    return MetricSample(pts, dist)


class TestMetricSample:
    def test_validation_rejects_asymmetry(self):
        with pytest.raises(MetricInvariantError):
            MetricSample([0, 1], np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_validation_rejects_triangle_violation(self):
        d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(MetricInvariantError):
            MetricSample([0, 1, 2], d)

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(MetricInvariantError):
            MetricSample([0], np.array([[0.1]]))


class TestOrbitMetricZ:
    def test_window_one_is_base(self):
        sys = rotation_system(8)
        out = orbit_metric_Z(sys, 1)
        assert np.array_equal(out.dist, sys.base.dist)

    def test_binary_sequence_window(self):
        # States: the zero sequence and the forward shifts of a sequence
        # with a single 1 at index 2; base distance compares index 0 only.
        states = ["zero", "v", "sv", "ssv"]
        first_symbol = {"zero": 0, "v": 0, "sv": 0, "ssv": 1}
        step = {"zero": "zero", "v": "sv", "sv": "ssv", "ssv": "zero"}
        symbols = np.array([first_symbol[s] for s in states], dtype=float)
        sys = DynSystem(MetricSample(states, np.abs(np.subtract.outer(symbols, symbols))),
                        [states.index(step[s]) for s in states])
        d3 = orbit_metric_Z(sys, 3)
        d2 = orbit_metric_Z(sys, 2)
        assert sample_distance(d3, "zero", "v") == 1.0
        assert sample_distance(d2, "zero", "v") == 0.0

    def test_diagonal_zero_for_all_windows(self):
        sys = rotation_system(6)
        for N in (1, 3, 5):
            assert np.all(np.diag(orbit_metric_Z(sys, N).dist) == 0)

    def test_invalid_horizon(self):
        sys = rotation_system(4)
        with pytest.raises(InvalidHorizonError):
            orbit_metric_Z(sys, 0)

    @pytest.mark.parametrize("N", [math.inf, math.nan])
    def test_non_finite_horizon(self, N):
        sys = rotation_system(4)
        with pytest.raises(InvalidHorizonError):
            orbit_metric_Z(sys, N)
        with pytest.raises(InvalidHorizonError):
            mdim_table(sys, [0.5], [1, N])
        with pytest.raises(InvalidHorizonError):
            metric_mdim_table(sys, [0.5], [1, N])


class TestWindowLadder:
    @LADDER_SYSTEMS
    def test_Z_windows_equal_the_per_n_loop(self, system):
        sys = system()
        for N in range(1, 7):
            window, loop = orbit_metric_Z(sys, N), orbit_metric_Z_loop(sys, N)
            assert window.points == loop.points
            assert np.array_equal(window.dist, loop.dist)
        ladder = list(windows(sys, [0, 2, 2, 5], 1.0))
        assert [R for R, _ in ladder] == [0, 2, 2, 5]
        for R, window in ladder:
            assert np.array_equal(window.dist, orbit_metric_Z_loop(sys, R + 1).dist)

    @LADDER_SYSTEMS
    def test_tables_equal_the_per_n_oracle(self, system):
        sys = system()
        eps_list, n_list = [0.1, 0.3, 0.6], [1, 2, 4, 5]
        loops = {n: orbit_metric_Z_loop(sys, n) for n in n_list}
        widim = [(eps, n, widim_upper(loops[n], eps) / n) for n in n_list for eps in eps_list]
        spanning = [(eps, n, math.log(spanning_number(loops[n], eps)) / (n * abs(math.log(eps))))
                    for n in n_list for eps in eps_list]
        assert mdim_table(sys, eps_list, n_list).rows == widim
        assert metric_mdim_table(sys, eps_list, n_list).rows == spanning

    def test_window_whose_last_table_was_left_out_stops_before_the_next(self):
        # A flow may leave out a time whose table equals an earlier one's:
        # here time 1 repeats time 0, and time 2 brings a new table.
        tables = {0.0: np.array([[0.0, 1.0], [1.0, 0.0]]), 2.0: np.array([[0.0, 3.0], [3.0, 0.0]])}

        class Flow:
            def point_ids(self):
                return ["a", "b"]

            def window_blocks(self, times):
                for t in times:
                    if t in tables:
                        yield np.array([t]), tables[t].copy()[None]

        ladder = [(R, window.dist[0, 1]) for R, window in windows(Flow(), [0, 1, 2], 1.0)]
        assert ladder == [(0, 1.0), (1, 1.0), (2, 3.0)]

    def test_torus_ladder_equals_each_window_alone(self):
        # dt = 15/16: 23/16 and 5 lie off the grid, 15/16 and 60/16 on it.
        system = lambda: cube_shift_system(1, 3)
        torus = mapping_torus(system(), 16)
        horizons, dt = [15 / 16, 23 / 16, 60 / 16, 5.0], 15 / 16
        ladder = list(windows(torus, horizons, dt))
        assert [R for R, _ in ladder] == horizons
        for R, window in ladder:
            alone = orbit_metric_R(mapping_torus(system(), 16), OrbitMetricSpec("R-window", R, dt))
            assert window.points == alone.points
            assert np.array_equal(window.dist, alone.dist)


class TestOrbitMetricR:
    def test_zero_horizon_grid_is_base(self):
        torus = mapping_torus(rotation_system(6), height_grid=10)
        spec = OrbitMetricSpec("R-window", horizon=1e-9, time_step=1e-9)
        out = orbit_metric_R(torus, spec)
        base = BowenWaltersMetric(torus.sys, torus.roof, 10).matrix(torus.values)
        assert np.allclose(out.dist, base, atol=1e-9)

    def test_isometric_rotation_flow(self):
        # The suspension of a rotation moves isometrically, so every
        # window metric equals the base metric.
        torus = mapping_torus(rotation_system(8), height_grid=10)
        base = BowenWaltersMetric(torus.sys, torus.roof, 10).matrix(torus.values)
        spec = OrbitMetricSpec("R-window", horizon=3.0, time_step=0.1)
        out = orbit_metric_R(torus, spec)
        assert np.allclose(out.dist, base, atol=1e-9)

    @pytest.mark.parametrize("system,grid,every_height,R,dt", [
        (lambda: rotation_system(96), 16, False, 24.0, 1.0 / 16.0),
        (lambda: rotation_system(12), 10, True, 2.0, 0.1),
        (lambda: rotation_system(12), 4, False, 2.0, 0.25),
        (lambda: cube_shift_system(1, 4), 4, True, 3.0, 0.25),
        (lambda: binary_shift_system(5), 8, False, 3.0, 0.375),
        (lambda: rotation_system(12), 10, True, 0.1, 0.1),
        (lambda: cube_shift_system(1, 3), 16, False, 23 / 16, 15 / 16),
    ], ids=["benchmark-torus", "pipeline-torus", "off-grid", "cube-shift", "binary-shift",
            "one-step", "R-off-the-step-grid"])
    def test_blocks_equal_the_per_time_loop(self, system, grid, every_height, R, dt):
        spec = OrbitMetricSpec("R-window", R, dt)
        blocks = orbit_metric_R(mapping_torus(system(), grid, every_height), spec)
        loop = orbit_metric_R_loop(mapping_torus(system(), grid, every_height), spec)
        assert blocks.points == loop.points
        assert np.array_equal(blocks.dist, loop.dist)

    @settings(max_examples=40)
    @given(data=st.data(), n=st.integers(1, 5), grid=st.integers(1, 4),
           k_max=st.integers(1, 9))
    def test_window_dominates_the_time_one_window_and_grows_with_R(self, data, n, grid, k_max):
        step = data.draw(st.permutations(range(n)))
        xs = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
        sys = DynSystem(MetricSample(list(range(n)), np.abs(np.subtract.outer(xs, xs))), step)
        torus = mapping_torus(sys, grid)
        # The time-one map of the height-0 sample is the step, under the
        # height-0 table.  The step dt = j / grid is 1 / steps_per_unit, so
        # the grid times k dt include every integer up to R.
        bw = BowenWaltersMetric(sys, torus.roof, grid)
        time_one = DynSystem(MetricSample(list(range(n)), bw.matrix(torus.values)), step)
        steps_per_unit = data.draw(st.sampled_from([s for s in range(1, grid + 1)
                                                     if grid % s == 0]))
        dt = (grid // steps_per_unit) / grid
        previous = np.zeros((n, n))
        for k in range(1, k_max + 1):
            window = orbit_metric_R(torus, OrbitMetricSpec("R-window", k * dt, dt)).dist
            assert np.all(window >= orbit_metric_Z(time_one, k // steps_per_unit + 1).dist)
            assert np.all(window >= previous)
            previous = window

    @pytest.mark.parametrize("system, every_height", [
        (lambda: cube_shift_system(1, 3), False),
        (lambda: rotation_system(12), True),
        (lambda: binary_shift_system(6), False),
    ], ids=["cube", "rotation", "binary-shift"])
    def test_window_is_within_dt_below_the_finer_window(self, system, every_height):
        # On grid times the chain metric moves each point by at most the
        # flow time, so the sup over [0, R] lies in [W(dt), W(dt) + dt];
        # the window of the halved step lies there too.
        torus = mapping_torus(system(), 32, every_height)
        for R in (1.0, 2.0, 3.0):
            for dt in (1 / 16, 1 / 8, 1 / 4):
                coarse = orbit_metric_R(torus, OrbitMetricSpec("R-window", R, dt)).dist
                fine = orbit_metric_R(torus, OrbitMetricSpec("R-window", R, dt / 2)).dist
                assert np.all(coarse <= fine)
                assert np.all(fine <= coarse + dt + 1e-12)

    def test_grid_stops_at_R(self, monkeypatch):
        # R = 23/16 lies off the dt = 15/16 grid.  The grid {0, 15/16, 23/16}
        # holds no time past R (30/16 is left out), so it is a subset of the
        # dt = 1/16 grid and its window can only be smaller.
        torus = mapping_torus(cube_shift_system(1, 3), 16)
        asked, blocks = [], torus.window_blocks

        def recorded(times):
            asked.extend(np.asarray(times).tolist())
            return blocks(times)

        monkeypatch.setattr(torus, "window_blocks", recorded)
        coarse = orbit_metric_R(torus, OrbitMetricSpec("R-window", 23 / 16, 15 / 16)).dist
        assert asked == [0.0, 15 / 16, 23 / 16]
        fine = orbit_metric_R(torus, OrbitMetricSpec("R-window", 23 / 16, 1 / 16)).dist
        assert np.all(coarse <= fine)

    def test_table_that_is_not_finite_is_invariant_violation(self, monkeypatch):
        torus = mapping_torus(rotation_system(4), height_grid=4)

        def nan_blocks(times):
            yield times[:1], np.full((1, 4, 4), np.nan)

        monkeypatch.setattr(torus, "window_blocks", nan_blocks)
        with pytest.raises(InvariantViolationError, match="non-finite evolution at grid time 0"):
            orbit_metric_R(torus, OrbitMetricSpec("R-window", 1.0, 0.25))

    @pytest.mark.parametrize("horizon", [math.inf, -math.inf, math.nan])
    def test_non_finite_horizon(self, horizon):
        with pytest.raises(InvalidHorizonError, match="positive and finite"):
            OrbitMetricSpec("R-window", horizon, 0.1)

    def test_only_R_windows(self):
        with pytest.raises(InvalidHorizonError, match="window kind"):
            OrbitMetricSpec("Z-window", 3, 0.1)


class TestWidimUpper:
    def test_single_point(self):
        assert widim_upper(MetricSample(["a"], np.zeros((1, 1))), 0.5) == 0

    def test_small_diameter_gives_constant_cover(self):
        s = MetricSample([0, 1], np.array([[0.0, 0.2], [0.2, 0.0]]))
        nerve = cover_nerve(s, 0.3)
        assert nerve.nerve_dim == 0
        assert len(nerve.cover) == 1

    def test_square_grid(self):
        s = grid_sample(21, dims=2)
        assert widim_upper(s, 0.3) == 2

    def test_line_grid(self):
        assert widim_upper(grid_sample(21), 0.3) == 1

    def test_upper_bound_by_point_count(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            pts = rng.uniform(0, 1, size=(n, 2))
            dist = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2)
            s = MetricSample(list(range(n)), dist)
            eps = float(rng.uniform(0.05, 1.0))
            assert widim_upper(s, eps) <= n - 1 or n == 1

    def test_cover_invariants(self):
        s = grid_sample(15, dims=2)
        nerve = cover_nerve(s, 0.4)
        covered = np.zeros(len(s), dtype=bool)
        for element in nerve.cover:
            covered[element] = True
            sub = s.dist[np.ix_(element, element)]
            assert sub.max() < 0.4
        assert covered.all()


@pytest.mark.parametrize("eps", [math.nan, 0.0, -0.25])
@pytest.mark.parametrize("count", [cover_nerve, spanning_number], ids=["cover", "spanning"])
def test_eps_that_is_not_positive_is_refused(count, eps):
    # A NaN eps covers no point: spanning_number would loop for ever and
    # cover_nerve report order 1.
    with pytest.raises(ValueError, match="eps must be positive"):
        count(grid_sample(21), eps)


class TestSpanningNumber:
    def test_covers_with_one_ball_at_diameter(self):
        s = grid_sample(30)
        assert spanning_number(s, s.diameter()) == 1

    def test_empty_sample(self):
        assert spanning_number(MetricSample([], np.zeros((0, 0))), 0.5) == 0

    def test_line_grid_optimum_two(self):
        s = grid_sample(101)
        greedy = spanning_number(s, 0.25)
        within = s.dist <= 0.25
        assert not any(within[i].all() for i in range(101))
        assert any((within[i] | within[j]).all()
                   for i in range(101) for j in range(i + 1, 101))
        assert greedy == 2

    def test_exact_mode_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 10))
            pts = rng.uniform(0, 1, size=(n, 1))
            dist = np.abs(pts[:, None, 0] - pts[None, :, 0])
            s = MetricSample(list(range(n)), dist)
            eps = float(rng.uniform(0.05, 0.8))
            exact = spanning_number_exact(s, eps)
            best = None
            within = dist <= eps
            for mask in range(1, 1 << n):
                centers = [i for i in range(n) if mask >> i & 1]
                if np.any(within[centers], axis=0).all():
                    size = len(centers)
                    best = size if best is None else min(best, size)
            assert exact == best

    def test_exact_antitone_in_eps(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(3, 12))
            pts = rng.uniform(0, 1, size=(n, 2))
            dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
            s = MetricSample(list(range(n)), dist)
            e1, e2 = sorted(rng.uniform(0.05, 1.2, size=2))
            assert spanning_number_exact(s, e1) >= spanning_number_exact(s, e2)

    def test_exact_mode_size_limit(self):
        s = grid_sample(16)
        with pytest.raises(ValueError):
            spanning_number_exact(s, 0.2)


class TestMdimTable:
    def test_cube_shift_entries_equal_dimension(self):
        for D in (1, 2):
            sys = cube_shift_system(D, 4)
            table = mdim_table(sys, [0.3], [1, 2, 3, 4])
            for N in (1, 2, 3, 4):
                assert table.value(0.3, N) == pytest.approx(D)

    def test_binary_shift_entries_zero(self):
        table = mdim_table(binary_shift_system(), [0.1], [1, 2, 3])
        assert all(v == 0.0 for _, _, v in table.rows)

    def test_fixed_point_system_zero(self):
        sys = DynSystem(MetricSample(["p"], np.zeros((1, 1))), [0])
        table = mdim_table(sys, [0.25, 0.5], [1, 2])
        assert all(v == 0.0 for _, _, v in table.rows)

    def test_requires_sorted_nonempty_lists(self):
        sys = rotation_system(4)
        with pytest.raises(ValueError):
            mdim_table(sys, [], [1])
        with pytest.raises(ValueError):
            mdim_table(sys, [0.5, 0.1], [1])


class TestMetricMdimTable:
    def test_one_point_system(self):
        sys = DynSystem(MetricSample(["p"], np.zeros((1, 1))), [0])
        table = metric_mdim_table(sys, [0.125, 0.25], [1, 2])
        assert all(v == 0.0 for _, _, v in table.rows)

    def test_binary_shift_decays_toward_zero(self):
        sys = binary_shift_system(7)
        eps_list = [2.0 ** -k for k in (16, 8, 4)]
        table = metric_mdim_table(sys, eps_list, [2])
        values = [table.value(e, 2) for e in eps_list]
        # Finite entropy: the spanning count saturates at the state
        # count, so entries decay like 1/|log eps|.
        assert values[0] < values[1] < values[2]
        assert values[0] < 0.25

    def test_line_grid_matches_center_count(self):
        # Window 1 of the 1-cube shift: spanning numbers follow the
        # closed ball-count on a fine grid, so entries track
        # log(count)/|log eps|.
        n = 257
        xs = np.linspace(0, 1, n)
        dist = np.abs(xs[:, None] - xs[None, :])
        sys = DynSystem(MetricSample(list(range(n)), dist), list(range(n)))
        for k in (4, 5):
            eps = 2.0 ** -k
            table = metric_mdim_table(sys, [eps], [1])
            count = spanning_number(orbit_metric_Z(sys, 1), eps)
            expected = math.log(count) / abs(math.log(eps))
            assert table.value(eps, 1) == pytest.approx(expected)
            assert abs(table.value(eps, 1) - 1.0) < 0.35


def torus_rotation(n1, n2):
    pts = [(i, j) for i in range(n1) for j in range(n2)]
    idx = {p: i for i, p in enumerate(pts)}
    step = [idx[((i + 1) % n1, (j + 1) % n2)] for i, j in pts]
    arr = np.array(pts, dtype=float)
    g1 = np.abs(arr[:, None, 0] - arr[None, :, 0])
    g1 = np.minimum(g1, n1 - g1)
    g2 = np.abs(arr[:, None, 1] - arr[None, :, 1])
    g2 = np.minimum(g2, n2 - g2)
    return DynSystem(MetricSample(pts, np.maximum(g1, g2)), step)


class TestWidimProperties:
    """Antitonicity, window subadditivity, and shift invariance on 100+
    randomized finite systems (<= 40 points), with epsilons drawn from
    each instance's grid regime.  Outside that regime the surrogate is
    documented as meaningless (a finite sample is honestly dust)."""

    @staticmethod
    def random_case(rng):
        kind = rng.integers(0, 3)
        if kind == 0:
            sys = rotation_system(int(rng.integers(8, 41)))
            diam = sys.base.diameter()
            eps = sorted(rng.uniform(2.5, 1.2 * diam, size=2))
        elif kind == 1:
            D = int(rng.integers(1, 3))
            N = int(rng.integers(1, 4)) if D == 1 else 1
            sys = cube_shift_system(D, N, dense=False)
            eps = sorted(rng.uniform(0.22, 0.39, size=2))
        else:
            sys = torus_rotation(int(rng.integers(4, 6)), int(rng.integers(6, 9)))
            diam = sys.base.diameter()
            eps = sorted(rng.uniform(2.5, 1.2 * diam, size=2))
        return sys, eps

    def test_property_suite(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            sys, (lo, hi) = self.random_case(rng)
            assert len(sys.base) <= 40
            N, M = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            d_n = orbit_metric_Z(sys, N)
            d_m = orbit_metric_Z(sys, M)
            d_nm = orbit_metric_Z(sys, N + M)
            # Antitone in epsilon on the same window metric.
            assert widim_upper(d_n, lo) >= widim_upper(d_n, hi)
            # Window subadditivity.
            assert (widim_upper(d_nm, hi)
                    <= widim_upper(d_n, hi) + widim_upper(d_m, hi))
            # Shift invariance: translated windows on an invertible system.
            r0 = int(rng.integers(1, 6))
            shifted = _window_shifted(sys, r0, N)
            assert widim_upper(shifted, hi) == widim_upper(d_n, hi)


def _window_shifted(sys, r0, N):
    """Orbit metric of the window [r0, r0 + N) on an invertible system."""
    base = sys.base.dist
    idx = np.arange(len(sys.base))
    for _ in range(r0):
        idx = sys.step[idx]
    out = base[np.ix_(idx, idx)].copy()
    for _ in range(1, N):
        idx = sys.step[idx]
        np.maximum(out, base[np.ix_(idx, idx)], out=out)
    return MetricSample(sys.base.points, out, validate=False)
