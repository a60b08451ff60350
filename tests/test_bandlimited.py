import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowdim.bandlimited import (
    Band,
    Signal,
    _grid_factors,
    _grid_rounding,
    band_support_check,
    fold_real,
    periodic_subspace_dim,
    shift,
    signal_metric,
    signal_metric_tail,
)
from flowdim.errors import (
    BandError,
    IncompatibleSignalError,
    InvariantViolationError,
    WindowExhaustedError,
)
from flowdim.kernel import QUAD_MAX_NODES
from oracles import evaluate_per_pair, grid_factors_per_entry, weighted_sup


def tone(freq, band=None, window=20.0, step=1 / 8, sup_bound=True):
    band = band or Band(0.0, max(1.0, freq))
    return Signal.from_function(lambda t: np.exp(2j * np.pi * freq * t),
                                band, window, step, sup_bound=sup_bound)


def raw(values, sup_bound=False, validate=True):
    """The Signal on band [0, 1], grid step 0.025, that holds exactly these values."""
    return Signal(Band(0, 1), (len(values) - 1) * 0.0125, 0.025, values,
                  sup_bound=sup_bound, validate=validate)


class TestSignal:
    def test_oversampling_enforced(self):
        with pytest.raises(InvariantViolationError):
            Signal.from_function(lambda t: 0 * t, Band(0, 4), 10.0, 1 / 8)

    def test_sup_bound_enforced(self):
        with pytest.raises(InvariantViolationError):
            Signal.from_function(lambda t: 0 * t + 2.0, Band(0, 1), 10.0, 1 / 8,
                                 sup_bound=True)

    @pytest.mark.parametrize("n", [0, 1, 65_535, 65_536, 65_537, 309_626])
    def test_sup_norm_is_the_max_modulus_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        want = float(np.abs(v).max()) if n else 0.0
        assert raw(v, validate=False).sup_norm().hex() == want.hex()

    @pytest.mark.parametrize("nan_at, big_at", [(0, None), (-1, None), (65_539, 5),
                                                (5, 65_539)])
    def test_nan_fails_the_sup_bound_in_any_block(self, nan_at, big_at):
        # A NaN propagates through the max wherever it sits, also before or
        # after a value that exceeds the bound.
        v = np.full(131_073, 0.5, dtype=complex)
        v[nan_at] = np.nan
        if big_at is not None:
            v[big_at] = 2.0
        assert math.isnan(raw(v).sup_norm())
        with pytest.raises(InvariantViolationError):
            raw(v, sup_bound=True)

    def test_nan_in_a_short_signal_fails_the_sup_bound(self):
        v = np.zeros(81, dtype=complex)
        v[40] = np.nan
        with pytest.raises(InvariantViolationError):
            Signal(Band(0, 1), 1.0, 0.025, v, sup_bound=True)

    def test_violation_in_the_last_partial_block_raises(self):
        v = np.full(131_079, 0.5, dtype=complex)
        v[-1] = 1.0 + 1e-9
        raw(v, sup_bound=True)  # on the tolerance: accepted
        v[-1] = 1.0 + 2e-9
        with pytest.raises(InvariantViolationError):
            raw(v, sup_bound=True)

    def test_evaluate_shares_tap_weights_bit_for_bit(self):
        # 50,001 points of linspace(0, 200) on a grid-0.01 signal fall on a
        # handful of fractional offsets; random times fall on one each.
        sig = Signal.from_function(lambda t: np.exp(2j * np.pi * 0.7 * t) + 0.5 * np.cos(t),
                                   Band(0.0, 2.0), 201.0, 0.01)
        t = np.linspace(0.0, 200.0, 50_001)
        frac = (t + sig.window) / sig.grid_step % 1.0
        assert len(np.unique(frac)) < 20
        rng = np.random.default_rng(3)
        for times in (t, rng.uniform(-200.0, 200.0, 2_000), np.r_[t[:50], 0.0, 0.005, -0.0],
                      np.array([]), 3.25):
            assert np.array_equal(sig.evaluate(times), evaluate_per_pair(sig, times))

    def test_grid_mismatch_rejected(self):
        f = tone(0.5)
        g = tone(0.5, window=10.0)
        with pytest.raises(IncompatibleSignalError):
            signal_metric(f, g, 4)

    @pytest.mark.parametrize("times", [np.nan, np.inf, -np.inf, 1e300, -1e300,
                                       [0.5, np.nan, 1.0]], ids=repr)
    def test_times_off_the_window_raise_before_the_int_cast(self, times):
        # No RuntimeWarning from a wrapped int64 cast, and no IndexError.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(WindowExhaustedError, match="interpolation-safe window"):
                tone(0.5).evaluate(times)

    @pytest.mark.parametrize("window, step", [(np.inf, 0.1), (np.nan, 0.1), (1.0, np.nan),
                                              (1.0, np.inf), (-1.0, 0.1), (1e308, 1e-10)])
    def test_window_or_step_that_is_not_positive_and_finite_is_refused(self, window, step):
        with pytest.raises(InvariantViolationError, match="window and step > 0"):
            Signal(Band(0, 1), window, step, np.zeros(3))

    @pytest.mark.parametrize("window, step", [(np.nan, 0.1), (1.0, np.nan), (np.inf, 0.1),
                                              (1.0, 0.0)])
    def test_from_function_refuses_a_window_or_step_before_any_sample(self, window, step):
        def never(t):
            raise AssertionError("sampled")

        with pytest.raises(InvariantViolationError, match="window and step > 0"):
            Signal.from_function(never, Band(0, 1), window, step)


# A solenoid grid twice solenoid-demo's: window 20,050 at step 0.01, frequencies 2 pi / n!.
SOLENOID_GRID = (2 * np.pi / np.array([1.0, 2.0, 6.0, 24.0]), -20050.0, 0.01, 4_010_001)
# bump_transform's largest accepted rule at tau = 0.5: QUAD_MAX_NODES base
# nodes, 2 QUAD_MAX_NODES doubled ones at step tau / 2 / (2 QUAD_MAX_NODES),
# for points up to |z| = QUAD_MAX_NODES / (4 tau).
LARGEST_RULE = (2 * np.pi * np.array([QUAD_MAX_NODES / 2.0, -1000.0, 0.37]), 0.0,
                0.25 / (2 * QUAD_MAX_NODES), 2 * QUAD_MAX_NODES)


@st.composite
def grids(draw):
    """omega (real or complex), t0, dt and n, with |Im omega| |t| <= 30 on the grid."""
    n = draw(st.one_of(st.integers(1, 5000), st.integers(1, 4_010_001)))
    dt = draw(st.floats(1e-7, 0.1)) * draw(st.sampled_from([1.0, -1.0]))
    t0 = draw(st.floats(-2.1e4, 2.1e4))
    omega = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4)))
    if draw(st.booleans()):
        span = abs(t0) + (n + math.isqrt(n) + 1) * abs(dt)
        imag = draw(st.lists(st.floats(-30.0, 30.0), min_size=len(omega),
                             max_size=len(omega)))
        omega = omega + 1j * np.array(imag) / span
    return omega, t0, dt, n


class TestGridFactors:
    """The recurrence against one exponential per entry, within the documented bound.

    Both are within ``_grid_rounding(n, reach)`` relative of the exact
    waves: the per-entry form rounds each argument once, from t0 + q B dt,
    and takes one exponential.  So they differ by at most twice it.
    """

    @settings(max_examples=40)
    @given(grid=grids())
    @example(grid=SOLENOID_GRID)
    @example(grid=LARGEST_RULE)
    @example(grid=(LARGEST_RULE[0] + 10j * 2 * np.pi, *LARGEST_RULE[1:]))
    @example(grid=(np.array([0.0, 2 * np.pi]), 0.0, 0.1, 1))
    def test_matches_the_per_entry_oracle(self, grid):
        omega, t0, dt, n = grid
        head, tail = _grid_factors(omega, t0, dt, n)
        want_head, want_tail = grid_factors_per_entry(omega, t0, dt, n)
        B = len(tail)
        assert B * len(head) >= n > B * (len(head) - 1)
        assert head.shape == want_head.shape and tail.shape == want_tail.shape
        reach = float(np.abs(omega).max()) * (abs(t0) + (n + B) * abs(dt))
        bound = 2.0 * _grid_rounding(n, reach)
        assert np.all(np.abs(head - want_head) <= bound * np.abs(want_head))
        assert np.all(np.abs(tail - want_tail) <= bound * np.abs(want_tail))

    @pytest.mark.parametrize("grid", [SOLENOID_GRID, LARGEST_RULE],
                             ids=["solenoid", "largest-rule"])
    def test_real_waves_keep_modulus_one(self, grid):
        # Every |head[q] tail[r]| lies between the products of the extreme moduli.
        omega, t0, dt, n = grid
        head, tail = (np.abs(f) for f in _grid_factors(omega, t0, dt, n))
        bound = _grid_rounding(n)
        assert (head.max(axis=0) * tail.max(axis=0)).max() <= 1.0 + bound
        assert (head.min(axis=0) * tail.min(axis=0)).min() >= 1.0 - bound

    def test_bound_is_far_below_the_sup_tolerance_at_the_solenoid_grid(self):
        # rows + B = 4,006 units of 8u: about 3.6e-12, against SUP_BOUND_TOL = 1e-9.
        assert 3e-12 < _grid_rounding(4_010_001) < 4e-12


class TestSignalMetric:
    def test_identical_signals(self):
        f = tone(0.5)
        assert signal_metric(f, f, 10) == 0.0

    def test_constant_difference_sums_geometric(self):
        base = Band(0, 1)
        f = Signal.from_function(lambda t: 0 * t + 0.25, base, 20.0, 1 / 8)
        z = Signal.from_function(lambda t: 0 * t, base, 20.0, 1 / 8)
        n_max = 18
        expected = 0.25 * (1.0 - 2.0 ** -n_max)
        assert signal_metric(f, z, n_max) == pytest.approx(expected, abs=1e-12)
        assert signal_metric_tail(n_max) == 2.0 ** (1 - n_max)

    def test_bounded_by_two(self):
        f = tone(0.5)
        g = Signal(f.band, f.window, f.grid_step, -f.values, sup_bound=True)
        assert signal_metric(f, g, 12) <= 2.0

    @settings(max_examples=60, deadline=None)
    @given(window=st.sampled_from([1.0, 2.5, 4.0, 6.5]),
           step=st.sampled_from([0.25, 0.125, 0.1, 0.05]), rings=st.integers(1, 6),
           frac=st.sampled_from([0.0, 0.3, 0.99]), seed=st.integers(0, 2**32 - 1))
    @example(window=4.0, step=0.25, rings=4, frac=0.0, seed=0)
    def test_one_pair_is_the_oracle_bit_for_bit(self, window, step, rings, frac, seed):
        # A non-integer n_max reads int(n_max) rings; on steps 1/4 and 1/8
        # grid times sit at |t| = n exactly.
        rings = min(rings, int(window))
        n_max = rings + frac if rings + frac <= window else rings
        rng = np.random.default_rng(seed)
        n = int(round(2 * window / step)) + 1
        f, g = (Signal(Band(0.0, 1.0), window, step, rng.normal(size=n) + 1j * rng.normal(size=n))
                for _ in range(2))
        want = weighted_sup(np.abs(f.times()), f.values, g.values[None], rings)[0]
        assert signal_metric(f, g, n_max).hex() == float(want).hex()

    @pytest.mark.parametrize("n_max", [np.nan, np.inf, -np.inf, 0.5])
    def test_n_max_outside_one_to_the_window_is_refused(self, n_max):
        with pytest.raises(ValueError, match="need 1 <= n_max <= window"):
            signal_metric(tone(0.5), tone(0.7), n_max)

    def test_metric_axioms_random(self):
        rng = np.random.default_rng(1)
        band = Band(0, 1)
        sigs = []
        for _ in range(12):
            coeffs = rng.uniform(-0.4, 0.4, 3) + 1j * rng.uniform(-0.4, 0.4, 3)
            freqs = rng.uniform(0.05, 0.9, 3)
            sigs.append(Signal.from_function(
                lambda t, c=coeffs, fr=freqs: np.exp(2j * np.pi * np.outer(t, fr)) @ c,
                band, 12.0, 1 / 8))
        for _ in range(200):
            i, j, k = rng.integers(0, len(sigs), 3)
            dij = signal_metric(sigs[i], sigs[j], 8)
            dji = signal_metric(sigs[j], sigs[i], 8)
            dik = signal_metric(sigs[i], sigs[k], 8)
            dkj = signal_metric(sigs[k], sigs[j], 8)
            assert dij == pytest.approx(dji, abs=1e-12)
            assert dij <= dik + dkj + 1e-9


class TestShift:
    def test_zero_shift_identity(self):
        f = tone(0.7)
        g = shift(f, 0.0)
        t = g.times()
        ref = f.evaluate(t)
        assert np.abs(g.values - ref).max() < 1e-12

    def test_tone_picks_up_phase(self):
        c, r = 0.9, 0.7
        f = tone(c)
        g = shift(f, r)
        expected = np.exp(2j * np.pi * c * (g.times() + r))
        assert np.abs(g.values - expected).max() < 1e-6

    def test_group_law_on_common_window(self):
        c = 0.37
        f = tone(c, window=30.0)
        once = shift(f, 0.7)
        twice = shift(shift(f, 0.3), 0.4)
        offset = int(round((twice.times()[0] - once.times()[0]) / f.grid_step))
        overlap = len(twice.values)
        diff = np.abs(once.values[offset:offset + overlap] - twice.values)
        assert diff.max() < 1e-6

    def test_sup_norm_survives_resampling(self):
        # The resampled values must carry the same sup as the source
        # function at the corresponding continuum times.
        rng = np.random.default_rng(3)
        coeffs = rng.uniform(-0.3, 0.3, 4) + 1j * rng.uniform(-0.3, 0.3, 4)
        freqs = rng.uniform(0.1, 0.9, 4)
        f = Signal.from_function(
            lambda t: np.exp(2j * np.pi * np.outer(t, freqs)) @ coeffs,
            Band(0, 1), 40.0, 1 / 8)
        r = 3.3
        g = shift(f, r)
        reference = np.exp(2j * np.pi * np.outer(g.times() + r, freqs)) @ coeffs
        sup_g = np.abs(g.values).max()
        sup_ref = np.abs(reference).max()
        assert sup_g == pytest.approx(sup_ref, abs=1e-6)

    def test_window_budget(self):
        f = tone(0.5, window=10.0)
        with pytest.raises(WindowExhaustedError):
            shift(f, 6.0)

    @pytest.mark.parametrize("r", [np.nan, np.inf, -np.inf])
    def test_non_finite_shift_exceeds_the_budget(self, r):
        with pytest.raises(WindowExhaustedError, match="window budget"):
            shift(tone(0.5, window=10.0), r)

    def test_spectral_energy_translation_invariance(self):
        f = tone(1.0, band=Band(0, 2), window=50.0, step=1 / 8)
        leak_f = band_support_check(f, 4 / 50.0)
        g = shift(f, 2.0)
        leak_g = band_support_check(g, 4 / g.window)
        assert abs(leak_f - leak_g) < 1e-6


class TestBandSupportCheck:
    def test_mid_band_tone_clean(self):
        f = tone(1.0, band=Band(0, 2), window=50.0)
        assert band_support_check(f, 4 / 50.0) < 1e-3

    def test_off_band_tone_dirty(self):
        f = Signal.from_function(
            lambda t: np.exp(2j * np.pi * (2 + 10 / 50.0) * t),
            Band(0, 2), 50.0, 1 / 16)
        assert band_support_check(f, 1 / 50.0) > 0.9

    def test_zero_signal_zero_leakage(self):
        z = Signal.from_function(lambda t: 0 * t, Band(0, 2), 50.0, 1 / 8)
        assert band_support_check(z, 0.0) == 0.0

    def test_negative_pad_rejected(self):
        f = tone(0.5)
        with pytest.raises(ValueError):
            band_support_check(f, -0.1)


class TestFoldReal:
    def test_real_signal_unchanged(self):
        f = Signal.from_function(lambda t: np.cos(2 * np.pi * 0.4 * t) + 0j,
                                 Band(0, 1), 20.0, 1 / 8, sup_bound=True)
        g = fold_real(f)
        assert np.abs(g.values - f.values).max() == 0.0

    def test_tone_folds_to_cosine(self):
        f = tone(0.5, band=Band(0, 1))
        g = fold_real(f)
        t = g.times()
        assert np.abs(g.values - np.cos(2 * np.pi * 0.5 * t)).max() < 1e-12
        assert g.band == Band(-1.0, 1.0)

    def test_fold_contracts_sup(self):
        rng = np.random.default_rng(5)
        coeffs = rng.uniform(0, 0.3, 3) * np.exp(2j * np.pi * rng.uniform(0, 1, 3))
        freqs = rng.uniform(0.05, 0.95, 3)
        f = Signal.from_function(
            lambda t: np.exp(2j * np.pi * np.outer(t, freqs)) @ coeffs,
            Band(0, 1), 20.0, 1 / 8, sup_bound=True)
        g = fold_real(f)
        assert g.sup_norm() <= f.sup_norm() + 1e-12

    def test_negative_band_rejected(self):
        f = Signal.from_function(lambda t: 0 * t, Band(-1, 1), 20.0, 1 / 8)
        with pytest.raises(BandError):
            fold_real(f)


class TestPeriodicSubspaceDim:
    @pytest.mark.parametrize("a,r,expected", [(1, 2.5, 5), (1, 0.5, 1), (2, 3, 13)])
    def test_named_cases(self, a, r, expected):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            dim, cert = periodic_subspace_dim(a, r)
        assert dim == expected
        assert cert.rank == expected
        assert cert.consistent

    def test_randomized_sweep_no_mismatch(self):
        rng = np.random.default_rng(17)
        done = 0
        while done < 20:
            a = float(rng.uniform(0.3, 3.0))
            r = float(rng.uniform(0.3, 4.0))
            if abs(a * r - round(a * r)) < 1e-6:
                continue
            dim, cert = periodic_subspace_dim(a, r)
            assert dim == 2 * int(np.floor(a * r)) + 1
            assert cert.rank == dim
            done += 1

    def test_band_edge_warns(self):
        with pytest.warns(RuntimeWarning):
            dim, cert = periodic_subspace_dim(2.0, 3.0)
        assert dim == 13

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            periodic_subspace_dim(-1.0, 2.0)
