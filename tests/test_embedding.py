import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowdim.bandlimited import (
    SUP_BOUND_TOL,
    UNIT_ROUNDOFF,
    Band,
    Signal,
    _block_shape,
    _grid_factors,
    _grid_rounding,
    _min_rate,
    _near_values,
    _pair_metrics,
    shift,
)
from flowdim.dynamics import SolenoidPoint, solenoid_act, solenoid_from_time
from flowdim.embedding import (
    EXP_SUM_MAX_SAMPLES,
    MAX_DEPTH,
    N_MAX,
    NODE_MARGIN,
    SolenoidEmbedding,
    _exp_sum_mean_rounding,
    _exp_sum_means,
    _nodes_in,
    _step_requirement,
    bohr_coefficient,
    bohr_cross_term_bound,
    epsilon_embedding_search,
    exp_sum_bound,
    exp_sum_grid,
    exp_sum_signals,
    solenoid_coefficients,
    solenoid_embed,
    solenoid_error_bounds,
    solenoid_recover,
    verify_delta_embedding,
)
from flowdim.errors import (
    BandError,
    ConfigurationError,
    IncompatibleSignalError,
    InvariantViolationError,
    NotEmbeddingImageError,
    PreconditionError,
    SearchBudgetError,
    TruncationDepthError,
)
from flowdim.metric import MetricSample
from oracles import kernel_rows, solenoid_distance, weighted_sup


@pytest.fixture(scope="module")
def emb():
    return SolenoidEmbedding(c=1.0, K=4, window=20.0)


class TestSolenoidEmbed:
    def test_origin_value_is_coefficient_sum(self, emb):
        sig = solenoid_embed(SolenoidPoint((0.0,) * 4), emb)
        mid = len(sig.values) // 2
        assert sig.values[mid] == pytest.approx(sum(2.0 ** -n for n in (1, 2, 3, 4)))

    def test_coefficient_moduli(self, emb):
        p = solenoid_from_time(3.7, 4)
        coeffs = solenoid_coefficients(p, emb)
        for n, c in zip(range(1, 5), coeffs):
            assert abs(c) == pytest.approx(2.0 ** -n)

    def test_band_and_sup_bound(self, emb):
        sig = solenoid_embed(solenoid_from_time(11.2, 4), emb)
        assert sig.band.a == 0.0 and sig.band.b == 1.0
        assert sig.sup_norm() <= 1.0 + 1e-9

    def test_too_shallow_point_rejected(self, emb):
        with pytest.raises(TruncationDepthError):
            solenoid_embed(SolenoidPoint((0.5,)), emb)

    def test_equivariance_fifty_random_pairs(self, emb):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(50):
            p = solenoid_from_time(float(rng.uniform(0, 24)), 4)
            r = float(rng.uniform(-5, 5))
            moved = solenoid_embed(solenoid_act(p, r), emb)
            shifted = shift(solenoid_embed(p, emb), r)
            on_grid = moved.evaluate(shifted.times())
            worst = max(worst, float(np.abs(on_grid - shifted.values).max()))
        assert worst < 1e-9

    def test_start_index_matches_band(self):
        # 1/m! must fit under the band limit: c = 1 admits m = 1, while
        # c = 0.4 needs 1/3! = 0.1667.
        assert SolenoidEmbedding(c=1.0, K=3, window=10.0).m == 1
        assert SolenoidEmbedding(c=0.4, K=3, window=10.0).m == 3

    @pytest.mark.parametrize("c, step", [(0.4, 0.01), (1.0, 0.01), (25.0, 0.01), (50.0, 1 / 200),
                                         (26.25, 1 / 105)])
    def test_default_step_is_the_coarsest_the_means_and_the_band_take(self, c, step):
        # At c = 26.25 the reciprocal of 1/105 rounds below the rate 105,
        # and the step is still taken: the rule compares step * rate with 1.
        emb = SolenoidEmbedding(c=c, K=5, window=1.0)
        assert emb.grid_step == step and emb.band == Band(0.0, c)
        need, rate = _step_requirement(2.0 * np.pi * emb.frequencies()).min(), _min_rate(emb.band)
        assert step == min(need, 1.0 / rate)
        assert len(solenoid_embed(solenoid_from_time(3.7, 5), emb)) == round(2.0 / step) + 1

    def test_a_step_of_exactly_one_over_the_rate_is_taken_as_signals_take_it(self):
        # 1 / (1 / 186) rounds below the rate 186 of band [0, 46.5].
        assert 1.0 / (1 / 186) < 186.0
        emb = SolenoidEmbedding(46.5, 2, 10.0, 1 / 186)
        assert emb.grid_step == 1 / 186
        assert len(Signal.from_function(lambda t: 0 * t, emb.band, 10.0, 1 / 186)) == 3721
        with pytest.raises(ConfigurationError, match="oversampling bound"):
            SolenoidEmbedding(46.5, 2, 10.0, (1 / 186) * (1 + 1e-9))
        with pytest.raises(InvariantViolationError, match="oversampling bound"):
            Signal.from_function(lambda t: 0 * t, emb.band, 10.0, (1 / 186) * (1 + 1e-9))

    def test_depth_beyond_exact_float64_factorials_is_refused(self):
        # 22! is the last factorial float64 holds exactly; the circle
        # of x_23 would not be the integer 23!.
        assert float(math.factorial(MAX_DEPTH)) == math.factorial(MAX_DEPTH)
        assert float(math.factorial(MAX_DEPTH + 1)) != math.factorial(MAX_DEPTH + 1)
        assert SolenoidEmbedding(c=1.0, K=MAX_DEPTH, window=10.0).K == MAX_DEPTH
        with pytest.raises(ConfigurationError, match="MAX_DEPTH = 22"):
            SolenoidEmbedding(c=1.0, K=MAX_DEPTH + 1, window=10.0)

    @pytest.mark.parametrize("window, grid_step", [
        (math.nan, 0.01), (-5.0, 0.01), (0.0, 0.01), (math.inf, 0.01),
        (10.0, 0.0), (10.0, math.nan), (10.0, -0.01), (10.0, math.inf)])
    def test_window_and_step_must_be_finite_and_positive(self, window, grid_step):
        with pytest.raises(ConfigurationError, match="finite window and grid step > 0"):
            SolenoidEmbedding(c=1.0, K=4, window=window, grid_step=grid_step)

    @pytest.mark.parametrize("c", [math.nan, math.inf, 0.0, -1.0])
    def test_band_limit_must_be_finite_and_positive(self, c):
        with pytest.raises(ConfigurationError, match="band limit c must be finite and positive"):
            SolenoidEmbedding(c=c, K=4, window=10.0)


def evaluated(sig):
    """Whether the exponential-sum signal's values have been evaluated."""
    return sig._rows.cache_info().currsize > 0


def direct_exp_sum(coeffs, freqs, t):
    """The reference outer-product sum, in chunks to bound its temporaries."""
    return np.concatenate([np.exp(2j * np.pi * np.outer(t[s:s + 500_000], freqs)) @ coeffs
                           for s in range(0, len(t), 500_000)])


class TestExpSumGrid:
    def test_block_product_matches_direct_sum_at_4m_points(self, emb):
        coeffs = solenoid_coefficients(solenoid_from_time(17.3, 4), emb)
        n, t0, dt = 4_010_001, -20050.0, 0.01
        got = exp_sum_grid(coeffs, emb.frequencies(), t0, dt, n)
        want = direct_exp_sum(coeffs, emb.frequencies(), t0 + dt * np.arange(n))
        assert len(got) == n
        assert np.abs(got - want).max() <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 1009])
    def test_ragged_lengths(self, emb, n):
        # n = 1009 is prime, so the last block row is partial; phases stay
        # below 50 rad, which keeps rounding near 1e-14.
        coeffs = solenoid_coefficients(solenoid_from_time(5.9, 4), emb)
        t0, dt = -3.3, 0.01
        got = exp_sum_grid(coeffs, emb.frequencies(), t0, dt, n)
        want = direct_exp_sum(coeffs, emb.frequencies(), t0 + dt * np.arange(n))
        assert len(got) == n
        assert np.abs(got - want).max() <= 1e-13


    def test_coefficient_rows_give_one_signal_per_row(self, emb):
        rows = np.array([solenoid_coefficients(solenoid_from_time(t, 4), emb)
                         for t in (0.0, 5.9, 17.3)])
        got = exp_sum_grid(rows, emb.frequencies(), -3.3, 0.01, 1009)
        assert got.shape == (3, 1009)
        for row, coeffs in zip(got, rows):
            assert np.array_equal(row, exp_sum_grid(coeffs, emb.frequencies(), -3.3, 0.01, 1009))


class TestCoefficientSupBound:
    """The sup bound of an exponential sum is certified from its coefficients;
    ``Signal.sup_norm`` is the scan oracle."""

    def test_scan_is_within_the_bound_at_the_solenoid_grid(self):
        emb = SolenoidEmbedding(c=1.0, K=4, window=20050.0)
        rng = np.random.default_rng(24)
        for tau in rng.uniform(0, 24, size=3):
            p = solenoid_from_time(float(tau), 4)
            sig = solenoid_embed(p, emb)
            assert len(sig.values) == 4_010_001 and sig.sup_bound
            bound = exp_sum_bound(solenoid_coefficients(p, emb), len(sig.values))
            assert sig.sup_norm() <= bound <= 1.0 + SUP_BOUND_TOL

    def test_scan_is_within_the_bound_on_the_pipeline_rows(self, monkeypatch):
        import flowdim.instances
        from flowdim.instances import run_embedding_pipeline
        made = []

        def recording(coeffs, *args):
            signals = exp_sum_signals(coeffs, *args)
            made.append((np.array(coeffs), signals))
            return signals

        monkeypatch.setattr(flowdim.instances, "exp_sum_signals", recording)
        run_embedding_pipeline(delta=0.2, rho=1, N=2, base_size=12, n_heights=10, seed=2024)
        [(coeffs, signals)] = made
        assert len(signals) == len(coeffs) == 120
        for row, sig in zip(coeffs, signals):
            assert sig.sup_bound
            assert sig.sup_norm() <= exp_sum_bound(row, len(sig.values)) <= 1.0 - 0.2 + 1e-9

    @pytest.mark.parametrize("scale, bad", [(1.5, None), (1.0, np.nan), (1.0, np.inf),
                                            (1.0, complex(0.1, np.nan))],
                             ids=["scale-1.5", "nan", "inf", "complex-nan"])
    def test_refused_before_any_grid_is_evaluated(self, emb, monkeypatch, scale, bad):
        import flowdim.embedding

        def no_grid(*args):
            raise AssertionError("a grid was evaluated")

        monkeypatch.setattr(flowdim.embedding, "_grid_factors", no_grid)
        p = solenoid_from_time(3.7, 4)
        if bad is None:
            # The moduli 1/2 + ... + 1/16 = 0.9375 times 1.5 pass 1.
            with pytest.raises(InvariantViolationError, match="sup bound"):
                solenoid_embed(p, emb, scale=scale)
            return
        coeffs = solenoid_coefficients(p, emb)
        coeffs[2] = bad
        with pytest.raises(InvariantViolationError, match="finite"):
            exp_sum_signals([coeffs], emb.frequencies(), Band(0.0, 1.0), 20.0, 0.125)

    @pytest.mark.parametrize("rows, window, says", [
        (1, 5e8, "window 5e+08 at step 0.01 need 1 x 100000000001 = 100000000001 samples"),
        (3, 20050.0, "window 20050 at step 0.01 need 3 x 4010001 = 12030003 samples"),
        (1, math.inf, "window inf at step 0.01"),
        (1, math.nan, "window nan at step 0.01"),
    ], ids=["huge-window", "three-solenoid-rows", "inf", "nan"])
    def test_too_many_samples_refused_before_any_grid_is_evaluated(self, emb, monkeypatch,
                                                                   rows, window, says):
        import flowdim.embedding

        def no_grid(*args):
            raise AssertionError("a grid was evaluated")

        monkeypatch.setattr(flowdim.embedding, "_grid_factors", no_grid)
        coeffs = [solenoid_coefficients(solenoid_from_time(3.7, 4), emb)] * rows
        with pytest.raises(ConfigurationError, match=f"{re.escape(says)}.*more than {EXP_SUM_MAX_SAMPLES}"):
            exp_sum_signals(coeffs, emb.frequencies(), Band(0.0, 1.0), window, 0.01)

    def test_grid_is_checked(self, emb):
        coeffs = solenoid_coefficients(solenoid_from_time(3.7, 4), emb)
        # Step 0.5 is below the oversampling bound 4 of band [0, 1].
        with pytest.raises(InvariantViolationError, match="oversampling"):
            exp_sum_signals([coeffs], emb.frequencies(), Band(0.0, 1.0), 20.0, 0.5)

    def test_signals_equal_the_grid_values(self, emb):
        rows = np.array([solenoid_coefficients(solenoid_from_time(t, 4), emb)
                         for t in (0.0, 5.9)])
        signals = exp_sum_signals(rows, emb.frequencies(), Band(0.0, 1.0), 20.0, 0.125)
        want = exp_sum_grid(rows, emb.frequencies(), -20.0, 0.125, 321)
        for sig, values in zip(signals, want):
            assert (sig.window, sig.grid_step) == (20.0, 0.125)
            assert np.array_equal(sig.values, values)

    def test_closed_form_means_on_node_ranges_are_the_values_means_and_evaluate_no_signal(
            self, emb):
        # 321 samples: the node ranges are the whole grid, single nodes at
        # both ends, no node, and ranges inside and at the right edge.
        rows = np.array([solenoid_coefficients(solenoid_from_time(t, 4), emb)
                         for t in (0.0, 5.9)])
        signals = exp_sum_signals(rows, emb.frequencies(), Band(0.0, 1.0), 20.0, 0.125)
        lams = np.append(signals[0].omega, [0.0, -0.8, 0.3])
        ranges = [(0, 1), (0, 321), (17, 19), (18, 36), (5, 5), (300, 321), (320, 321)]
        dt, T = 0.125, 40.0
        means = [[_exp_sum_means(sig.coeffs, sig.omega, lams, -20.0 + dt * j0, dt, j1 - j0, T)
                  for j0, j1 in ranges] for sig in signals]
        assert [len(sig) for sig in signals] == [321, 321]
        assert not any(evaluated(sig) for sig in signals)
        # The first values of any signal evaluate every row of the call.
        signals[1].values
        assert all(evaluated(sig) for sig in signals)
        for sig, got in zip(signals, means):
            for (j0, j1), mean in zip(ranges, got):
                t0 = -20.0 + dt * j0
                want = one_pass_mean(sig.values[j0:j1], lams, t0, dt, T)
                bound = (_exp_sum_mean_rounding(sig.coeffs, sig.omega, lams, t0, dt, j1 - j0, T)
                         + one_pass_mean_rounding(sig, lams, t0, j1 - j0, T))
                assert np.abs(mean - want).max() <= bound
                if j1 - j0 < 2:
                    assert not np.any(mean)

    def test_frequency_outside_the_band_is_refused_before_any_grid(self, monkeypatch):
        # Frequency 5 on a grid of step 1/8 aliases to -3: its Bohr mean at
        # 2 pi 5 would read about 0 instead of 0.5.
        import flowdim.embedding

        def no_grid(*args):
            raise AssertionError("a grid was evaluated")

        monkeypatch.setattr(flowdim.embedding, "_grid_factors", no_grid)
        for freqs in ([5.0], [-0.1], [math.nan], [0.5, 1.0 + 1e-9]):
            with pytest.raises(BandError, match="outside the band"):
                exp_sum_signals([[0.5] * len(freqs)], freqs, Band(0.0, 1.0), 20.0, 0.125)
        [sig] = exp_sum_signals([[0.25, 0.25]], [0.0, 1.0], Band(0.0, 1.0), 20.0, 0.125)
        assert not evaluated(sig)


def assert_matches_masked_trapezoid(window, T, start=None):
    """The Signal path's means equal np.trapezoid over the masked times in [start, start + T].

    The means are taken first, from the unevaluated signal.
    """
    emb = SolenoidEmbedding(c=1.0, K=4, window=window)
    sig = solenoid_embed(solenoid_from_time(9.1, 4), emb)
    lams = 2.0 * np.pi / np.array([math.factorial(n) for n in range(1, 5)])
    got = [bohr_coefficient(sig, lam, T) if start is None else bohr_coefficient(sig, lam, T, start)
           for lam in lams]
    assert not evaluated(sig)
    t = sig.times()
    lo = 0.0 if start is None else start
    mask = (t >= lo - 1e-12) & (t <= lo + T + 1e-12)
    for lam, mean in zip(lams, got):
        want = np.trapezoid(sig.values[mask] * np.exp(-1j * lam * t[mask]), t[mask]) / T
        assert abs(mean - want) <= 1e-10 * abs(want)


def one_pass_mean(vals, lam, t0, dt, T):
    """(dt / T) times the trapezoid sums of v_j exp(-i lam_k t_j), t_j = t0 + j dt, j < n.

    One sum per frequency lam_k, all in one contraction of the n values v:
    the oracle of the closed-form means of exponential-sum signals.
    """
    n = len(vals)
    if n < 2:
        return np.zeros(len(lam), dtype=complex)
    head, tail = _grid_factors(-np.asarray(lam, dtype=float), t0, dt, n)
    B = len(tail)
    full = n // B
    total = (head[:full] * (vals[:full * B].reshape(full, B) @ tail)).T.copy().sum(axis=1)
    if full < len(head):
        total += head[full] * (vals[full * B:] @ tail[:n - full * B])
    last = n - 1
    ends = vals[0] * head[0] + vals[last] * head[last // B] * tail[last % B]
    return (total - ends / 2.0) * dt / T


def one_pass_mean_rounding(sig, lam, t0, n, T):
    """Bound on how far ``one_pass_mean`` of an exponential-sum signal's values at
    t0 + j dt, j < n, lies from the exact means of the float inputs.

    With u = 2^-53, A = sum |c_k|, K terms and the signal's n_s samples
    on [-W, W] at step dt, relative to (dt / T) n A:
    - each value is within A (g_s + 8u K) of the sum at its grid time
      -W + (i0 + j) dt, as in ``exp_sum_bound``, where g_s is
      ``_grid_rounding`` of the signal's grid at reach max |omega| (W +
      (n_s + B_s) dt); that time is within u (2W + |t0|) of t0 + j dt, so
      the value turns by at most 2u max |omega| (W + |t0|) more;
    - each factor exp(-i lam t_j) is within g, ``_grid_rounding`` of the
      n nodes at reach max |lam| (|t0| + (n + B) dt);
    - B-term row products, a sum of the rows and the two ends add at
      most 8u (rows + B) + 8u, and dt / T 2u.
    """
    if n < 2:
        return 0.0
    omega, lam = np.abs(sig.omega).max(), np.abs(np.asarray(lam, dtype=float)).max()
    W, dt, K = sig.window, sig.grid_step, len(sig.omega)
    g_s = _grid_rounding(len(sig), omega * (W + (len(sig) + _block_shape(len(sig))[1]) * dt))
    g = _grid_rounding(n, lam * (abs(t0) + (n + _block_shape(n)[1]) * dt))
    u = UNIT_ROUNDOFF
    relative = (g_s + 8 * u * K + 2 * u * omega * (W + abs(t0)) + g + _grid_rounding(n)
                + 10 * u)
    return float(np.abs(sig.coeffs).sum()) * n * dt / T * relative


def assert_closed_form_matches_the_values(sig, lams, T, start):
    """``bohr_coefficient`` of an unevaluated exponential-sum signal on its grid is
    ``one_pass_mean`` of its values there, within both rounding bounds."""
    got = bohr_coefficient(sig, lams, T, start)
    assert not evaluated(sig)
    i0, i1 = _nodes_in(sig.window, sig.grid_step, len(sig), T, start)
    t0 = -sig.window + sig.grid_step * i0
    want = one_pass_mean(sig.values[i0:i1], lams, t0, sig.grid_step, T)
    bound = (_exp_sum_mean_rounding(sig.coeffs, sig.omega, lams, t0, sig.grid_step, i1 - i0, T)
             + one_pass_mean_rounding(sig, lams, t0, i1 - i0, T))
    assert np.abs(got - want).max() <= bound
    return got


# Nodes of the 600.005 window sit at 0.005 mod 0.01, so [-300.0031,
# -299.9991] holds none.
from_a_start = pytest.mark.parametrize("window, T, start", [
    (10050.0, 2e4, -1e4), (600.005, 300.0, -123.456789), (600.005, 0.004, -300.0031),
    (60.0, 120.0, -60.0), (60.0, 17.5, 42.5)],
    ids=["solenoid-demo", "off-lattice", "no-node", "whole-window", "right-edge"])


# The default grid step, 0.01, meets the step requirement of every
# frequency in [-11.5, 11.5].
FINE = SolenoidEmbedding(c=1.0, K=4, window=60.0)


def tones(coeffs, omega, window):
    """The exponential-sum signal sum_k c_k exp(i omega_k t) on [-window, window] at step 0.01."""
    [sig] = exp_sum_signals([coeffs], np.asarray(omega) / (2 * np.pi), Band(0.0, 1.0),
                            window, 0.01)
    return sig


def assert_refused_before_any_node(source, lam, T, start, says):
    """``bohr_coefficient`` raises ConfigurationError, warns nothing and makes no grid."""
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match=re.escape(says)):
                bohr_coefficient(source, lam, T, start)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


class TestBohrCoefficient:
    @pytest.mark.parametrize("window, T", [(20050.0, 2e4), (600.005, 600.005),
                                           (600.005, 0.004), (60.0, 60.0)])
    def test_signal_path_matches_masked_trapezoid(self, window, T):
        # 600.005 is not a multiple of the grid step, so no node sits on 0,
        # and [0, 0.004] holds no node at all.
        assert_matches_masked_trapezoid(window, T)

    @from_a_start
    def test_signal_path_matches_masked_trapezoid_from_a_start(self, window, T, start):
        assert_matches_masked_trapezoid(window, T, start)

    @from_a_start
    def test_closed_form_means_are_the_values_means_within_the_rounding_bound(self, window, T,
                                                                              start):
        emb = SolenoidEmbedding(c=1.0, K=4, window=window)
        sig = solenoid_embed(solenoid_from_time(9.1, 4), emb)
        lams = 2.0 * np.pi / np.array([1.0, 2.0, 6.0, 24.0])
        got = assert_closed_form_matches_the_values(sig, lams, T, start)
        # Evaluated, the signal's means are the same closed form.
        assert evaluated(sig)
        assert np.array_equal(bohr_coefficient(sig, lams, T, start), got)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_closed_form_is_the_one_pass_mean_within_the_rounding_bound(self, data):
        # Band [0, 25] at step 0.01 is oversampled 4 times, the most the
        # grid check allows, so a frequency at 25 and lam = -11.5 (whose
        # step requirement is 0.01) put |phi| at pi/4 + 1/16.  The first
        # frequency is low enough that lam = 2 pi f_0 takes the grid:
        # theta = 0 exactly, and one ulp off it.
        dt = 0.01
        K = data.draw(st.integers(1, 4))
        f0 = data.draw(st.floats(0.0, 11.0 / (2 * np.pi)))
        freqs = [f0] + data.draw(st.lists(st.sampled_from([0.0, 25.0]) | st.floats(0.0, 25.0),
                                          min_size=K - 1, max_size=K - 1))
        moduli = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=K, max_size=K)))
        moduli /= max(1.0, moduli.sum() * (1 + 1e-9))
        phases = np.array(data.draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=K,
                                             max_size=K)))
        window = data.draw(st.floats(0.5, 300.0))
        [sig] = exp_sum_signals([moduli * np.exp(1j * phases)], freqs, Band(0.0, 25.0),
                                window, dt)
        # T of at most one node, of two, or of any span; starts off the lattice.
        T = data.draw(st.sampled_from([0.004, 0.012, 0.019]) | st.floats(0.02, 2 * window))
        start = -window + data.draw(st.floats(0.0, 1.0 - 1e-9)) * (2 * window - T)
        omega0 = sig.omega[0]
        lams = np.array([omega0, np.nextafter(omega0, np.inf), np.nextafter(omega0, -np.inf),
                         -11.5, 11.5] + data.draw(st.lists(st.floats(-11.5, 11.5), max_size=3)))
        assert_closed_form_matches_the_values(sig, lams, T, start)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, [1.0, math.nan]])
    def test_frequency_that_is_not_finite_is_configuration_error(self, lam):
        sig = solenoid_embed(solenoid_from_time(9.1, 4), FINE)
        assert_refused_before_any_node(sig, lam, 50.0, 0.0, "need finite frequencies")
        assert not evaluated(sig)

    @pytest.mark.parametrize("source, lam, T, start, says", [
        ("callable", np.pi, 50.0, 0.0, "got function"),
        ("plain", np.pi, 50.0, 0.0, "got Signal"),
        ("coarse", np.pi, 30.0, -25.5, "do not take the grid of step 0.125"),
        ("fine", 12.0, 30.0, -25.5, "do not take the grid of step 0.01"),
        ("fine", 1e308, 1.0, 0.0, "do not take the grid of step 0.01"),
        ("fine", np.pi, 50.0, 20.0, "the means over [20, 70] do not take the grid"),
        ("fine", np.pi, 50.0, -61.0, "the means over [-61, -11] do not take the grid"),
        ("fine", np.pi, 10.0, 55.0, "the means over [55, 65] do not take the grid")],
        ids=["callable", "plain-signal", "coarse-grid", "frequency-12", "frequency-1e308",
             "past-the-right-edge", "before-the-left-edge", "at-the-right-edge"])
    def test_anything_but_an_exp_sum_signal_on_its_grid_is_refused_before_any_node(
            self, source, lam, T, start, says):
        # Frequencies pi and 12 need steps 0.01 and 1/104: the grid of step
        # 1/8 is too coarse for pi, and the 0.01 grid is too coarse for 12.
        # The window is [-60, 60].
        coarse = solenoid_embed(solenoid_from_time(9.1, 4),
                                SolenoidEmbedding(c=1.0, K=4, window=60.0, grid_step=0.125))
        fine = solenoid_embed(solenoid_from_time(9.1, 4), FINE)
        plain = Signal(fine.band, fine.window, fine.grid_step, exp_sum_grid(
            fine.coeffs, fine.omega / (2 * np.pi), -fine.window, fine.grid_step, len(fine)))
        sources = {"callable": lambda t: np.ones_like(t, dtype=complex), "plain": plain,
                   "coarse": coarse, "fine": fine}
        assert_refused_before_any_node(sources[source], lam, T, start, says)
        assert not evaluated(coarse) and not evaluated(fine)

    def test_explicit_zero_start_is_the_default_bit_for_bit(self):
        sig = solenoid_embed(solenoid_from_time(9.1, 4), FINE)
        lams = np.array([2 * np.pi, np.pi, np.pi / 3, np.pi / 12, 0.7, -3.0])
        for T in (50.0, 12.34, 0.004):
            assert np.array_equal(bohr_coefficient(sig, lams, T, 0.0),
                                  bohr_coefficient(sig, lams, T))
        emb = SolenoidEmbedding(c=1.0, K=3, window=600.0)
        sig = solenoid_embed(solenoid_from_time(4.3, 3), emb)
        assert (solenoid_recover(sig, emb, 500.0, start=0.0).coords
                == solenoid_recover(sig, emb, 500.0).coords)

    @pytest.mark.parametrize("T, start", [(math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan),
                                          (1.0, -math.inf)])
    def test_interval_that_is_not_finite_is_configuration_error(self, T, start):
        sig = solenoid_embed(solenoid_from_time(9.1, 4), FINE)
        with pytest.raises(ConfigurationError, match="finite averaging interval"):
            bohr_coefficient(sig, 1.0, T, start)

    def test_frequency_array_matches_the_scalar_calls(self):
        # Differences are taken relative to the largest mean, since the
        # means at frequencies the sum lacks are O(1/T) residues of
        # cancellation.
        lams = np.array([2 * np.pi, np.pi, np.pi / 3, np.pi / 12, 0.7, -3.0, 11.5])
        for sig in (solenoid_embed(solenoid_from_time(9.1, 4), FINE),
                    tones([0.5, 0.25], [2 * np.pi, np.pi], 60.0)):
            for T in (50.0, 12.34):
                want = [bohr_coefficient(sig, lam, T) for lam in lams]
                assert all(type(w) is complex for w in want)
                got = bohr_coefficient(sig, lams, T)
                assert got.shape == lams.shape
                assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
                assert np.array_equal(bohr_coefficient(sig, lams.reshape(7, 1), T), got[:, None])

    def test_nonpositive_length_is_configuration_error(self):
        sig = solenoid_embed(solenoid_from_time(9.1, 4), FINE)
        with pytest.raises(ConfigurationError):
            bohr_coefficient(sig, 1.0, 0.0)

    def test_matching_frequency_is_exact(self):
        sig = tones([1.0], [2.0], 60.0)
        assert abs(bohr_coefficient(sig, 2.0, 50.0) - 1.0) < 1e-10

    def test_mismatched_frequency_within_closed_form(self):
        lam, mu, T = 2.0, 3.0, 1000.0
        val = bohr_coefficient(tones([1.0], [mu], T), lam, T)
        assert abs(val) <= 2.0 / (T * abs(mu - lam))

    def test_two_term_sum_recovers_leading_coefficient(self):
        sig = tones([0.5, 0.25], [2 * np.pi, np.pi], 2e4)
        assert abs(bohr_coefficient(sig, 2 * np.pi, 2e4) - 0.5) <= 1e-3

    def test_cross_term_bound_controls_measured_error(self):
        moduli = [0.5, 0.25, 0.125]
        freqs = [2 * np.pi, np.pi, 0.5 * np.pi]
        coeffs = [m * np.exp(2j * np.pi * p) for m, p in zip(moduli, (0.1, 0.4, 0.8))]
        sig = tones(coeffs, freqs, 4000.0)
        for T in (500.0, 4000.0):
            for m_idx in range(3):
                got = bohr_coefficient(sig, freqs[m_idx], T)
                bound = bohr_cross_term_bound(moduli, freqs, m_idx, T)
                assert abs(got - coeffs[m_idx]) <= bound + 1e-9


class TestSolenoidRecover:
    def test_round_trip_origin(self):
        emb = SolenoidEmbedding(c=1.0, K=3, window=600.0)
        sig = solenoid_embed(SolenoidPoint((0.0, 0.0, 0.0)), emb)
        rec = solenoid_recover(sig, emb, 500.0)
        for n, x in enumerate(rec.coords, start=1):
            fact = math.factorial(n)
            gap = min(x % fact, fact - x % fact)
            assert gap <= 1e-2 * fact

    def test_round_trip_generic_point(self):
        emb = SolenoidEmbedding(c=1.0, K=3, window=2100.0)
        p = solenoid_from_time(4.3, 3)
        sig = solenoid_embed(p, emb)
        rec = solenoid_recover(sig, emb, 2000.0)
        for n in range(1, 4):
            fact = math.factorial(n)
            gap = abs(rec.coords[n - 1] - p.coords[n - 1]) % fact
            assert min(gap, fact - gap) <= 1e-2 * fact

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.0, 24.0, exclude_max=True))
    def test_half_window_recovers_the_drawn_point_s_error(self, tau):
        # f_q(t) = f_p(t + T/2) for q = phi_{T/2} p: recovering q over
        # [-T/2, T/2] makes the [0, T] error of p, up to the rounding of the
        # grid times (about one ulp of the window in time).
        T = 1000.0
        p = solenoid_from_time(tau, 4)
        q = solenoid_act(p, T / 2)
        emb_p = SolenoidEmbedding(c=1.0, K=4, window=T + 50.0)
        emb_q = SolenoidEmbedding(c=1.0, K=4, window=T / 2 + 50.0)
        rec_p = solenoid_recover(solenoid_embed(p, emb_p), emb_p, T)
        rec_q = solenoid_recover(solenoid_embed(q, emb_q), emb_q, T, start=-T / 2)
        moduli = 2.0 ** -np.arange(1, 5)
        freqs = 2.0 * np.pi / np.array([1.0, 2.0, 6.0, 24.0])
        for n in range(1, 5):
            fact = math.factorial(n)
            err_p, err_q = [min(gap, fact - gap) for gap in
                            (abs(rec.coords[n - 1] - x.coords[n - 1]) % fact
                             for rec, x in ((rec_p, p), (rec_q, q)))]
            bound = bohr_cross_term_bound(moduli, freqs, n - 1, T)
            assert abs(err_p - err_q) <= 1e-9 * bound

    def test_half_window_round_trip_holds_under_4_mb(self):
        # The 2,010,001-sample signal of solenoid-demo's README example
        # would take 32 MB as values; embedding and recovery evaluate none.
        T = 2e4
        emb = SolenoidEmbedding(c=1.0, K=4, window=T / 2 + 50.0)
        q = solenoid_from_time(9.1 + T / 2, 4)
        tracemalloc.start()
        try:
            sig = solenoid_embed(q, emb)
            rec = solenoid_recover(sig, emb, T, start=-T / 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sig) == 2_010_001 and not evaluated(sig)
        assert peak < 4 * 2**20
        assert solenoid_distance(rec, q) <= 1e-2

    def test_error_bounds_refuse_means_off_the_grid(self):
        # Step 1/8 is coarser than the 0.01 that frequency 2 pi needs, and
        # [0, 50] leaves the window [-20, 20].
        for emb, T in [(SolenoidEmbedding(c=1.0, K=4, window=60.0, grid_step=0.125), 50.0),
                       (SolenoidEmbedding(c=1.0, K=4, window=20.0), 50.0)]:
            with pytest.raises(ConfigurationError, match="do not take the grid"):
                solenoid_error_bounds(emb, T)

    def test_default_embedding_round_trips(self):
        # The default step meets the step requirement of every frequency of
        # the sum, so the bounds and the recovery take the default grid.
        T = 500.0
        emb = SolenoidEmbedding(c=1.0, K=4, window=T / 2 + 50.0)
        q = solenoid_from_time(3.7 + T / 2, 4)
        bounds = solenoid_error_bounds(emb, T, start=-T / 2)
        rec = solenoid_recover(solenoid_embed(q, emb), emb, T, start=-T / 2)
        for n, bound in zip(range(1, 5), bounds):
            fact = math.factorial(n)
            gap = abs(rec.coords[n - 1] - q.coords[n - 1]) % fact
            assert min(gap, fact - gap) <= bound

    def test_error_bounds_without_an_interval_are_half_circles(self):
        # [0.003, 0.007] holds no node of the 0.01 grid.
        emb = SolenoidEmbedding(c=1.0, K=3, window=20.0)
        bounds = solenoid_error_bounds(emb, 0.004, start=0.003)
        assert bounds == [math.factorial(n) * (0.5 + 16 * UNIT_ROUNDOFF) for n in (1, 2, 3)]

    def test_passed_bounds_recover_what_computed_bounds_do(self, monkeypatch):
        # solenoid-demo computes the bounds once and passes them to each
        # recovery; at T = 500 the bounds, not 0.05, set the tower tolerance.
        import flowdim.embedding

        T = 500.0
        emb = SolenoidEmbedding(c=1.0, K=4, window=T / 2 + 50.0)
        bounds = solenoid_error_bounds(emb, T, start=-T / 2)
        assert max(a + b for a, b in zip(bounds, bounds[1:])) > 0.05
        signals = [solenoid_embed(solenoid_from_time(tau + T / 2, 4), emb)
                   for tau in (0.0, 3.7, 17.2)]
        computed = [solenoid_recover(sig, emb, T, start=-T / 2) for sig in signals]

        def not_again(*args, **kwargs):
            raise AssertionError("solenoid_recover recomputed the bounds it was given")

        monkeypatch.setattr(flowdim.embedding, "solenoid_error_bounds", not_again)
        for sig, want in zip(signals, computed):
            assert solenoid_recover(sig, emb, T, start=-T / 2, bounds=bounds).coords == want.coords

    def test_zero_signal_rejected(self):
        emb = SolenoidEmbedding(c=1.0, K=3, window=600.0)
        [zero] = exp_sum_signals([np.zeros(3)], emb.frequencies(), emb.band,
                                 emb.window, emb.grid_step)
        with pytest.raises(NotEmbeddingImageError):
            solenoid_recover(zero, emb, 500.0)


def three_point_sample():
    d = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.004], [1.0, 0.004, 0.0]])
    return MetricSample(["a", "b", "c"], d)


class TestEpsilonEmbeddingSearch:
    def test_zero_perturbation_accepted_first(self):
        sample = three_point_sample()
        F = np.array([[0.5, 0.5], [0.2, 0.2], [0.2, 0.2]])
        G, report = epsilon_embedding_search(F, sample, eps=0.01, delta_prime=0.1, seed=0)
        assert report.tries == 1
        assert np.array_equal(G, F)

    def test_identical_far_rows_get_separated(self):
        sample = three_point_sample()
        F = np.array([[0.2, 0.2], [0.2, 0.2], [0.21, 0.21]])
        G, report = epsilon_embedding_search(F, sample, eps=0.01, delta_prime=0.1, seed=7)
        assert np.abs(G - F).max() < 0.1
        assert np.abs(G[0] - G[1]).max() > 1e-12
        # Exhaustive pair check of the embedding contract.
        for i in range(3):
            for j in range(i + 1, 3):
                if np.abs(G[i] - G[j]).max() <= 1e-12:
                    assert sample.dist[i, j] < 0.01

    def test_precondition_violation_raises(self):
        sample = three_point_sample()
        F = np.array([[0.9, 0.9], [-0.9, -0.9], [0.2, 0.2]])
        with pytest.raises(PreconditionError) as err:
            epsilon_embedding_search(F, sample, eps=0.01, delta_prime=0.1, seed=1)
        assert err.value.witness is not None

    def test_budget_exhaustion(self, monkeypatch):
        # Force failure: rows clipped to the same corner collide forever.
        import flowdim.embedding
        monkeypatch.setattr(flowdim.embedding, "MAX_TRIES", 5)
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        sample = MetricSample([0, 1], d)
        F = np.array([[1.0], [1.0]])
        with pytest.raises(SearchBudgetError):
            epsilon_embedding_search(F, sample, eps=0.5, delta_prime=1e-30, seed=3)

    def test_widim_advisory_warns_but_proceeds(self):
        xs = np.linspace(0, 1, 21)
        d = np.abs(xs[:, None] - xs[None, :])
        sample = MetricSample(list(range(21)), d)
        F = np.stack([xs * 2 - 1, xs * 2 - 1], axis=1)
        with pytest.warns(RuntimeWarning):
            G, report = epsilon_embedding_search(F, sample, eps=0.3,
                                                 delta_prime=0.9, seed=5)
        assert report.widim_advisory == 1


class TestVerifyDeltaEmbedding:
    def test_separated_images_pass_vacuously(self, emb):
        pts = [solenoid_from_time(t, 4) for t in (0.0, 1.3, 3.1)]
        sigs = [solenoid_embed(p, emb) for p in pts]
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        sample = MetricSample([0, 1, 2], d)
        verdict = verify_delta_embedding(sigs, pts, sample, delta=0.5)
        assert verdict.passed
        assert verdict.n_matched == 0
        assert verdict.min_image_separation > 1e-6

    def test_lists_must_match_the_sample(self, emb):
        p = solenoid_from_time(0.7, 4)
        sig = solenoid_embed(p, emb)
        sample = MetricSample(["x", "y"], np.array([[0.0, 1.0], [1.0, 0.0]]))
        for signals, phis in (([sig], [p, p]), ([sig, sig], [p]), ([sig] * 3, [p] * 3)):
            with pytest.raises(InvariantViolationError):
                verify_delta_embedding(signals, phis, sample, delta=0.5)

    def test_pair_rows_equal_the_per_pair_metrics(self, emb):
        # Three factor points occur twice, so three pairs match.
        times = [0.0, 0.4, 1.3, 2.2, 3.1, 5.0, 7.7, 0.4, 3.1, 7.7]
        pts = [solenoid_from_time(t, 4) for t in times]
        sigs = [solenoid_embed(p, emb) for p in pts]
        x = np.random.default_rng(3).uniform(size=len(pts))
        sample = MetricSample(list(range(len(pts))), np.abs(np.subtract.outer(x, x)))
        verdict = verify_delta_embedding(sigs, pts, sample, delta=0.5)
        pairs = [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))]
        t, values = _near_values(sigs, 4)
        sm = {(i, j): weighted_sup(t, values[i], values[j][None], 4)[0] for i, j in pairs}
        sd = {q: solenoid_distance(pts[q[0]], pts[q[1]]) for q in pairs}
        matched = [q for q in pairs if sm[q] <= 1e-6 and sd[q] <= 1e-6]
        worst = max(matched, key=lambda q: sample.dist[q])
        assert verdict.n_pairs == len(pairs)
        assert verdict.n_matched == len(matched) == 3
        assert verdict.worst_pair == worst
        assert verdict.worst_distance == sample.dist[worst]
        assert verdict.passed == all(sample.dist[q] < 0.5 for q in matched)
        assert verdict.min_image_separation == min(
            max(sm[q], sd[q]) for q in pairs if q not in matched)
        assert verdict.far_pair_separation == min(
            max(sm[q], sd[q]) for q in pairs if sample.dist[q] >= 0.5)

    @settings(max_examples=40, deadline=None)
    @given(count=st.integers(1, 50), window=st.sampled_from([4.0, 5.0, 6.5]),
           step=st.sampled_from([0.25, 0.125, 0.1, 0.05]), seed=st.integers(0, 2**32 - 1))
    @example(count=1, window=4.0, step=0.25, seed=0)
    @example(count=2, window=4.0, step=0.125, seed=1)
    def test_ring_maxima_are_the_row_loop(self, count, window, step, seed):
        # The blocked ring maxima against weighted_sup of each row of pairs
        # (i, j > i), bit for bit; on steps 1/4 and 1/8 grid times sit at
        # |t| = n exactly, and up to 1,225 pairs take several blocks.
        rng = np.random.default_rng(seed)
        n = int(round(2 * window / step)) + 1
        values = rng.normal(size=(count, n)) + 1j * rng.normal(size=(count, n))
        sigs = [Signal(Band(0.0, 1.0), window, step, v) for v in values]
        t, values = _near_values(sigs, N_MAX)
        if step in (0.25, 0.125):
            assert set(range(1, N_MAX + 1)) <= set(t.tolist())
        iu, ju = np.triu_indices(count, k=1)
        want = [weighted_sup(t, values[i], values[i + 1:], N_MAX) for i in range(count - 1)]
        got = _pair_metrics(t, values, iu, ju, N_MAX)
        assert np.array_equal(got, np.concatenate(want) if want else np.empty(0))

    def test_mismatched_grids_are_rejected(self, emb):
        p = solenoid_from_time(0.7, 4)
        other = SolenoidEmbedding(c=1.0, K=4, window=10.0)
        sigs = [solenoid_embed(p, emb), solenoid_embed(p, other)]
        sample = MetricSample(["x", "y"], np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(IncompatibleSignalError):
            verify_delta_embedding(sigs, [p, p], sample, delta=0.5)

    def test_constant_map_fails_with_witness(self, emb):
        p = solenoid_from_time(0.7, 4)
        sig = solenoid_embed(p, emb)
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        sample = MetricSample(["x", "y"], d)
        verdict = verify_delta_embedding([sig, sig], [p, p], sample, delta=0.5)
        assert not verdict.passed
        assert verdict.worst_pair == ("x", "y")
        assert verdict.worst_distance == pytest.approx(1.0)


def _bare_run(rho):
    """An EmbeddingRun with zero corrections and no dynamics, for the kernel alone."""
    from flowdim.bandlimited import Band
    from flowdim.embedding import EmbeddingRun
    from flowdim.kernel import KernelConstants, KernelSpec

    constants = KernelConstants(K_dec=1.0, delta_prime=0.01, S_sup=1.0, delta=0.2,
                                T0=2.0, tail_bound=0.5, grid_step=0.01, grid_slack=0.05)
    F = np.zeros((2, 2))
    return EmbeddingRun(constants=constants, kernel=KernelSpec(Band(0.0, 2.0), rho, 0.5),
                        phi_N=np.zeros(2), advance=None, F=F, G=F)


def kernel_sum_one_row(run, nodes, weights, t0, dt, n):
    """``run.kernel_sum`` of one row that keeps all its nodes."""
    return run.kernel_sum(nodes[None], weights[None], np.ones((1, len(nodes)), dtype=bool),
                          t0, dt, n)[0]


def test_node_spacing_beyond_node_margin_is_configuration_error():
    # node_tail_bound integrates the envelope past NODE_MARGIN - 1/rho,
    # which must not be negative: 1/rho = 200 passes, 1/rho = 300 fails.
    _bare_run(Fraction(1, 200))
    with pytest.raises(ConfigurationError, match="NODE_MARGIN"):
        _bare_run(Fraction(1, 300))


@pytest.fixture(scope="module")
def small_pipeline():
    from flowdim.instances import run_embedding_pipeline
    return run_embedding_pipeline(base_size=6, n_heights=5, seed=11)


class TestPerturbSignalMap:
    """Direct checks of the correction stage on a small instance."""

    def test_zero_correction_returns_f_exactly(self, small_pipeline):
        from dataclasses import replace
        from flowdim.embedding import perturb_signal_map
        from flowdim.instances import SuspensionInstance
        res = small_pipeline
        run0 = replace(res.run, G=res.run.F.copy())
        inst = res.instance
        emb = SolenoidEmbedding(c=1.0, K=inst.depth, window=12.0, grid_step=0.05)
        f_map = lambda i: solenoid_embed(inst.factor(int(i)), emb, scale=0.8)
        [g] = perturb_signal_map(run0, [f_map(3)], [3])
        f = f_map(3)
        assert np.array_equal(g.values, f.values)

    def test_no_new_out_of_band_energy(self, small_pipeline):
        from flowdim.bandlimited import band_support_check
        from flowdim.embedding import perturb_signal_map
        from flowdim.kernel import kernel_band_leakage
        res = small_pipeline
        inst = res.instance
        emb = SolenoidEmbedding(c=1.0, K=inst.depth, window=12.0, grid_step=0.05)
        f_map = lambda i: solenoid_embed(inst.factor(int(i)), emb, scale=0.8)
        kernel_leak = kernel_band_leakage(res.run.kernel)
        pad = 8.0 / 12.0
        for i in (0, 7):
            f = f_map(i)
            [g] = perturb_signal_map(res.run, [f], [i])
            leak_f = band_support_check(f, pad)
            leak_g = band_support_check(g, pad)
            assert leak_g < 2.0 * leak_f + kernel_leak + 1e-6

    def test_budget_check_counts_the_node_tail(self, small_pipeline, monkeypatch):
        from flowdim.embedding import EmbeddingRun, perturb_signal_map
        res = small_pipeline
        inst = res.instance
        emb = SolenoidEmbedding(c=1.0, K=inst.depth, window=12.0, grid_step=0.05)
        f_map = lambda i: solenoid_embed(inst.factor(int(i)), emb, scale=0.8)
        [g] = perturb_signal_map(res.run, [f_map(0)], [0])
        sup = float(np.abs(g.values - f_map(0).values).max())
        assert sup + res.run.node_tail_bound() < res.run.delta
        monkeypatch.setattr(EmbeddingRun, "node_tail_bound", lambda run: run.delta - sup / 2)
        with pytest.raises(ConfigurationError, match="node tail"):
            perturb_signal_map(res.run, [f_map(0)], [0])

    def test_exp_sum_rows_meet_the_precondition_on_their_certified_bound(self, small_pipeline,
                                                                         monkeypatch):
        from flowdim.embedding import _ExpSumSignal, perturb_signal_map
        res = small_pipeline
        inst, delta = res.instance, res.run.delta
        emb = SolenoidEmbedding(c=1.0, K=inst.depth, window=12.0, grid_step=0.05)
        f = solenoid_embed(inst.factor(0), emb, scale=0.8)
        plain = Signal(f.band, f.window, f.grid_step, f.values)
        want = perturb_signal_map(res.run, [plain], [0])[0].values

        scan = Signal.sup_norm

        def no_exp_sum_scan(sig):
            assert not isinstance(sig, _ExpSumSignal), "sup_norm scanned an exponential sum"
            return scan(sig)

        monkeypatch.setattr(Signal, "sup_norm", no_exp_sum_scan)
        assert np.array_equal(perturb_signal_map(res.run, [f], [0])[0].values, want)
        # Moduli that sum just above 1 - delta fail, whatever the grid sup.
        moduli = 2.0 ** -np.arange(emb.m, emb.K + 1)
        over = solenoid_embed(inst.factor(0), emb, scale=(1.0 - delta + 1e-8) / moduli.sum())
        with pytest.raises(PreconditionError, match="1 - delta"):
            perturb_signal_map(res.run, [over], [0])

    def test_batch_is_each_state_alone(self, small_pipeline):
        # Every state of the small instance in one call: one advance call,
        # and each g bit for bit the one a single-state call makes.
        from dataclasses import replace
        from unittest import mock

        from flowdim.embedding import perturb_signal_map
        res = small_pipeline
        inst, run = res.instance, res.run
        noise = np.random.default_rng(6).uniform(-0.5, 0.5, size=run.F.shape)
        run = replace(run, advance=mock.Mock(wraps=inst.advance),
                      G=run.F + noise * run.delta_prime)
        emb = SolenoidEmbedding(c=1.0, K=inst.depth, window=12.0, grid_step=0.05)
        states = np.arange(len(inst.flow.values))
        f = [solenoid_embed(inst.factor(int(i)), emb, scale=0.8) for i in states]
        batch = perturb_signal_map(run, f, states)
        assert run.advance.call_count == 1
        assert np.any(batch[0].values != f[0].values)
        for i in states:
            [alone] = perturb_signal_map(run, [f[i]], [i])
            assert np.array_equal(batch[i].values, alone.values)

    def test_batch_checks_name_the_failing_state(self, small_pipeline, monkeypatch):
        from dataclasses import replace

        from flowdim.embedding import EmbeddingRun, perturb_signal_map
        res = small_pipeline
        inst, run = res.instance, res.run
        emb = SolenoidEmbedding(c=1.0, K=inst.depth, window=12.0, grid_step=0.05)
        moduli = 2.0 ** -np.arange(emb.m, emb.K + 1)
        ok = solenoid_embed(inst.factor(2), emb, scale=0.8)
        over = solenoid_embed(inst.factor(5), emb, scale=(1.0 - run.delta + 1e-8) / moduli.sum())
        with pytest.raises(PreconditionError, match="state 5 "):
            perturb_signal_map(run, [ok, over], [2, 5])
        with pytest.raises(IncompatibleSignalError):
            perturb_signal_map(run, [ok, solenoid_embed(inst.factor(5), SolenoidEmbedding(
                c=1.0, K=inst.depth, window=8.0, grid_step=0.05), scale=0.8)], [2, 5])
        # With the states in the order of their sup |h|, a tail between
        # the two largest values fails the last states only, and the
        # error names the first of them.
        noise = np.random.default_rng(8).uniform(-0.5, 0.5, size=run.F.shape)
        run = replace(run, G=run.F + noise * run.delta_prime)
        states = np.arange(len(inst.flow.values))
        f = [solenoid_embed(inst.factor(i), emb, scale=0.8) for i in states]
        sups = np.array([np.abs(g.values - fi.values).max()
                         for g, fi in zip(perturb_signal_map(run, f, states), f)])
        order = np.argsort(sups, kind="stable")
        top = sups.max()
        second = sups[sups < top].max()
        worst = order[np.argmax(sups[order])]
        assert worst != order[0]
        monkeypatch.setattr(EmbeddingRun, "node_tail_bound",
                            lambda run: run.delta - (second + top) / 2)
        with pytest.raises(ConfigurationError, match=f"of state {worst} \\+ node tail"):
            perturb_signal_map(run, [f[i] for i in order], order)

    def test_pipeline_verdict_on_small_instance(self, small_pipeline):
        assert small_pipeline.passed

    def test_corrections_follow_the_matrices(self, small_pipeline):
        from dataclasses import replace

        from flowdim.embedding import complex_rows
        run = small_pipeline.run
        noise = np.random.default_rng(4).uniform(-0.5, 0.5, size=run.F.shape)
        moved = replace(run, G=run.F + noise * run.delta_prime)
        assert np.array_equal(moved.correction_rows(),
                              complex_rows(moved.G) - complex_rows(moved.F))
        assert moved.node_tail_bound() > 0
        back = replace(moved, G=run.F.copy())
        assert not np.any(back.correction_rows())
        assert back.node_tail_bound() == 0.0


@pytest.fixture(scope="module")
def fine_pipeline():
    # On 30 heights per unit time the nodes leave the 0.05 signal grid.
    from flowdim.instances import run_embedding_pipeline
    return run_embedding_pipeline(base_size=6, n_heights=30)


def test_pipeline_rows_are_the_signal_at_the_nodes(fine_pipeline):
    # On 30 heights per unit time, states 1/30 apart need their own rows.
    inst, run = fine_pipeline.instance, fine_pipeline.run
    emb = SolenoidEmbedding(c=1.0, K=inst.depth, window=16.0, grid_step=0.05)
    nodes = run.kernel.lattice.window_nodes()
    for i in range(len(inst.flow.values)):
        coeffs = solenoid_coefficients(inst.factor(i), emb) * (1.0 - run.delta)
        want = direct_exp_sum(coeffs, emb.frequencies(), nodes)
        assert np.abs(run.F[i] - np.concatenate([want.real, want.imag])).max() <= 1e-12


def test_off_grid_corrections_match_the_direct_kernel_sum(fine_pipeline, monkeypatch):
    from dataclasses import replace

    import flowdim.embedding
    from flowdim.embedding import perturb_signal_map
    from flowdim.kernel import interpolation_kernel

    inst, run = fine_pipeline.instance, fine_pipeline.run
    noise = np.random.default_rng(5).uniform(-0.5, 0.5, size=run.F.shape)
    run = replace(run, G=run.F + noise * run.delta_prime)
    emb = SolenoidEmbedding(c=1.0, K=inst.depth, window=16.0, grid_step=0.05)
    f_map = lambda i: solenoid_embed(inst.factor(int(i)), emb, scale=1.0 - run.delta)
    dt = emb.grid_step
    # rho = 1 and N! = 2: every node of state x sits at -Phi_N(x) modulo dt.
    phase = {i: round(float(-phi % dt) / dt, 6) % 1.0 for i, phi in enumerate(run.phi_N)}
    assert len(set(phase.values())) == 3

    calls = []

    def counted(t, spec):
        calls.append(len(t))
        return interpolation_kernel(t, spec)

    monkeypatch.setattr(flowdim.embedding, "interpolation_kernel", counted)
    h = {i: perturb_signal_map(run, [f_map(i)], [i])[0].values - f_map(i).values
         for i in range(len(inst.flow.values))}
    assert len(calls) <= 3

    t = f_map(0).times()
    sampled = np.linspace(0, len(t) - 1, 40).astype(int)
    corrections = run.correction_rows()
    for p in set(phase.values()):
        i = min(j for j in phase if phase[j] == p)
        phi = float(run.phi_N[i])
        lo, hi = t[0] - NODE_MARGIN, t[-1] + NODE_MARGIN
        nodes, weights = [], []
        for n in range(math.floor((lo + phi) / 2) - 1, math.ceil((hi + phi) / 2) + 2):
            row = corrections[inst.advance(i, 2 * n - phi)]
            for k in range(2):
                if lo <= 2 * n - phi + k <= hi:
                    nodes.append(2 * n - phi + k)
                    weights.append(row[k])
        want = np.array(weights) @ interpolation_kernel(
            t[sampled][None, :] - np.array(nodes)[:, None], run.kernel)
        assert np.abs(want).max() > 1e-2
        assert np.abs(h[i][sampled] - want).max() <= 1e-12


def test_kernel_sum_shares_one_table_across_the_half_step(fine_pipeline, monkeypatch):
    # Nodes half a grid step off the grid round to phases near +dt/2 and
    # -dt/2; both are one phase modulo dt and must read one table.
    from dataclasses import replace

    import flowdim.embedding
    from flowdim.kernel import interpolation_kernel

    run = replace(fine_pipeline.run)
    calls = []

    def counted(t, spec):
        calls.append(len(t))
        return interpolation_kernel(t, spec)

    monkeypatch.setattr(flowdim.embedding, "interpolation_kernel", counted)
    t0, dt, n = -16.0, 0.05, 641
    half = t0 + dt * (np.arange(-3000, 4000, 701) + 0.5)
    nodes = np.concatenate([half - 1e-14, half + 1e-14])
    phases = (nodes - t0) / dt - np.rint((nodes - t0) / dt)
    assert phases.min() < 0 < phases.max()
    rng = np.random.default_rng(3)
    weights = rng.normal(size=len(nodes)) + 1j * rng.normal(size=len(nodes))
    got = kernel_sum_one_row(run, nodes, weights, t0, dt, n)
    assert len(calls) == 1
    t = t0 + dt * np.arange(n)
    want = weights @ interpolation_kernel(t[None, :] - nodes[:, None], run.kernel)
    assert np.abs(got - want).max() <= 1e-12


def test_kernel_sum_of_sparse_nodes_holds_no_toeplitz(fine_pipeline):
    # Steps -3990, -3989 and 4600 have gcd 1, so their Toeplitz product
    # would hold 641 x 9,230 complex entries (95 MB); the convolutions
    # hold a few columns of the table.
    import tracemalloc
    from dataclasses import replace

    run = replace(fine_pipeline.run)
    t0, dt, n = -16.0, 0.05, 641
    nodes = t0 + dt * np.array([-3990.0, -3989.0, 4600.0])
    weights = np.array([1.0, -2.0j, 0.5 + 0.5j])
    kernel_sum_one_row(run, nodes[:1], weights[:1], t0, dt, n)  # builds the one table
    tracemalloc.start()
    got = kernel_sum_one_row(run, nodes, weights, t0, dt, n)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 2**20
    assert np.abs(got - weights @ kernel_rows(run, nodes, t0, dt, n)).max() <= 1e-12


# Node offsets in grid steps: 0.5 and -0.5 are one phase modulo the step.
PHASE_STEPS = (0.0, 0.5, -0.5, 0.25, 1 / 7, 3 / 7)


@settings(max_examples=40, deadline=None)
@given(rho=st.sampled_from([Fraction(1), Fraction(7, 6)]),
       n=st.integers(1, 60),
       stride=st.integers(1, 12),
       count=st.integers(1, 200),
       phase_count=st.integers(1, len(PHASE_STEPS)),
       t0=st.floats(-30.0, 30.0),
       seed=st.integers(0, 2**32 - 1))
def test_kernel_sum_matches_the_node_rows(rho, n, stride, count, phase_count, t0, seed):
    # Random node sets on a stride-`stride` step lattice with random gaps,
    # each node at one of a few phases: few nodes at stride 1 take the
    # convolution branch of the lattice sum, dense strided ones the
    # Toeplitz product.
    from unittest import mock

    import flowdim.embedding
    from flowdim.kernel import interpolation_kernel

    rng = np.random.default_rng(seed)
    dt = 0.5
    reach = int(NODE_MARGIN / dt) - 1
    steps = stride * rng.integers(-(reach // stride), (n - 1 + reach) // stride + 1, size=count)
    offsets = rng.choice(PHASE_STEPS[:phase_count], size=count)
    nodes = t0 + dt * (steps + offsets)
    weights = rng.normal(size=count) + 1j * rng.normal(size=count)
    run = _bare_run(rho)
    with mock.patch.object(flowdim.embedding, "interpolation_kernel",
                           wraps=interpolation_kernel) as built:
        got = kernel_sum_one_row(run, nodes, weights, t0, dt, n)
    want = weights @ kernel_rows(run, nodes, t0, dt, n)
    assert np.abs(got - want).max() <= 1e-12
    assert built.call_count <= len({round(float(p) % 1.0, 9) for p in offsets})


def _gamma(k):
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


@settings(max_examples=40, deadline=None)
@given(source=st.sampled_from([Fraction(1), Fraction(7, 6), "fine"]),
       n=st.integers(1, 60),
       n_rows=st.integers(1, 8),
       width=st.integers(1, 120),
       phase_count=st.integers(1, len(PHASE_STEPS)),
       t0=st.floats(-30.0, 30.0),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_kernel_sum_is_each_row_alone(fine_pipeline, source, n, n_rows, width,
                                              phase_count, t0, seed):
    """Stacked rows against ``oracles.kernel_sum_row``, the sum of one row alone.

    Rows draw their own lattice spacing and shift (so residues mix), or
    copy an earlier row's nodes, moved by a few whole lattice steps (the
    same class from another first start) or not at all, with new
    weights; they keep all, half, a few or none of their nodes, and the
    nodes a row does not keep are NaN.  A row whose every Toeplitz
    product shares its class (phase, spacing g, residue c mod g) only
    with rows of its own first start c and lattice points has each
    product in the shape of its own: bit for bit.
    Elsewhere its inner products also run over exact zeros, in another
    order.  With gamma_k = k u / (1 - k u), a complex inner product of K
    terms is within sqrt(2) gamma_(K+2) of the sum of the terms' moduli,
    in any order (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., section 3.6); each of at most P phase sums is added to the
    row once more.  Both sums are within sqrt(2) gamma_(K+P+2) A of the
    exact one, for K the table's length, which no product's inner
    dimension exceeds, and A the sum of |w| times max |table|, which
    bounds the terms' moduli: the two differ by at most twice that.
    """
    from dataclasses import replace

    from oracles import kernel_sum_row

    if source == "fine":
        make = lambda: replace(fine_pipeline.run)
        dt = 0.05
    else:
        make = lambda: _bare_run(source)
        dt = 0.5
    rng = np.random.default_rng(seed)
    reach = int(NODE_MARGIN / dt) - 1
    steps, offsets, strides = [], [], []
    for r in range(n_rows):
        if r and rng.random() < 0.5:
            j = int(rng.integers(r))
            lift = strides[j] * int(rng.integers(-3, 4)) if rng.random() < 0.5 else 0
            strides.append(strides[j])
            steps.append(steps[j] + lift)
            offsets.append(offsets[j])
            continue
        strides.append(int(rng.integers(1, 13)))
        shift = int(rng.integers(strides[r]))
        steps.append(shift + strides[r] * rng.integers(
            -(reach // strides[r]), (n - 1 + reach - shift) // strides[r] + 1, size=width))
        offsets.append(rng.choice(PHASE_STEPS[:phase_count], size=width))
    steps = np.array(steps)
    nodes = t0 + dt * (steps + np.array(offsets))
    weights = rng.normal(size=nodes.shape) + 1j * rng.normal(size=nodes.shape)
    share = rng.choice([1.0, 0.5, 0.05, 0.0], size=(n_rows, 1))
    keep = (rng.random(nodes.shape) < share) & (-reach <= steps) & (steps <= n - 1 + reach)
    nodes[~keep] = np.nan
    weights[~keep] = np.nan

    run, oracle = make(), make()
    got = run.kernel_sum(nodes, weights, keep, t0, dt, n)
    rows = [kernel_sum_row(oracle, nodes[r][keep[r]], weights[r][keep[r]], t0, dt, n)
            if keep[r].any() else (np.zeros(n), []) for r in range(n_rows)]
    spans = {}
    for _, lattices in rows:
        for k, g, c, size, dense in lattices:
            if dense:
                spans.setdefault((k, g, c % g), set()).add((c, size))
    tables = run._tables[dt, n][1]
    for r, (want, lattices) in enumerate(rows):
        alone = all(not dense or len(spans[k, g, c % g]) == 1
                    for k, g, c, size, dense in lattices)
        if alone:
            assert np.array_equal(got[r], want)
        else:
            A = np.abs(weights[r][keep[r]]).sum() * max(np.abs(t).max() for t in tables)
            K = max(len(t) for t in tables)
            bound = 2 * math.sqrt(2) * _gamma(K + len(tables) + 2) * A
            assert np.abs(got[r] - want).max() <= bound
    assert len(tables) <= len({round(float(p) % 1.0, 9) for p in PHASE_STEPS[:phase_count]})


def test_pipeline_at_seven_node_phases(monkeypatch):
    # At rho = 7/6 and N = 3 the nodes k 6/7 sit at 7 phases modulo 0.05.
    import flowdim.embedding
    from flowdim.instances import run_embedding_pipeline
    from flowdim.kernel import interpolation_kernel

    calls = []

    def counted(t, spec):
        calls.append(len(t))
        return interpolation_kernel(t, spec)

    monkeypatch.setattr(flowdim.embedding, "interpolation_kernel", counted)
    res = run_embedding_pipeline(rho=Fraction(7, 6), N=3, base_size=6)
    assert len(calls) == 7
    assert res.node_residual < 1e-8
    assert res.passed


def test_node_tail_bound_covers_the_dropped_envelope_sum(fine_pipeline):
    # Sum K_dec |w| / (1 + (t - s)^2) over the nodes s that the
    # perturbation drops, out to 4,000 beyond the kept range, at sampled
    # grid times (the window's ends included), for three node phases.
    # Every weight has modulus delta'/2, so the bound is nearly attained.
    from dataclasses import replace

    inst, run = fine_pipeline.instance, fine_pipeline.run
    angle = np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, size=(len(run.F), run.F.shape[1] // 2))
    run = replace(run, G=run.F + 0.5 * run.delta_prime * np.hstack([np.cos(angle), np.sin(angle)]))
    bound = run.node_tail_bound()
    K_dec = run.constants.K_dec
    weights = np.abs(run.correction_rows())
    rho, period, far = run.kernel.rho_float, run.period, 4000.0
    emb = SolenoidEmbedding(c=1.0, K=inst.depth, window=16.0, grid_step=0.05)
    times = solenoid_embed(inst.factor(0), emb).times()
    t = times[np.linspace(0, len(times) - 1, 41).astype(int)]
    lo, hi = t[0] - NODE_MARGIN, t[-1] + NODE_MARGIN
    worst = 0.0
    for i in (0, 1, 2):
        phi = float(run.phi_N[i])
        nodes, w = [], []
        for n in range(math.floor((lo - far + phi) / period), math.ceil((hi + far + phi) / period) + 1):
            row = weights[inst.advance(i, n * period - phi)]
            for k in range(run.nodes_per_period):
                s = n * period - phi + k / rho
                if not lo <= s <= hi:
                    nodes.append(s)
                    w.append(row[k])
        envelope = K_dec / (1.0 + (t[:, None] - np.array(nodes)[None, :]) ** 2)
        worst = max(worst, float((envelope @ np.array(w)).max()))
    assert bound / 2 < worst <= bound


@pytest.fixture(scope="module")
def readme_pipeline():
    """The pipeline at the README example of embed-pipeline."""
    from flowdim.instances import run_embedding_pipeline
    return run_embedding_pipeline(delta=0.2, rho=1, N=2, base_size=12, n_heights=10, seed=2024)


def test_readme_pipeline_perturbs(readme_pipeline):
    # Unlike the smaller pipelines above, the search moves F here, so h is
    # a nonzero kernel correction and the node and equivariance checks
    # test it.
    res = readme_pipeline
    assert res.search_report.tries > 1
    assert np.any(res.run.G != res.run.F)
    assert res.sup_change > 0.0
    assert res.run.node_tail_bound() > 0.0
    assert res.sup_change + res.run.node_tail_bound() < res.run.delta
    assert res.node_residual < 1e-8 and res.equivariance_residual < 1e-6
    assert res.passed


@pytest.fixture(scope="module")
def unperturbed_verdict(readme_pipeline):
    """The verdict on the README pipeline's unperturbed signal map f, on its window metric."""
    from flowdim.instances import SIGNAL_WINDOW
    from flowdim.metric import OrbitMetricSpec, orbit_metric_R

    inst, run = readme_pipeline.instance, readme_pipeline.run
    emb = SolenoidEmbedding(c=1.0, K=inst.depth, window=SIGNAL_WINDOW, grid_step=0.05)
    factors = [inst.factor(i) for i in range(len(inst.flow.values))]
    f = [solenoid_embed(p, emb, scale=1.0 - run.delta) for p in factors]
    window = orbit_metric_R(inst.flow, OrbitMetricSpec("R-window", run.period, 1.0 / inst.n_heights))
    return verify_delta_embedding(f, factors, window, run.delta)


def test_unperturbed_signal_map_fails_the_verdict_that_g_passes(readme_pipeline,
                                                                unperturbed_verdict):
    # At the README example states 6 apart on the 12-cycle share their
    # factor point (depth 3 reads the time modulo 3! = 6), so the
    # unperturbed f matches those 60 pairs; g = f + h separates every pair.
    res = readme_pipeline
    assert res.verdict.passed and res.verdict.n_matched == 0
    assert unperturbed_verdict.n_matched == 60
    assert unperturbed_verdict.passed is False
    assert unperturbed_verdict.worst_distance == pytest.approx(6.0, abs=1e-9)


def test_far_pair_separation_is_positive_for_g_and_zero_for_f(readme_pipeline,
                                                              unperturbed_verdict):
    # s_delta over the 7,020 pairs at d >= delta: g = f + h keeps every one
    # of them apart (here by min_image_separation, no near pair being
    # closer), while f maps the 60 pairs 6 apart onto one image.
    verdict = readme_pipeline.verdict
    assert verdict.far_pair_separation == verdict.min_image_separation > 0.03
    assert unperturbed_verdict.far_pair_separation == 0.0


def test_heights_off_the_signal_grid_fail_before_any_work(monkeypatch):
    # At 3 or 7 heights per unit time the sub-period equivariance shift,
    # 1/3 or 2/7, is no whole number of 0.05 signal steps.
    import flowdim.instances

    def not_called(*args, **kwargs):
        raise AssertionError("certify_constants ran")

    monkeypatch.setattr(flowdim.instances, "certify_constants", not_called)
    for n_heights in (3, 7):
        with pytest.raises(ConfigurationError, match="signal grid"):
            flowdim.instances.run_embedding_pipeline(n_heights=n_heights)
