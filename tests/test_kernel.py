import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad

from flowdim.bandlimited import UNIT_ROUNDOFF, Band, _grid_factors
from flowdim.errors import ConfigurationError, QuadratureError
from flowdim.kernel import (
    CERTIFY_MAX_POINTS,
    QUAD_TOL,
    KernelSpec,
    Lattice,
    _bump_rounding,
    bump_second_derivative_norm,
    bump_transform,
    certify_constants,
    interpolation_kernel,
    kernel_band_leakage,
    lattice_envelope_sum,
    reverify_constants,
    sinc_product,
)
from oracles import (
    bump_integral_check,
    bump_transform_outer,
    certify_scan,
    product_function,
    product_truncation_bound,
)


@pytest.fixture(scope="module")
def spec():
    return KernelSpec(Band(0.0, 2.0), Fraction(1), 0.5, window=200.0)


@pytest.fixture(scope="module", params=[Fraction(1), Fraction(7, 6)], ids=["rho=1", "rho=7/6"])
def certified(request):
    spec = KernelSpec(Band(0.0, 2.0), request.param, 0.5)
    return spec, certify_constants(spec, 0.1)


def _lattice_envelope_sup(K_dec, rho, t_grid, node_span=4000):
    """Max over t of sum_lambda K/(1 + (t-lambda)^2) plus a closed tail bound."""
    nodes = np.arange(-node_span, node_span + 1) / rho
    total = np.zeros_like(t_grid)
    chunk = 1 << 12
    for start in range(0, len(nodes), chunk):
        nn = nodes[start:start + chunk]
        total += (K_dec / (1.0 + (t_grid[:, None] - nn[None, :]) ** 2)).sum(axis=1)
    # Nodes beyond the span: integral comparison sum_{|x|>M} <= 2 rho Kdec
    # (pi/2 - arctan(M - 1/rho)) with M the distance to the nearest omitted node.
    margin = node_span / rho - float(np.abs(t_grid).max())
    tail = 2.0 * rho * K_dec * (np.pi / 2.0 - math.atan(margin - 1.0 / rho))
    return float(total.max() + tail)


def _direct_lattice_sum(K, rho, t, node_span=4000):
    """sum_k K/(1 + (t - k/rho)^2) over |k| <= node_span, plus both tails.

    Each tail is the midpoint-rule integral with its first Euler-Maclaurin
    correction, accurate to O(node_span^-5).
    """
    k = np.arange(-node_span, node_span + 1)
    total = float((K / (1.0 + (t - k / rho) ** 2)).sum())
    for s in ((node_span + 0.5) / rho - t, (node_span + 0.5) / rho + t):
        total += K * rho * (np.pi / 2.0 - math.atan(s))
        total -= K * s / (12.0 * rho * (1.0 + s * s) ** 2)
    return total


class TestLattice:
    def test_integrality_enforced(self):
        with pytest.raises(ConfigurationError):
            Lattice(Fraction(1, 3), 2)  # 1/3 * 2! is not an integer
        lat = Lattice(Fraction(1, 3), 3)
        assert lat.period_count == 2

    def test_window_nodes(self):
        lat = Lattice(Fraction(2), 2)
        nodes = lat.window_nodes()
        assert len(nodes) == 4
        assert nodes[1] == pytest.approx(0.5)


class TestProductFunction:
    def test_value_one_at_origin(self):
        lat = Lattice(Fraction(1), 2)
        assert product_function(0.0, lat, 100) == 1.0 + 0.0j

    def test_exact_zero_on_lattice(self):
        lat = Lattice(Fraction(1), 2)
        assert product_function(1.0, lat, 100) == 0.0 + 0.0j
        lat2 = Lattice(Fraction(3, 2), 4)
        assert product_function(2.0 / 3.0, lat2, 100) == 0.0

    def test_sinc_value_at_half(self):
        lat = Lattice(Fraction(1), 2)
        v = product_function(0.5, lat, 10 ** 6)
        assert abs(v - math.sin(math.pi / 2) / (math.pi / 2)) < 1e-4

    def test_conjugate_symmetry(self):
        lat = Lattice(Fraction(1), 2)
        rng = np.random.default_rng(0)
        z = rng.uniform(-3, 3, 10) + 1j * rng.uniform(-3, 3, 10)
        left = product_function(np.conj(z), lat, 500)
        right = np.conj(product_function(z, lat, 500))
        assert np.abs(left - right).max() < 1e-12

    def test_truncated_matches_sinc_within_bound(self):
        # The acceptance suite runs the full-depth version of this sweep.
        for rho in (Fraction(1, 2), Fraction(4)):
            lat = Lattice(rho, 4)
            xs = np.linspace(-10, 10, 101)
            approx = product_function(xs, lat, 100_000)
            exact = sinc_product(xs, float(rho))
            bound = product_truncation_bound(xs, lat, 100_000)
            assert np.all(np.abs(approx - exact) <= bound)


class TestGrowthAudit:
    """The growth envelopes of the lattice product."""

    def test_origin_value(self):
        x = np.linspace(-20.0, 20.0, 2001)
        assert sinc_product(0.0, 1.0) == 1.0
        # |f| <= 1 on the real axis for the unit lattice.
        assert np.abs(sinc_product(x, 1.0)).max() <= 1.0 + 1e-9

    def test_imaginary_axis_bound_absolute(self):
        lat = Lattice(Fraction(1), 2)
        v = abs(product_function(2j, lat, 100_000))
        assert v <= math.exp(2 * math.pi)
        # Truncations undershoot the closed form sinh(2 pi)/(2 pi).
        assert v == pytest.approx(math.sinh(2 * math.pi) / (2 * math.pi), rel=1e-3)


RHOS = [0.5, 1.0, 1.5, 4.0, 7.0 / 6.0]


@pytest.mark.parametrize("rho", RHOS, ids=["1/2", "1", "3/2", "4", "7/6"])
class TestSincProduct:
    """The production evaluator of the lattice product, against its closed form."""

    def test_one_at_origin_and_zero_on_the_punctured_lattice(self, rho):
        assert sinc_product(0.0, rho) == 1.0
        k = np.concatenate([np.arange(1, 61), -np.arange(1, 61)])
        assert np.all(sinc_product(k / rho, rho) == 0.0)

    def test_conjugate_symmetry(self, rho):
        rng = np.random.default_rng(0)
        z = rng.uniform(-3, 3, 50) + 1j * rng.uniform(-3, 3, 50)
        assert np.array_equal(sinc_product(np.conj(z), rho), np.conj(sinc_product(z, rho)))

    def test_bounded_by_one_on_the_real_axis(self, rho):
        x = np.linspace(-50.0, 50.0, 20_001)
        assert np.abs(sinc_product(x, rho)).max() <= 1.0

    def test_imaginary_axis_is_sinh_quotient_below_exponential(self, rho):
        y = np.linspace(-20.0, 20.0, 801)
        y = y[y != 0.0]
        got = np.abs(sinc_product(1j * y, rho))
        u = np.pi * rho * np.abs(y)
        np.testing.assert_allclose(got, np.sinh(u) / u, rtol=1e-12, atol=0.0)
        assert np.all(got <= np.exp(u))

    def test_continuous_across_the_series_switch(self, rho):
        # |rho z| = 1e-8 approached from both sides, along four directions.
        directions = np.exp(1j * np.pi * np.array([0.0, 0.25, 0.5, 1.0]))
        below, above = sinc_product(np.outer([1 - 1e-9, 1 + 1e-9], directions) * 1e-8 / rho, rho)
        assert np.abs(below - above).max() <= 1e-15
        w = np.pi * 1e-8 * directions
        assert np.abs(below - (1.0 - w * w / 6.0)).max() <= 1e-15


@st.composite
def bump_points(draw):
    """Real or complex points, 0-d or an array, with |Re z| up to a drawn reach.

    At tau = 0.5 the reaches 300 and 600 double the rule to 2,048 and
    4,096 nodes; |Im z| <= 1 keeps every wave below e^(pi tau) in modulus,
    so rounding in the waves cannot swamp a small sum.
    """
    reach = draw(st.sampled_from([1.0, 200.0, 300.0, 600.0]))
    shape = draw(st.sampled_from([(), (0,), (9,), (3, 4)]))
    z = draw(arrays(float, shape, elements=st.floats(-reach, reach)))
    if draw(st.booleans()):
        z = z + 1j * draw(arrays(float, shape, elements=st.floats(-1.0, 1.0)))
    return z


class TestBumpTransform:
    def test_normalized_at_origin(self, spec):
        assert abs(bump_transform(0.0, spec) - 1.0) < 1e-10
        assert abs(bump_integral_check(spec) - 1.0) < 1e-10

    def test_imaginary_axis_growth(self, spec):
        for y in (1.0, 5.0, 10.0):
            val = abs(bump_transform(1j * y, spec))
            assert val <= math.exp(math.pi * spec.tau * y)

    def test_rapid_real_decay(self, spec):
        assert abs(bump_transform(50.0 / spec.tau, spec)) < 1e-6

    def test_matches_independent_quadrature(self, spec):
        half = spec.tau / 2.0

        def bump(x):
            u = x / half
            return math.exp(-1.0 / (1.0 - u * u)) if abs(u) < 1.0 else 0.0

        norm = quad(bump, -half, half, epsabs=1e-14, epsrel=1e-13)[0]
        for z in (0.37, 5.0, 17.5, 150.0):
            ref = quad(bump, -half, half, weight="cos", wvar=2.0 * math.pi * z,
                       epsabs=1e-14, epsrel=1e-13)[0] / norm
            assert abs(bump_transform(z, spec) - ref) < 1e-12

    @settings(max_examples=60)
    @given(z=bump_points())
    @example(z=np.linspace(-300.0, 300.0, 7))  # 2,048 nodes, 45 x 46 blocks, 22 padded
    @example(z=np.linspace(-600.0, 600.0, 7) + 0.5j)  # 4,096 nodes
    @example(z=np.array(-600.0))
    @example(z=np.array(0.25 - 0.75j))
    @example(z=np.zeros(0))
    def test_matches_outer_product_oracle(self, spec, z):
        got = bump_transform(z, spec)
        ref = bump_transform_outer(z, spec)
        assert np.shape(got) == np.shape(ref) == np.shape(z)
        assert np.all(np.abs(got - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))

    def test_real_points_take_one_evaluation_per_distinct_modulus(self, spec, monkeypatch):
        import flowdim.kernel
        seen = []

        def counted(omega, t0, dt, n):
            seen.append(len(omega))
            return _grid_factors(omega, t0, dt, n)

        monkeypatch.setattr(flowdim.kernel, "_grid_factors", counted)
        # The 1,601 points of linspace(-20, 20, 1601), exactly symmetric
        # about 0 (linspace's own are not, to rounding): |z| takes 801 values.
        z = np.arange(-800, 801) / 40.0
        h = bump_transform(z, spec)
        assert sum(seen) == 801
        assert np.array_equal(h, h[::-1])
        assert np.array_equal(bump_transform(-z, spec), h)

    def test_tolerance_below_rounding_floor_raises(self, spec, monkeypatch):
        import flowdim.kernel
        monkeypatch.setattr(flowdim.kernel, "QUAD_TOL", 1e-18)
        with pytest.raises(QuadratureError) as info:
            bump_transform(np.array([0.37, 5.0, 17.5, 150.0]), spec)
        assert 1e-18 < info.value.achieved_tol < 1e-10

    # 1e7 needs a base rule of 4 tau |z| = 2e7 nodes, past QUAD_MAX_NODES.
    @pytest.mark.parametrize("evaluate, z", [
        (bump_transform, [0.0, np.inf]), (bump_transform, [np.nan]),
        (bump_transform, [0.0, 1e7]), (bump_transform, [0.5 + 1j * np.inf]),
        (interpolation_kernel, [0.0, np.inf]), (interpolation_kernel, [np.nan]),
        (interpolation_kernel, [0.0, 1e7]),
    ], ids=["h-inf", "h-nan", "h-past-cap", "h-complex-inf",
            "phi-inf", "phi-nan", "phi-past-cap"])
    def test_rejects_points_without_a_finite_rule(self, spec, evaluate, z):
        with pytest.raises(QuadratureError) as info:
            evaluate(np.array(z), spec)
        assert info.value.achieved_tol == math.inf


class TestInterpolationKernel:
    def test_unit_at_origin(self, spec):
        assert abs(interpolation_kernel(0.0, spec) - 1.0) < 1e-9

    def test_exact_zero_at_nodes(self, spec):
        ks = np.arange(1, 51, dtype=float)
        nodes = np.concatenate([ks, -ks]) / spec.rho_float
        vals = interpolation_kernel(nodes, spec)
        assert np.abs(vals).max() == 0.0

    def test_band_confinement(self, spec):
        assert kernel_band_leakage(spec) < 1e-3

    def test_phase_stripped_kernel_is_conjugate_symmetric(self, spec):
        t = np.linspace(-7.3, 7.3, 41)
        phase = np.exp(-1j * np.pi * t * (spec.band.a + spec.band.b))
        core = phase * interpolation_kernel(t, spec)
        assert np.abs(core - np.conj(core[::-1])).max() < 1e-12


class TestCertifyConstants:
    def test_budget_inequality_and_reverify(self, spec):
        constants = certify_constants(spec, 0.1)
        assert constants.check()
        assert reverify_constants(spec, constants)

    def test_linear_in_delta(self, spec):
        c1 = certify_constants(spec, 0.1)
        c2 = certify_constants(spec, 0.2)
        assert c2.delta_prime == pytest.approx(2 * c1.delta_prime, rel=1e-12)

    def test_s_sup_dominates_nearest_node_term(self, spec):
        constants = certify_constants(spec, 0.1)
        rho = spec.rho_float
        lower = constants.K_dec / (1.0 + 1.0 / (2.0 * rho) ** 2)
        assert constants.S_sup >= lower

    def test_envelope_certificate_holds_on_window(self, spec):
        constants = certify_constants(spec, 0.1)
        t = np.linspace(-spec.window, spec.window, 4001)
        vals = np.abs(interpolation_kernel(t, spec))
        assert np.all(vals <= constants.K_dec / (1.0 + t * t) + 1e-12)

    def test_s_sup_is_exact_lattice_sup(self, spec):
        constants = certify_constants(spec, 0.1)
        rho = spec.rho_float
        closed = constants.K_dec * math.pi * rho / math.tanh(math.pi * rho)
        assert constants.S_sup == pytest.approx(closed, rel=1e-15)
        t_grid = np.linspace(0.0, 1.0 / rho, 1000, endpoint=False)
        numeric = _lattice_envelope_sup(constants.K_dec, rho, t_grid)
        assert closed <= numeric <= closed * (1.0 + 1e-6)

    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
    def test_poisson_form_matches_direct_sum(self, rho):
        for t in (0.1234, 0.37 / rho, 0.5 / rho):
            poisson = float(lattice_envelope_sum(1.1, rho, t))
            assert _direct_lattice_sum(1.1, rho, t) == pytest.approx(poisson, rel=1e-12, abs=0.0)

    def test_reverify_rejects_understated_sup(self, spec):
        c = certify_constants(spec, 0.1)
        low = dataclasses.replace(c, S_sup=c.S_sup * (1.0 - 1e-9))
        assert low.check()
        assert not reverify_constants(spec, low)

    def test_invalid_delta(self, spec):
        for delta in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="delta"):
                certify_constants(spec, delta)

    @pytest.mark.parametrize("delta, delta_prime", [(0.1, 0.025946447824629466),
                                                    (0.2, 0.05189289564925893)])
    def test_readme_certificate_is_pinned(self, spec, delta, delta_prime):
        # The kernel-report README example certifies these floats; a change
        # to the evaluation of h must not move them.
        c = certify_constants(spec, delta)
        assert (c.K_dec, c.S_sup, c.T0) == (1.1000000000000003, 3.4686829044308793, 2.0)
        assert (c.grid_slack, c.tail_bound) == (0.04989357839413339, 0.5799762000289672)
        assert c.delta_prime == delta_prime
        assert reverify_constants(spec, c)

    @pytest.mark.parametrize("delta", [0.1, 0.2])
    def test_matches_window_scan_bit_for_bit(self, spec, delta):
        c = certify_constants(spec, delta)
        assert (c.K_dec, c.S_sup, c.delta_prime) == certify_scan(spec, delta)

    def test_certificate_fields(self, certified):
        _, c = certified
        assert c.T0 == 2.0
        assert 0.49 < c.tail_bound < 0.59
        # L step / 2 <= K_MARGIN / 2, plus QUAD_TOL (1 + T0^2).
        assert 0.049 < c.grid_slack <= 0.05 + 5e-10
        assert c.K_dec / 1.1 + c.grid_slack <= c.K_dec
        assert c.tail_bound <= c.K_dec

    @settings(max_examples=40)
    @given(t=arrays(float, st.integers(1, 16), elements=st.floats(-1e4, 1e4)))
    @example(t=np.array([0.0, 2.0, -2.0, 1e4, -1e4]))
    def test_envelope_holds_on_the_line(self, certified, t):
        spec, c = certified
        envelope = np.abs(interpolation_kernel(t, spec)) * (1.0 + t * t)
        assert np.all(envelope <= c.K_dec)
        assert np.all(envelope[np.abs(t) >= c.T0] <= c.tail_bound)

    def test_margin_must_cover_quadrature_slack(self, spec, monkeypatch):
        import flowdim.kernel
        # QUAD_TOL (1 + T0^2) = 0.25 at T0 = 2, past the 10% margin over phi(0) = 1.
        monkeypatch.setattr(flowdim.kernel, "QUAD_TOL", 0.05)
        with pytest.raises(ConfigurationError, match="does not cover"):
            certify_constants(spec, 0.1)

    @pytest.mark.parametrize("tau", [0.5, 0.1])
    def test_slack_holds_the_rounding_term_and_reverifies(self, tau):
        spec = KernelSpec(Band(0.0, 2.0), Fraction(1), tau)
        c = certify_constants(spec, 0.2)
        assert reverify_constants(spec, c) and c.check()
        rounding = _bump_rounding(spec, c.T0) + 16.0 * UNIT_ROUNDOFF
        assert 0.0 < rounding < 1e-11
        lipschitz = 2.0 * c.T0 + (1.0 + c.T0 ** 2) * (math.pi * tau + math.pi / 2.0)
        rest = c.grid_slack - (QUAD_TOL + rounding) * (1.0 + c.T0 ** 2)
        assert rest == pytest.approx(lipschitz * c.grid_step / 2.0, rel=1e-14)

    def test_grid_past_the_cap_is_a_configuration_error(self):
        # tau = 0.05 puts T0 at 128 and asks for 3.7e7 grid points.
        narrow = KernelSpec(Band(0.0, 2.0), Fraction(1), 0.05)
        with pytest.raises(ConfigurationError, match="grid points"):
            certify_constants(narrow, 0.1)

    def test_second_derivative_norm_matches_trapezoid(self, spec):
        half = spec.tau / 2.0
        xi = np.linspace(-half, half, 400_001)[1:-1]
        u = xi / half
        s = 1.0 - u * u
        # psi = bump_norm exp(f), f = -1/(1 - u^2); d^2/du^2 exp(f) = exp(f) (f'^2 + f'').
        d2 = np.exp(-1.0 / s) * ((2.0 * u / s ** 2) ** 2 - 2.0 / s ** 2 - 8.0 * u * u / s ** 3)
        numeric = np.trapezoid(np.abs(d2), xi) * spec.bump_norm / half ** 2
        closed = bump_second_derivative_norm(spec)
        assert closed == pytest.approx(numeric, rel=1e-6)


class TestBandLeakage:
    @pytest.mark.parametrize("window, match", [(1e9, "16000000001 grid points"),
                                               (65536.0, f"more than {CERTIFY_MAX_POINTS}"),
                                               (1e-9, "1 grid point")])
    def test_window_out_of_range_is_refused_before_the_grid(self, monkeypatch, window, match):
        import flowdim.kernel

        def no_grid(*args, **kwargs):
            raise AssertionError("the leakage grid was built")

        monkeypatch.setattr(flowdim.kernel.Signal, "from_function", no_grid)
        spec = KernelSpec(Band(0.0, 2.0), Fraction(1), 0.5, window=window)
        with pytest.raises(ConfigurationError, match=match) as info:
            kernel_band_leakage(spec)
        assert f"window {window:g}" in str(info.value)

    def test_smallest_windows_are_checked(self):
        # Step 1/8: window 1/16 holds 2 grid points, the least the tapers take.
        spec = KernelSpec(Band(0.0, 2.0), Fraction(1), 0.5, window=1 / 16)
        assert 0.0 <= kernel_band_leakage(spec) <= 1.0


class TestKernelSpecValidation:
    @pytest.mark.parametrize("tau", [0.0, -0.3, math.nan, math.inf])
    def test_bump_width_must_be_positive_and_finite(self, tau):
        with pytest.raises(ConfigurationError, match="tau"):
            KernelSpec(Band(0.0, 2.0), Fraction(1), tau)

    def test_rho_tau_budget(self):
        with pytest.raises(ConfigurationError):
            KernelSpec(Band(0.0, 1.0), Fraction(1), 0.5)  # rho + tau >= width
        with pytest.raises(ConfigurationError):
            KernelSpec(Band(0.0, 0.5), Fraction(1), 0.1)  # rho >= width
