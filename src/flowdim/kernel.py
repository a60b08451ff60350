"""The uniform lattice, its zero-pinned product, and the interpolation kernel.

The kernel phi(t) = exp(pi i t (a+b)) h(t) g(t) multiplies a smooth-bump
transform h (entire, h(0)=1, |h(x+iy)| <= exp(pi tau |y|)) with the
lattice product g (value 1 at 0, zeros exactly on the punctured lattice
{k/rho}).  Because the lattice is uniform, the full product collapses
to sin(pi rho z)/(pi rho z), and ``sinc_product`` evaluates that closed
form; it is the package's only evaluator of the product.  h is an even
trapezoidal rule on uniform nodes, evaluated as the block product of
``bandlimited._grid_factors`` with the points as frequencies: three
exponentials per point, products for the rest.  The lattice sum behind
the budget is in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bandlimited import (
    TAPER_MIN,
    UNIT_ROUNDOFF,
    Band,
    Signal,
    _block_shape,
    _grid_factors,
    _grid_rounding,
    band_support_check,
)
from .errors import ConfigurationError, QuadratureError

NODE_SNAP_TOL = 1e-12
QUAD_NODES = 512               # half-support nodes of the bump's base rule
QUAD_TOL = 1e-10               # bump_transform's base/doubled rule agreement
# Cap on the base rule's half-support nodes: its weight table (doubled and
# base rule) then holds 2 x 2^21 doubles, 32 MB.
QUAD_MAX_NODES = 1 << 20
K_MARGIN = 0.1                 # K_dec = (1 + K_MARGIN) x the envelope's grid max
# Cap on certify_constants' half-line grid.  The points it needs grow like
# T0^3, and T0 like (tau^2 rho)^(-1/3): 396 at tau = 0.5, rho = 1, but
# 3.7e7 at tau = 0.05.
CERTIFY_MAX_POINTS = 1 << 20
REVERIFY_GRID_POINTS = 20_000  # over one lattice period


@dataclass(frozen=True)
class Lattice:
    """The grid {k/rho} for rational rho = p/q, with rho * N! integral."""

    rho: Fraction
    N: int

    def __post_init__(self):
        rho = Fraction(self.rho)
        object.__setattr__(self, "rho", rho)
        if rho <= 0:
            raise ConfigurationError("rho must be positive")
        if self.N < 1:
            raise ConfigurationError("N must be a positive integer")
        if (rho * math.factorial(self.N)).denominator != 1:
            raise ConfigurationError(
                f"rho * N! = {rho} * {self.N}! is not an integer")

    @property
    def rho_float(self):
        return float(self.rho)

    @property
    def period_count(self):
        """|L(rho) ∩ [0, N!)| = rho * N!."""
        return int(self.rho * math.factorial(self.N))

    def window_nodes(self):
        """L(rho) ∩ [0, N!) as floats (k/rho for k = 0..rho N! - 1)."""
        return np.arange(self.period_count) / self.rho_float


def _snap_to_lattice(w):
    """Indices where w (= rho * z) sits on a nonzero integer, within tolerance."""
    k = np.round(w.real)
    on = (np.abs(w - k) <= NODE_SNAP_TOL * np.maximum(1.0, np.abs(k))) & (k != 0)
    return on, k


def sinc_product(z, rho: float):
    """Closed-form full product sin(pi rho z) / (pi rho z), zero-snapped.

    Exact zeros on the punctured lattice and exact 1 at the origin, so
    interpolation identities hold without float residue.
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    w = float(rho) * np.atleast_1d(z)
    out = np.empty(w.shape, dtype=complex)
    small = np.abs(w) < 1e-8
    ws = np.pi * w[~small]
    out[~small] = np.sin(ws) / ws
    # Series around 0 keeps the origin exact and the neighborhood smooth.
    w0 = np.pi * w[small]
    out[small] = 1.0 - w0 * w0 / 6.0
    on, _ = _snap_to_lattice(w)
    out[on] = 0.0
    return complex(out[0]) if scalar else out


class KernelSpec:
    """Configuration of the interpolation kernel and its bump factor.

    The bump is the standard normalized exp(-1/(1-u^2)) on (-tau/2, tau/2);
    its transform is evaluated with an even trapezoidal rule of at least
    ``QUAD_NODES`` half-support nodes, doubled for the convergence check.
    """

    def __init__(self, band: Band, rho, tau: float, N: int = None,
                 window: float = 200.0):
        rho = Fraction(rho)
        if N is None:
            N = 1
            while (rho * math.factorial(N)).denominator != 1:
                N += 1
                if N > 40:
                    raise ConfigurationError("could not make rho * N! integral")
        self.lattice = Lattice(rho, N)
        self.band = band
        self.tau = float(tau)
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ConfigurationError(f"need a finite bump width tau > 0, got {self.tau}")
        if not (0 < self.rho_float < band.width):
            raise ConfigurationError("need 0 < rho < b - a")
        if not (self.rho_float + self.tau < band.width):
            raise ConfigurationError("need rho + tau < b - a")
        self.window = float(window)
        if not (math.isfinite(self.window) and self.window > 0):
            raise ConfigurationError(f"need a finite window > 0, got {self.window}")
        self.bump_norm = 1.0 / float(self._trapezoid(QUAD_NODES)[1].sum())

    @property
    def rho_float(self):
        return self.lattice.rho_float

    def _trapezoid(self, n):
        """Nodes j h on [0, tau/2), h = tau/(2n), and weights (h, 2h, 2h, ...)
        times the raw bump: sum(w f(xi)) integrates bump * f for even f."""
        h = self.tau / (2.0 * n)
        xi = h * np.arange(n)
        u = 2.0 * xi / self.tau
        wt = 2.0 * h * np.exp(-1.0 / (1.0 - u * u))
        wt[0] /= 2.0
        return xi, wt


def _rule(spec: KernelSpec, z_max: float):
    """Nodes and weights of the trapezoidal rule ``bump_transform`` uses up to |z| = z_max.

    ``QUAD_NODES`` doubled until it reaches 4 tau z_max, then doubled once
    more for the convergence check; the weights carry ``bump_norm``.  A
    z_max that needs more than ``QUAD_MAX_NODES`` base nodes raises
    ``QuadratureError`` with ``achieved_tol = inf``.
    """
    if 4.0 * spec.tau * z_max > QUAD_MAX_NODES:
        raise QuadratureError(
            f"bump transform at |z| = {z_max:.3g} needs a rule of more than "
            f"{QUAD_MAX_NODES} nodes", achieved_tol=math.inf)
    n = QUAD_NODES
    while n < 4.0 * spec.tau * z_max:
        n *= 2
    xi, wt = spec._trapezoid(2 * n)
    return xi, wt * spec.bump_norm


def _bump_rounding(spec: KernelSpec, z_max: float) -> float:
    """Bound on |computed h(t) - the rule's h(t)| for real |t| <= z_max.

    The K waves exp(2 pi i t xi_k) are within ``_grid_rounding(K, reach)``
    relative of exact (``bandlimited._grid_factors``), reach = 2 pi z_max
    (K + B) dxi, and the two sums over them (B terms, then rows) add at
    most rows + B roundings, again ``_grid_rounding(K)`` relative: both
    times the weights' sum, since the weights are positive.
    """
    xi, wt = _rule(spec, z_max)
    K = len(xi)
    reach = 2.0 * math.pi * z_max * (K + _block_shape(K)[1]) * float(xi[1])
    return float(wt.sum()) * (_grid_rounding(K, reach) + _grid_rounding(K))


def bump_transform(z, spec: KernelSpec):
    """Transform h(z) = int psi(xi) exp(2 pi i z xi) dxi of the smooth bump.

    psi is even and flat at its endpoints, so the even trapezoidal rule
    on psi(xi) cos(2 pi z xi) converges spectrally.  h(0) = 1 by
    normalization.  One rule serves the call (``_rule``): ``QUAD_NODES``
    doubled until it reaches 4 tau max|z|.  Its doubled rule must agree
    within ``QUAD_TOL`` (scaled by the value's magnitude) or
    ``QuadratureError`` is raised with the achieved tolerance.  A
    non-finite point, or one that needs more than ``QUAD_MAX_NODES`` base
    nodes, raises ``QuadratureError`` with ``achieved_tol = inf`` before
    any table is built.

    The K nodes xi_k = k dxi are uniform, so with k = q B + r the wave
    exp(2 pi i z xi_k) is head[q](z) tail[r](z), the block factors of
    ``_grid_factors`` with the points as frequencies: three exponentials
    per point, products for the rest (``_bump_rounding`` bounds their
    rounding).  The weights, reshaped to rows x B and stacked over the
    doubled rule and the base rule (its even nodes at twice the weight),
    meet tail in one real matrix product; head then contracts each
    point's column.  The cosine is the real part on real z and the mean
    of the sums at z and -z on complex z.  Points are taken in chunks
    whose product holds 2^16 complex entries (1 MB).
    """
    z = np.asarray(z)
    real = not np.iscomplexobj(z)
    zz = z.ravel().astype(float if real else complex)
    if not np.all(np.isfinite(zz)):
        raise QuadratureError("bump transform needs finite points", achieved_tol=math.inf)
    xi, fine_wt = _rule(spec, float(np.abs(zz).max()) if zz.size else 0.0)
    K = len(xi)
    rows, B = _block_shape(K)
    weights = np.zeros((2, rows * B))  # nodes past K weigh 0
    weights[0, :K] = fine_wt
    weights[1, :K:2] = 2.0 * weights[0, :K:2]
    weights = weights.reshape(2 * rows, B)
    points = zz if real else np.concatenate([zz, -zz])
    sums = np.empty((2, len(points)), dtype=complex)
    chunk = max(1, (1 << 16) // (2 * rows))
    for start in range(0, len(points), chunk):
        head, tail = _grid_factors(2.0 * np.pi * points[start:start + chunk], 0.0, xi[1], K)
        # A real product: tail viewed as interleaved real and imaginary parts.
        blocks = (weights @ tail.view(float)).view(complex).reshape(2, rows, -1)
        sums[:, start:start + chunk] = (head * blocks).sum(axis=1)
    fine, coarse = sums.real if real else (sums[:, :len(zz)] + sums[:, len(zz):]) / 2.0
    worst = float((np.abs(fine - coarse) / np.maximum(1.0, np.abs(fine))).max(initial=0.0))
    if worst > QUAD_TOL:
        raise QuadratureError(
            f"bump transform quadrature disagreement {worst:.3g} exceeds {QUAD_TOL:.3g}",
            achieved_tol=worst)
    out = fine.astype(complex)
    return complex(out[0]) if z.ndim == 0 else out.reshape(z.shape)


def interpolation_kernel(t, spec: KernelSpec):
    """phi(t) = exp(pi i t (a+b)) h(t) g(t): value 1 at 0, zeros on the lattice.

    Rapidly decreasing on the real axis with spectrum numerically inside
    [a, b]; evaluated with the closed-form lattice product.  Points that
    ``bump_transform`` rejects raise its ``QuadratureError``.
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    tt = np.atleast_1d(t)
    h = bump_transform(tt, spec)
    phase = np.exp(1j * np.pi * tt * (spec.band.a + spec.band.b))
    value = phase * h * sinc_product(tt, spec.rho_float)
    return complex(value[0]) if scalar else value


def kernel_band_leakage(spec: KernelSpec) -> float:
    """Spectral energy fraction of the sampled kernel outside [a - pad, b + pad].

    The kernel is sampled on its window at step 1 / (4 max(|a|, |b|, 1));
    pad = 8 / window.  A window whose grid would hold more than
    ``CERTIFY_MAX_POINTS`` samples, or fewer than the ``TAPER_MIN`` that
    ``band_support_check``'s edge tapers need, raises
    ``ConfigurationError`` before the grid is built.
    """
    grid_step = 1.0 / (4.0 * max(abs(spec.band.a), abs(spec.band.b), 1.0))
    points = round(2 * spec.window / grid_step) + 1
    if points > CERTIFY_MAX_POINTS:
        raise ConfigurationError(
            f"the leakage check of window {spec.window:g} needs {points} grid points, "
            f"more than {CERTIFY_MAX_POINTS}")
    if points < TAPER_MIN:
        raise ConfigurationError(
            f"the leakage check of window {spec.window:g} has {points} grid point, "
            f"fewer than the {TAPER_MIN} its tapers need")
    sig = Signal.from_function(lambda t: interpolation_kernel(t, spec),
                               spec.band, spec.window, grid_step)
    return band_support_check(sig, 8.0 / spec.window)


@dataclass
class KernelConstants:
    """Certified decay and interpolation-budget constants.

    |phi(t)| <= K_dec / (1 + t^2) on the whole line (|phi| is even): on
    [0, T0] the grid max at step ``grid_step`` plus ``grid_slack`` stays
    at or below K_dec, and beyond T0 the closed-form ``tail_bound`` does.
    S_sup is the exact sup over t of that envelope's lattice sum, and
    delta_prime * S_sup < delta by construction.
    """

    K_dec: float
    delta_prime: float
    S_sup: float
    delta: float
    T0: float
    tail_bound: float
    grid_step: float
    grid_slack: float

    def check(self):
        return self.delta_prime * self.S_sup < self.delta


def lattice_envelope_sum(K_dec: float, rho: float, t):
    """sum_k K_dec / (1 + (t - k/rho)^2) in its Poisson-summation form.

    K_dec pi rho (1 - q^2) / (1 - 2 q cos(2 pi rho t) + q^2) with
    q = exp(-2 pi rho); at t = 0 it equals K_dec pi rho coth(pi rho).
    """
    q = math.exp(-2.0 * math.pi * rho)
    return (K_dec * math.pi * rho * (1.0 - q * q)
            / (1.0 - 2.0 * q * np.cos(2.0 * np.pi * rho * np.asarray(t)) + q * q))


def bump_second_derivative_norm(spec: KernelSpec) -> float:
    """||psi''||_1 of the normalized bump psi, in closed form, bounded from above.

    psi' is unimodal on each half of the support, so ||psi''||_1 =
    4 sup|psi'|.  With u = 2 xi / tau, |psi'| = bump_norm (4 / tau)
    u exp(-1/(1 - u^2)) / (1 - u^2)^2, whose maximum sits where
    1 - 3 u^4 = 0.  bump_norm comes from a trapezoid rule, so the relative
    disagreement of its doubled rule is added as slack.
    """
    base = float(spec._trapezoid(QUAD_NODES)[1].sum())
    doubled = float(spec._trapezoid(2 * QUAD_NODES)[1].sum())
    u2 = 1.0 / math.sqrt(3.0)
    peak = math.sqrt(u2) * math.exp(-1.0 / (1.0 - u2)) / (1.0 - u2) ** 2
    return 16.0 * spec.bump_norm / spec.tau * peak * (1.0 + abs(doubled - base) / doubled)


def certify_constants(spec: KernelSpec, delta: float) -> KernelConstants:
    """Certify |phi(t)| <= K_dec / (1 + t^2) on the whole line; derive delta'.

    |phi| = |h| |sinc(rho t)| is even, so the envelope E(t) = (1 + t^2)
    |phi(t)| is certified on t >= 0, in two parts.

    Tail, t >= T0: psi is flat at its ends, so two integrations by parts
    give |h(t)| <= ||psi''||_1 / (2 pi t)^2
    (``bump_second_derivative_norm``), and |sinc(rho t)| <= 1 / (pi rho t);
    so E(t) <= (1 + T0^-2) ||psi''||_1 / (4 pi^2) / (pi rho T0), a bound
    that falls with T0.  T0 is the first of 1, 2, 4, ... at which it is
    below E(0) = 1.

    Half-line grid, [0, T0]: |h| <= 1, |h'| <= 2 pi int |xi| psi <= pi tau
    and |d/dt sinc(rho t)| <= pi rho / 2, so E has Lipschitz constant
    L = 2 T0 + (1 + T0^2) (pi tau + pi rho / 2).  The grid step is at most
    K_MARGIN / L, so E moves by at most the margin over E(0) across a
    step and every t lies within L step / 2 of a node.  The rule's h
    tracks the true one within ``QUAD_TOL``, and the computed h tracks the
    rule's within ``_bump_rounding`` at T0; the phase, sinc, modulus and
    products that make |phi| from h add at most 16u (u = 2^-53) on values
    at most 1.  Together they move E by at most (QUAD_TOL + rounding)
    (1 + T0^2).  Those two terms are the grid slack.  A grid of
    more than ``CERTIFY_MAX_POINTS`` points raises ``ConfigurationError``
    before it is built.

    K_dec is (1 + K_MARGIN) times the grid max, and ``ConfigurationError``
    is raised unless it covers the grid max plus the slack, and the tail.
    The envelope's lattice sum sum_k K_dec / (1 + (t - k/rho)^2) peaks at
    t = 0, where the Mittag-Leffler expansion of coth gives it exactly:
    S_sup = K_dec pi rho coth(pi rho).  delta' = 0.9 delta / S_sup, so
    the product delta' * S_sup sits strictly below delta.
    """
    if not (math.isfinite(delta) and delta > 0):
        raise ConfigurationError(f"need a finite delta > 0, got {delta}")
    rho = spec.rho_float
    tail_scale = bump_second_derivative_norm(spec) / (4.0 * math.pi ** 2) / (math.pi * rho)
    T0 = 1.0
    while (1.0 + T0 ** -2) * tail_scale / T0 >= 1.0:
        T0 *= 2.0
    tail = (1.0 + T0 ** -2) * tail_scale / T0
    lipschitz = 2.0 * T0 + (1.0 + T0 * T0) * (math.pi * spec.tau + math.pi * rho / 2.0)
    intervals = math.ceil(lipschitz * T0 / K_MARGIN)
    if intervals >= CERTIFY_MAX_POINTS:
        raise ConfigurationError(
            f"certifying the kernel at tau = {spec.tau:g}, rho = {rho:g} needs "
            f"{intervals + 1} grid points on [0, {T0:g}], more than {CERTIFY_MAX_POINTS}")
    step = T0 / intervals
    t = step * np.arange(intervals + 1)
    envelope = np.abs(interpolation_kernel(t, spec)) * (1.0 + t * t)
    grid_max = float(envelope.max())
    K_dec = (1.0 + K_MARGIN) * grid_max
    rounding = _bump_rounding(spec, float(t[-1])) + 16.0 * UNIT_ROUNDOFF
    slack = lipschitz * step / 2.0 + (QUAD_TOL + rounding) * (1.0 + T0 * T0)
    if not (grid_max + slack <= K_dec and tail <= K_dec):
        raise ConfigurationError(
            f"K_dec = {K_dec:.6g} does not cover the grid max {grid_max:.6g} plus "
            f"slack {slack:.3g}, or the tail bound {tail:.6g} beyond T0 = {T0:g}")
    x = np.pi * rho
    S_sup = K_dec * x / math.tanh(x)
    return KernelConstants(K_dec=K_dec, delta_prime=0.9 * delta / S_sup,
                           S_sup=S_sup, delta=delta, T0=T0, tail_bound=tail,
                           grid_step=step, grid_slack=slack)


def reverify_constants(spec: KernelSpec, constants: KernelConstants) -> bool:
    """Re-check the certified budget on an independent, finer, offset grid.

    The lattice sum is evaluated there in its Poisson-summation form
    (``lattice_envelope_sum``), a closed form apart from the coth one
    behind S_sup.  Its grid maximum must not exceed S_sup, and delta'
    times it must stay below delta.
    """
    rho = spec.rho_float
    period = 1.0 / rho
    offset = period / (2.0 * REVERIFY_GRID_POINTS)
    t_grid = np.linspace(offset, period + offset, REVERIFY_GRID_POINTS, endpoint=False)
    S = float(lattice_envelope_sum(constants.K_dec, rho, t_grid).max())
    return S <= constants.S_sup and constants.delta_prime * S < constants.delta
