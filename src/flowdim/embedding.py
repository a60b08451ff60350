"""Solenoid embedding into band-limited signals and the delta-embedding pipeline.

The embedding sends a truncated solenoid point x to the exponential sum
f_x(t) = sum_{n >= m} 2^-n exp(2 pi i (t + x_n) / n!), a band-[0, c]
signal of sup norm at most 1.  Bohr means over an interval [start,
start + T] recover the coefficients, and hence the point, from signal
values alone.  The embedding is equivariant, f_{phi_s x}(t) = f_x(t + s),
so the mean over [0, T] of f_x exp(-i lam t) is exp(-i lam T/2) times
the mean over [-T/2, T/2] of f_{phi_{T/2} x}: the centred interval needs
a window of only T/2 and reads the same error (the solenoid demo
recovers that way).  Signal values run on
uniform grids t_j = t0 + j dt through one block factorization,
``bandlimited._grid_factors`` (which also evaluates the kernel's bump
transform, over its uniform quadrature nodes): with j = q B + r and
B = ceil(sqrt(n)), exp(2 pi i f t_j) is the product of a row factor in q
and a column factor in r, both built by recurrence from three
exponentials per frequency, so ``exp_sum_grid`` computes the n values as
one rank-K matrix product; one ``exp_sum_grid`` call takes a matrix of
coefficient rows, one signal per row, on the same factors.
``exp_sum_signals`` refuses a frequency outside the band and more than
``EXP_SUM_MAX_SAMPLES`` samples, and certifies the sup bound of such
signals from their coefficients (``exp_sum_bound``), all before any grid
is evaluated, so no sample is scanned for it.  Its signals evaluate
their values only when asked for them.  Bohr means are taken in closed
form only: on such a signal's own grid the trapezoid sum of each term
is a geometric series, so its means come from the coefficients
(``_exp_sum_means``) and the round trip evaluates no sample.  The
perturbation stage corrects an equivariant signal map on a lattice of
sample nodes using the interpolation kernel, within a certified sup
budget, so that the pair (signal map, solenoid factor) separates sample
states.  Its kernel sum on the signal grid is, per node phase, a
correlation of the node weights with one table of the kernel, taken as
one block product on the lattice the nodes' grid steps lie on
(``_lattice_sum``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bandlimited import (
    SUP_BOUND_TOL,
    UNIT_ROUNDOFF,
    Band,
    Signal,
    _grid_factors,
    _grid_rounding,
    _near_values,
    _pair_metrics,
)
from .dynamics import SolenoidPoint, _solenoid_gaps
from .errors import (
    BandError,
    ConfigurationError,
    IncompatibleSignalError,
    InvariantViolationError,
    NotEmbeddingImageError,
    PreconditionError,
    SearchBudgetError,
    TruncationDepthError,
)
from .kernel import KernelConstants, KernelSpec, interpolation_kernel
from .metric import MetricSample, widim_upper

COLLISION_TOL = 1e-12
# Node phases that agree modulo the grid step to within this many steps
# share one kernel table: far above the rounding of node times (about
# 1e-12 steps in the shipped configs), far below the gap between distinct
# phases (1/7 step at rho = 7/6).
PHASE_TOL = 1e-9
MODULUS_REL_TOL = 0.25  # solenoid_recover's relative modulus tolerance
MAX_TRIES = 10_000  # perturbations epsilon_embedding_search draws before it gives up
# Nodes farther than this from the signal window are dropped, and
# ``EmbeddingRun.node_tail_bound`` bounds their sum (3.9e-4 at the README
# example) under the K_dec / (1 + t^2) envelope that ``certify_constants``
# certifies on the whole line.
NODE_MARGIN = 200.0
# Most samples one exp_sum_signals call makes, rows times grid (134 MB of
# complex values if evaluated; Bohr means on the grid evaluate none).
# solenoid-demo's signal, window 10,050 at step 0.01, holds 2,010,001.
EXP_SUM_MAX_SAMPLES = 1 << 23
# Deepest solenoid truncation: 22! is the largest factorial float64
# holds exactly, and the coordinate circles are float64 n!.
MAX_DEPTH = 22
MATCH_TOL = 1e-6  # image distance at which verify_delta_embedding matches a pair
N_MAX = 4         # signal_metric truncation used by verify_delta_embedding
# Most complex entries of the stacked Toeplitz matrices of one product in
# ``_lattice_sums`` (4 MB); a row whose own matrix is larger takes one alone.
PRODUCT_ENTRIES = 1 << 18


def minimal_start_index(c: float) -> int:
    """Smallest m with 1/m! <= c, so the sum's frequencies fit in [0, c]."""
    if not 0 < c < math.inf:
        raise ConfigurationError(f"band limit c must be finite and positive, got {c}")
    m = 1
    while 1.0 / math.factorial(m) > c:
        m += 1
    return m


@dataclass
class SolenoidEmbedding:
    """Parameters of the exponential-sum embedding into band [0, c]."""

    c: float
    K: int
    window: float
    grid_step: float | None = None
    m: int = field(init=False)

    def __post_init__(self):
        self.m = minimal_start_index(self.c)
        if self.K < self.m:
            raise ConfigurationError(f"need truncation depth K >= m = {self.m}")
        if self.K > MAX_DEPTH:
            raise ConfigurationError(
                f"truncation depth K = {self.K} exceeds MAX_DEPTH = {MAX_DEPTH}, the largest "
                f"n whose n! float64 holds exactly")
        if self.grid_step is None:
            self.grid_step = 1.0 / (8.0 * max(self.c, 1.0))
        if not (0.0 < self.window < math.inf and 0.0 < self.grid_step < math.inf):
            raise ConfigurationError(
                f"need a finite window and grid step > 0, got window {self.window}, "
                f"grid step {self.grid_step}")
        limit = 4.0 * max(self.c, 1.0)
        if 1.0 / self.grid_step < limit:
            raise ConfigurationError("grid step violates the oversampling bound")

    def frequencies(self):
        return np.array([1.0 / math.factorial(n) for n in range(self.m, self.K + 1)])


def solenoid_coefficients(p: SolenoidPoint, emb: SolenoidEmbedding):
    """The complex coefficients 2^-n exp(2 pi i x_n / n!) of the embedding sum."""
    if p.depth < emb.K:
        raise TruncationDepthError(
            f"point depth {p.depth} below embedding truncation {emb.K}")
    out = []
    for n in range(emb.m, emb.K + 1):
        fact = math.factorial(n)
        out.append(2.0 ** -n * np.exp(2j * np.pi * p.coords[n - 1] / fact))
    return np.array(out)


def solenoid_embed(p: SolenoidPoint, emb: SolenoidEmbedding,
                   scale: float = 1.0) -> Signal:
    """Embed a solenoid point as a band-[0, c] signal on the window.

    Coefficient moduli sum to at most 1, so the sup bound holds; it is
    certified from them by ``exp_sum_signals``.  The action on the
    solenoid intertwines with the signal shift flow.  ``scale``
    multiplies the sum (used to keep |f| <= 1 - delta); one that lifts
    the moduli's sum above 1 raises ``InvariantViolationError``.
    """
    coeffs = solenoid_coefficients(p, emb) * scale
    return exp_sum_signals([coeffs], emb.frequencies(), Band(0.0, emb.c),
                           emb.window, emb.grid_step)[0]


def exp_sum_grid(coeffs, freqs, t0: float, dt: float, n: int):
    """Values sum_k c_k exp(2 pi i f_k t_j) on the grid t_j = t0 + j dt, j < n.

    ``coeffs`` is one vector of K coefficients, giving n values, or an
    S x K matrix of coefficient rows, giving an S x n array.  Each row is
    one (rows x K) @ (K x B) product of the block factors, which are
    built once for all rows from 3 K exponentials, so no n x K temporary
    exists.
    """
    return _ExpSums(coeffs, freqs, t0, dt, n).values()


class _ExpSums:
    """``exp_sum_grid``'s values from the coefficient rows, evaluated when first asked for.

    ``values()`` builds the block factors, evaluates every row as one
    product and keeps them.
    """

    def __init__(self, coeffs, freqs, t0: float, dt: float, n: int):
        self.coeffs = np.asarray(coeffs)
        self.omega = 2.0 * np.pi * np.asarray(freqs, dtype=float)
        self.t0, self.dt, self.n = t0, dt, n
        self._values = None

    def values(self):
        if self._values is None:
            head, tail = _grid_factors(self.omega, self.t0, self.dt, self.n)
            values = (head * self.coeffs[..., None, :]) @ tail.T
            self._values = values.reshape(*self.coeffs.shape[:-1], -1)[..., :self.n]
        return self._values


class _ExpSumSignal(Signal):
    """Row i of an ``_ExpSums`` as a sup-bound Signal on [-window, window].

    Its Bohr means on its own grid are taken in closed form from
    ``coeffs`` and ``omega`` (``_exp_sum_means``); the first ``values``
    of any signal of the ``_ExpSums`` evaluates all its rows.
    """

    def __init__(self, band: Band, window: float, grid_step: float, sums: _ExpSums, i: int):
        self.band, self.window, self.grid_step = band, float(window), float(grid_step)
        self.sup_bound = True
        self._sums, self._i = sums, i

    @property
    def values(self):
        return self._sums.values()[self._i]

    @property
    def coeffs(self):
        return self._sums.coeffs[self._i]

    @property
    def omega(self):
        """The angular frequencies 2 pi f_k of the sum."""
        return self._sums.omega

    def __len__(self):
        return self._sums.n


def exp_sum_bound(coeffs, n: int):
    """Bound on |exp_sum_grid(coeffs, freqs, t0, dt, n)| for real freqs, from the coefficients.

    One bound per coefficient row of a matrix, a scalar for one vector:
    the row sum of |c_k|, times (1 + ``_grid_rounding(n)``) (1 + 8u K)
    with u = 2^-53.  Each value sums K products (c_k head) tail of
    factors within ``_grid_rounding(n)`` of modulus 1, and one rounded
    product plus a K-term complex sum, in any order, add at most
    sqrt(5) u + sqrt(2) (K + 2) u <= 8u K relative to the sum of the
    terms' moduli (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 3.6).  A coefficient that is not
    finite raises ``InvariantViolationError``.
    """
    coeffs = np.asarray(coeffs)
    if not np.all(np.isfinite(coeffs)):
        raise InvariantViolationError("exponential-sum coefficients must be finite")
    K = coeffs.shape[-1]
    return np.abs(coeffs).sum(axis=-1) * (1.0 + _grid_rounding(n)) * (1.0 + 8.0 * UNIT_ROUNDOFF * K)


def exp_sum_signals(coeffs, freqs, band: Band, window: float, grid_step: float):
    """One sup-bound Signal per coefficient row of sum_k c_k exp(2 pi i f_k t).

    The signals sit on the grid -window + j grid_step, as many samples as
    window and step imply.  Before any grid is evaluated, a frequency
    outside the band (or not a real number in it) raises ``BandError``;
    rows times samples above ``EXP_SUM_MAX_SAMPLES``, or a sample count
    that is not finite, raise ``ConfigurationError``; and the sup bound
    is certified from the coefficients: an ``exp_sum_bound`` above 1 +
    ``SUP_BOUND_TOL`` raises ``InvariantViolationError``, so
    ``Signal.sup_norm`` scans none of them.  Each signal's grid is then
    checked (``Signal.check_grid``).  No value is evaluated here: the
    Bohr means on the signal's grid evaluate none, and the first
    ``values`` of any signal evaluates every row, as one product.
    """
    coeffs = np.asarray(coeffs)
    f = np.asarray(freqs, dtype=float)
    outside = ~((band.a <= f) & (f <= band.b))
    if np.any(outside):
        raise BandError(f"frequency {f[outside][0]:g} lies outside the band "
                        f"[{band.a:g}, {band.b:g}]")
    span = 2 * window / grid_step
    n = int(round(span)) + 1 if math.isfinite(span) else math.inf
    if not len(coeffs) * n <= EXP_SUM_MAX_SAMPLES:
        raise ConfigurationError(
            f"exponential sums on window {window:g} at step {grid_step:g} need "
            f"{len(coeffs)} x {n} = {len(coeffs) * n} samples, more than {EXP_SUM_MAX_SAMPLES}")
    bound = float(np.max(exp_sum_bound(coeffs, n), initial=0.0))
    if not bound <= 1.0 + SUP_BOUND_TOL:
        raise InvariantViolationError(
            f"coefficient moduli bound the sum by {bound:.17g}, above the sup bound 1")
    sums = _ExpSums(coeffs, freqs, -window, grid_step, n)
    signals = [_ExpSumSignal(band, window, grid_step, sums, i) for i in range(len(coeffs))]
    for sig in signals:
        sig.check_grid()
    return signals


def _exp_sum_means(coeffs, omega, lam, t0: float, dt: float, n: int, T: float):
    """Trapezoid means of sum_k c_k exp(i (omega_k - lam) t) on t0 + j dt, j < n, in closed form.

    With theta = omega_k - lam, phi = theta dt / 2 and N = max(n - 1, 0),
    the trapezoid sum of exp(i theta t_j) is a geometric series,
    exp(i theta (t0 + N dt / 2)) sin(N phi) / tan(phi), or N where phi =
    0; the mean is (dt / T) sum_k c_k times it, so no sample is evaluated.
    The form needs tan phi != 0 off phi = 0: on a Signal's own grid,
    |omega| dt <= pi/2 (oversampling) and |lam| dt <= 1/8 (the step
    requirement), so |phi| < pi/2.

    Rounding, u = 2^-53, against the exact means of the float inputs,
    first order in u; rho = max |theta| (|t0| + N dt), A = sum |c_k|:
    - theta, phi and the centre t0 + N dt/2 are rounded; the phase
      theta (t0 + N dt/2) is then within 4u rho, and the exponential
      adds 2u (cos and sin within one ulp);
    - the ratio is sum_j w_j cos(theta (t_j - centre)), weights w_j
      summing to N, so its modulus is at most N and it moves by at most
      N u rho when phi is off by 2u relative; the rounding of N phi
      moves sin by u |N phi| <= N u |tan phi|, and sin, tan and the
      division add 2u + 2u + u of N;
    - the product with the exponential adds u, the K-term sum of c_k
      times it 8u K of A N (as in ``exp_sum_bound``), and dt / T 2u.
    In all, at most (dt N / T) A u (5 rho + 8K + 11); the bound
    ``_exp_sum_mean_rounding`` returns is (dt N / T) A u (8 rho + 8K +
    16), which absorbs the terms of order u^2 while u (rho + K) < 2^-10.
    """
    N = max(n - 1, 0)
    theta = omega[:, None] - np.asarray(lam, dtype=float)
    phi = theta * (dt / 2.0)
    ratio = np.full(theta.shape, float(N))
    off = phi != 0.0
    ratio[off] = np.sin(N * phi[off]) / np.tan(phi[off])
    sums = np.exp(1j * theta * (t0 + N * dt / 2.0)) * ratio
    return (coeffs @ sums) * (dt / T)


def _exp_sum_mean_rounding(coeffs, omega, lam, t0: float, dt: float, n: int, T: float) -> float:
    """The rounding bound of ``_exp_sum_means``, derived there, for every frequency in lam."""
    N = max(n - 1, 0)
    rho = float(np.abs(omega[:, None] - np.asarray(lam, dtype=float)).max()) * (abs(t0) + N * dt)
    return (float(np.abs(coeffs).sum()) * (dt * N / T) * UNIT_ROUNDOFF
            * (8.0 * rho + 8.0 * len(omega) + 16.0))


def _nodes_in(window: float, step: float, size: int, T: float, start: float = 0.0):
    """Index range [i0, i1) of the grid times in [start - 1e-12, start + T + 1e-12].

    The grid is -window + step j, j < size.  Grid times are evaluated
    exactly as ``Signal.times`` computes them, so the range selects the
    same nodes as masking that array.
    """
    def at(j):
        return -window + step * j

    lo, hi = start - 1e-12, start + T + 1e-12
    i0 = math.ceil((window + start) / step)
    while i0 > 0 and at(i0 - 1) >= lo:
        i0 -= 1
    while at(i0) < lo:
        i0 += 1
    i1 = math.floor((window + start + T) / step) + 1
    while i1 < size and at(i1) <= hi:
        i1 += 1
    while at(i1 - 1) > hi:
        i1 -= 1
    return i0, i1


def _step_requirement(lam):
    """The quadrature step each frequency needs: min(0.01, 1/(8 |lam| + 8)).

    Bit for bit 1 / (8 |lam| + 8), without overflow for finite lam.
    """
    return np.minimum(0.01, 0.125 / (np.abs(lam) + 1.0))


def _mean_nodes(window: float, dt: float, size: int, lam, T: float, start: float):
    """First node t0 and count n of the ``_nodes_in`` of [start, start + T].

    The grid is -window + dt j, j < size.  Raises ``ConfigurationError``
    unless dt meets the step requirement of every frequency in lam and
    [start, start + T] lies in the window.
    """
    if not (np.all(dt <= _step_requirement(lam)) and -window <= start
            and start + T <= window):
        raise ConfigurationError(
            f"the means over [{start:g}, {start + T:g}] do not take the grid of step {dt:g} "
            f"on [-{window:g}, {window:g}]")
    i0, i1 = _nodes_in(window, dt, size, T, start)
    return -window + dt * i0, i1 - i0


def bohr_coefficient(sig, lam, T: float, start: float = 0.0):
    """Time average (1/T) int_start^(start+T) f(t) exp(-i lam t) dt by composite trapezoid.

    ``sig`` is a signal of ``exp_sum_signals`` (as ``solenoid_embed``
    makes), and the trapezoid runs on its own nodes in [start, start + T]
    (1e-12 slack at both ends), where the means are taken in closed form
    from its coefficients (``_exp_sum_means``), so none of its values is
    evaluated.  Its grid step must obey step <= min(0.01, 1/(8 |lam| +
    8)) at every frequency, and the interval must lie in its window; the
    average converges to the coefficient at frequency lam at rate O(1/T).
    A scalar ``lam`` gives a complex, an array of frequencies the array
    of their averages.  Any other signal or callable, a coarser grid, an
    interval off the window, a frequency, T or start that is not finite,
    or T <= 0 raise ``ConfigurationError`` before any node is made.
    """
    if not (0.0 < T < math.inf and math.isfinite(start)):
        raise ConfigurationError(
            f"need a finite averaging interval of length T > 0, got start {start}, T {T}")
    lams = np.asarray(lam, dtype=float)
    flat = lams.ravel()
    if not np.all(np.isfinite(flat)):
        raise ConfigurationError(f"need finite frequencies, got {flat[~np.isfinite(flat)][0]}")
    if not isinstance(sig, _ExpSumSignal):
        raise ConfigurationError(
            f"Bohr means are taken in closed form, on a signal of exp_sum_signals; "
            f"got {type(sig).__name__}")
    t0, n = _mean_nodes(sig.window, sig.grid_step, len(sig), flat, T, start)
    out = _exp_sum_means(sig.coeffs, sig.omega, flat, t0, sig.grid_step, n, T)
    return complex(out[0]) if lams.ndim == 0 else out.reshape(lams.shape)


def bohr_cross_term_bound(moduli, freqs, m_index: int, T: float) -> float:
    """Closed-form bound sum_{n != m} |a_n| 2/(T |lam_n - lam_m|)."""
    lam = np.asarray(freqs, dtype=float)
    a = np.asarray(moduli, dtype=float)
    gaps = np.abs(lam - lam[m_index])
    mask = np.arange(len(lam)) != m_index
    return float((a[mask] * 2.0 / (T * gaps[mask])).sum())


def solenoid_recover(sig, emb: SolenoidEmbedding, T: float,
                     start: float = 0.0, bounds=None) -> SolenoidPoint:
    """Read the solenoid coordinates back from a signal via Bohr means over [start, start + T].

    Coordinate n is the phase of the recovered coefficient at the sum's
    frequency 2 pi f_n, f_n = 1/n! as ``emb.frequencies`` holds it,
    scaled back to [0, n!); one ``bohr_coefficient`` call recovers every
    coefficient.  The round-trip error decays like n!/T
    (``solenoid_error_bounds``).  A coefficient modulus off by more than
    25% from 2^-n means the signal is not an embedding image.  The
    recovered x_{n+1} must equal x_n (mod n!) within 0.05, or within
    e_n + e_{n+1} where larger, e_n the ``solenoid_error_bounds`` of
    coordinate n: for an embedding image the two errors stay within it.
    ``bounds``, if given, must be ``solenoid_error_bounds(emb, T, start)``,
    which is otherwise computed here: a caller recovering many signals
    on one interval computes it once.
    """
    facts = [math.factorial(n) for n in range(emb.m, emb.K + 1)]
    coeffs = bohr_coefficient(sig, 2.0 * np.pi * emb.frequencies(), T, start)
    coords = []
    for n, fact, coeff in zip(range(emb.m, emb.K + 1), facts, coeffs):
        expected = 2.0 ** -n
        if abs(abs(coeff) - expected) > MODULUS_REL_TOL * expected:
            raise NotEmbeddingImageError(
                f"coefficient at frequency 1/{n}! has modulus {abs(coeff):.3g}, "
                f"expected {expected:.3g} within {MODULUS_REL_TOL:.0%}")
        x_n = (fact / (2.0 * np.pi)) * np.angle(coeff)
        coords.append(x_n % fact)
    # Coordinates for n < m (not carried by the signal) are reduced from x_m.
    full = []
    for n in range(1, emb.m):
        full.append(coords[0] % math.factorial(n))
    full.extend(coords)
    if bounds is None:
        bounds = solenoid_error_bounds(emb, T, start)
    tol = max([0.05] + [a + b for a, b in zip(bounds, bounds[1:])])
    return SolenoidPoint(tuple(full), tol=tol)


def solenoid_error_bounds(emb: SolenoidEmbedding, T: float, start: float = 0.0):
    """Bound on the circle error of each coordinate n = m..K of ``solenoid_recover``.

    It holds for ``solenoid_recover(solenoid_embed(p, emb), emb, T,
    start)`` at any point p, whose means take the signal's own grid:
    this raises ``ConfigurationError`` unless the grid step meets every
    coordinate's step requirement and [start, start + T] lies in the
    window.  On the N + 1 grid nodes in the interval, the mean at
    coordinate n's frequency is c_n (N dt / T), its matched term, plus
    cross terms: (dt / T) |c_k| |sin(N phi) / tan(phi)| <= |c_k| (dt /
    T) |cot phi| <= |c_k| 2 / (T |theta|) for |phi| < pi/2, which
    ``bohr_cross_term_bound`` sums.  With the rounding of the mean
    (``_exp_sum_mean_rounding``) added, the perturbation r of the
    matched term turns its phase by at most asin(r / (2^-n N dt / T)),
    or any angle once r reaches that modulus; n!/(2 pi) times it, plus
    16u n! for the rounding of the coefficient's phase, of the angle and
    of the circle distance (u = 2^-53), bounds the error.
    """
    window, dt = emb.window, emb.grid_step
    omega = 2.0 * np.pi * emb.frequencies()
    t0, nodes = _mean_nodes(window, dt, int(round(2 * window / dt)) + 1, omega, T, start)
    moduli = 2.0 ** -np.arange(emb.m, emb.K + 1)
    scale = max(nodes - 1, 0) * dt / T
    rounding = _exp_sum_mean_rounding(moduli, omega, omega, t0, dt, nodes, T)
    bounds = []
    for i, n in enumerate(range(emb.m, emb.K + 1)):
        perturbation = bohr_cross_term_bound(moduli, omega, i, T) + rounding
        r = perturbation / (moduli[i] * scale) if scale > 0.0 else math.inf
        fact = math.factorial(n)
        angle = math.asin(r) if r < 1.0 else math.pi
        bounds.append(fact / (2.0 * math.pi) * angle + 16.0 * UNIT_ROUNDOFF * fact)
    return bounds


@dataclass
class SearchReport:
    """How the randomized embedding search ended."""

    tries: int
    sup_perturbation: float
    min_separation: float
    widim_advisory: int | None = None


def epsilon_embedding_search(F, sample: MetricSample, eps: float,
                             delta_prime: float, seed: int):
    """Perturb F into G so that equal G-rows force distance < eps.

    Precondition (checked): d(x, y) < eps implies ||F(x)-F(y)||_inf <
    delta_prime.  The returned G satisfies sup ||F-G||_inf < delta_prime
    and has no row pair within 1e-12 in sup norm at distance >= eps.
    Seeded uniform perturbations with rejection, at most ``MAX_TRIES``;
    the zero perturbation is tried first.  The half-dimension advisory
    is a warning only, because the nerve estimate is an upper bound.
    """
    F = np.asarray(F, dtype=float)
    n, M = F.shape
    if n != len(sample):
        raise PreconditionError("row count must match the sample")
    if np.any(np.abs(F) > 1.0 + 1e-12):
        raise PreconditionError("F must map into [-1, 1]^M")
    d = sample.dist
    iu, ju = np.triu_indices(n, k=1)
    row_gap = np.abs(F[iu] - F[ju]).max(axis=1) if n > 1 else np.array([])

    close = d[iu, ju] < eps
    bad = close & (row_gap >= delta_prime)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise PreconditionError(
            "continuity precondition fails: close pair with distant rows",
            witness=(sample.points[iu[k]], sample.points[ju[k]],
                     float(d[iu[k], ju[k]]), float(row_gap[k])))

    advisory = widim_upper(sample, eps)
    if not advisory < M / 2:
        warnings.warn(
            f"width-dimension upper estimate {advisory} is not below M/2 = {M / 2}; "
            "the search may fail", RuntimeWarning, stacklevel=2)

    far = ~close
    rng = np.random.default_rng(seed)
    best_pair = None
    for attempt in range(MAX_TRIES):
        if attempt == 0:
            G = F.copy()
        else:
            G = np.clip(F + rng.uniform(-0.999 * delta_prime, 0.999 * delta_prime,
                                        size=F.shape), -1.0, 1.0)
        gap = np.abs(G[iu] - G[ju]).max(axis=1) if n > 1 else np.array([])
        collisions = far & (gap <= COLLISION_TOL)
        if not np.any(collisions):
            sep = float(gap[far].min()) if far.any() else math.inf
            report = SearchReport(tries=attempt + 1,
                                  sup_perturbation=float(np.abs(G - F).max()),
                                  min_separation=sep,
                                  widim_advisory=advisory)
            return G, report
        k = int(np.argmax(collisions))
        best_pair = (sample.points[iu[k]], sample.points[ju[k]])
    raise SearchBudgetError(
        f"no eps-embedding found in {MAX_TRIES} tries", best_pair=best_pair)


def complex_rows(F):
    """Pair the real matrix columns [Re | Im] into complex rows."""
    F = np.asarray(F, dtype=float)
    half = F.shape[1] // 2
    return F[:, :half] + 1j * F[:, half:]


def real_rows(FC):
    """Inverse of ``complex_rows``."""
    FC = np.asarray(FC, dtype=complex)
    return np.concatenate([FC.real, FC.imag], axis=1)


def _lattice_sums(out, table, row, starts, weights):
    """Add sum_k w_k table[s_k + j], j < n, over each row's entries k to out[row], s_k integers.

    ``row`` gives each entry's row of out, ascending; n is out's row
    length.  A row's starts lie on the lattice c + g r, with c their
    minimum and g the gcd of their differences (n for a single start),
    so with its weights summed onto that lattice as I[r] and j = g a + b,
    entry j is sum_r I[r] R[m + a + r, b] for m = c // g and the strided
    table rows R[q] = table[g q + B + b], b < min(g, n), of the residue
    B = c mod g, a view of the table.  That is the product of the
    Toeplitz matrix M[a, q] = I[q - a] with R[m:]; where M would hold
    more entries than the node x grid matrix of table windows, it is
    instead one convolution of I with each column of R[m:].  Rows of one
    spacing g and residue B read the same R: their Toeplitz matrices,
    each on the lattice span of all of them, are stacked and multiplied
    by R in one matmul call, as many rows at a time as keep the stack
    within ``PRODUCT_ENTRIES`` entries.  Where every row of a stack spans
    the same lattice points, each row's product is the one it would take
    alone, bit for bit; elsewhere a row's inner products also run over
    exact zeros, which may change the order in which they round
    (``tests/test_embedding.py`` bounds the difference).  The table must
    extend n entries past max s_k + n - 1.
    """
    n = out.shape[1]
    first = np.flatnonzero(np.diff(row, prepend=-1))
    count = np.diff(first, append=len(row))
    c = np.minimum.reduceat(starts, first)
    lattice = starts - np.repeat(c, count)
    g = np.gcd.reduceat(lattice, first)
    g[g == 0] = n
    lattice //= np.repeat(g, count)
    size = np.maximum.reduceat(lattice, first) + 1  # lattice points of each row
    blocks = -(-n // g)
    m, residue = np.divmod(c, g)
    dense = blocks * (blocks + size - 1) <= count * n
    for r in np.flatnonzero(~dense):
        mine = slice(first[r], first[r] + count[r])
        summed = np.zeros(size[r], dtype=complex)  # I of the docstring
        np.add.at(summed, lattice[mine], weights[mine])
        R = sliding_window_view(table, min(g[r], n))[c[r]::g[r]][:blocks[r] + size[r] - 1]
        out[row[first[r]]] += np.stack([np.convolve(R[:, b], summed[::-1], "valid")
                                        for b in range(R.shape[1])], axis=1).ravel()[:n]
    # Stack the dense rows of each class (g, B), in the order of m, up to
    # PRODUCT_ENTRIES; reach is the lattice span of the stack so far.
    stacks, key = [], None
    for r in np.flatnonzero(dense)[np.lexsort((m[dense], residue[dense], g[dense]))]:
        if (g[r], residue[r]) == key:
            top = max(reach, m[r] - m[stack[0]] + size[r])
            if (len(stack) + 1) * blocks[r] * (top + blocks[r] - 1) <= PRODUCT_ENTRIES:
                stack.append(r)
                reach = top
                continue
        key, stack, reach = (g[r], residue[r]), [r], size[r]
        stacks.append(stack)
    for stack in stacks:
        r0, b = stack[0], blocks[stack[0]]
        span = int((m[stack] - m[r0] + size[stack]).max()) + b - 1
        padded = np.zeros((len(stack), span + b - 1), dtype=complex)
        for k, r in enumerate(stack):
            mine = slice(first[r], first[r] + count[r])
            np.add.at(padded[k], b - 1 + m[r] - m[r0] + lattice[mine], weights[mine])
        toeplitz = sliding_window_view(padded, span, axis=1)[:, ::-1]
        R = sliding_window_view(table, min(g[r0], n))[residue[r0]::g[r0]][m[r0]:m[r0] + span]
        sums = np.ascontiguousarray(toeplitz) @ R  # the one copy of the Toeplitz matrices
        out[row[first[stack]]] += sums.reshape(len(stack), -1)[:, :n]


@dataclass
class EmbeddingRun:
    """Everything the perturbation stage needs about one pipeline run.

    ``advance(state_index, times)`` realizes the time-t map on sample
    states (exact for the times the node sums require): for an array of
    times it returns the int array of image indices, for a scalar time
    an int.  ``phi_N`` holds the N-th solenoid coordinate of each state,
    and F/G are the real sample matrices (columns Re then Im over the
    period nodes); their complex differences, the node weights, are
    computed once, when the run is made.  ``constants`` are the kernel
    constants certified for this run's delta.
    """

    constants: KernelConstants
    kernel: KernelSpec
    phi_N: np.ndarray
    advance: object
    F: np.ndarray
    G: np.ndarray

    def __post_init__(self):
        sup = float(np.abs(self.G - self.F).max())
        if not sup < self.delta_prime:
            raise ConfigurationError(
                f"sup |F - G| = {sup:.3g} must stay below delta' = {self.delta_prime:.3g}")
        if not NODE_MARGIN >= 1.0 / self.kernel.rho_float:
            raise ConfigurationError(
                f"node spacing 1/rho must not exceed NODE_MARGIN = {NODE_MARGIN}")
        self._corrections = complex_rows(self.G) - complex_rows(self.F)
        self._tables = {}

    @property
    def delta(self):
        return self.constants.delta

    @property
    def delta_prime(self):
        return self.constants.delta_prime

    def kernel_sum(self, nodes, weights, keep, t0: float, dt: float, n: int):
        """sum_k w_k phi(t0 + j dt - nu_k), j < n, over each row's kept nodes nu_k.

        ``nodes``, ``weights`` and ``keep`` are stacked rows of one
        shape; ``keep`` marks the nodes each row sums, which must lie
        within NODE_MARGIN of the grid, and the others are not read.  The
        result has one row of n values per row.  Each offset nu_k - t0
        splits into m_k whole grid steps and a phase p, so term j is w_k
        T[span - m_k + j] on the table T of phi at phase p over the grid
        steps.  The run builds each table with one ``interpolation_kernel``
        call, the first time a node has its phase, the kept nodes read
        row by row; phases that agree modulo dt to within PHASE_TOL dt
        share one table.  Each phase's terms are summed by
        ``_lattice_sums``, one product per lattice spacing and residue
        class of the rows.
        """
        keep = np.asarray(keep, dtype=bool)
        row = np.repeat(np.arange(len(keep)), keep.sum(axis=1))
        which, starts = self._table_starts(np.asarray(nodes, dtype=float)[keep], t0, dt, n)
        weights = np.asarray(weights)[keep]
        tables = self._tables[dt, n][1]
        out = np.zeros((len(keep), n), dtype=complex)
        used = np.flatnonzero(np.bincount(which, minlength=len(tables)))
        for k in used:
            mine = slice(None) if len(used) == 1 else which == k  # one phase: no copies
            _lattice_sums(out, tables[k], row[mine], starts[mine], weights[mine])
        return out

    def _table_starts(self, nodes, t0: float, dt: float, n: int):
        """The table of each node's phase and the table index of the node's term at j = 0.

        Builds the tables that the nodes' phases are the first to need.
        """
        span = n + math.ceil(NODE_MARGIN / dt)
        phases, tables = self._tables.setdefault((dt, n), ([], []))
        steps = np.rint((nodes - t0) / dt).astype(np.int64)
        offsets = nodes - t0 - steps * dt
        which = np.full(len(nodes), -1)
        k = 0
        while np.any(which < 0):
            if k == len(phases):
                phases.append(offsets[np.argmax(which < 0)])
                table = interpolation_kernel(dt * np.arange(-span, span + 1) - phases[k],
                                             self.kernel)
                # _lattice_sums' block rows read up to n entries past the end.
                tables.append(np.concatenate([table, np.zeros(n)]))
            gap = offsets - phases[k]
            wrap = np.rint(gap / dt).astype(np.int64)
            hit = (which < 0) & (np.abs(gap - wrap * dt) <= PHASE_TOL * dt)
            which[hit] = k
            steps[hit] += wrap[hit]
            k += 1
        return which, np.subtract(span, steps, out=steps)

    @property
    def period(self):
        """The node period N! of the lattice window."""
        return math.factorial(self.kernel.lattice.N)

    @property
    def nodes_per_period(self):
        return self.kernel.lattice.period_count

    def correction_rows(self):
        return self._corrections

    def node_tail_bound(self):
        """Bound on |h| from the nodes beyond NODE_MARGIN M that are dropped.

        Nodes are 1/rho apart, so under |phi(t)| <= K_dec / (1 + t^2) each
        side sums to at most rho K_dec max|w| times the envelope's integral
        past M - 1/rho >= 0.
        """
        rho = self.kernel.rho_float
        w = float(np.abs(self._corrections).max())
        return (2.0 * rho * self.constants.K_dec * w
                * (math.pi / 2.0 - math.atan(NODE_MARGIN - 1.0 / rho)))


def perturb_signal_map(run: EmbeddingRun, signals, states):
    """Build g(x) = f(x) + h(x) for each signal f(x) of ``signals`` and state x of ``states``.

    h places kernel translates on the node set {k/rho + n N! - Phi(x)_N}
    of the sample index x, weighted by the G-F corrections read along
    the orbit, truncated to nodes within the window plus ``NODE_MARGIN``.
    The signals must share one grid.  The whole batch is done at once:
    the period starts of every row (rows of fewer starts are padded and
    their padding masked) are read in one ``run.advance`` call, and on
    the grid every h is a row of one ``run.kernel_sum`` of the kept nodes
    and weights.  The check max_x sup|h(x)| + ``run.node_tail_bound()`` <
    delta rests on the envelope K_dec / (1 + t^2), certified on the
    whole line; a failure names the state.  Requires sup_t |f(x)(t)| <=
    1 - delta for every x: for a signal of ``exp_sum_signals``, of
    ``exp_sum_bound`` of its coefficients, else of ``sup_norm()``.
    Returns the list of g Signals, each checked for its sup bound.
    """
    states = np.asarray(states, dtype=np.int64)
    f0 = signals[0]
    if len(signals) != len(states) or not all(f0.same_grid(f) for f in signals[1:]):
        raise IncompatibleSignalError(
            f"need one state per signal and one grid, got {len(signals)} signals, "
            f"{len(states)} states")
    sups = np.empty(len(signals))
    exp_sums = {}  # coefficient count -> indices of the exponential sums with it
    for i, f in enumerate(signals):
        if isinstance(f, _ExpSumSignal):
            exp_sums.setdefault(len(f.omega), []).append(i)
        else:
            sups[i] = f.sup_norm()
    for idx in exp_sums.values():  # certified; never below the scan
        sups[idx] = exp_sum_bound([signals[i].coeffs for i in idx], len(f0))
    over = sups > 1.0 - run.delta + 1e-9
    if np.any(over):
        raise PreconditionError(f"need sup |f(x)| <= 1 - delta, state {states[over][0]} "
                                f"has {sups[over][0]:.17g}")
    kernel, period = run.kernel, run.period
    phi = run.phi_N[states]

    t = f0.times()
    lo = t[0] - NODE_MARGIN
    hi = t[-1] + NODE_MARGIN
    # Period starts n N! - Phi(x)_N, each with the corrections of its state.
    first = np.floor((lo + phi) / period).astype(np.int64)
    count = np.ceil((hi + phi) / period).astype(np.int64) - first + 1
    held = np.arange(count.max(initial=0)) < count[:, None]
    starts = (first[:, None] + np.arange(held.shape[1])) * period - phi[:, None]
    image = np.zeros(held.shape, dtype=np.int64)
    image[held] = run.advance(np.repeat(states, count), starts[held])
    nodes = starts[..., None] + np.arange(run.nodes_per_period) / kernel.rho_float
    nodes = nodes.reshape(len(states), -1)
    weights = run.correction_rows()[image].reshape(len(states), -1)
    keep = np.repeat(held, run.nodes_per_period, axis=1) & (lo <= nodes) & (nodes <= hi)
    vals = run.kernel_sum(nodes, weights, keep, t[0], f0.grid_step, len(t))
    sup_change = np.abs(vals).max(axis=1, initial=0.0)
    tail = run.node_tail_bound()
    worst = int(np.argmax(sup_change))
    if not sup_change[worst] + tail < run.delta:
        raise ConfigurationError(
            f"perturbation sup {sup_change[worst]:.3g} of state {states[worst]} + node tail "
            f"{tail:.3g} reached delta = {run.delta}")
    for f, g in zip(signals, vals):
        g += f.values  # h becomes g = f + h in place
    return [Signal(kernel.band, f.window, f.grid_step, g, sup_bound=True)
            for f, g in zip(signals, vals)]


@dataclass
class EmbeddingVerdict:
    """Outcome of the delta-embedding verification over all sample pairs."""

    passed: bool
    n_pairs: int
    n_matched: int
    worst_pair: tuple | None
    worst_distance: float
    min_image_separation: float
    far_pair_separation: float  # s_delta, the least image separation of pairs at d >= delta


def verify_delta_embedding(signals, phis, sample: MetricSample,
                           delta: float) -> EmbeddingVerdict:
    """Check that matching images force sample distance below delta.

    ``signals`` and ``phis`` hold the g-image and the factor image of each
    sample point, in the order of ``sample.points``.  A pair matches when
    both the signal metric (truncated at ``N_MAX``) of its g-images and the
    solenoid distance of its factor images fall within ``MATCH_TOL``.
    Every matching pair must satisfy d(x, y) < delta; the verdict also
    reports the smallest image separation (the larger image distance) among
    non-matching pairs, and s_delta, the smallest among pairs with d >= delta,
    a lower bound on theirs (grid sups and ``N_MAX`` drop no positive term).
    ``signal_metric``'s own evaluator ``_pair_metrics`` takes the metric of
    blocks of pairs, on values gathered once per signal.
    """
    points = sample.points
    n = len(points)
    if len(signals) != n or len(phis) != n:
        raise InvariantViolationError(
            f"{len(signals)} signals and {len(phis)} factor points for {n} sample points")
    iu, ju = np.triu_indices(n, k=1)
    sm = sd = np.zeros(len(iu))
    if n > 1:
        if len({p.depth for p in phis}) > 1:
            raise InvariantViolationError("solenoid points must share a depth")
        t, values = _near_values(signals, N_MAX)
        sm = _pair_metrics(t, values, iu, ju, N_MAX)
        coords = np.array([p.coords for p in phis])
        sd = _solenoid_gaps(coords[iu], coords[ju])
    dist = sample.dist[iu, ju]
    matched = (sm <= MATCH_TOL) & (sd <= MATCH_TOL)
    d = dist[matched]
    worst_pair, worst_distance = None, -math.inf
    if len(d):
        k = int(np.argmax(d))
        worst_pair = (points[iu[matched][k]], points[ju[matched][k]])
        worst_distance = float(d[k])
    sep = np.maximum(sm, sd)
    return EmbeddingVerdict(passed=bool(np.all(d < delta)), n_pairs=len(iu),
                            n_matched=int(matched.sum()), worst_pair=worst_pair,
                            worst_distance=worst_distance,
                            min_image_separation=float(sep[~matched].min(initial=math.inf)),
                            far_pair_separation=float(sep[dist >= delta].min(initial=math.inf)))
