"""Band-limited signals on a finite window: metric, shift flow, spectra.

A ``Signal`` is a uniform complex grid on [-W, W] with a declared
frequency band [a, b] and oversampling 1/dt >= 4 max(|a|, |b|, 1)
(``_min_rate``), checked when made, as is a declared sup bound 1.
All sups are grid sups; the weighted metric, which ``_pair_metrics``
evaluates for ``signal_metric`` and the verifier alike, truncates its
tail at ``n_max`` with certified remainder 2^(1-n_max).  Off-grid evaluation
uses Kaiser-windowed sinc interpolation, accurate to ~1e-12 for
signals respecting the declared band; its tap weights are computed once
per distinct fractional grid offset.  ``_grid_factors`` splits
exponentials on a uniform grid into block factors, built from three
exponentials per frequency by a doubling recurrence (log2 of the rows
in vectorised products); the exponential sums' values and the kernel's
bump transform run on it (Bohr means, in closed form, need none), and
``_grid_rounding`` bounds its rounding.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BandError,
    IncompatibleSignalError,
    InvariantViolationError,
    WindowExhaustedError,
)

SUP_BOUND_TOL = 1e-9
UNIT_ROUNDOFF = 2.0 ** -53  # of float64, the u of the rounding bounds
TAPS = 40          # half-width of the interpolation stencil
KAISER_BETA = 24.0
PAD_FACTOR = 4     # zero padding of band_support_check's transform
TAPER_MIN = 2      # least samples in each of band_support_check's edge tapers


@dataclass(frozen=True)
class Band:
    """Frequency interval [a, b] with a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise BandError(f"need a < b, got [{self.a}, {self.b}]")

    @property
    def width(self):
        return self.b - self.a


class Signal:
    """Finite-window truncation of a band-limited function."""

    def __init__(self, band: Band, window: float, grid_step: float, values,
                 sup_bound: bool = False):
        self.band = band
        self.window = float(window)
        self.grid_step = float(grid_step)
        self.values = np.asarray(values, dtype=complex)
        self.sup_bound = bool(sup_bound)
        self.check_grid()
        if self.sup_bound and not self.sup_norm() <= 1.0 + SUP_BOUND_TOL:
            raise InvariantViolationError("values exceed declared sup bound 1 or hold NaN")

    def check_grid(self):
        """Raise unless the window and step are positive, the grid rate meets
        the oversampling bound and the sample count is the one they imply."""
        n_expected = _sample_count(self.window, self.grid_step)
        if _too_coarse(self.grid_step, self.band):
            raise InvariantViolationError(
                f"grid rate {1.0 / self.grid_step:.3g} below oversampling bound "
                f"{_min_rate(self.band):.3g}")
        if len(self) != n_expected:
            raise InvariantViolationError(
                f"{len(self)} samples but window/step imply {n_expected}")

    @classmethod
    def from_function(cls, fn, band: Band, window: float, grid_step: float,
                      sup_bound: bool = False):
        t = -window + grid_step * np.arange(_sample_count(window, grid_step))
        return cls(band, window, grid_step, fn(t), sup_bound=sup_bound)

    def __len__(self):
        """The number of samples."""
        return len(self.values)

    def times(self):
        return -self.window + self.grid_step * np.arange(len(self))

    def same_grid(self, other: "Signal") -> bool:
        return (len(self) == len(other)
                and abs(self.window - other.window) < 1e-12
                and abs(self.grid_step - other.grid_step) < 1e-12)

    def evaluate(self, t):
        """Interpolate the signal at arbitrary times inside the safe window.

        Times must keep the full stencil inside the grid, i.e.
        |t| <= window - TAPS * grid_step; others, NaN among them, raise
        ``WindowExhaustedError`` (times off the window sit at position -1).
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        dt = self.grid_step
        pos = np.where(np.abs(t) <= self.window, (t + self.window) / dt, -1.0)
        j0 = np.floor(pos).astype(np.int64)
        frac = pos - j0
        # Snap exact grid hits to avoid needless stencils at the edges.
        on_grid = frac < 1e-12
        near_next = frac > 1 - 1e-12
        j0[near_next] += 1
        frac[near_next] = 0.0
        on_grid |= near_next
        outside = (j0 < TAPS - 1) | (j0 + TAPS >= len(self.values))
        if outside.any():
            raise WindowExhaustedError(
                f"time {t[outside][0]:.6g} outside the interpolation-safe window "
                f"|t| <= {self.window - TAPS * dt:.6g}")
        out = np.empty(len(t), dtype=complex)
        if on_grid.any():
            out[on_grid] = self.values[j0[on_grid]]
        off = ~on_grid
        if off.any():
            # One row of tap weights per distinct fractional offset.
            offsets = np.arange(-(TAPS - 1), TAPS + 1)
            phases, which = np.unique(frac[off], return_inverse=True)
            rel = phases[:, None] - offsets[None, :]
            u = rel / TAPS
            win = (np.i0(KAISER_BETA * np.sqrt(np.clip(1.0 - u * u, 0.0, None)))
                   / np.i0(KAISER_BETA))
            w = (np.sinc(rel) * win)[which]
            idx = j0[off, None] + offsets[None, :]
            out[off] = (self.values[idx] * w).sum(axis=1)
        return out

    def sup_norm(self):
        """max |values| (NaN if any value is NaN)."""
        return float(np.abs(self.values).max())


def _min_rate(band: Band) -> float:
    """The oversampling bound 4 max(|a|, |b|, 1) on a grid's rate 1/dt."""
    return 4.0 * max(abs(band.a), abs(band.b), 1.0)


def _too_coarse(grid_step: float, band: Band) -> bool:
    """Whether grid_step * ``_min_rate(band)`` exceeds 1, with relative slack 1e-12."""
    return grid_step * _min_rate(band) > 1.0 + 1e-12


def _sample_count(window: float, grid_step: float) -> int:
    """round(2 window / grid_step) + 1, refused unless window and step are positive and finite."""
    if not (0 < grid_step < math.inf and 0 < 2 * window / grid_step < math.inf):
        raise InvariantViolationError(
            f"need window and step > 0 and a finite sample count, got {window}, {grid_step}")
    return int(round(2 * window / grid_step)) + 1


def _block_shape(n: int):
    """(rows, B) of ``_grid_factors`` on n points: B = ceil(sqrt(n)), rows = ceil(n / B)."""
    B = max(1, math.ceil(math.sqrt(n)))
    return -(-n // B), B


def _grid_factors(omega, t0: float, dt: float, n: int):
    """Block factors of exp(i omega_k t_j) on t_j = t0 + j dt, j < n.

    With B = ceil(sqrt(n)) and j = q B + r, entry (j, k) equals
    head[q, k] * tail[r, k]; head has ceil(n / B) rows and tail B rows.
    Three exponentials per frequency build them by recurrence:
    head[q] = e^(i omega t0) s^q with s = e^(i omega B dt), and tail[r] =
    s^r with s = e^(i omega dt), each by doubling (``_powers``): rows
    2^m .. 2^(m+1) - 1 are rows 0 .. 2^m - 1 times s^(2^m), and each
    power is squared from the last.  omega may be complex.

    Rounding, with u = 2^-53, against the exact exp(i omega (t0 + j dt))
    of the float inputs (``_grid_rounding`` returns the bound):
    - an exponential is within 5u of its float argument's (libm's exp,
      cos and sin within one ulp, 2u, and one product), and a complex
      product adds sqrt(5) u;
    - s^(2^m) is s squared m times, each square doubling the relative
      error and adding one product: within 2^m 5u + (2^m - 1) sqrt(5) u;
    - head[q] multiplies its start by one power s^(2^m) per binary digit
      of q, one product each, so it is within 5u + q (5 + sqrt(5)) u <=
      8u (q + 1); tail[r], whose start 1 multiplies exactly, within
      r (5 + sqrt(5)) u <= 8u r; the caller's head[q] tail[r] adds one
      product more: within 8u (rows + B) in all;
    - the arguments are rounded as well: i omega t0 within u |omega t0|,
      i omega (B dt) within 2u |omega| B |dt| and used q times (the
      powers of s multiply it up), i omega dt within u |omega dt| and used
      r times.  That moves the entry by at most 2u |omega| (|t0| +
      (n + B) |dt|) relative, and for real omega it turns the phase only.
    So for real omega every |head[q] tail[r]| is within 8u (rows + B) of
    1: 2.5e-12 at solenoid-demo's 2,010,001-point grid, where rows + B is
    2,836.
    """
    rows, B = _block_shape(n)
    omega = np.asarray(omega)
    head = _powers(np.exp(1j * t0 * omega), np.exp(1j * (B * dt) * omega), rows)
    tail = _powers(np.ones(len(omega), dtype=complex), np.exp(1j * dt * omega), B)
    return head, tail


def _powers(start, s, count: int):
    """The rows start s^q, q < count, by doubling: log2(count) vectorised products."""
    out = np.empty((count, len(s)), dtype=complex)
    out[:1] = start  # no rows when count = 0
    done = 1
    while done < count:
        m = min(done, count - done)
        np.multiply(out[:m], s, out=out[done:done + m])
        done += m
        if done < count:  # a square past the last power used may overflow on complex omega
            s = s * s
    return out


def _grid_rounding(n: int, reach: float = 0.0) -> float:
    """8u (rows + B + reach): ``_grid_factors``' relative rounding bound on n points.

    It bounds every head[q] tail[r] when reach >= max |omega| (|t0| +
    (n + B) |dt|); with reach 0 it bounds how far |head[q] tail[r]| is
    from 1 for real omega.
    """
    return 8.0 * UNIT_ROUNDOFF * (sum(_block_shape(n)) + reach)


def signal_metric(f: Signal, g: Signal, n_max: int) -> float:
    """Weighted local-sup distance sum_{n<=n_max} 2^-n sup_{[-n,n]} |f-g|.

    Grid sups over int(n_max) rings; the omitted tail is bounded by 2^(1-n_max)
    for signals with sup bound 1.  Exact metric axioms hold on equal grids.
    """
    t, values = _near_values([f, g], n_max)
    return float(_pair_metrics(t, values, [0], [1], int(n_max))[0])


def _near_values(signals, n_max: int):
    """|t| for the grid times with |t| <= n_max, and each signal's values there.

    The signals must share the first one's grid; the values come back
    stacked, one row per signal.
    """
    f = signals[0]
    if not all(f.same_grid(g) for g in signals[1:]):
        raise IncompatibleSignalError("signals must share window and grid")
    if not 1 <= n_max <= f.window + 1e-12:
        raise ValueError("need 1 <= n_max <= window")
    t = np.abs(f.times())
    near = t <= n_max + 1e-12
    return t[near], np.array([g.values[near] for g in signals])


def _pair_metrics(t, values, iu, ju, n_max: int):
    """``signal_metric`` of each pair of value rows (iu[k], ju[k]), n_max rings.

    t and the rows are as ``_near_values`` returns them.  The columns
    are sorted by t once, so the times of each ring n - 1 < t <= n
    (1e-12 slack) are one run of columns; a block of about 2^16 /
    (columns) pairs takes its ring maxima of |v_i - v_j| with one
    reduceat and the sup over t <= n as their running maximum, and sums
    the 2^-n terms in the order n = 1..n_max.  Every ring holds a grid
    time: grid steps are at most 1/4 (the oversampling bound of a
    Signal) and n_max is at most the window.
    """
    order = np.argsort(t, kind="stable")
    ends = np.searchsorted(t[order], np.arange(1, n_max + 1) + 1e-12, side="right")
    values = values[:, order[:ends[-1]]]
    rings = np.concatenate([[0], ends[:-1]])
    block = max(1, (1 << 16) // len(t))
    out = np.empty(len(iu))
    for s in range(0, len(iu), block):
        diff = values[iu[s:s + block]]
        diff = np.abs(np.subtract(diff, values[ju[s:s + block]], out=diff))
        sup = np.maximum.accumulate(np.maximum.reduceat(diff, rings, axis=1), axis=1)
        total = 0.0
        for n in range(1, n_max + 1):
            total = total + sup[:, n - 1] / 2.0 ** n
        out[s:s + block] = total
    return out


def signal_metric_tail(n_max: int) -> float:
    """Certified bound for the discarded tail of the weighted metric."""
    return 2.0 ** (1 - int(n_max))


def shift(f: Signal, r: float) -> Signal:
    """The time shift (tau_r f)(t) = f(t + r), resampled on a shrunken window.

    The window loses |r| plus the interpolation stencil margin; shifts
    beyond half the window raise ``WindowExhaustedError``, and a sup-bound
    result above the bound ``InvariantViolationError``.
    """
    if not abs(r) <= f.window / 2 + 1e-12:  # NaN too
        raise WindowExhaustedError(
            f"shift {r} exceeds the window budget {f.window / 2}")
    dt = f.grid_step
    margin = TAPS * dt
    new_window = f.window - abs(r) - margin
    # Keep the shrunken window on the same grid lattice.
    new_half = int(math.floor(new_window / dt))
    if new_half < 1:
        raise WindowExhaustedError("window exhausted after shift margin")
    new_window = new_half * dt
    t = -new_window + dt * np.arange(2 * new_half + 1)
    values = f.evaluate(t + r)
    return Signal(f.band, new_window, dt, values, sup_bound=f.sup_bound)


def band_support_check(f: Signal, tol_band_pad: float = 0.0) -> float:
    """Fraction of spectral energy outside [a - pad, b + pad].

    A cosine taper of width window/8 is applied on each edge before the
    discrete transform, so a genuinely band-limited signal leaks only
    through the taper's side lobes.  Returns 0 for the zero signal.
    """
    if tol_band_pad < 0:
        raise ValueError("band pad must be nonnegative")
    v = f.values
    if not np.any(v):
        return 0.0
    n = len(v)
    taper_len = max(TAPER_MIN, int(round(n / 16)))  # window/8 per side of [-W, W]
    taper = np.ones(n)
    ramp = 0.5 * (1 - np.cos(np.pi * np.arange(taper_len) / taper_len))
    taper[:taper_len] = ramp
    taper[-taper_len:] = ramp[::-1]
    padded = np.zeros(PAD_FACTOR * n, dtype=complex)
    padded[:n] = v * taper
    spectrum = np.fft.fft(padded)
    freqs = np.fft.fftfreq(len(padded), d=f.grid_step)
    power = np.abs(spectrum) ** 2
    inside = (freqs >= f.band.a - tol_band_pad) & (freqs <= f.band.b + tol_band_pad)
    total = power.sum()
    return float(power[~inside].sum() / total)


def fold_real(f: Signal) -> Signal:
    """Real-part fold (f + conj f)/2, carrying band [0, a] into [-a, a]."""
    if f.band.a < -SUP_BOUND_TOL:
        raise BandError(f"fold_real expects a band inside [0, a], got {f.band}")
    folded = Band(-f.band.b, f.band.b)
    return Signal(folded, f.window, f.grid_step, f.values.real.astype(complex),
                  sup_bound=f.sup_bound)


@dataclass
class RankCertificate:
    """Numerical-rank witness for the periodic-subspace dimension."""

    formula: int
    rank: int
    n_points: int
    singular_values: np.ndarray

    @property
    def consistent(self):
        return self.formula == self.rank


def periodic_subspace_dim(a: float, r: float) -> tuple[int, RankCertificate]:
    """Dimension 2*floor(a r) + 1 of the r-periodic band-limited functions.

    The certificate samples the real span of {exp(2 pi i k x / r)},
    |k| <= floor(a r), at 4 floor(a r) + 8 points with an irrational
    offset, and reports the numerical rank (SVD threshold 1e-8 of the
    largest singular value).
    """
    if a <= 0 or r <= 0:
        raise ValueError("a and r must be positive")
    product = a * r
    nearest = round(product)
    if abs(product - nearest) < 1e-12:
        warnings.warn(
            f"a*r = {product!r} sits on a band edge; using floor = {int(nearest)}",
            RuntimeWarning, stacklevel=2)
        N = int(nearest)
    else:
        N = int(math.floor(product))
    n_points = 4 * N + 8
    offset = 1.0 / math.sqrt(2.0)
    x = (np.arange(n_points) + offset) * (r / n_points)
    cols = [np.ones(n_points)]
    for k in range(1, N + 1):
        phase = 2 * np.pi * k * x / r
        cols.append(np.cos(phase))
        cols.append(np.sin(phase))
    matrix = np.stack(cols, axis=1)
    sv = np.linalg.svd(matrix, compute_uv=False)
    rank = int(np.sum(sv > 1e-8 * sv[0]))
    formula = 2 * N + 1
    return formula, RankCertificate(formula=formula, rank=rank,
                                    n_points=n_points, singular_values=sv)
