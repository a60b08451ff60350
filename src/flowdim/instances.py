"""Ready-made desk-scale systems used by the demos, tests, and CLI.

These builders produce finite stand-ins whose estimator values are
known: cyclic rotations (isometric, zero mean dimension), cube-shift
truncations (mean dimension D in the grid regime), binary shifts
(zero), and a suspension sample with a factor map onto the truncated
solenoid for the end-to-end perturbation pipeline.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bandlimited import Band
from .dynamics import (
    DynSystem,
    MappingTorus,
    SolenoidPoint,
    mapping_torus,
    solenoid_from_time,
)
from .embedding import (
    EmbeddingRun,
    SolenoidEmbedding,
    complex_rows,
    epsilon_embedding_search,
    exp_sum_grid,
    exp_sum_signals,
    perturb_signal_map,
    real_rows,
    solenoid_coefficients,
    verify_delta_embedding,
)
from .errors import ConfigurationError, InvariantViolationError
from .kernel import KernelSpec, certify_constants
from .metric import MetricSample, OrbitMetricSpec, orbit_metric_R

GRID_STEP = 0.1
# Most entries of a generated system's (n, n) float64 metric: 2^27 entries are
# 1 GiB, which cube_shift_system(2, 6) (8,197 states) fits and (1, 7) does not.
METRIC_MAX_ENTRIES = 1 << 27
BAND = Band(0.0, 2.0)  # the pipeline kernel's band
TAU = 0.5              # the pipeline kernel's bump width
SIGNAL_WINDOW = 16.0   # half-length of the pipeline's signal window


def rotation_system(n_points: int) -> DynSystem:
    """Rotation by one step on a cycle of n points with arc metric."""
    pts = list(range(n_points))
    gaps = np.abs(np.subtract.outer(pts, pts))
    dist = np.minimum(gaps, n_points - gaps).astype(float)
    return DynSystem(MetricSample(pts, dist), [(i + 1) % n_points for i in pts])


def cube_shift_system(D: int, N: int, dense: bool | None = None) -> DynSystem:
    """Cyclic shift on length-N blocks of D-cube grid values.

    The base metric reads block 0 only (sup over its D coordinates), so
    the N-step window metric sees the first N blocks.  For D = 1 the
    state space is the full grid product; for D >= 2 a shift-invariant
    subset carrying the same greedy-cover structure keeps the sample
    size workable.  In the eps = 0.3 grid regime the width estimate of
    the k-window metric is exactly D*k.  D and N below 1, or a state count
    whose metric would hold more than METRIC_MAX_ENTRIES entries, raise
    ``ConfigurationError`` before any state is made.
    """
    h = GRID_STEP
    if D < 1 or N < 1:
        raise ConfigurationError(f"cube shift needs D >= 1 and N >= 1, got D = {D}, N = {N}")
    if dense is None:
        dense = D == 1
    n_states = 4 ** (D * N) if dense else 2 ** (D * N + 1) - 1 + N
    if n_states * n_states > METRIC_MAX_ENTRIES:
        raise ConfigurationError(
            f"cube shift D = {D}, N = {N} has {n_states} states; its metric would hold "
            f"more than {METRIC_MAX_ENTRIES} entries")
    if dense:
        blocks = list(itertools.product([0.0, h, 2 * h, 3 * h], repeat=D))
        states = set(itertools.product(blocks, repeat=N))
    else:
        inner = list(itertools.product([0.0, h], repeat=D))
        outer = list(itertools.product([0.0, 2 * h], repeat=D))
        states = set(itertools.product(inner, repeat=N))
        states |= set(itertools.product(outer, repeat=N))
        long_pt = ((3 * h,) + (0.0,) * (D - 1),) + (((0.0,) * D),) * (N - 1)
        for s in range(N):
            states.add(long_pt[s:] + long_pt[:s])
    states = sorted(states)
    index = {s: i for i, s in enumerate(states)}
    step = [index[s[1:] + s[:1]] for s in states]
    # Block 0 takes few distinct values (8 for D = 2 sparse): their sup
    # distances are taken once and gathered per pair of states.
    values, inv = np.unique(np.array([s[0] for s in states]), axis=0, return_inverse=True)
    table = np.max(np.abs(values[:, None, :] - values[None, :, :]), axis=2)
    dist = table[np.ix_(inv, inv)]
    return DynSystem(MetricSample(states, dist, validate=False), step)


def binary_shift_system(length: int = 6) -> DynSystem:
    """Cyclic binary shift with exponentially weighted coordinate metric."""
    states = sorted(itertools.product([0, 1], repeat=length))
    index = {s: i for i, s in enumerate(states)}
    step = [index[s[1:] + s[:1]] for s in states]
    arr = np.array(states, dtype=float)
    weights = np.array([2.0 ** -min(i, length - i) for i in range(length)])
    diffs = np.abs(arr[:, None, :] - arr[None, :, :])
    dist = diffs @ weights
    return DynSystem(MetricSample(states, dist, validate=False), step)


@dataclass
class SuspensionInstance:
    """A roof-1 suspension sample with a factor map onto the solenoid.

    ``flow`` is the every-height ``mapping_torus`` of the rotation on a
    cycle of length ``base_size`` (a multiple of 6) with ``n_heights``
    grid heights per unit time, so sample index state * n_heights + j
    holds the point (state, j / n_heights).  The factor reads the total
    orbit coordinate modulo n!.
    """

    flow: MappingTorus
    depth: int
    base_size: int
    n_heights: int

    @classmethod
    def build(cls, base_size: int = 12, n_heights: int = 10, depth: int = 3):
        if base_size < 6 or base_size % 6 != 0:
            raise ConfigurationError(f"base size must be a multiple of 6 and at least 6, "
                                     f"got {base_size}")
        flow = mapping_torus(rotation_system(base_size), n_heights, every_height=True)
        return cls(flow, depth, base_size, n_heights)

    @functools.cached_property
    def _times(self):
        """The total orbit coordinate state + height of every sample index."""
        return np.array([p.state + p.height for p in self.flow.values])

    def total_time(self, idx):
        return self._times[idx]

    def factor(self, idx: int) -> SolenoidPoint:
        return solenoid_from_time(self.total_time(idx), self.depth)

    def advance(self, idx, t):
        """Indices of the time-t images; each image must be a sample state.

        The roof is constant 1, so the flow adds t to the total orbit
        coordinate modulo the cycle length; the image height must land
        back on the height grid, and its grid slot is its index.  Indices
        and times broadcast against each other: arrays give the int array
        of image indices, two scalars an int.  A time that is not finite
        raises ``InvariantViolationError``, as in ``dynamics._flow``.
        """
        idx, t = np.broadcast_arrays(idx, np.asarray(t, dtype=float))
        if not np.isfinite(t).all():
            raise InvariantViolationError("flow times must be finite")
        tau = (self.total_time(idx) + t) % self.base_size
        slot = np.rint(tau * self.n_heights)
        off = np.abs(slot / self.n_heights - tau) > 1e-9
        if np.any(off):
            k = np.argmax(off)
            raise ConfigurationError(
                f"time-{t.flat[k]} image of state {idx.flat[k]} leaves the height grid")
        index = slot.astype(np.int64) % (self.base_size * self.n_heights)
        return int(index) if index.ndim == 0 else index


@dataclass
class PipelineResult:
    """Artifacts of the end-to-end delta-embedding run."""

    instance: SuspensionInstance
    run: EmbeddingRun
    eps: float
    search_report: object
    sup_change: float
    node_residual: float
    equivariance_residual: float
    verdict: object

    @property
    def passed(self):
        return (self.verdict.passed and self.sup_change < self.run.delta
                and self.node_residual < 1e-8
                and self.equivariance_residual < 1e-6)


def run_embedding_pipeline(delta: float = 0.2, rho=1, N: int = 2,
                           base_size: int = 12, n_heights: int = 10,
                           seed: int = 2024) -> PipelineResult:
    """Assemble the desk instance and run the full perturbation pipeline.

    Steps: certify the kernel budget delta', sample the equivariant
    signal map on the period nodes, search for the corrected matrix G,
    build g = f + h, and verify the delta-embedding together with the
    node and equivariance identities.  Equivariance is checked at a
    sub-period shift near 0.3 (snapped onto the height grid) and at the
    full node period N!.  delta must lie in (0, 1).
    """
    if not 0 < delta < 1:
        raise ConfigurationError(f"need 0 < delta < 1, got {delta}")
    inst = SuspensionInstance.build(base_size=base_size, n_heights=n_heights,
                                    depth=max(3, N))
    emb = SolenoidEmbedding(c=min(1.0, BAND.b / 2.0), K=inst.depth,
                            window=SIGNAL_WINDOW, grid_step=0.05)
    # Equivariance shifts r, whole numbers of height steps, each with its
    # signal-grid steps k: refused before any work unless r = k dt.
    period = math.factorial(N)
    h = 1.0 / n_heights
    shifts = [(r, int(round(r / emb.grid_step))) for r in (max(h, round(0.3 / h) * h), period)]
    if any(abs(k * emb.grid_step - r) > 1e-9 for r, k in shifts):
        raise ConfigurationError(f"equivariance shifts {[r for r, _ in shifts]} must sit on "
                                 f"the signal grid of step {emb.grid_step}")
    spec = KernelSpec(BAND, rho, TAU, N=N, window=200.0)
    constants = certify_constants(spec, delta)
    delta_prime = constants.delta_prime

    n_states = len(inst.flow.values)
    states = np.arange(n_states)
    factors = [inst.factor(i) for i in states]
    coeffs = np.array([solenoid_coefficients(p, emb) for p in factors]) * (1.0 - delta)
    freqs = emb.frequencies()
    f = exp_sum_signals(coeffs, freqs, Band(0.0, emb.c), emb.window, emb.grid_step)
    n_grid = len(f[0])
    phi_N = inst.total_time(states) % period

    # Sample f along the orbit at the period nodes k/rho, a uniform grid.
    nodes = spec.lattice.window_nodes()
    F = real_rows(exp_sum_grid(coeffs, freqs, 0.0, 1.0 / spec.rho_float,
                               spec.lattice.period_count))

    # Orbit window metric over one node period, gridded at the height step.
    d_window = orbit_metric_R(inst.flow, OrbitMetricSpec("R-window", period, 1.0 / n_heights))

    # Pick eps below the measured continuity threshold of F.
    iu, ju = np.triu_indices(n_states, k=1)
    gaps = np.abs(F[iu] - F[ju]).max(axis=1)
    search_bound = delta_prime / 2.0
    tight = gaps >= search_bound
    dists = d_window.dist[iu, ju]
    eps_cap = float(dists[tight].min()) if tight.any() else float(dists.max())
    eps = min(0.9 * eps_cap, 0.9 * delta)
    if eps <= 0:
        raise ConfigurationError("could not find a positive eps for the search")

    G, report = epsilon_embedding_search(F, d_window, eps, search_bound, seed)

    run = EmbeddingRun(constants=constants, kernel=spec, phi_N=phi_N,
                       advance=inst.advance, F=F, G=G)
    g = perturb_signal_map(run, f, states)
    h_rows = np.array([gi.values - fi.values for gi, fi in zip(g, f)])
    sup_change = float(np.abs(h_rows).max())

    # Node identities: g(x)(-Phi_N + k/rho) = G^C(T^{-Phi_N} x)(k).
    got = np.array([g[i].evaluate(-phi_N[i] + nodes) for i in states])
    node_residual = float(np.abs(got - complex_rows(G)[inst.advance(states, -phi_N)]).max())

    # Equivariance: h(T^r x)(t) = h(x)(t + r) on the common window.
    equiv_residual = 0.0
    for r, shift_idx in shifts:
        lhs = h_rows[inst.advance(states, r), :n_grid - shift_idx]
        equiv_residual = max(equiv_residual, float(np.abs(lhs - h_rows[:, shift_idx:]).max()))

    verdict = verify_delta_embedding(g, factors, d_window, delta)

    return PipelineResult(instance=inst, run=run, eps=eps,
                          search_report=report, sup_change=sup_change,
                          node_residual=node_residual,
                          equivariance_residual=equiv_residual, verdict=verdict)
