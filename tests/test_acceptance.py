"""Acceptance suite: one test per criterion, tolerances pinned inline.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from flowdim.bandlimited import Band, Signal, periodic_subspace_dim, shift, signal_metric
from flowdim.dynamics import BowenWaltersMetric, RoofFunction, SuspensionPoint, solenoid_act, solenoid_from_time
from flowdim.embedding import (
    SolenoidEmbedding,
    solenoid_embed,
    solenoid_recover,
)
from flowdim.instances import (
    binary_shift_system,
    cube_shift_system,
    rotation_system,
    run_embedding_pipeline,
)
from flowdim.kernel import (
    KernelSpec,
    Lattice,
    bump_transform,
    interpolation_kernel,
    kernel_band_leakage,
    sinc_product,
)
from flowdim.metric import (
    MetricSample,
    mdim_table,
    orbit_metric_Z,
    spanning_number,
    widim_upper,
)

from oracles import (
    canonical,
    product_function,
    product_truncation_bound,
    spanning_number_exact,
)
from test_metric import torus_rotation, _window_shifted


def report(number, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_sinc_oracle():
    """Truncated lattice product vs the closed-form sine quotient."""
    worst = 0.0
    ok_bound = True
    for rho in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
        lat = Lattice(rho, 4 if rho.denominator == 2 else 2)
        xs = np.linspace(-10.0, 10.0, 401)
        approx = product_function(xs, lat, 10 ** 6)
        exact = sinc_product(xs, float(rho))
        bound = product_truncation_bound(xs, lat, 10 ** 6)
        diff = np.abs(approx - exact)
        ok_bound &= bool(np.all(diff <= bound))
        worst = max(worst, float(diff.max()))
    passed = ok_bound and worst <= 1e-3
    report(1, passed,
           f"max |product - sinc| = {worst:.3e} <= 1e-3, within certified bound: {ok_bound}")


@pytest.fixture(scope="module")
def kernel_spec():
    return KernelSpec(Band(0.0, 2.0), Fraction(1), 0.5, window=200.0)


def test_criterion_2_kernel_identities(kernel_spec):
    phi0_err = abs(interpolation_kernel(0.0, kernel_spec) - 1.0)
    ks = np.arange(1, 51, dtype=float)
    nodes = np.concatenate([ks, -ks]) / kernel_spec.rho_float
    node_max = float(np.abs(interpolation_kernel(nodes, kernel_spec)).max())
    bump_ok = all(
        abs(bump_transform(1j * y, kernel_spec)) <= math.exp(math.pi * kernel_spec.tau * y)
        for y in (1.0, 5.0, 10.0))
    passed = phi0_err < 1e-9 and node_max == 0.0 and bump_ok
    report(2, passed,
           f"|phi(0)-1| = {phi0_err:.2e} < 1e-9, max node |phi| = {node_max}, "
           f"bump growth bound violations: {0 if bump_ok else 1}")


def test_criterion_3_imaginary_axis_bound():
    """|f(iy)| <= e^(pi rho |y|) for the truncated product and the closed form."""
    lat = Lattice(Fraction(1), 2)
    y = np.linspace(-20.0, 20.0, 801)
    bound = np.exp(np.pi * lat.rho_float * np.abs(y))
    vals = {"product": np.abs(product_function(1j * y, lat, 100_000)),
            "sinc": np.abs(sinc_product(1j * y, lat.rho_float))}
    passed = all(bool(np.all(v <= bound)) for v in vals.values())
    report(3, passed, "|f(iy)| <= e^(pi rho |y|) on [-20,20], min margin "
           + ", ".join(f"{name} {(bound - v).min():.3g}" for name, v in vals.items()))


def test_criterion_4_band_confinement(kernel_spec):
    leak = kernel_band_leakage(kernel_spec)  # pad 8/W, W = 200
    passed = leak < 1e-3
    report(4, passed, f"kernel spectral leakage {leak:.3e} < 1e-3")


def test_criterion_5_periodic_subspace_dimension():
    mismatches = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for a, r in ((1.0, 2.5), (1.0, 0.5), (2.0, 3.0)):
            dim, cert = periodic_subspace_dim(a, r)
            mismatches += dim != cert.rank
        rng = np.random.default_rng(55)
        done = 0
        while done < 20:
            a = float(rng.uniform(0.3, 3.0))
            r = float(rng.uniform(0.3, 4.0))
            if abs(a * r - round(a * r)) < 1e-6:
                continue
            dim, cert = periodic_subspace_dim(a, r)
            mismatches += dim != cert.rank
            done += 1
    report(5, mismatches == 0,
           f"formula vs SVD rank mismatches: {mismatches} over 3 named + 20 random draws")


def test_criterion_6_mean_dimension_table():
    bad = []
    for D in (1, 2):
        sys = cube_shift_system(D, 4)
        table = mdim_table(sys, [0.3], [1, 2, 3, 4])
        for N in (1, 2, 3, 4):
            if table.value(0.3, N) != pytest.approx(D):
                bad.append((D, N, table.value(0.3, N)))
    btable = mdim_table(binary_shift_system(), [0.1], [1, 2, 3, 4])
    binary_bad = [row for row in btable.rows if row[2] != 0.0]
    passed = not bad and not binary_bad
    report(6, passed,
           f"cube-shift entries equal D for D in (1,2), N in 1..4 "
           f"(violations: {bad}); binary-shift entries all 0 "
           f"(violations: {binary_bad})")


def test_criterion_7_widim_property_suite():
    rng = np.random.default_rng(77)
    violations = 0
    for _ in range(100):
        kind = rng.integers(0, 3)
        if kind == 0:
            sys = rotation_system(int(rng.integers(8, 41)))
            lo, hi = sorted(rng.uniform(2.5, 1.2 * sys.base.diameter(), size=2))
        elif kind == 1:
            D = int(rng.integers(1, 3))
            N_len = int(rng.integers(1, 4)) if D == 1 else 1
            sys = cube_shift_system(D, N_len, dense=False)
            lo, hi = sorted(rng.uniform(0.22, 0.39, size=2))
        else:
            sys = torus_rotation(int(rng.integers(4, 6)), int(rng.integers(6, 9)))
            lo, hi = sorted(rng.uniform(2.5, 1.2 * sys.base.diameter(), size=2))
        assert len(sys.base) <= 40
        N, M = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        d_n = orbit_metric_Z(sys, N)
        d_m = orbit_metric_Z(sys, M)
        d_nm = orbit_metric_Z(sys, N + M)
        if widim_upper(d_n, lo) < widim_upper(d_n, hi):
            violations += 1
        if widim_upper(d_nm, hi) > widim_upper(d_n, hi) + widim_upper(d_m, hi):
            violations += 1
        r0 = int(rng.integers(1, 6))
        if widim_upper(_window_shifted(sys, r0, N), hi) != widim_upper(d_n, hi):
            violations += 1
    report(7, violations == 0,
           f"antitonicity/subadditivity/shift-invariance violations: {violations} "
           f"over 100 randomized systems (<= 40 points)")


def test_criterion_8_solenoid_round_trip():
    T = 2e4
    emb = SolenoidEmbedding(c=1.0, K=4, window=T + 60.0)
    rng = np.random.default_rng(88)
    worst_rel = 0.0
    for _ in range(20):
        p = solenoid_from_time(float(rng.uniform(0.0, 24.0)), 4)
        sig = solenoid_embed(p, emb)
        rec = solenoid_recover(sig, emb, T)
        for n in range(1, 5):
            fact = math.factorial(n)
            gap = abs(rec.coords[n - 1] - p.coords[n - 1]) % fact
            gap = min(gap, fact - gap)
            worst_rel = max(worst_rel, gap / fact)
    emb_small = SolenoidEmbedding(c=1.0, K=4, window=20.0)
    equiv = 0.0
    for _ in range(20):
        p = solenoid_from_time(float(rng.uniform(0.0, 24.0)), 4)
        r = float(rng.uniform(-5.0, 5.0))
        moved = solenoid_embed(solenoid_act(p, r), emb_small)
        shifted = shift(solenoid_embed(p, emb_small), r)
        equiv = max(equiv, float(np.abs(
            moved.evaluate(shifted.times()) - shifted.values).max()))
    passed = worst_rel <= 1e-2 and equiv < 1e-9
    report(8, passed,
           f"worst coordinate error {worst_rel:.2e} of n! (<= 1e-2), "
           f"equivariance residual {equiv:.2e} < 1e-9")


def test_criterion_9_embedding_pipeline():
    result = run_embedding_pipeline(delta=0.2, rho=Fraction(1), N=2,
                                    base_size=12, n_heights=10, seed=2024)
    n_states = len(result.instance.flow.values)
    checks = {
        "states <= 200": n_states <= 200,
        "delta' certified": result.run.constants.check(),
        "search succeeded": result.search_report.tries >= 1,
        "sup|g-f| < delta": result.sup_change < 0.2,
        "node residual < 1e-8": result.node_residual < 1e-8,
        "equivariance residual < 1e-6": result.equivariance_residual < 1e-6,
        "delta-embedding verified": result.verdict.passed,
    }
    passed = all(checks.values())
    report(9, passed,
           f"|X| = {n_states}, eps = {result.eps:.3g}, "
           f"delta' = {result.run.delta_prime:.3g}, "
           f"sup|g-f| = {result.sup_change:.3g}, "
           f"node residual = {result.node_residual:.2e}, "
           f"equivariance residual = {result.equivariance_residual:.2e}, "
           f"failed: {[k for k, v in checks.items() if not v]}")


def test_criterion_10_metric_space_contracts():
    rng = np.random.default_rng(99)
    # Signal metric on random band-limited sums over one shared grid.
    band = Band(0.0, 1.0)
    signals = []
    for _ in range(12):
        coeffs = rng.uniform(-0.4, 0.4, 3) + 1j * rng.uniform(-0.4, 0.4, 3)
        freqs = rng.uniform(0.05, 0.9, 3)
        signals.append(Signal.from_function(
            lambda t, c=coeffs, fr=freqs: np.exp(2j * np.pi * np.outer(t, fr)) @ c,
            band, 10.0, 1 / 8))
    sig_violations = 0
    for _ in range(1000):
        i, j, k = rng.integers(0, len(signals), 3)
        dij = signal_metric(signals[i], signals[j], 6)
        dji = signal_metric(signals[j], signals[i], 6)
        dik = signal_metric(signals[i], signals[k], 6)
        dkj = signal_metric(signals[k], signals[j], 6)
        if abs(dij - dji) > 1e-9 or dij > dik + dkj + 1e-9:
            sig_violations += 1

    # Bowen-Walters distances on a shared height grid.
    sys = rotation_system(12)
    roof = RoofFunction.constant(1.0, 12)
    bw = BowenWaltersMetric(sys, roof, height_grid=8)
    pts = [canonical(SuspensionPoint(int(rng.integers(12)), int(rng.integers(0, 9)) / 8.0),
                     sys, roof) for _ in range(25)]
    mat = bw.matrix(pts)
    bw_violations = 0
    for _ in range(1000):
        i, j, k = rng.integers(0, len(pts), 3)
        if abs(mat[i, j] - mat[j, i]) > 1e-9 or mat[i, j] > mat[i, k] + mat[k, j] + 1e-9:
            bw_violations += 1

    # Greedy spanning vs exact optimum on 200 small instances.
    guarantee_violations = 0
    for _ in range(200):
        n = int(rng.integers(2, 14))
        pts_arr = rng.uniform(0.0, 1.0, size=(n, 2))
        dist = np.abs(pts_arr[:, None, :] - pts_arr[None, :, :]).max(axis=2)
        sample = MetricSample(list(range(n)), dist)
        eps = float(rng.uniform(0.1, 0.9))
        greedy = spanning_number(sample, eps)
        exact = spanning_number_exact(sample, eps)
        if greedy > (1.0 + math.log(n)) * exact:
            guarantee_violations += 1
    passed = sig_violations == 0 and bw_violations == 0 and guarantee_violations == 0
    report(10, passed,
           f"signal-metric violations {sig_violations}/1000, "
           f"Bowen-Walters violations {bw_violations}/1000, "
           f"greedy-vs-optimum guarantee violations {guarantee_violations}/200")
