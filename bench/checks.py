"""Correctness checks on a round's artifacts, computed apart from flowdim.

Every check recomputes what it compares against from the workload
parameters (closed forms, scipy quadrature, scipy shortest paths) or tests
a property the method must have; none compares with stored output.  Each
``check_*`` function takes parsed artifacts and returns a list of failure
messages, empty when the output passes.  ``check_round`` reads a round's
artifacts and runs the checks of the operations that succeeded.
"""

import csv
import json
import math
import re
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.integrate import quad
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

import params as P

# S_sup must sit above the closed form and within this relative distance.
S_SUP_REL_TOL = 1e-6
# Grid on which K_dec must bound |phi(t)| (1 + t^2); phi is even in t.
ENVELOPE_GRID = 0.0125 + 0.025 * np.arange(1600)
NODE_RESIDUAL_TOL = 1e-8
EQUIVARIANCE_TOL = 1e-6
# The program's trapezoid Bohr mean differs from the exact mean by ~1e-4
# of the error bound; allow 1e-3 of it.
SOLENOID_AGREEMENT = 1e-3
TABLE_TOL = 1e-9


def artifact(out_dir, subcommand, suffix):
    """The single ``<subcommand>-<confighash><suffix>`` file in out_dir."""
    pattern = re.compile(rf"{re.escape(subcommand)}-[0-9a-f]{{12}}{re.escape(suffix)}")
    hits = [p for p in Path(out_dir).iterdir() if pattern.fullmatch(p.name)]
    if len(hits) != 1:
        raise FileNotFoundError(f"{len(hits)} {subcommand}*{suffix} artifacts in {out_dir}")
    return hits[0]


def read_rows(path):
    with open(path, newline="") as fh:
        return [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]


# --- certified_pipeline -------------------------------------------------

@lru_cache(maxsize=None)
def kernel_envelope_max():
    """max of |phi(t)| (1 + t^2) on ENVELOPE_GRID, phi rebuilt from scratch.

    |phi(t)| = |h(t)| |sinc(rho t)|, with h the transform of the normalized
    bump exp(-1/(1 - u^2)) on (-tau/2, tau/2) by scipy's QAWO quadrature.
    """
    half = P.TAU / 2.0

    def bump(x):
        u = x / half
        return math.exp(-1.0 / (1.0 - u * u)) if abs(u) < 1.0 else 0.0

    norm = quad(bump, -half, half)[0]
    best = 0.0
    for t in ENVELOPE_GRID:
        h = quad(bump, -half, half, weight="cos", wvar=2.0 * math.pi * t)[0] / norm
        best = max(best, abs(h * np.sinc(P.RHO * t)) * (1.0 + t * t))
    return best


def lattice_sum_closed_form(K_dec):
    """sup_t sum_k K/(1 + (t - k/rho)^2) = K pi rho coth(pi rho)."""
    x = math.pi * P.RHO
    return K_dec * x / math.tanh(x)


def check_kernel_report(report):
    fails = []
    K, S, dp = report["K_dec"], report["S_sup"], report["delta_prime"]
    closed = lattice_sum_closed_form(K)
    if not S >= closed * (1.0 - 1e-12):
        fails.append(f"S_sup {S!r} below the closed form {closed!r}")
    if not (S - closed) / closed <= S_SUP_REL_TOL:
        fails.append(f"S_sup {S!r} exceeds the closed form {closed!r} by more "
                     f"than {S_SUP_REL_TOL:g} relative")
    envelope = kernel_envelope_max()
    if not envelope <= K:
        fails.append(f"K_dec {K!r} below max |phi|(1+t^2) = {envelope!r}")
    if not dp * S < P.DELTA:
        fails.append(f"delta' * S_sup = {dp * S!r} is not below delta {P.DELTA}")
    return fails


def check_pipeline(pipeline, report):
    fails = []
    for key in ("K_dec", "S_sup"):
        if pipeline["constants"][key] != report[key]:
            fails.append(f"pipeline {key} {pipeline['constants'][key]!r} differs from "
                         f"kernel-report's {report[key]!r}")
    n = P.BASE_SIZE * P.N_HEIGHTS
    if pipeline["n_pairs"] != n * (n - 1) // 2:
        fails.append(f"n_pairs {pipeline['n_pairs']} is not C({n}, 2)")
    if not pipeline["delta_prime"] * pipeline["constants"]["S_sup"] < P.DELTA:
        fails.append("pipeline delta' * S_sup is not below delta")
    if not pipeline["sup_change"] < P.DELTA:
        fails.append(f"sup|g - f| = {pipeline['sup_change']!r} is not below delta")
    if not pipeline["node_residual"] < NODE_RESIDUAL_TOL:
        fails.append(f"node residual {pipeline['node_residual']!r} too large")
    if not pipeline["equivariance_residual"] < EQUIVARIANCE_TOL:
        fails.append(f"equivariance residual {pipeline['equivariance_residual']!r} too large")
    return fails


# --- solenoid_roundtrip -------------------------------------------------

def _solenoid_terms(depth):
    facts = np.array([math.factorial(n) for n in range(1, depth + 1)], dtype=float)
    return facts, 2.0 * np.pi / facts, 2.0 ** -np.arange(1, depth + 1)


def solenoid_error_bound(n, depth, T):
    """n!/(2 pi) asin(sum_{k != n} |a_k| 2/(T |lam_k - lam_n|) / |a_n|)."""
    facts, lam, moduli = _solenoid_terms(depth)
    others = np.arange(depth) != n - 1
    ratio = (moduli[others] * 2.0 / (T * np.abs(lam[others] - lam[n - 1]))).sum()
    return facts[n - 1] / (2.0 * math.pi) * math.asin(ratio / moduli[n - 1])


def solenoid_reference_error(tau, n, depth, T):
    """Circle error of coordinate n recovered by the exact Bohr mean over [0, T]."""
    facts, lam, moduli = _solenoid_terms(depth)
    coeffs = moduli * np.exp(1j * lam * (tau % facts))
    gaps = lam - lam[n - 1]
    others = np.arange(depth) != n - 1
    g = gaps[others]
    mean = coeffs[n - 1] + (coeffs[others] * np.expm1(1j * g * T) / (1j * g * T)).sum()
    fact = facts[n - 1]
    gap = abs(fact / (2.0 * math.pi) * np.angle(mean) % fact - tau % fact) % fact
    return min(gap, fact - gap)


def check_solenoid(rows, depth=P.SOLENOID_DEPTH, T=P.SOLENOID_T,
                   n_points=P.SOLENOID_POINTS):
    fails = []
    taus = sorted({row[0] for row in rows})
    if len(taus) != n_points or len(rows) != n_points * depth:
        fails.append(f"{len(rows)} rows for {len(taus)} points; expected "
                     f"{n_points} points x {depth} coordinates")
    for tau in taus:
        if sorted(int(n) for t, n, _ in rows if t == tau) != list(range(1, depth + 1)):
            fails.append(f"tau {tau!r} does not list coordinates 1..{depth} once each")
        if not 0.0 <= tau < math.factorial(depth):
            fails.append(f"tau {tau!r} outside [0, {depth}!)")
    for tau, n, err in rows:
        n = int(n)
        bound = solenoid_error_bound(n, depth, T)
        if not err <= bound:
            fails.append(f"tau {tau!r} coordinate {n}: error {err!r} above bound {bound!r}")
        reference = solenoid_reference_error(tau, n, depth, T)
        if not abs(err - reference) <= SOLENOID_AGREEMENT * bound:
            fails.append(f"tau {tau!r} coordinate {n}: error {err!r} disagrees with "
                         f"the exact Bohr mean's {reference!r}")
    return fails


# --- suspension_metrics -------------------------------------------------

def bw_reference(system, height_grid):
    """(unbounded-chain distances, one-segment costs) between height-0 points.

    The level graph has nodes (state, j) for j < height_grid; level
    height_grid of x is the node (Tx, 0).  Horizontal edges at height t
    cost (1 - t) d(x, y) + t d(Tx, Ty), vertical edges cost the height step.
    """
    pts = np.asarray(system["points"], dtype=float)
    step = np.asarray(system["step"])
    n = len(pts)
    d = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2)
    iu, ju = np.triu_indices(n, k=1)
    rows, cols, costs = [], [], []
    for j in range(height_grid):
        t = j / height_grid
        rows.append(iu * height_grid + j)
        cols.append(ju * height_grid + j)
        costs.append((1.0 - t) * d[iu, ju] + t * d[step[iu], step[ju]])
    states = np.arange(n)
    for j in range(height_grid - 1):
        rows.append(states * height_grid + j)
        cols.append(states * height_grid + j + 1)
        costs.append(np.full(n, 1.0 / height_grid))
    rows.append(states * height_grid + height_grid - 1)
    cols.append(step * height_grid)
    costs.append(np.full(n, 1.0 / height_grid))
    size = n * height_grid
    graph = coo_matrix((np.concatenate(costs), (np.concatenate(rows), np.concatenate(cols))),
                       shape=(size, size)).tocsr()
    sources = states * height_grid
    return dijkstra(graph, directed=False, indices=sources)[:, sources], d


def _square(rows, n):
    table = np.full((n, n), np.nan)
    for i, j, v in rows:
        table[int(i), int(j)] = v
    return table


def check_bw_table(rows, system, height_grid=P.BW_HEIGHT_GRID):
    n = len(system["points"])
    if len(rows) != n * n:
        return [f"{len(rows)} bw-metric entries for {n} states"]
    table = _square(rows, n)
    if np.isnan(table).any():
        return ["bw-metric table misses pairs"]
    fails = []
    lower, one_segment = bw_reference(system, height_grid)
    below = np.argwhere(table < lower - TABLE_TOL)
    above = np.argwhere(table > one_segment + TABLE_TOL)
    for i, j in below[:3]:
        fails.append(f"bw({i},{j}) = {table[i, j]!r} below the chain infimum {lower[i, j]!r}")
    for i, j in above[:3]:
        fails.append(f"bw({i},{j}) = {table[i, j]!r} above d(x, y) = {one_segment[i, j]!r}")
    if np.abs(table - table.T).max() > TABLE_TOL:
        fails.append("bw-metric table is not symmetric")
    if np.any(np.diag(table) != 0.0):
        fails.append("bw-metric table has a nonzero diagonal")
    return fails


def check_torus(window_rows, widim_rows, n=P.TORUS_STATES):
    """The rotation flow is isometric, so its window metric is the time-0
    Bowen-Walters distance: the arc distance on the n-cycle.  At eps = 3 the
    eps/2-balls are arcs of three states that overlap in pairs only, so the
    width estimate is floor(log2 2) = 1."""
    fails = []
    if len(window_rows) != n * n:
        return [f"{len(window_rows)} torus window entries for {n} states"]
    table = _square(window_rows, n)
    idx = np.arange(n)
    gaps = np.abs(idx[:, None] - idx[None, :])
    arc = np.minimum(gaps, n - gaps)
    if not np.abs(table - arc).max() <= TABLE_TOL:
        fails.append("torus window metric differs from the time-0 arc distance")
    if widim_rows != [[P.TORUS_EPS, 1.0]]:
        fails.append(f"widim_upper rows {widim_rows!r}; expected [[{P.TORUS_EPS}, 1]]")
    return fails


# --- one round ----------------------------------------------------------

def check_round(workload, round_dir, ok_ops):
    """Failure messages for the artifacts of the operations in ok_ops."""
    out = Path(round_dir) / "out"
    if workload == "certified_pipeline":
        fails = []
        if "kernel-report" in ok_ops:
            report = json.loads(artifact(out, "kernel-report", ".json").read_text())
            fails += check_kernel_report(report)
            if "embed-pipeline" in ok_ops:
                pipeline = json.loads(artifact(out, "embed-pipeline", ".json").read_text())
                fails += check_pipeline(pipeline, report)
        return fails
    if workload == "solenoid_roundtrip":
        if "solenoid-demo" not in ok_ops:
            return []
        return check_solenoid(read_rows(artifact(out, "solenoid-demo", ".csv")))
    if workload == "suspension_metrics":
        fails = []
        if "bw-metric" in ok_ops:
            system = json.loads((Path(round_dir) / "in" / "system.json").read_text())
            fails += check_bw_table(read_rows(artifact(out, "bw-metric", ".csv")), system)
        if {"torus-window", "widim-upper"} <= set(ok_ops):
            fails += check_torus(read_rows(out / "torus-window.csv"),
                                 read_rows(out / "torus-widim.csv"))
        return fails
    raise ValueError(f"unknown workload {workload!r}")
