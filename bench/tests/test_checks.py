"""Each correctness check accepts a real output and rejects a corrupted one.

Program outputs are made at a tiny size (seconds in total); the kernel
and pipeline checks use the artifacts of one README-example run, since
the kernel certification has no small configuration.
"""

import copy
import json
import math

import numpy as np
import pytest

import checks
import params as P
from flowdim import cli, instances, io, mapping_torus, orbit_metric_R, widim_upper
from flowdim.metric import OrbitMetricSpec

# kernel-report and embed-pipeline at the README example (delta 0.2, seed 2024).
REPORT = {"K_dec": 1.0999999999999888, "S_sup": 3.468683248298898,
          "budget_ok": True, "delta_prime": 0.051892890504855155,
          "leakage": 2.5368126262798634e-30, "phi0_error": 9.658940314238862e-15,
          "reverified": True}
PIPELINE = {"constants": {"K_dec": 1.0999999999999888, "S_sup": 3.468683248298898},
            "delta": 0.2, "delta_prime": 0.051892890504855155,
            "eps": 0.09000000000000008, "equivariance_residual": 7.764873165971492e-14,
            "matched_pairs": 0, "min_image_separation": 0.03628937436131987,
            "n_pairs": 7140, "node_residual": 6.062306340310545e-15, "pass": True,
            "search_tries": 2, "seed": 2024, "sup_change": 0.02854194892185514,
            "verdict_passed": True, "worst_pair": None}


def consistent_report(K_dec, S_rel=1e-8, budget=0.9):
    S = checks.lattice_sum_closed_form(K_dec) * (1.0 + S_rel)
    return {"K_dec": K_dec, "S_sup": S, "delta_prime": budget * P.DELTA / S}


def test_kernel_report_passes():
    assert checks.check_kernel_report(REPORT) == []


@pytest.mark.parametrize("report, message", [
    (consistent_report(1.1, S_rel=-1e-9), "below the closed form"),
    (consistent_report(1.1, S_rel=1e-4), "exceeds the closed form"),
    (consistent_report(0.99), "K_dec"),
    (consistent_report(1.1, budget=1.01), "delta'"),
])
def test_kernel_report_rejects(report, message):
    fails = checks.check_kernel_report(report)
    assert len(fails) == 1 and message in fails[0]


def test_pipeline_passes():
    assert checks.check_pipeline(PIPELINE, REPORT) == []


@pytest.mark.parametrize("path, value", [
    (("constants", "K_dec"), math.nextafter(REPORT["K_dec"], 2.0)),
    (("constants", "S_sup"), 3.4686),
    (("n_pairs",), 7139),
    (("sup_change",), 0.2),
    (("node_residual",), 1e-7),
    (("equivariance_residual",), 1e-5),
    (("delta_prime",), 0.06),
])
def test_pipeline_rejects(path, value):
    bad = copy.deepcopy(PIPELINE)
    target = bad
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    assert checks.check_pipeline(bad, REPORT)


@pytest.fixture(scope="module")
def solenoid_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("solenoid")
    assert cli.main(["--out", str(out), "solenoid-demo", "--depth", "3", "--T", "400",
                     "--n-points", "2", "--seed", "3"]) == 0
    return checks.read_rows(checks.artifact(out, "solenoid-demo", ".csv"))


def check_small_solenoid(rows):
    return checks.check_solenoid(rows, depth=3, T=400.0, n_points=2)


def test_solenoid_passes(solenoid_rows):
    assert check_small_solenoid(solenoid_rows) == []


def test_solenoid_rejects_error_above_bound(solenoid_rows):
    rows = copy.deepcopy(solenoid_rows)
    rows[2][2] = 1.01 * checks.solenoid_error_bound(int(rows[2][1]), 3, 400.0)
    assert any("above bound" in f for f in check_small_solenoid(rows))


def test_solenoid_rejects_understated_error(solenoid_rows):
    rows = copy.deepcopy(solenoid_rows)
    worst = max(range(len(rows)), key=lambda k: rows[k][2])
    rows[worst][2] = 0.0
    assert any("disagrees" in f for f in check_small_solenoid(rows))


def test_solenoid_rejects_missing_row(solenoid_rows):
    assert check_small_solenoid(solenoid_rows[:-1])


SMALL_SYSTEM = {"points": [[0.1, 0.2], [0.7, 0.4], [0.3, 0.9], [0.8, 0.8], [0.5, 0.1]],
                "metric": "sup", "step": [2, 0, 4, 1, 3],
                "roof": [0.6, 1.2, 0.9, 1.4, 0.7]}


@pytest.fixture(scope="module")
def bw_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("bw")
    system = out / "system.json"
    system.write_text(json.dumps(SMALL_SYSTEM))
    assert cli.main(["--out", str(out), "bw-metric", "--system", str(system),
                     "--height-grid", "4"]) == 0
    return checks.read_rows(checks.artifact(out, "bw-metric", ".csv"))


def set_entry(rows, i, j, value, symmetric=True):
    rows = copy.deepcopy(rows)
    for row in rows:
        if (row[0], row[1]) == (i, j) or (symmetric and (row[0], row[1]) == (j, i)):
            row[2] = value
    return rows


def test_bw_passes(bw_rows):
    assert checks.check_bw_table(bw_rows, SMALL_SYSTEM, 4) == []


def test_bw_rejects_entry_above_one_segment(bw_rows):
    _, d = checks.bw_reference(SMALL_SYSTEM, 4)
    rows = set_entry(bw_rows, 0, 1, d[0, 1] + 0.01)
    assert any("above d(x, y)" in f for f in checks.check_bw_table(rows, SMALL_SYSTEM, 4))


def test_bw_rejects_entry_below_chain_infimum(bw_rows):
    rows = set_entry(bw_rows, 0, 3, 1e-3)
    assert any("below the chain" in f for f in checks.check_bw_table(rows, SMALL_SYSTEM, 4))


def test_bw_rejects_asymmetry_and_diagonal(bw_rows):
    value = next(r[2] for r in bw_rows if (r[0], r[1]) == (1, 2))
    rows = set_entry(bw_rows, 1, 2, value * (1 - 1e-6), symmetric=False)
    assert any("symmetric" in f for f in checks.check_bw_table(rows, SMALL_SYSTEM, 4))
    rows = set_entry(bw_rows, 2, 2, 1e-12)
    assert any("diagonal" in f for f in checks.check_bw_table(rows, SMALL_SYSTEM, 4))


@pytest.fixture(scope="module")
def torus_rows():
    flow = mapping_torus(instances.rotation_system(12), height_grid=16)
    window = orbit_metric_R(flow, OrbitMetricSpec("R-window", 2.0, 1.0 / 16.0))
    rows = [[i, j, window.dist[i, j]] for i in range(12) for j in range(12)]
    return rows, [[P.TORUS_EPS, float(widim_upper(window, P.TORUS_EPS))]]


def test_torus_passes(torus_rows):
    assert checks.check_torus(*torus_rows, n=12) == []


def test_torus_rejects_corruption(torus_rows):
    window, widim = torus_rows
    assert checks.check_torus(set_entry(window, 3, 7, 3.5), widim, n=12)
    assert checks.check_torus(window, [[P.TORUS_EPS, 2.0]], n=12)


def test_round_reads_written_artifacts(tmp_path):
    """check_round finds the torus tables that write_table_csv produced."""
    out = tmp_path / "out"
    out.mkdir()
    n = P.TORUS_STATES
    idx = np.arange(n)
    arc = np.minimum(np.abs(idx[:, None] - idx), n - np.abs(idx[:, None] - idx))
    io.write_table_csv(out / "torus-window.csv",
                       ((i, j, float(arc[i, j])) for i in range(n) for j in range(n)))
    io.write_table_csv(out / "torus-widim.csv", [(P.TORUS_EPS, 1)])
    assert checks.check_round("suspension_metrics", tmp_path,
                              ["torus-window", "widim-upper"]) == []
    io.write_table_csv(out / "torus-widim.csv", [(P.TORUS_EPS, 0)])
    assert checks.check_round("suspension_metrics", tmp_path,
                              ["torus-window", "widim-upper"])
