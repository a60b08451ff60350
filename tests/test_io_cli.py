import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from itertools import cycle, islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

import flowdim.instances
from flowdim import cli
from flowdim.cli import main
from flowdim.dynamics import BowenWaltersMetric, RoofFunction, SuspensionPoint, suspend
from flowdim.errors import ConfigurationError, InvariantViolationError
from flowdim.instances import cube_shift_system
from flowdim.io import (
    CSV_CHUNK,
    _fmt,
    load_sample,
    load_sample_json,
    load_system,
    write_table_csv,
)
from flowdim.metric import metric_mdim_table, widim_upper
from flowdim.embedding import _ExpSums, solenoid_embed
from oracles import (
    level_graph,
    sample_distance,
    solenoid_coordinate_bound,
    solenoid_exact_mean_error,
    write_table_csv_rowwise,
)


class TestSampleIO:
    def test_euclidean_points(self):
        sample = load_sample({"points": [[0, 0], [1, 0], [0, 1]],
                              "metric": "euclidean"})
        assert sample_distance(sample, (0, 0), (1, 0)) == pytest.approx(1.0)

    def test_sup_points(self):
        sample = load_sample({"points": [[0, 0], [0.3, 0.1]], "metric": "sup"})
        assert sample_distance(sample, (0, 0), (0.3, 0.1)) == pytest.approx(0.3)

    def test_circle_points(self):
        sample = load_sample({"points": [0.0, 0.9], "metric": "circle",
                              "period": 1.0})
        assert sample.dist[0, 1] == pytest.approx(0.1)

    def test_matrix_form(self):
        sample = load_sample({"ids": ["p", "q"],
                              "matrix": [[0.0, 2.0], [2.0, 0.0]]})
        assert sample_distance(sample, "p", "q") == 2.0

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "sample.json"
        path.write_text(json.dumps({"points": [[0], [0.5], [1.0]],
                                    "metric": "euclidean"}))
        sample = load_sample_json(path)
        assert len(sample) == 3
        assert widim_upper(sample, 0.4) >= 0


class TestSystemIO:
    def test_manifest_with_roof(self):
        sys, roof = load_system({
            "points": [0.0, 0.25, 0.5, 0.75], "metric": "circle", "period": 1.0,
            "step": [1, 2, 3, 0], "roof": [1.0, 1.0, 2.0, 1.0]})
        assert roof.values.min() == 1.0
        [out] = suspend(sys, roof, [SuspensionPoint(0, 0.0)], 1.0)
        assert out.state == 1


def _numpy_ints(kind):
    info = np.iinfo(kind)
    return st.integers(int(info.min), int(info.max)).map(kind)


# The value kinds a table column may hold; "int|float" and "any" mix kinds
# within one column.
CELLS = {
    "int": st.integers(-2 ** 70, 2 ** 70),
    "np-int": st.one_of(*map(_numpy_ints, (np.int8, np.int32, np.int64, np.uint64))),
    "float": st.floats(),
    "np-float64": st.floats().map(np.float64),
    "bool": st.booleans(),
    "numeric-str": st.one_of(st.integers().map(str), st.floats().map(repr)),
}
CELLS["int|float"] = st.one_of(CELLS["int"], CELLS["float"])
CELLS["any"] = st.one_of(*CELLS.values())


@st.composite
def csv_tables(draw):
    """Rows of one width in 0-4, in runs whose column kinds change from run to run.

    A run cycles through a few drawn rows for up to a little over a chunk,
    so longer tables span several chunks, and a column can change kind
    at a chunk boundary or within a chunk.
    """
    width = draw(st.integers(0, 4))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=width, max_size=width))
        cells = st.tuples(*(CELLS[k] for k in kinds))
        run = draw(st.lists(cells.map(draw(st.sampled_from([tuple, list]))),
                            min_size=1, max_size=4))
        size = draw(st.sampled_from([1, 3, CSV_CHUNK // 3, CSV_CHUNK, CSV_CHUNK + 1]))
        rows += islice(cycle(run), size)
    return rows


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


class TestCsvDeterminism:
    def test_reruns_are_byte_identical(self, tmp_path):
        rows = [(0.1, 1, 1 / 3), (0.2, 2, np.pi)]
        p1 = write_table_csv(tmp_path / "a.csv", rows)
        p2 = write_table_csv(tmp_path / "b.csv", rows)
        assert p1.read_bytes() == p2.read_bytes()


class TestCsvTable:
    @settings(max_examples=150)
    @given(rows=csv_tables(), lazy=st.booleans(),
           header=st.lists(st.sampled_from(["eps", "N", 'a "b"', "c,d", ""]), max_size=4))
    def test_bytes_are_the_row_by_row_writer_s(self, csv_dir, rows, lazy, header):
        got = write_table_csv(csv_dir / "got.csv", (r for r in rows) if lazy else rows, header)
        want = write_table_csv_rowwise(csv_dir / "want.csv", rows, header)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("bad", [1, CSV_CHUNK, CSV_CHUNK + 7])
    def test_rows_of_unequal_width_raise(self, tmp_path, bad):
        rows = [(i, 0.5) for i in range(CSV_CHUNK + 10)]
        rows[bad] = (bad, 0.5, 1.0)
        with pytest.raises(InvariantViolationError, match=f"row {bad} has 3 fields"):
            write_table_csv(tmp_path / "t.csv", (r for r in rows))

    @pytest.mark.parametrize("earlier", [None, b"epsilon,N,value\r\n0.5,1,2\r\n"],
                             ids=["no-file", "earlier-file"])
    def test_failed_write_leaves_the_path_as_it_was(self, tmp_path, earlier):
        path = tmp_path / "kernel-report-0123456789ab.csv"
        if earlier is not None:
            path.write_bytes(earlier)
        rows = [(i, 0.5, 1.0) for i in range(600)]
        rows[300] = (300, 0.5)
        with pytest.raises(InvariantViolationError, match="row 300 has 2 fields"):
            write_table_csv(path, (r for r in rows))
        assert [p.name for p in tmp_path.iterdir()] == ([] if earlier is None else [path.name])
        if earlier is not None:
            assert path.read_bytes() == earlier

    def test_row_width_need_not_be_the_header_s(self, tmp_path):
        path = write_table_csv(tmp_path / "t.csv", [(0.5, 1), (0.25, 2)])
        assert path.read_bytes() == b"epsilon,N,value\r\n0.5,1\r\n0.25,2\r\n"


def test_readme_examples_write_the_row_by_row_writer_s_bytes(tmp_path, monkeypatch):
    """Each CSV-writing subcommand at its README example writes the reference bytes."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n\n```\n(.*?)```", readme, re.S).group(1)
    examples = {line.split()[3]: shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("flowdim ")}
    (tmp_path / "sample.json").write_text(json.dumps(
        {"points": [[0, 0], [1, 0], [0.3, 0.1], [0.5, 0.9], [0.2, 0.2]], "metric": "euclidean"}))
    (tmp_path / "system.json").write_text(json.dumps(
        {"points": [0, 1, 2, 3, 4, 5], "metric": "circle", "period": 6,
         "step": [1, 2, 3, 4, 5, 0]}))
    calls = []

    def spy(path, rows, header=("epsilon", "N", "value")):
        rows = list(rows)
        calls.append((path, rows, header))
        return write_table_csv(path, iter(rows), header)

    monkeypatch.setattr(cli, "write_table_csv", spy)
    monkeypatch.chdir(tmp_path)
    for sub in ["kernel-report", "solenoid-demo", "widim-sweep", "mdim-table", "bw-metric"]:
        argv = [str(tmp_path / "out") if a == "artifacts" else a for a in examples[sub]]
        assert main(argv) == 0
        path, rows, header = calls.pop()
        assert path.name.startswith(sub) and not calls
        want = write_table_csv_rowwise(tmp_path / "want.csv", rows, header)
        assert path.read_bytes() == want.read_bytes()
        assert len(rows) > 1


def test_readme_solenoid_demo_errors_are_the_exact_means(tmp_path, monkeypatch):
    """solenoid-demo at its README example: each CSV row's error is within the
    cross-term bound, and it is the error of the exact Bohr mean over [0, T]
    at the drawn time tau, though each signal holds only the half window."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    line = re.search(r"^flowdim .* solenoid-demo .*$", readme, re.M).group(0)
    argv = [str(tmp_path) if a == "artifacts" else a for a in shlex.split(line)[1:]]
    opts = dict(zip(argv[3::2], argv[4::2]))
    depth, T = int(opts["--depth"]), float(opts["--T"])
    n_points = int(opts.get("--n-points", 5))
    signals = []

    def embed(*args):
        sig = solenoid_embed(*args)
        signals.append(sig)
        return sig

    def no_values(sums):
        raise AssertionError("an exponential-sum signal was evaluated")

    monkeypatch.setattr(cli, "solenoid_embed", embed)
    # The Bohr means are taken in closed form: no signal is evaluated.
    monkeypatch.setattr(_ExpSums, "values", no_values)
    assert main(argv) == 0
    assert [len(sig) for sig in signals] == [2_010_001] * n_points
    [table] = tmp_path.glob("solenoid-demo-*.csv")
    rows = [(float(tau), int(n), float(err))
            for tau, n, err in csv.reader(table.read_text().splitlines()[1:])]
    assert [n for _, n, _ in rows] == list(range(1, depth + 1)) * n_points
    for tau, n, err in rows:
        bound = solenoid_coordinate_bound(n, depth, T)
        assert err <= bound
        assert abs(err - solenoid_exact_mean_error(tau, n, depth, T)) <= 1e-3 * bound


@pytest.mark.parametrize("seed, T", [(0, 2000.0), (1, 5000.0), (7, 12345.678), (3, 20000.0),
                                     (0, 500.0)])
def test_solenoid_demo_errors_are_within_their_reported_bounds(tmp_path, seed, T):
    """Each CSV coord_error is at most the JSON's coord_error_bound for its
    coordinate, which is the cross-term bound over the nodes the means take.
    At T = 500 the recovered x_4 misses x_3 (mod 6) by more than 0.05, within
    the two coordinates' bounds, so the run passes."""
    depth = 4
    argv = ["--out", str(tmp_path), "solenoid-demo", "--depth", str(depth), "--T", repr(T),
            "--seed", str(seed)]
    assert main(argv) == 0
    [table] = tmp_path.glob("solenoid-demo-*.csv")
    [report] = [p for p in tmp_path.glob("solenoid-demo-*.json") if "manifest" not in p.name]
    bounds = {int(n): b for n, b in json.loads(report.read_text())["coord_error_bound"].items()}
    assert sorted(bounds) == list(range(1, depth + 1))
    for n, bound in bounds.items():
        # Within 2 dt of T, the matched term's modulus factor N dt / T is 1.
        continuous = solenoid_coordinate_bound(n, depth, T)
        assert continuous <= bound <= continuous * (1.0 + 4 * 0.01 / T + 1e-4)
    rows = list(csv.reader(table.read_text().splitlines()[1:]))
    assert len(rows) == 5 * depth
    for tau, n, err in rows:
        assert float(err) <= bounds[int(n)]


def test_solenoid_demo_computes_its_error_bounds_once(tmp_path, monkeypatch):
    # One evaluation serves the JSON and all five recoveries: every point's
    # means run on one grid over one interval.
    import flowdim.embedding

    calls = []
    bounds = flowdim.embedding.solenoid_error_bounds

    def counted(*args, **kwargs):
        calls.append(args)
        return bounds(*args, **kwargs)

    monkeypatch.setattr(flowdim.embedding, "solenoid_error_bounds", counted)
    monkeypatch.setattr(cli, "solenoid_error_bounds", counted)
    assert main(["--out", str(tmp_path), "solenoid-demo", "--depth", "3", "--T", "500"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("argv, says", [
    (["--T", "1e9"], "window 5e+08 at step 0.01 need 1 x 100000010001"),
    (["--T", "inf"], "T = inf"),
    (["--T", "nan"], "T = nan"),
    (["--T", "0"], "T = 0.0"),
    (["--n-points", "0"], "n-points >= 1, got 0"),
    (["--depth", "23"], "K = 23 exceeds MAX_DEPTH = 22"),
], ids=["T-huge", "T-inf", "T-nan", "T-zero", "no-points", "depth-23"])
def test_solenoid_demo_out_of_range_exits_2_and_writes_nothing(tmp_path, capsys, argv, says):
    out = tmp_path / "out"
    assert main(["--out", str(out), "solenoid-demo", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and says in err
    assert not out.exists()


@pytest.mark.parametrize("argv, says", [
    (["--N-max", "0"], "N-max >= 1, got 0"),
    (["--family", "binary", "--N-max", "0"], "N-max >= 1, got 0"),
    (["--D", "0"], "D >= 1 and N >= 1, got D = 0"),
    (["--N-max", "8"], "D = 1, N = 8 has 65536 states"),
    (["--D", "1", "--N-max", "7"], "D = 1, N = 7 has 16384 states"),
    (["--metric-mean", "maybe"], "got 'maybe'"),
], ids=["no-windows", "binary-no-windows", "D-0", "N-8", "N-7", "metric-mean-maybe"])
def test_mdim_table_out_of_range_exits_2_and_writes_nothing(tmp_path, capsys, argv, says):
    out = tmp_path / "out"
    assert main(["--out", str(out), "mdim-table", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and says in err
    assert not out.exists()


@pytest.mark.parametrize("value, spanning", [("yes", True), ("TRUE", True), ("1", True),
                                             ("no", False), ("False", False), ("0", False)])
def test_mdim_table_metric_mean_reads_yes_and_no_in_any_case(tmp_path, value, spanning):
    assert main(["--out", str(tmp_path), "mdim-table", "--N-max", "2",
                 "--metric-mean", value]) == 0
    [json_path] = (p for p in tmp_path.glob("mdim-table-*.json")
                   if not p.name.endswith("-manifest.json"))
    kind = json.loads(json_path.read_text())["kind"]
    assert (kind == "log_spanning/(n|log eps|)") is spanning


@pytest.mark.parametrize("size", ["0", "-6"])
def test_embed_pipeline_base_size_below_6_exits_2_and_writes_nothing(tmp_path, capsys, size):
    # 0 and -6 are multiples of 6, but the rotation on no states is empty.
    out = tmp_path / "out"
    assert main(["--out", str(out), "embed-pipeline", "--base-size", size]) == 2
    err = capsys.readouterr().err
    assert err == ("configuration error: base size must be a multiple of 6 and at least 6, "
                   f"got {size}\n")
    assert not out.exists()


@pytest.mark.parametrize("D, N, dense", [(1, 1, None), (1, 3, None), (2, 2, None), (2, 3, None),
                                         (3, 2, None), (1, 3, False), (2, 2, True)])
def test_cube_shift_cap_counts_the_states_it_builds(monkeypatch, D, N, dense):
    n = len(cube_shift_system(D, N, dense))
    monkeypatch.setattr(flowdim.instances, "METRIC_MAX_ENTRIES", n * n)
    assert len(cube_shift_system(D, N, dense)) == n
    monkeypatch.setattr(flowdim.instances, "METRIC_MAX_ENTRIES", n * n - 1)
    with pytest.raises(ConfigurationError, match=f"has {n} states"):
        cube_shift_system(D, N, dense)


@pytest.mark.parametrize("D, N, dense", [(1, 4, None), (1, 5, None), (2, 2, True), (2, 5, None),
                                         (3, 3, None), (1, 4, False)])
def test_cube_shift_metric_is_the_sup_distance_of_block_0(D, N, dense):
    # The oracle takes the block-0 sup distance one state at a time.
    sys = cube_shift_system(D, N, dense)
    block0 = np.array([s[0] for s in sys.base.points])
    want = np.array([np.abs(block0 - row).max(axis=1) for row in block0])
    assert np.array_equal(sys.base.dist, want)


@pytest.mark.parametrize("argv, says", [
    (["widim-sweep", "--eps-list", "nan,0.3"], "got nan"),
    (["widim-sweep", "--eps-list", "nan"], "got nan"),
    (["widim-sweep", "--eps-list", "0.2,inf"], "got inf"),
    (["widim-sweep", "--eps-list", "0,0.3"], "got 0.0"),
    (["mdim-table", "--eps-list", "0.3,nan", "--N-max", "2", "--metric-mean", "yes"], "got nan"),
    (["mdim-table", "--eps-list", "inf"], "got inf"),
    (["mdim-table", "--eps-list=-0.1,0.3"], "got -0.1"),
], ids=["widim-nan", "widim-only-nan", "widim-inf", "widim-zero", "mdim-metric-mean-nan",
        "mdim-inf", "mdim-negative"])
def test_eps_that_is_not_finite_and_positive_exits_2_and_writes_nothing(tmp_path, capsys, argv,
                                                                         says):
    # A NaN eps would make mdim-table's spanning count loop for ever.
    sample = tmp_path / "sample.json"
    sample.write_text(json.dumps({"points": [[0, 0], [1, 0], [0.3, 0.1]], "metric": "euclidean"}))
    if argv[0] == "widim-sweep":
        argv = [*argv, "--sample", str(sample)]
    out = tmp_path / "out"
    assert main(["--out", str(out), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and says in err
    assert not out.exists()


def test_eps_list_with_a_leading_minus_is_a_usage_error_of_argparse(tmp_path, capsys):
    # argparse reads -0.1,0.3 as a flag, so the eps check never sees it;
    # --eps-list=-0.1,0.3 reaches it and names the epsilon.
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(out), "mdim-table", "--eps-list", "-0.1,0.3"])
    assert exc.value.code == 2
    assert "argument --eps-list: expected one argument" in capsys.readouterr().err
    assert not out.exists()


class TestCli:
    def test_periodic_dim_json(self, tmp_path):
        code = main(["--out", str(tmp_path), "periodic-dim", "--a", "1", "--r", "2.5"])
        assert code == 0
        payload = json.loads(next(p for p in tmp_path.glob("periodic-dim-*.json")
                                  if "manifest" not in p.name).read_text())
        assert payload == {"formula": 5, "rank": 5, "pass": True, "n_points": 16}

    def test_missing_parameters_usage_error(self, tmp_path):
        assert main(["--out", str(tmp_path), "periodic-dim"]) == 2

    def test_widim_sweep(self, tmp_path):
        manifest = tmp_path / "sample.json"
        pts = [[i / 20, j / 20] for i in range(21) for j in range(21)]
        manifest.write_text(json.dumps({"points": pts, "metric": "sup"}))
        code = main(["--out", str(tmp_path), "widim-sweep",
                     "--sample", str(manifest), "--eps-list", "0.3,0.5"])
        assert code == 0
        csv_path = next(p for p in tmp_path.glob("widim-sweep-*.csv"))
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "epsilon,N,value"
        values = {float(l.split(",")[0]): float(l.split(",")[2]) for l in lines[1:]}
        assert values[0.3] == 2.0

    def test_mdim_table_cube(self, tmp_path):
        code = main(["--out", str(tmp_path), "mdim-table", "--family", "cube",
                     "--D", "1", "--N-max", "2"])
        assert code == 0
        csv_path = next(p for p in tmp_path.glob("mdim-table-*.csv"))
        rows = csv_path.read_text().splitlines()[1:]
        assert all(float(r.split(",")[2]) == 1.0 for r in rows)

    def test_bw_metric_from_manifest(self, tmp_path):
        system = {"points": [0.0, 0.25, 0.5, 0.75], "metric": "circle", "period": 1.0,
                  "step": [1, 2, 3, 0]}
        manifest = tmp_path / "system.json"
        manifest.write_text(json.dumps(system))
        tables = []
        for out in (tmp_path / "one", tmp_path / "two"):
            code = main(["--out", str(out), "bw-metric", "--system", str(manifest),
                         "--height-grid", "4"])
            assert code == 0
            tables.append(next(out.glob("bw-metric-*.csv")).read_bytes())
        assert tables[0] == tables[1]
        # The table holds the height-0 chain infima of the full level graph.
        sys, _ = load_system(system)
        bw = BowenWaltersMetric(sys, RoofFunction.constant(1.0, len(sys)), 4)
        dense = dijkstra(level_graph(bw), directed=False)
        lines = tables[0].decode().splitlines()
        assert len(lines) == 1 + len(sys) ** 2
        for line in lines[1:]:
            i, j, d = line.split(",")
            assert float(d) == dense[int(i) * bw.n_levels, int(j) * bw.n_levels]

    def test_bw_metric_segment_budget_is_a_usage_error(self, tmp_path):
        manifest = tmp_path / "system.json"
        manifest.write_text(json.dumps({"points": [0.0, 0.5], "metric": "circle",
                                        "period": 1.0, "step": [1, 0]}))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(out), "bw-metric", "--system", str(manifest),
                  "--max-segments", "4"])
        assert exc.value.code == 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max-segments = 4\n")
        assert main(["--config", str(cfg), "--out", str(out), "bw-metric",
                     "--system", str(manifest)]) == 2
        assert not out.exists()

    def test_config_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a = 1\nr = 0.5\n")
        code = main(["--config", str(cfg), "--out", str(tmp_path), "periodic-dim"])
        assert code == 0
        payload = json.loads(next(p for p in tmp_path.glob("periodic-dim-*.json")
                                  if "manifest" not in p.name).read_text())
        assert payload["formula"] == 1

    def test_manifest_written(self, tmp_path):
        main(["--out", str(tmp_path), "periodic-dim", "--a", "1", "--r", "0.5"])
        manifest = json.loads(next(tmp_path.glob("*-manifest.json")).read_text())
        assert manifest["passed"] is True
        assert manifest["files"]

    def test_rerun_determinism(self, tmp_path):
        a, b = tmp_path / "one", tmp_path / "two"
        for out in (a, b):
            main(["--out", str(out), "mdim-table", "--family", "binary",
                  "--N-max", "2", "--eps-list", "0.1"])
        fa = next(a.glob("mdim-table-*.csv")).read_bytes()
        fb = next(b.glob("mdim-table-*.csv")).read_bytes()
        assert fa == fb

    def test_kernel_report_rerun_determinism(self, tmp_path):
        a, b = tmp_path / "one", tmp_path / "two"
        for out in (a, b):
            assert main(["--out", str(out), "kernel-report", "--rho", "1", "--tau", "0.5",
                         "--band-lo", "0", "--band-hi", "2"]) == 0
        assert len(_artifacts(a)) == 3
        assert _artifacts(a) == _artifacts(b)

    def test_solenoid_demo(self, tmp_path):
        code = main(["--out", str(tmp_path), "solenoid-demo", "--depth", "3",
                     "--T", "800", "--n-points", "2", "--seed", "1"])
        assert code == 0
        payload = json.loads(next(p for p in tmp_path.glob("solenoid-demo-*.json")
                                  if "manifest" not in p.name).read_text())
        assert payload["pass"] is True

    def test_contract_violation_writes_diagnostic(self, tmp_path):
        out = tmp_path / "d"
        assert main(["--out", str(out), "solenoid-demo", "--T", "3"]) == 1
        diagnostic = json.loads(next(out.glob("solenoid-demo-*-diagnostic.json")).read_text())
        assert diagnostic["error"] == "NotEmbeddingImageError"
        assert "coefficient" in diagnostic["message"]
        manifest = json.loads(next(out.glob("solenoid-demo-*-manifest.json")).read_text())
        assert manifest["passed"] is False
        assert manifest["files"] == [f"solenoid-demo-{manifest['config_hash']}-diagnostic.json"]

    def test_embed_pipeline(self, tmp_path):
        code = main(["--out", str(tmp_path), "embed-pipeline", "--base-size", "6",
                     "--heights", "5", "--seed", "3"])
        assert code == 0
        payload = json.loads(next(p for p in tmp_path.glob("embed-pipeline-*.json")
                                  if "manifest" not in p.name).read_text())
        assert payload["pass"] is True
        assert payload["verdict_passed"] is True
        assert payload["seed"] == 3
        assert payload["constants"]["K_dec"] > 0
        assert payload["far_pair_separation"] > 0


def _artifacts(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("argv", [
    ["periodic-dim", "--a", "1", "--r", "2.5"],
    ["widim-sweep", "--sample", "{sample}", "--eps-list", "0.2,0.3"],
    ["mdim-table", "--family", "cube", "--D", "1", "--N-max", "2"],
    ["bw-metric", "--system", "{system}", "--height-grid", "4"],
])
def test_config_file_and_flags_write_identical_artifacts(tmp_path, argv):
    sample = tmp_path / "sample.json"
    sample.write_text(json.dumps({"points": [[i / 10, j / 10] for i in range(6) for j in range(6)],
                                  "metric": "sup"}))
    system = tmp_path / "system.json"
    system.write_text(json.dumps({"points": [0.0, 0.25, 0.5, 0.75], "metric": "circle",
                                  "period": 1.0, "step": [1, 2, 3, 0]}))
    sub, *flags = [a.format(sample=sample, system=system) for a in argv]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{flags[i][2:]} = {flags[i + 1]}\n"
                           for i in range(0, len(flags), 2)))
    by_flags, by_config = tmp_path / "flags", tmp_path / "config"
    assert main(["--out", str(by_flags), sub, *flags]) == 0
    assert main(["--config", str(cfg), "--out", str(by_config), sub]) == 0
    written = _artifacts(by_flags)
    assert len(written) >= 2
    assert written == _artifacts(by_config)


@pytest.mark.parametrize("sub", ["periodic-dim", "bw-metric"])
def test_missing_required_option_exits_2_and_writes_nothing(tmp_path, sub):
    out = tmp_path / "out"
    assert main(["--out", str(out), sub]) == 2
    assert not out.exists()


CIRCLE = {"points": [0.0, 0.25, 0.5, 0.75], "metric": "circle", "period": 1.0,
          "step": [1, 2, 3, 0]}


def _without(key):
    return {k: v for k, v in CIRCLE.items() if k != key}


@pytest.mark.parametrize("sub,flag,manifest", [
    ("bw-metric", "--system", {**CIRCLE, "roof": [1.0, 1.0]}),
    ("bw-metric", "--system", {**CIRCLE, "roof": [1.0] * 5}),
    ("bw-metric", "--system", _without("points")),
    ("bw-metric", "--system", _without("step")),
    ("bw-metric", "--system", _without("period")),
    ("bw-metric", "--system", [0.0, 0.25, 0.5, 0.75]),
    ("bw-metric", "--system", {**CIRCLE, "step": [1.5, 2, 3, 0]}),
    ("bw-metric", "--system", {**CIRCLE, "step": [1, 2, 3, 4]}),
    ("bw-metric", "--system", {**CIRCLE, "roof": [1.0, math.inf, 1.0, 1.0]}),
    ("bw-metric", "--system", {**CIRCLE, "roof": [1.0, math.nan, 1.0, 1.0]}),
    ("widim-sweep", "--sample", [[0, 0], [1, 0]]),
    ("widim-sweep", "--sample", {"metric": "sup"}),
    ("widim-sweep", "--sample", {"points": 5, "metric": "sup"}),
    ("widim-sweep", "--sample", _without("period")),
    ("widim-sweep", "--sample", {"matrix": [[0.0, 1.0], [2.0, 0.0]]}),
    ("bw-metric", "--system", {"points": [], "step": []}),
    ("widim-sweep", "--sample", {"points": [], "step": []}),
    ("mdim-table", "--system", {"points": [], "step": []}),
    ("widim-sweep", "--sample", {"matrix": []}),
], ids=["short-roof", "long-roof", "no-points", "no-step", "no-period", "list", "float-step",
        "step-out-of-range", "infinite-roof", "nan-roof", "sample-list", "sample-no-points",
        "scalar-points", "sample-no-period", "asymmetric-matrix", "empty", "sample-empty",
        "mdim-table-empty", "empty-matrix"])
def test_malformed_manifest_exits_2_and_writes_nothing(tmp_path, capsys, sub, flag, manifest):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "out"
    assert main(["--out", str(out), sub, flag, str(path)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not out.exists()


def test_mdim_table_metric_mean_writes_the_spanning_table(tmp_path):
    assert main(["--out", str(tmp_path), "mdim-table", "--family", "cube", "--D", "2",
                 "--N-max", "4", "--metric-mean", "yes"]) == 0
    [csv_path] = tmp_path.glob("mdim-table-*.csv")
    [json_path] = (p for p in tmp_path.glob("mdim-table-*.json")
                   if not p.name.endswith("-manifest.json"))
    table = metric_mdim_table(cube_shift_system(2, 4), [0.3], [1, 2, 3, 4])
    lines = csv_path.read_text().splitlines()
    assert lines == ["epsilon,N,value"] + [",".join(map(_fmt, row)) for row in table.rows]
    assert json.loads(json_path.read_text())["kind"] == "log_spanning/(n|log eps|)"


def test_kernel_report_with_zero_bump_width_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--out", str(out), "kernel-report", "--rho", "1", "--tau", "0",
                 "--band-lo", "0", "--band-hi", "2"]) == 2
    assert not out.exists()
    assert "tau" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["kernel-report", "--window", "0"],
    ["kernel-report", "--window", "-5"],
    ["kernel-report", "--window", "inf"],
    ["kernel-report", "--band-lo", "nan"],
    ["kernel-report", "--band-hi", "inf"],
    ["kernel-report", "--band-lo", "3", "--band-hi", "2"],
    ["kernel-report", "--delta", "nan"],
    ["kernel-report", "--delta", "inf"],
    ["embed-pipeline", "--delta", "nan"],
    ["embed-pipeline", "--delta", "1.5"],
], ids=lambda argv: " ".join(argv))
def test_bad_kernel_numbers_exit_2_and_write_nothing(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(["--out", str(out), *argv]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not out.exists()


@pytest.mark.parametrize("window, says", [
    ("1e9", "needs 16000000001 grid points, more than 1048576"),
    ("1e-9", "has 1 grid point, fewer than the 2"),
], ids=["huge", "tiny"])
def test_leakage_window_out_of_range_exits_2_and_writes_nothing(tmp_path, capsys, window, says):
    out = tmp_path / "out"
    assert main(["--out", str(out), "kernel-report", "--window", window]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: the leakage check of window {float(window):g} ")
    assert says in err
    assert not out.exists()


def test_unknown_config_key_exits_2_and_writes_nothing(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a = 1\nr = 2.5\nrr = 0.5\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "periodic-dim"]) == 2
    assert not out.exists()
    assert "unknown config keys: rr" in capsys.readouterr().err


def _readme_cli_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n\n```\n(.*?)```", readme, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("flowdim ")]


def _parsed(parse, argv):
    """What ``parse(argv)`` returns or its exit code, then its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def test_readme_cli_lines_parse_to_their_table_entry():
    # The full parser is also the oracle of the one-subcommand parser that main builds.
    seen = set()
    for line in _readme_cli_lines():
        argv = shlex.split(line)[1:]
        args = cli.build_parser().parse_args(argv)
        func = cli.COMMANDS[args.subcommand][0]
        assert func.__name__ == "cmd_" + args.subcommand.replace("-", "_")
        assert cli._subcommand(argv) == args.subcommand
        assert _parsed(cli.build_parser(args.subcommand).parse_args, argv) == (args, "", "")
        seen.add(args.subcommand)
    assert seen == set(cli.COMMANDS)


@pytest.mark.parametrize("argv, sub", [
    (["--out", "x", "periodic-dim", "--a", "1", "--bogus", "2"], "periodic-dim"),
    (["--bogus", "periodic-dim", "--a", "1"], None),
    (["--out", "x", "kernel-report", "--rho"], "kernel-report"),
    (["--out"], None),
    (["-h", "solenoid-demo"], None),
    (["--out", "x", "-h", "solenoid-demo"], None),
    (["solenoid-demo", "-h"], "solenoid-demo"),
    (["--out", "x", "bw-metric", "--help"], "bw-metric"),
    (["--ou", "periodic-dim", "kernel-report", "--rhoo", "1"], "kernel-report"),
    (["--out=periodic-dim", "kernel-report", "--rhoo", "1"], "kernel-report"),
    (["--out=x", "periodic-dim", "--a"], "periodic-dim"),
    (["--out", "periodic-dim"], None),
    (["--config", "mdim-table"], None),
    ([], None),
    (["--out", "x"], None),
    (["no-such-command", "--a", "1"], None),
    (["--", "periodic-dim"], None),
    (["--out", "--", "periodic-dim"], None),
    (["-1", "periodic-dim"], None),
    (["--=x", "periodic-dim"], None),
], ids=["unknown-option", "unknown-option-first", "missing-value", "missing-out-value",
        "help-first", "help-before", "help-after", "long-help-after", "out-prefix", "out-equals",
        "out-equals-missing-value", "subcommand-as-out", "subcommand-as-config",
        "no-subcommand", "out-only", "unknown-subcommand", "double-dash", "out-double-dash",
        "negative-number", "ambiguous-prefix"])
def test_main_exits_as_the_full_parser_on_malformed_argv(argv, sub):
    assert cli._subcommand(argv) == sub
    want = _parsed(cli.build_parser().parse_args, argv)
    assert want[0][0] == "exit"
    assert _parsed(main, argv) == want


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(
    ["--out", "--ou", "--out=x", "--config", "--co", "--c=x", "x", "-h", "--he", "--", "-",
     "-1", "--bogus", "--o x", "", "--a", "1", "--T", "--eps-list", "-0.1", *cli.COMMANDS]),
    max_size=6))
def test_one_subcommand_parser_parses_as_the_full_parser(argv):
    want = _parsed(cli.build_parser().parse_args, argv)
    assert _parsed(cli.build_parser(cli._subcommand(argv)).parse_args, argv) == want


def test_main_adds_one_subparser_per_run(tmp_path, monkeypatch):
    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    line = next(line for line in _readme_cli_lines() if " periodic-dim " in line)
    argv = [str(tmp_path) if a == "artifacts" else a for a in shlex.split(line)[1:]]
    assert main(argv) == 0
    assert added == ["periodic-dim"]


def test_python_dash_m_runs_the_cli_from_the_source_tree():
    root = Path(__file__).resolve().parents[1]

    def help_text(*argv):
        done = subprocess.run([sys.executable, "-m", "flowdim", *argv, "--help"], cwd=root,
                              env={**os.environ, "PYTHONPATH": str(root / "src")},
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        return done.stdout

    text = help_text()
    assert text.startswith("usage: flowdim")
    assert all(name in text for name in cli.COMMANDS)
    for name, (_, _, options) in cli.COMMANDS.items():
        text = help_text(name)
        assert text.startswith(f"usage: flowdim {name}")
        assert all(f"--{key} " in text for key in options)
