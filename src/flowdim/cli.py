"""Experiment runner: kernel reports, demos, sweeps, and the full pipeline.

``COMMANDS`` declares each subcommand once: its function, help text and
``{option: type}`` map.  Each option is the flag ``--option`` and can
also be set in a flat key=value ``--config`` file under the key
``option``; flags take precedence, and a key that is no option is a
configuration error.  ``main`` builds the parser of the one subcommand
that argv names (the full parser when argv names none or asks for help
first), merges the flags with the config file, builds the ``Runner``,
calls the function (which writes CSV/JSON files named
``<subcommand>-<confighash>`` and returns whether its checks passed) and
writes the run manifest.  All randomness flows from the single ``seed``
key.  Exit codes: 0 when all internal contract checks pass, 1 on a
contract violation (a diagnostic report is still written), 2 on usage or
configuration errors, a malformed sample or system manifest among them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import instances
from .bandlimited import Band, periodic_subspace_dim
from .dynamics import BowenWaltersMetric, RoofFunction, SuspensionPoint, solenoid_from_time
from .embedding import SolenoidEmbedding, solenoid_embed, solenoid_error_bounds, solenoid_recover
from .errors import ConfigurationError, FlowdimError
from .io import write_table_csv, load_sample_json, load_system_json
from .kernel import (
    KernelSpec,
    certify_constants,
    interpolation_kernel,
    kernel_band_leakage,
    reverify_constants,
)
from .metric import mdim_table, metric_mdim_table, widim_upper

USAGE_ERROR = 2
CONTRACT_ERROR = 1


def _load_config(path):
    config = {}
    if path:
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigurationError(f"bad config line: {line!r}")
            key, value = line.split("=", 1)
            config[key.strip()] = value.strip()
    return config


def _merge(config, args, keys):
    """Apply CLI overrides on top of the config, then parse types."""
    unknown = sorted(set(config) - set(keys))
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
    out = dict(config)
    for key, caster in keys.items():
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            out[key] = flag
        if key in out and isinstance(out[key], str):
            out[key] = caster(out[key])
    return out


def _config_hash(params):
    canon = json.dumps({k: str(v) for k, v in sorted(params.items())})
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


class Runner:
    """The files of one run; the output directory is made at the first write."""

    def __init__(self, out, subcommand, params):
        self.out_dir = Path(out)
        self.subcommand = subcommand
        self.params = params
        self.hash = _config_hash(params)
        self.files = []

    def _file(self, suffix):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir / f"{self.subcommand}-{self.hash}{suffix}"

    def path(self, suffix):
        path = self._file(suffix)
        self.files.append(path.name)
        return path

    def write_json(self, suffix, payload):
        path = self.path(suffix)
        with path.open("w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonify)
            fh.write("\n")
        return path

    def finish(self, passed):
        manifest = {
            "subcommand": self.subcommand,
            "config_hash": self.hash,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "files": self.files,
            "passed": bool(passed),
        }
        with self._file("-manifest.json").open("w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return 0 if passed else CONTRACT_ERROR


def _jsonify(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def cmd_periodic_dim(runner, params):
    if "a" not in params or "r" not in params:
        raise ConfigurationError("periodic-dim requires --a and --r")
    formula, cert = periodic_subspace_dim(params["a"], params["r"])
    payload = {"formula": formula, "rank": cert.rank,
               "pass": bool(cert.consistent),
               "n_points": cert.n_points}
    runner.write_json(".json", payload)
    return cert.consistent


def _kernel_spec(params):
    a, b = params.get("band-lo", 0.0), params.get("band-hi", 2.0)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ConfigurationError(f"need finite band edges a < b, got [{a}, {b}]")
    return KernelSpec(Band(a, b), Fraction(str(params.get("rho", 1))),
                      params.get("tau", 0.5),
                      window=params.get("window", 200.0))


def cmd_kernel_report(runner, params):
    spec = _kernel_spec(params)
    delta = params.get("delta", 0.1)
    constants = certify_constants(spec, delta)
    leakage = kernel_band_leakage(spec)
    t = np.linspace(-20, 20, 1601)
    phi = interpolation_kernel(t, spec)
    write_table_csv(runner.path(".csv"), zip(t, phi.real, phi.imag),
                    header=("t", "re_phi", "im_phi"))
    phi0 = complex(interpolation_kernel(0.0, spec))
    checks = {
        "phi0_error": abs(phi0 - 1.0),
        "K_dec": constants.K_dec,
        "delta_prime": constants.delta_prime,
        "S_sup": constants.S_sup,
        "T0": constants.T0,
        "tail_bound": constants.tail_bound,
        "grid_step": constants.grid_step,
        "grid_slack": constants.grid_slack,
        "leakage": leakage,
        "budget_ok": constants.check(),
        "reverified": reverify_constants(spec, constants),
    }
    runner.write_json(".json", checks)
    return (checks["phi0_error"] < 1e-9 and checks["budget_ok"]
            and checks["reverified"] and leakage < 1e-3)


def cmd_solenoid_demo(runner, params):
    depth = params.get("depth", 4)
    T = params.get("T", 2e4)
    seed = params.get("seed", 0)
    n_points = params.get("n-points", 5)
    if not (0.0 < T < math.inf):
        raise ConfigurationError(f"need a finite averaging length T > 0, got T = {T}")
    if n_points < 1:
        raise ConfigurationError(f"need n-points >= 1, got {n_points}")
    rng = np.random.default_rng(seed)
    emb = SolenoidEmbedding(c=1.0, K=depth, window=T / 2 + 50.0, grid_step=0.01)
    # Every point's coordinate n shares one bound: the means run on one grid.
    bounds = solenoid_error_bounds(emb, T, start=-T / 2)
    rows = []
    worst = 0.0
    for _ in range(n_points):
        tau = float(rng.uniform(0, math.factorial(depth)))
        # The embedding intertwines the flow with the shift: f_q(t) = f_p(t + T/2)
        # for p drawn at time tau and q = phi_{T/2} p.  So the mean of
        # f_q(t) exp(-i lam t) over [-T/2, T/2] is exp(i lam T/2) times the
        # mean of f_p(t) exp(-i lam t) over [0, T].  At lam = 2 pi / n! that
        # factor turns coordinate n by T/2, as q_n = p_n + T/2, so each
        # coordinate's error is that of p over [0, T], on half of p's window.
        q = solenoid_from_time(tau + T / 2, depth)
        rec = solenoid_recover(solenoid_embed(q, emb), emb, T, start=-T / 2, bounds=bounds)
        for n in range(1, depth + 1):
            fact = math.factorial(n)
            gap = abs(rec.coords[n - 1] - q.coords[n - 1]) % fact
            gap = min(gap, fact - gap)
            rows.append((tau, n, gap))
            worst = max(worst, gap / fact)
    write_table_csv(runner.path(".csv"), rows, header=("tau", "n", "coord_error"))
    passed = worst < 1e-2
    runner.write_json(".json", {"worst_relative_error": worst, "pass": passed,
                                "coord_error_bound": {str(n): b for n, b in
                                                      enumerate(bounds, start=emb.m)}})
    return passed


def _eps_list(params, default):
    """The sorted epsilons of ``eps-list``; one not finite and positive is a configuration error."""
    eps_list = sorted(float(e) for e in str(params.get("eps-list", default)).split(","))
    bad = [eps for eps in eps_list if not 0.0 < eps < math.inf]
    if bad:
        raise ConfigurationError(f"need finite epsilons > 0 in eps-list, got {bad[0]}")
    return eps_list


def cmd_widim_sweep(runner, params):
    if "sample" not in params:
        raise ConfigurationError("widim-sweep requires --sample manifest.json")
    sample = load_sample_json(params["sample"])
    rows = [(eps, 1, widim_upper(sample, eps)) for eps in _eps_list(params, "0.1,0.2,0.3")]
    write_table_csv(runner.path(".csv"), rows)
    antitone = all(rows[i][2] >= rows[i + 1][2] for i in range(len(rows) - 1))
    runner.write_json(".json", {"antitone": antitone,
                                "note": "values are upper estimates (grid regime)"})
    return True


def cmd_mdim_table(runner, params):
    metric_mean = str(params.get("metric-mean", "no"))
    if metric_mean.lower() not in ("yes", "true", "1", "no", "false", "0"):
        raise ConfigurationError(f"need metric-mean yes, true, 1, no, false or 0, "
                                 f"got {metric_mean!r}")
    family = params.get("family", "cube")
    eps_list = _eps_list(params, "0.3")
    n_max = params.get("N-max", 4)
    if n_max < 1:
        raise ConfigurationError(f"need N-max >= 1, got {n_max}")
    n_list = list(range(1, n_max + 1))
    if "system" in params:
        sys, _ = load_system_json(params["system"])
    elif family == "cube":
        sys = instances.cube_shift_system(params.get("D", 1), n_max)
    elif family == "binary":
        sys = instances.binary_shift_system()
    else:
        raise ConfigurationError(f"unknown family {family!r}")
    if metric_mean.lower() in ("yes", "true", "1"):
        table = metric_mdim_table(sys, eps_list, n_list)
    else:
        table = mdim_table(sys, eps_list, n_list)
    write_table_csv(runner.path(".csv"), table.rows)
    runner.write_json(".json", {"diagnostics": table.diagnostics,
                                "kind": table.kind,
                                "note": "entries are upper estimates (grid regime)"})
    return True


def cmd_bw_metric(runner, params):
    if "system" not in params:
        raise ConfigurationError("bw-metric requires --system manifest.json")
    sys, roof = load_system_json(params["system"])
    if roof is None:
        roof = RoofFunction.constant(1.0, len(sys))
    grid = params.get("height-grid", 16)
    points = [SuspensionPoint(i, 0.0) for i in range(len(sys))]
    mat = BowenWaltersMetric(sys, roof, grid).matrix(points)
    rows = ((i, j, mat[i, j]) for i in range(len(sys)) for j in range(len(sys)))
    write_table_csv(runner.path(".csv"), rows, header=("i", "j", "bw_distance"))
    symmetric = bool(np.allclose(mat, mat.T, atol=1e-9))
    runner.write_json(".json", {"symmetric": symmetric,
                                "height_grid": grid,
                                "note": "upper bounds of the chain infimum"})
    return symmetric


def cmd_embed_pipeline(runner, params):
    seed = params.get("seed", 2024)
    result = instances.run_embedding_pipeline(
        delta=params.get("delta", 0.2),
        rho=Fraction(str(params.get("rho", 1))),
        N=params.get("N", 2),
        base_size=params.get("base-size", 12),
        n_heights=params.get("heights", 10),
        seed=seed,
    )
    constants = result.run.constants
    payload = {
        "seed": seed,
        "eps": result.eps,
        "delta": constants.delta,
        "delta_prime": constants.delta_prime,
        "constants": {"K_dec": constants.K_dec, "S_sup": constants.S_sup},
        "search_tries": result.search_report.tries,
        "sup_change": result.sup_change,
        "node_residual": result.node_residual,
        "equivariance_residual": result.equivariance_residual,
        "verdict_passed": result.verdict.passed,
        "n_pairs": result.verdict.n_pairs,
        "matched_pairs": result.verdict.n_matched,
        "worst_pair": result.verdict.worst_pair,
        "min_image_separation": result.verdict.min_image_separation,
        "far_pair_separation": result.verdict.far_pair_separation,
        "pass": result.passed,
    }
    runner.write_json(".json", payload)
    return result.passed


# Subcommand -> (function, help, {option: type}).
COMMANDS = {
    "periodic-dim": (cmd_periodic_dim, "periodic-subspace dimension certificate",
                     {"a": float, "r": float}),
    "kernel-report": (cmd_kernel_report, "interpolation kernel constants and samples",
                      {"rho": str, "tau": float, "band-lo": float, "band-hi": float,
                       "window": float, "delta": float}),
    "solenoid-demo": (cmd_solenoid_demo, "embed/recover round trip",
                      {"depth": int, "T": float, "seed": int, "n-points": int}),
    "widim-sweep": (cmd_widim_sweep, "width-dimension estimates over epsilons",
                    {"sample": str, "eps-list": str}),
    "mdim-table": (cmd_mdim_table, "mean-dimension estimate tables",
                   {"family": str, "D": int, "N-max": int, "eps-list": str,
                    "metric-mean": str, "system": str}),
    "bw-metric": (cmd_bw_metric, "Bowen-Walters distance table",
                  {"system": str, "height-grid": int}),
    "embed-pipeline": (cmd_embed_pipeline, "end-to-end delta-embedding run",
                       {"delta": float, "rho": str, "N": int, "base-size": int,
                        "heights": int, "seed": int}),
}


def build_parser(only=None):
    """The parser of subcommand ``only``, or of every subcommand when it is None."""
    parser = argparse.ArgumentParser(
        prog="flowdim",
        description="Mean dimension, suspension, and band-limited embedding experiments")
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--out", default="artifacts", help="output directory")
    # A one-subcommand parser names every subcommand in its usage line, as
    # the full parser does; the full parser keeps argparse's name for the
    # action, "subcommand", in its errors.
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                metavar=None if only is None else "{" + ",".join(COMMANDS) + "}")
    for name in COMMANDS if only is None else [only]:
        _, help_text, options = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for key, typ in options.items():
            p.add_argument(f"--{key}", type=typ)
    return parser


def _subcommand(argv):
    """The subcommand the full parser reads from ``argv``, or None if only it may parse ``argv``.

    ``--config``, ``--out`` and their prefixes longer than ``--`` take the
    next argument as their value unless written ``--opt=value``.  None
    stands for any other option before the first positional (help, an
    unknown option, a negative number, ``--``), a value that is missing or
    starts with a minus, no positional, and a positional that names no
    subcommand.
    """
    args = iter(argv)
    for arg in args:
        if not arg.startswith("-"):
            return arg if arg in COMMANDS else None
        name, eq, _ = arg.partition("=")
        if len(name) <= 2 or not ("--config".startswith(name) or "--out".startswith(name)):
            return None
        if not eq and next(args, "-").startswith("-"):
            return None
    return None


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(_subcommand(argv)).parse_args(argv)
    func, _, options = COMMANDS[args.subcommand]
    runner = None
    try:
        params = _merge(_load_config(args.config), args, options)
        runner = Runner(args.out, args.subcommand, params)
        return runner.finish(func(runner, params))
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except FlowdimError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        if runner is not None:
            runner.write_json("-diagnostic.json", {"error": type(exc).__name__,
                                                   "message": str(exc)})
            runner.finish(False)
        return CONTRACT_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
