"""Command-line front end.

Subcommands: bound, simulate, distance, chaos-verify, rate-sweep.
Every artifact embeds the full run configuration and a format-version
field; identical (config, seed) pairs produce byte-identical artifacts at
any WCLT_THREADS setting.  Exit codes: 0 success, 1 failed verification,
2 usage/config error, 3 degenerate configuration, 4 resource cap.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import chaos, graph_chaos
from .bounds import regime_bound, wasserstein_bound, rate_term
from .distance import wasserstein1_to_normal
from .errors import ChaosError, DegenerateConfigError, PatternError, ResourceLimitError
from .graph_stats import (
    HostSample,
    check_sample_config,
    combined_weight,
    intersection_pair_census,
    normalized_samples,
)
from .patterns import PatternGraph, named_pattern, parse_pattern
from .weights import parse_weight_model

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_RESOURCE = 4


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".wclt-tmp-")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json_dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _load_pattern(spec: str) -> PatternGraph:
    if os.path.exists(spec):
        with open(spec, "r") as handle:
            return parse_pattern(handle.read())
    return named_pattern(spec)


def _parse_grid(spec: str) -> tuple[int, int]:
    try:
        blocks_s, cells_s = spec.split(",")
        return int(blocks_s), int(cells_s)
    except ValueError:
        raise ChaosError(f"grid must be 'K,M', got {spec!r}") from None


def _parse_n_list(spec: str) -> list[int]:
    items = [s for s in spec.split(",") if s.strip()]
    if not items:
        raise PatternError("empty n-list")
    return [int(s) for s in items]


def _p_for(n: int, p: float | None, p_rule: str | None) -> float:
    """--p, or p = c * n^-alpha under --p-rule pow:c,alpha (argparse allows one of them)."""
    if p_rule is None:
        return p
    kind, _, arg = p_rule.partition(":")
    try:
        params = [float(x) for x in arg.split(",")] if arg else []
    except ValueError:
        raise PatternError(f"bad --p-rule {p_rule!r}") from None
    if kind == "pow" and len(params) == 2:
        return params[0] * n ** (-params[1])
    raise PatternError(f"unknown --p-rule {p_rule!r}")


# -- subcommands --------------------------------------------------------------


def _config_comment(config: dict) -> str:
    """Two comment lines embedding the run configuration into a CSV artifact."""
    return (f"# format_version: {FORMAT_VERSION}\n"
            f"# config: {json.dumps(config, sort_keys=True)}\n")


def _cmd_bound(args) -> int:
    pattern = _load_pattern(args.pattern)
    model = parse_weight_model(args.weights)
    config = {
        "subcommand": "bound",
        "pattern": args.pattern,
        "n": args.n,
        "p": args.p,
        "weights": args.weights,
        "cutoff_c": args.cutoff_c,
        "regime_formula": bool(args.regime),
        "sweep_n": args.sweep_n,
        "sweep_p": args.sweep_p,
    }
    if args.sweep_n or args.sweep_p:
        if not (args.sweep_n and args.sweep_p):
            raise PatternError("--sweep-n and --sweep-p must be given together")
        n_list = _parse_n_list(args.sweep_n)
        p_list = [float(s) for s in args.sweep_p.split(",") if s.strip()]
        if not p_list:
            raise PatternError("empty p-list")
        buf = io.StringIO()
        buf.write(_config_comment(config))
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "p", "rate_term", "moment_ratio", "bound_value", "regime", "family"])
        for n in n_list:
            for p in p_list:
                rep = (regime_bound(pattern, n, p, model, cutoff=args.cutoff_c)
                       if args.regime else wasserstein_bound(pattern, n, p, model))
                writer.writerow([n, repr(p), repr(rep.rate_term), repr(rep.moment_ratio),
                                 repr(rep.bound_value), rep.regime or "", rep.family])
        _emit(buf.getvalue(), args.out)
        return EXIT_OK
    if args.n is None or args.p is None:
        raise PatternError("--n and --p are required without --sweep-n/--sweep-p")
    if args.regime:
        report = regime_bound(pattern, args.n, args.p, model, cutoff=args.cutoff_c)
    else:
        report = wasserstein_bound(pattern, args.n, args.p, model)
    payload = {
        "format_version": FORMAT_VERSION,
        "config": config,
        "report": report.to_dict(),
    }
    _emit(_json_dumps(payload), args.out)
    return EXIT_OK


def _samples_csv(batch, config: dict) -> str:
    buf = io.StringIO()
    buf.write(_config_comment(config))
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["replicate", "raw_w", "normalized"])
    for i in range(batch.reps):
        writer.writerow([i, repr(float(batch.raw[i])), repr(float(batch.normalized[i]))])
    return buf.getvalue()


def _cmd_simulate(args) -> int:
    pattern = _load_pattern(args.pattern)
    model = parse_weight_model(args.weights)
    config = {
        "subcommand": "simulate",
        "pattern": args.pattern,
        "n": args.n,
        "p": args.p,
        "weights": args.weights,
        "reps": args.reps,
        "seed": args.seed,
    }
    batch = normalized_samples(pattern, args.n, args.p, model, args.reps, args.seed)
    _emit(_samples_csv(batch, config), args.out)
    if args.meta:
        census = intersection_pair_census(pattern, args.n)
        payload = {
            "format_version": FORMAT_VERSION,
            "config": config,
            "exact_mean": batch.exact_mean,
            "exact_variance": batch.exact_variance,
            "census": {str(h): c for h, c in census.items()},
        }
        _atomic_write(args.meta, _json_dumps(payload))
    return EXIT_OK


def _read_normalized_column(path: str) -> list[float]:
    with open(path, "r", newline="") as handle:
        rows = (line for line in handle if not line.startswith("#"))
        reader = csv.DictReader(rows)
        if reader.fieldnames is None or "normalized" not in reader.fieldnames:
            raise PatternError(f"samples file {path!r} has no 'normalized' column")
        values = []
        for row in reader:
            values.append(float(row["normalized"]))
    return values


def _cmd_distance(args) -> int:
    values = _read_normalized_column(args.samples)
    if not values:
        raise PatternError(f"samples file {args.samples!r} contains no rows")
    result = wasserstein1_to_normal(values)
    payload = {
        "format_version": FORMAT_VERSION,
        "config": {"subcommand": "distance", "samples": args.samples},
        "result": result.to_dict(),
    }
    _emit(_json_dumps(payload), args.out)
    return EXIT_OK


def _cmd_rate_sweep(args) -> int:
    if args.reps < 1:  # each host's distance needs a sample
        raise ValueError(f"--reps must be at least 1, got {args.reps}")
    pattern = _load_pattern(args.pattern)
    model = parse_weight_model(args.weights)
    n_list = _parse_n_list(args.sweep_n)
    p_list = [_p_for(n, args.p, args.p_rule) for n in n_list]
    rates = []
    for n, p in zip(n_list, p_list):  # every cap and rate term before the first sample
        check_sample_config(pattern, n, p)
        rates.append(rate_term(pattern, n, p))
    config = {
        "subcommand": "rate-sweep",
        "pattern": args.pattern,
        "weights": args.weights,
        "sweep_n": args.sweep_n,
        "p": args.p,
        "p_rule": args.p_rule,
        "reps": args.reps,
        "seed": args.seed,
    }
    buf = io.StringIO()
    buf.write(_config_comment(config))
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "p", "d_w", "rate_term", "ratio"])
    for n, p, rate in zip(n_list, p_list, rates):
        batch = normalized_samples(pattern, n, p, model, args.reps, args.seed)
        d_w = wasserstein1_to_normal(batch.normalized).w1
        writer.writerow([n, repr(p), repr(d_w), repr(rate), repr(d_w / rate)])
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


def _chaos_checks(seed: int, grid_spec: tuple[int, int], n_paths: int, corrupt: bool) -> list[dict]:
    """The identity suite behind chaos-verify; one record per check."""
    blocks, cells = grid_spec
    grid = chaos.GridSpec(blocks, cells)
    checks = []

    def record(name: str, max_dev: float, tol: float) -> None:
        checks.append({
            "name": name,
            "max_deviation": max_dev,
            "tolerance": tol,
            "passed": bool(max_dev <= tol),
        })

    u = chaos.random_paths(seed, n_paths, blocks)

    # centering invariance of the integral
    raw2 = chaos.random_kernel(grid, 2, seed + 1, centered=False)
    dev = float(np.max(np.abs(
        chaos.integral_eval_many(raw2, u) - chaos.integral_eval_many(chaos.block_center(raw2), u)
    )))
    record("centering_invariance", dev, chaos.PATHWISE_TOL)

    # U-statistic decomposition, optionally corrupted as a negative control
    kern = chaos.random_kernel(grid, 2, seed + 2, centered=False)
    used = chaos.Kernel(grid, 2, kern.values * 1.01, validate=False) if corrupt else kern
    family = chaos.ustat_chaos_decomposition(used)
    dev = float(np.max(np.abs(chaos.ustat_eval_many(kern, u) - family.eval_many(u))))
    record("ustat_decomposition", dev, chaos.PATHWISE_TOL)

    # product expansion
    f1 = chaos.random_kernel(grid, 1, seed + 3)
    f2 = chaos.random_kernel(grid, 2, seed + 4)
    lhs, rhs = chaos.product_check_many(f1, f2, u)
    dev = float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs))))
    record("product_expansion", dev, chaos.PATHWISE_TOL)

    # derivative energy identity
    fam = chaos.family_from_kernels([f1, f2])
    lhs_e, rhs_e, ineq_e = chaos.derivative_energy_identity(fam)
    dev = abs(lhs_e - rhs_e) + max(0.0, lhs_e - ineq_e)
    record("derivative_energy_identity", dev, chaos.EXACT_TOL * (1.0 + abs(rhs_e)))

    # second moment: product-expansion route vs isometry route
    dev = abs(chaos.second_moment_product_route(fam) - fam.second_moment())
    record("second_moment_dual_route", dev, chaos.EXACT_TOL * (1.0 + fam.second_moment()))

    # graph-weight identity (triangle in the smallest host, aligned constant weights)
    from .patterns import named_pattern
    from .weights import Constant

    tri = named_pattern("triangle")
    model = Constant(1.0)
    gfam = graph_chaos.graph_weight_family(tri, 3, 0.5, model, cells=2)
    u3 = chaos.random_paths(seed + 5, min(n_paths, 500), 3)
    w = np.array([
        combined_weight(tri, HostSample(n=3, p=0.5, model=model, seed=0, replicate=0,
                                        uniforms=graph_chaos.path_host_uniforms(row)))
        for row in u3
    ])
    dev = float(np.max(np.abs(w - gfam.eval_many(u3))))
    record("graph_weight_identity", dev, chaos.PATHWISE_TOL)

    # Monte Carlo isometry in standard-error units
    prod = chaos.integral_eval_many(f2, u) * chaos.integral_eval_many(f2, u)
    target = 2.0 * f2.half_norm_sq()
    se = float(np.std(prod, ddof=1)) / math.sqrt(n_paths)
    dev = abs(float(np.mean(prod)) - target) / max(se, 1e-30)
    record("isometry_mc_se_units", dev, 5.0)

    return checks


def _cmd_chaos_verify(args) -> int:
    if args.paths < 2:
        # the Monte Carlo isometry check needs a sample standard deviation
        raise ChaosError(f"--paths must be at least 2, got {args.paths}")
    blocks, cells = _parse_grid(args.grid)
    checks = _chaos_checks(args.seed, (blocks, cells), args.paths, args.corrupt)
    passed = all(c["passed"] for c in checks)
    payload = {
        "format_version": FORMAT_VERSION,
        "config": {
            "subcommand": "chaos-verify",
            "seed": args.seed,
            "grid": args.grid,
            "paths": args.paths,
            "corrupt": bool(args.corrupt),
        },
        "checks": checks,
        "passed": passed,
    }
    _emit(_json_dumps(payload), args.out)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wclt",
        description="Weighted subgraph statistics of random graphs: bounds, simulation, "
                    "distances, and the chaos identity suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pattern_opts(p):
        p.add_argument("--pattern", required=True,
                       help="named pattern (triangle, cycle:r, complete:r, path:r, star:r) or a pattern file")
        p.add_argument("--weights", required=True,
                       help="weight model: const:c, unif:b, exp:lambda, twopoint:a,b,q")

    p_bound = sub.add_parser("bound", help="evaluate the rate bound for one configuration")
    add_pattern_opts(p_bound)
    p_bound.add_argument("--n", type=int, default=None)
    p_bound.add_argument("--p", type=float, default=None)
    p_bound.add_argument("--cutoff-c", type=float, default=0.5, dest="cutoff_c")
    p_bound.add_argument("--regime", action="store_true",
                         help="use the three-regime formula (balanced patterns only)")
    p_bound.add_argument("--sweep-n", default=None, dest="sweep_n",
                         help="with --sweep-p: emit a CSV over the (n, p) grid")
    p_bound.add_argument("--sweep-p", default=None, dest="sweep_p",
                         help="comma-separated retention probabilities for the sweep")
    p_bound.add_argument("--out", default=None)
    p_bound.set_defaults(func=_cmd_bound)

    p_sim = sub.add_parser("simulate", help="sample normalized combined weights to CSV")
    add_pattern_opts(p_sim)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--p", type=float, required=True)
    p_sim.add_argument("--reps", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--meta", default=None, help="write run metadata JSON here")
    p_sim.set_defaults(func=_cmd_simulate)

    p_dist = sub.add_parser("distance", help="Wasserstein-1 distance of a sample CSV to normal")
    p_dist.add_argument("--samples", required=True)
    p_dist.add_argument("--out", default=None)
    p_dist.set_defaults(func=_cmd_distance)

    p_verify = sub.add_parser("chaos-verify", help="run the chaos identity suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--grid", default="4,2", help="blocks,cells (default 4,2)")
    p_verify.add_argument("--paths", type=int, default=2000)
    p_verify.add_argument("--corrupt", action="store_true",
                          help="perturb one kernel as a negative control")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=_cmd_chaos_verify)

    p_sweep = sub.add_parser("rate-sweep", help="empirical distance vs rate term over n")
    add_pattern_opts(p_sweep)
    p_sweep.add_argument("--sweep-n", required=True, dest="sweep_n",
                         help="comma-separated host sizes, e.g. 10,20,40")
    p_choice = p_sweep.add_mutually_exclusive_group(required=True)
    p_choice.add_argument("--p", type=float, default=None, help="one p for every host")
    p_choice.add_argument("--p-rule", default=None, dest="p_rule",
                          help="pow:c,alpha for p = c * n^-alpha")
    p_sweep.add_argument("--reps", type=int, required=True)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_rate_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DegenerateConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ResourceLimitError, MemoryError) as exc:  # a cap, or an allocation that failed
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:  # also an unreadable input or unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
