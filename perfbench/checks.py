"""Output checks for the benchmark workloads.

Each workload has ``load`` (artifacts of one iteration, parsed), ``check``
(a list of ``(step, message)`` for every wrong output; empty when all are
right) and ``corrupt`` (a perturbed copy of the artifacts, which ``check``
must flag: the negative control).  Every oracle takes another code path than
the timed run: the copy-search combined weight, the pair-census identities,
a quantile-space Wasserstein-1 integral, an edge-subset rate term, and path
uniforms drawn straight from Philox.
"""

from __future__ import annotations

import copy
import csv
import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np
from scipy import special

from wclt.bounds import regime_bound
from wclt.graph_stats import HostSample, combined_weight, exact_mean, exact_variance, sample_host
from wclt.patterns import copies_in_complete, named_pattern
from wclt.weights import parse_weight_model

PATHWISE_TOL = 1e-9
EXACT_TOL = 1e-12
SE_LIMIT = 5.0
PERTURBATION = 1e-6


def _close(value: float, oracle: float, tol: float) -> bool:
    """Relative agreement, absolute for oracles below 1 in magnitude."""
    return abs(value - oracle) <= tol * max(1.0, abs(oracle))


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(line for line in handle if not line.startswith("#")))


def _w1_quantile_space(samples: np.ndarray) -> float:
    """W1 to the standard normal as the integral over u of |F_m^-1(u) - ndtri(u)|.

    On [(i-1)/m, i/m] the empirical quantile is the i-th order statistic x,
    the integrand changes sign at u* = ndtr(x), and ndtri integrates to
    -pdf(ndtri(u)), which vanishes at u = 0 and u = 1.
    """
    xs = np.sort(samples)
    m = xs.size
    a = np.arange(m) / m
    b = np.arange(1, m + 1) / m

    def antiderivative(u):
        q = special.ndtri(u)
        inner = (u > 0.0) & (u < 1.0)
        return np.where(inner, -np.exp(-0.5 * np.where(inner, q, 0.0) ** 2), 0.0) / math.sqrt(
            2.0 * math.pi)

    u_star = np.clip(special.ndtr(xs), a, b)
    below = xs * (u_star - a) - (antiderivative(u_star) - antiderivative(a))
    above = antiderivative(b) - antiderivative(u_star) - xs * (b - u_star)
    return float((below + above).sum())


def _rate_term_by_subsets(pattern, n: int, p: float) -> float:
    """((1 - p) * min over nonempty edge subsets H of n^v_H p^e_H)^(-1/2)."""
    smallest = math.inf
    for size in range(1, pattern.num_edges + 1):
        for subset in combinations(pattern.edges, size):
            vertices = {v for edge in subset for v in edge}
            smallest = min(smallest, float(n) ** len(vertices) * p**size)
    return ((1.0 - p) * smallest) ** -0.5


# -- simulate_tri40: simulate + distance --------------------------------------


def load_simulate(work: Path) -> dict:
    rows = _read_csv(work / "samples.csv")
    return {
        "raw": np.array([float(r["raw_w"]) for r in rows]),
        "normalized": np.array([float(r["normalized"]) for r in rows]),
        "meta": json.loads((work / "meta.json").read_text()),
        "distance": json.loads((work / "distance.json").read_text()),
    }


def check_simulate(art: dict, params: dict, seed: int) -> list[tuple[str, str]]:
    pattern = named_pattern(params["pattern"])
    model = parse_weight_model(params["weights"])
    n, p, reps = params["n"], params["p"], params["reps"]
    fails = []
    raw, normalized = art["raw"], art["normalized"]
    if raw.size != reps or normalized.size != reps:
        return [("simulate", f"expected {reps} rows, got {raw.size}")]
    for r in sorted({0, reps // 2, reps - 1}):
        oracle = combined_weight(pattern, sample_host(n, p, model, seed, r))
        if not _close(raw[r], oracle, PATHWISE_TOL):
            fails.append(("simulate", f"raw_w[{r}] = {raw[r]!r}, copy search gives {oracle!r}"))

    census = {int(h): int(c) for h, c in art["meta"]["census"].items()}
    copies, e_g = copies_in_complete(pattern, n), pattern.num_edges
    n_edges = n * (n - 1) // 2
    # each edge lies in C e_G / N copies, and sum_h h c_h = sum_e (copies through e)^2
    if sum(h * c for h, c in census.items()) * n_edges != (copies * e_g) ** 2:
        fails.append(("simulate", "census violates sum_h h c_h = (C e_G)^2 / N_edges"))
    if census.get(e_g) != copies:
        fails.append(("simulate", f"census c_{e_g} = {census.get(e_g)}, expected {copies}"))
    m = model.moments()
    variance = sum(c * p ** (2 * e_g - h) * (h * m.variance + e_g**2 * (1.0 - p**h) * m.mean**2)
                   for h, c in census.items())
    if not _close(art["meta"]["exact_variance"], variance, EXACT_TOL):
        fails.append(("simulate", f"exact_variance {art['meta']['exact_variance']!r} "
                                  f"!= census sum {variance!r}"))

    size = normalized.size
    mean = float(normalized.mean())
    dev2 = (normalized - mean) ** 2
    var = float(dev2.sum()) / (size - 1)
    mean_se = math.sqrt(var / size)
    var_se = float(dev2.std(ddof=1)) / math.sqrt(size)
    if abs(mean) > SE_LIMIT * mean_se:
        fails.append(("simulate", f"normalized mean {mean:.4g} is {abs(mean) / mean_se:.1f} SE off 0"))
    if abs(var - 1.0) > SE_LIMIT * var_se:
        fails.append(("simulate", f"normalized variance {var:.4g} is "
                                  f"{abs(var - 1.0) / var_se:.1f} SE off 1"))

    w1 = art["distance"]["result"]["w1"]
    oracle = _w1_quantile_space(normalized)
    if not _close(w1, oracle, EXACT_TOL):
        fails.append(("distance", f"w1 {w1!r}, quantile-space integral {oracle!r}"))
    return fails


def corrupt_simulate(art: dict) -> dict:
    bad = copy.deepcopy(art)
    bad["raw"][0] *= 1.0 + PERTURBATION
    return bad


# -- sweep_c4: rate-sweep + bound sweep ---------------------------------------


def load_sweep(work: Path) -> dict:
    return {"sweep": _read_csv(work / "sweep.csv"), "bound": _read_csv(work / "bound.csv")}


def check_sweep(art: dict, params: dict, seed: int) -> list[tuple[str, str]]:
    pattern = named_pattern(params["pattern"])
    model = parse_weight_model(params["weights"])
    fails = []
    ns = [int(row["n"]) for row in art["sweep"]]
    if ns != list(params["sweep_n"]):
        fails.append(("rate-sweep", f"rows for n = {ns}, expected {list(params['sweep_n'])}"))
    for row in art["sweep"]:
        n, p = int(row["n"]), float(row["p"])
        d_w, rate, ratio = float(row["d_w"]), float(row["rate_term"]), float(row["ratio"])
        if not (math.isfinite(d_w) and d_w > 0.0):
            fails.append(("rate-sweep", f"d_w = {d_w!r} at n = {n}"))
        oracle = _rate_term_by_subsets(pattern, n, p)
        if not _close(rate, oracle, EXACT_TOL):
            fails.append(("rate-sweep", f"rate_term {rate!r} at n = {n}, subsets give {oracle!r}"))
        if not _close(ratio, d_w / rate, EXACT_TOL):
            fails.append(("rate-sweep", f"ratio {ratio!r} != d_w / rate_term at n = {n}"))

    grid = [(n, p) for n in params["bound_n"] for p in params["bound_p"]]
    got = [(int(row["n"]), float(row["p"])) for row in art["bound"]]
    if got != grid:
        fails.append(("bound", f"{len(got)} grid rows, expected {len(grid)}"))
    for row in art["bound"]:
        n, p = int(row["n"]), float(row["p"])
        rep = regime_bound(pattern, n, p, model, cutoff=params["cutoff"])
        expected = (rep.rate_term, rep.moment_ratio, rep.bound_value, rep.regime or "", rep.family)
        observed = (float(row["rate_term"]), float(row["moment_ratio"]),
                    float(row["bound_value"]), row["regime"], row["family"])
        if observed != expected:
            fails.append(("bound", f"row n = {n}, p = {p}: {observed} != library {expected}"))
    return fails


def corrupt_sweep(art: dict) -> dict:
    bad = copy.deepcopy(art)
    bad["sweep"][0]["rate_term"] = repr(float(bad["sweep"][0]["rate_term"]) * (1.0 + PERTURBATION))
    return bad


# -- stein_graph: library Stein job + chaos-verify ----------------------------


def load_stein(work: Path) -> dict:
    return {"stein": json.loads((work / "stein.json").read_text()),
            "verify": json.loads((work / "verify.json").read_text())}


def check_stein(art: dict, params: dict, seed: int) -> list[tuple[str, str]]:
    pattern = named_pattern(params["pattern"])
    model = parse_weight_model(params["weights"])
    p = params["p"]
    fails = []
    hosts = [fam["n"] for fam in art["stein"]["families"]]
    if hosts != list(params["hosts"]):
        fails.append(("stein", f"families for n = {hosts}, expected {list(params['hosts'])}"))
    for fam in art["stein"]["families"]:
        n = fam["n"]
        if not fam["term1"] < 1e-9:
            fails.append(("stein", f"n = {n}: term1 = {fam['term1']!r} for a unit-variance family"))
        margin = fam["total"] + 3.0 / math.sqrt(fam["sample_size"])
        if not fam["w1"] <= margin:
            fails.append(("stein", f"n = {n}: empirical w1 {fam['w1']!r} over bound {margin!r}"))
        # the paths eval_many saw, regenerated from Philox without wclt.rng
        blocks = n * (n - 1) // 2
        head = fam["head"]
        gen = np.random.Generator(np.random.Philox(key=fam["path_seed"]))
        paths = 2.0 * gen.random(len(head) * blocks).reshape(len(head), blocks) - 1.0
        mean = exact_mean(pattern, n, p, model)
        scale = math.sqrt(exact_variance(pattern, n, p, model))
        for i, (value, path) in enumerate(zip(head, paths)):
            host = HostSample(n=n, p=p, model=model, seed=fam["path_seed"], replicate=i,
                              uniforms=(1.0 + path) / 2.0)
            oracle = (combined_weight(pattern, host) - mean) / scale
            if not _close(value, oracle, PATHWISE_TOL):
                fails.append(("stein", f"n = {n}, path {i}: eval_many {value!r}, "
                                       f"combined weight gives {oracle!r}"))
    if not art["verify"].get("passed"):
        failed = [c["name"] for c in art["verify"].get("checks", []) if not c["passed"]]
        fails.append(("chaos-verify", f"failed checks {failed}"))
    return fails


def corrupt_stein(art: dict) -> dict:
    bad = copy.deepcopy(art)
    bad["stein"]["families"][0]["head"][0] += PERTURBATION
    return bad
