"""Weighted random-graph sampling and exact moments of the combined pattern weight.

Each edge of the complete host carries one uniform; the edge is retained when
the uniform falls below p and its weight is then quantile(uniform / p), whose
conditional law is exactly the weight model.  Presence and weight coming from
a single uniform is what lets the chaos module reproduce the statistic
pathwise from the same stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import rng
from .errors import DegenerateConfigError, ResourceLimitError
from .patterns import (
    MAX_HOST_VERTICES,
    PatternGraph,
    _check_np,
    complete_graph_edges,
    copies_in_complete,
    edge_subgraph_profiles,
    enumerate_copies,
)
from .weights import WeightModel

Edge = tuple[int, int]


@lru_cache(maxsize=None)
def _edge_index(n: int) -> dict[Edge, int]:
    return {e: i for i, e in enumerate(complete_graph_edges(n))}


# Copies of the pattern in K_n that one enumeration may hold in memory; the
# sampler's per-chunk arrays and the copy set both grow linearly with it.
MAX_COPIES = 100_000


def _check_copies(pattern: PatternGraph, n: int) -> None:
    copies = copies_in_complete(pattern, n)
    if copies > MAX_COPIES:
        raise ResourceLimitError(
            f"copy enumeration capped at {MAX_COPIES} copies, K_{n} holds {copies}")


@lru_cache(maxsize=None)
def _copies_in_kn(pattern: PatternGraph, n: int) -> tuple[tuple[int, ...], ...]:
    """Copies of the pattern in the complete host, as tuples of edge indices."""
    _check_copies(pattern, n)
    index = _edge_index(n)
    copies = enumerate_copies(pattern, complete_graph_edges(n))
    return tuple(tuple(index[e] for e in copy) for copy in copies)


@dataclass(frozen=True)
class HostSample:
    """One realization of the weighted random graph, determined by its uniforms."""

    n: int
    p: float
    model: WeightModel
    seed: int
    replicate: int
    uniforms: np.ndarray  # one value in [0, 1) per edge of the complete host

    @property
    def present(self) -> np.ndarray:
        return self.uniforms < self.p

    def edge_weights(self) -> np.ndarray:
        """Weight per edge index; zero on absent edges."""
        out = np.zeros_like(self.uniforms)
        mask = self.present
        out[mask] = self.model.quantile_array(self.uniforms[mask] / self.p)
        return out

    def present_edges(self) -> list[Edge]:
        edges = complete_graph_edges(self.n)
        return [edges[i] for i in np.flatnonzero(self.present)]


@dataclass(frozen=True)
class SampleBatch:
    """Replicated draws of the combined weight, raw and normalized."""

    pattern: PatternGraph
    n: int
    p: float
    model: WeightModel
    seed: int
    exact_mean: float
    exact_variance: float
    raw: np.ndarray
    normalized: np.ndarray

    @property
    def reps(self) -> int:
        return self.raw.size


def _check_host_size(n: int) -> None:
    """Copy enumeration caps the host; reject a larger n before any work."""
    if n > MAX_HOST_VERTICES:
        raise ResourceLimitError(f"host capped at {MAX_HOST_VERTICES} vertices, got n = {n}")


def check_sample_config(pattern: PatternGraph, n: int, p: float) -> None:
    """Reject a configuration that ``normalized_samples`` cannot run, before any work."""
    _check_host_size(n)
    _check_np(pattern, n, p)
    _check_copies(pattern, n)


def sample_host(n: int, p: float, model: WeightModel, seed: int, replicate: int) -> HostSample:
    """Deterministic host draw: uniforms are the (replicate)-th row of the seed's stream."""
    _check_host_size(n)
    if n < 2:
        raise ValueError(f"host size must be at least 2, got {n}")
    if not (0.0 < p < 1.0):
        raise ValueError(f"retention probability must lie in (0, 1), got {p}")
    n_edges = n * (n - 1) // 2
    uniforms = rng.uniform_matrix(seed, 1, n_edges, first_row=replicate)[0]
    uniforms.setflags(write=False)
    return HostSample(n=n, p=p, model=model, seed=seed, replicate=replicate, uniforms=uniforms)


def combined_weight(pattern: PatternGraph, host: HostSample) -> float:
    """Total weight of present copies: enumerate copies inside the present edge set."""
    present = host.present_edges()
    if len(present) < pattern.num_edges:
        return 0.0
    weights = host.edge_weights()
    index = _edge_index(host.n)
    total = 0.0
    for copy in enumerate_copies(pattern, present):
        total += sum(weights[index[e]] for e in copy)
    return total


def exact_mean(pattern: PatternGraph, n: int, p: float, model: WeightModel) -> float:
    """copies * e_G * p^{e_G} * E[X]."""
    if n < pattern.num_vertices:
        raise ValueError(f"need n >= {pattern.num_vertices}")
    e_g = pattern.num_edges
    return copies_in_complete(pattern, n) * e_g * p**e_g * model.mean


def intersection_pair_census(pattern: PatternGraph, n: int) -> dict[int, int]:
    """Ordered pairs of copies in the complete host, counted by shared edge count >= 1.

    Includes the diagonal (every copy paired with itself, sharing all e_G
    edges).  Pairs sharing no edge are not reported; they do not contribute
    to the variance.

    K_n is symmetric under vertex permutations, so every copy has the same
    partners up to relabeling: census_n(h) = copies * sum_j C(n - v_G, j) * b_j(h),
    where b_j(h) counts the partners of one fixed copy that share h edges with
    it and use j given vertices outside it (see ``_fixed_copy_overlaps``).
    """
    copies = copies_in_complete(pattern, n)
    census: dict[int, int] = {}
    if copies == 0:
        return census
    v_g = pattern.num_vertices
    for h, j, count in _fixed_copy_overlaps(pattern, min(n, 2 * v_g - 2)):
        census[h] = census.get(h, 0) + math.comb(n - v_g, j) * count
    return {h: copies * c for h, c in sorted(census.items()) if c}


@lru_cache(maxsize=None)
def _fixed_copy_overlaps(pattern: PatternGraph, m: int) -> tuple[tuple[int, int, int], ...]:
    """Triples (h, j, b_j(h)) for the pattern itself as the fixed copy on vertices 0..v_G-1.

    A partner sharing an edge keeps at least two vertices inside the fixed
    copy, so j <= v_G - 2 and K_m with m = min(n, 2 v_G - 2) holds a partner
    of every kind that K_n holds; it never holds more copies than K_n.  K_m
    holds C(m - v_G, j) sets of j outside vertices, each with the same b_j(h)
    partners, so the tallies divide exactly.
    """
    v_g = pattern.num_vertices
    edges = complete_graph_edges(m)
    index = _edge_index(m)
    own = {index[e] for e in pattern.edges}
    tally: dict[tuple[int, int], int] = {}
    for copy in _copies_in_kn(pattern, m):
        h = len(own.intersection(copy))
        if h:
            j = len({w for i in copy for w in edges[i] if w >= v_g})
            tally[h, j] = tally.get((h, j), 0) + 1
    return tuple((h, j, c // math.comb(m - v_g, j)) for (h, j), c in sorted(tally.items()))


def exact_variance(pattern: PatternGraph, n: int, p: float, model: WeightModel) -> float:
    """Sum over the pair census of the closed-form covariance of two copies.

    Two copies sharing h >= 1 edges have covariance
    p^{2 e_G - h} (h Var[X] + e_G^2 (1 - p^h) E[X]^2); disjoint pairs are
    independent.
    """
    m = model.moments()
    e_g = pattern.num_edges
    total = 0.0
    for h, count in intersection_pair_census(pattern, n).items():
        total += count * p ** (2 * e_g - h) * (h * m.variance + e_g**2 * (1.0 - p**h) * m.mean**2)
    return total


def asymptotic_variance(pattern: PatternGraph, n: int, p: float, model: WeightModel) -> float:
    """Overlap-counting representative of the variance.

    (Var[X] + (1-p) E[X]^2) * sum over edge-subgraph profiles H of
    multiplicity_H * (n)_{2 v_G - v_H} * p^{2 e_G - e_H}.

    An ordered pair of copies whose shared edges form H places
    2 v_G - v_H distinct host vertices, counted by the falling factorial;
    a term with 2 v_G - v_H > n is zero, since that overlap does not fit in
    the host.  The sum lies between max_H (n)_{2 v_G - v_H} p^{2 e_G - e_H}
    and (2^{e_G} - 1) * max_variance_term, so it has the order of the
    largest variance term, with constants depending on the pattern only.
    """
    _check_np(pattern, n, p)
    m = model.moments()
    v_g, e_g = pattern.num_vertices, pattern.num_edges
    overlaps = sum(
        prof.multiplicity * math.perm(n, 2 * v_g - prof.v_h) * p ** (2 * e_g - prof.e_h)
        for prof in edge_subgraph_profiles(pattern)
    )
    return (m.variance + (1.0 - p) * m.mean**2) * overlaps


def _accumulate_weights(pattern: PatternGraph, n: int, p: float, model: WeightModel,
                        seed: int, out: np.ndarray, lo: int, hi: int) -> None:
    """Fill out[lo:hi] with combined weights for replicates lo..hi."""
    n_edges = n * (n - 1) // 2
    copies = np.array(_copies_in_kn(pattern, n), dtype=np.int64)
    u = rng.uniform_matrix(seed, hi - lo, n_edges, first_row=lo)
    present = u < p
    weights = np.zeros_like(u)
    weights[present] = model.quantile_array(u[present] / p)
    all_present = np.ones((hi - lo, copies.shape[0]), dtype=bool)
    weight_sums = np.zeros((hi - lo, copies.shape[0]))
    for j in range(copies.shape[1]):
        col = copies[:, j]
        all_present &= present[:, col]
        weight_sums += weights[:, col]
    out[lo:hi] = (all_present * weight_sums).sum(axis=1)


def normalized_samples(pattern: PatternGraph, n: int, p: float, model: WeightModel,
                       reps: int, seed: int) -> SampleBatch:
    """Independent replicates of the combined weight, centered and scaled exactly."""
    check_sample_config(pattern, n, p)
    mean = exact_mean(pattern, n, p, model)
    var = exact_variance(pattern, n, p, model)
    if var <= 1e-12 * mean * mean:
        raise DegenerateConfigError(
            "configuration has numerically zero variance; cannot normalize"
        )
    if reps < 0:
        raise ValueError("reps must be nonnegative")
    raw = np.empty(reps, dtype=float)
    n_copies = len(_copies_in_kn(pattern, n))
    chunk = max(64, min(20_000, 4_000_000 // max(1, n_copies)))
    rng.map_chunks(
        lambda lo, hi: _accumulate_weights(pattern, n, p, model, seed, raw, lo, hi),
        rng.chunk_ranges(reps, chunk),
    )
    normalized = (raw - mean) / math.sqrt(var)
    raw.setflags(write=False)
    normalized.setflags(write=False)
    return SampleBatch(pattern=pattern, n=n, p=p, model=model, seed=seed,
                       exact_mean=mean, exact_variance=var, raw=raw, normalized=normalized)
