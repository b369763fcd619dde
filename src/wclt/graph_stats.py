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
from functools import lru_cache, reduce
from itertools import combinations, islice, product
from typing import NamedTuple

import numpy as np

from . import rng
from .errors import DegenerateConfigError, ResourceLimitError
from .patterns import (
    MAX_HOST_VERTICES,
    PatternGraph,
    _check_np,
    _neighbours,
    _normalize_edge,
    _partial_self_maps,
    automorphism_count,
    check_p,
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


# Copies of the pattern in K_n above which the sampler refuses a plan with a
# term that has no elimination order: such a term sums rank-one products over
# the value tuples of its free vertices, about as much work per replicate as a
# gather over every copy of the pattern in K_n.
MAX_COPIES = 100_000


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
    if any(term.order is None for term in _weight_plan(pattern).terms):
        copies = copies_in_complete(pattern, n)
        if copies > MAX_COPIES:
            raise ResourceLimitError(
                f"pattern with no elimination order: sampler capped at {MAX_COPIES} "
                f"copies, K_{n} holds {copies}")


def sample_host(n: int, p: float, model: WeightModel, seed: int, replicate: int) -> HostSample:
    """Deterministic host draw: uniforms are the (replicate)-th row of the seed's stream."""
    _check_host_size(n)
    if n < 2:
        raise ValueError(f"host size must be at least 2, got {n}")
    check_p(p)
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
    _check_np(pattern, n, p)
    e_g = pattern.num_edges
    return copies_in_complete(pattern, n) * e_g * p**e_g * model.mean


def intersection_pair_census(pattern: PatternGraph, n: int) -> dict[int, int]:
    """Ordered pairs of copies in the complete host, counted by shared edge count >= 1.

    Includes the diagonal (every copy paired with itself, sharing all e_G
    edges).  Pairs sharing no edge are not reported; they do not contribute
    to the variance.

    K_n is symmetric under vertex permutations, so every copy has the same
    partners up to relabeling.  Take the pattern itself as the fixed copy; a
    partner is phi(G) for an injective phi, reached by aut(G) maps.  The
    restriction of phi to the vertices it sends into the fixed copy is a
    partial self-map of size s, and the other v_G - s vertices go outside in
    (n - v_G)_{v_G - s} ways, so census_n(h) = copies * sum_s N_s(h)
    (n - v_G)_{v_G - s} / aut(G) with N_s(h), h >= 1, from ``_partial_self_maps``.
    """
    copies = copies_in_complete(pattern, n)
    census: dict[int, int] = {}
    if copies == 0:  # n < v_G, where the falling factorial is undefined
        return census
    v_g = pattern.num_vertices
    for s, h, count in _partial_self_maps(pattern):
        if h:
            census[h] = census.get(h, 0) + count * math.perm(n - v_g, v_g - s)
    aut = automorphism_count(pattern)
    return {h: copies * (c // aut) for h, c in sorted(census.items()) if c}


def exact_variance(pattern: PatternGraph, n: int, p: float, model: WeightModel) -> float:
    """Sum over the pair census of the closed-form covariance of two copies.

    Two copies sharing h >= 1 edges have covariance
    p^{2 e_G - h} (h Var[X] + e_G^2 (1 - p^h) E[X]^2); disjoint pairs are
    independent.
    """
    _check_np(pattern, n, p)
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


# Host cells (chunk * n^2) in one dense adjacency batch; small enough that a
# chunk's arrays stay in cache.  The chunk size depends on n alone, never on
# the thread count.
_CHUNK_CELLS = 1 << 14


class _OpenTerm(NamedTuple):
    """coefficient * hom(quotient, A) with the ends of its open edge held at (i, j).

    ``edges`` are the quotient's edges other than the open one.  The other
    vertices are eliminated in ``order``, one batched matmul or less each.
    When no such order exists, ``order`` is None and all of them are
    conditioned on instead: each tuple of their values is a rank-one term,
    and the tuples are summed by matmul.  If those vertices are pairwise
    adjacent twins, only increasing tuples are taken and the coefficient
    carries their orderings.
    """

    coefficient: int
    edges: tuple[Edge, ...]
    open_edge: Edge
    free: tuple[int, ...]
    order: tuple[int, ...] | None
    increasing: bool


class _WeightPlan(NamedTuple):
    automorphisms: int
    terms: tuple[_OpenTerm, ...]


def _independent_partitions(pattern: PatternGraph):
    """Block labels per vertex, and block sizes, for each vertex partition with
    no pattern edge inside a block."""
    v_g = pattern.num_vertices
    nbrs = _neighbours(v_g, pattern.edges)
    labels = [0] * v_g
    blocks: list[set[int]] = []

    def extend(i: int):
        if i == v_g:
            yield tuple(labels), [len(b) for b in blocks]
            return
        for b, members in enumerate(blocks):
            if not nbrs[i] & members:
                members.add(i)
                labels[i] = b
                yield from extend(i + 1)
                members.remove(i)
        blocks.append({i})
        labels[i] = len(blocks) - 1
        yield from extend(i + 1)
        blocks.pop()

    yield from extend(0)


def _refine(colour: list, nbrs: list[set[int]]) -> list[int]:
    """Colour refinement to a stable partition; colours are ranks, independent of labels."""
    classes = -1
    while True:
        sig = [(colour[v], tuple(sorted(colour[w] for w in nbrs[v]))) for v in range(len(nbrs))]
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        colour = [rank[s] for s in sig]
        if len(rank) == classes:
            return colour
        classes = len(rank)


def _canonical_term(k: int, edges, open_edge: Edge) -> tuple:
    """(k, edges, open edge) relabeled by refinement, individualizing the lowest label of a tie.

    Terms with equal keys are evaluated once.  The key is an exact
    relabeling, so a tie broken differently for two isomorphic terms only
    costs a duplicate evaluation, never a wrong sum.
    """
    nbrs = _neighbours(k, edges)
    colour = _refine([(v in open_edge, len(nbrs[v])) for v in range(k)], nbrs)
    while len(set(colour)) < k:
        tied = min(c for c in colour if colour.count(c) > 1)
        colour[colour.index(tied)] = -1
        colour = _refine(colour, nbrs)

    def pair(u: int, w: int) -> Edge:
        return _normalize_edge(colour[u], colour[w])

    return k, tuple(sorted(pair(u, w) for u, w in edges)), pair(*open_edge)


def _elimination_order(k: int, edges, open_edge: Edge) -> tuple[int, ...] | None:
    """Greedy minimum-degree order of the vertices off the open edge, or None.

    Eliminating a vertex joins its neighbours; an order exists when each
    vertex has at most two neighbours left when its turn comes.
    """
    nbrs = _neighbours(k, edges)
    free = [v for v in range(k) if v not in open_edge]
    order = []
    while free:
        v = min(free, key=lambda x: (len(nbrs[x]), x))
        if len(nbrs[v]) > 2:
            return None
        for a in nbrs[v]:
            nbrs[a] |= nbrs[v] - {a}
            nbrs[a].discard(v)
        order.append(v)
        free.remove(v)
    return tuple(order)


def _open_term(coefficient: int, k: int, edges: tuple[Edge, ...], open_edge: Edge) -> _OpenTerm:
    free = tuple(v for v in range(k) if v not in open_edge)
    order = _elimination_order(k, edges, open_edge)
    closed = [nbrs | {v} for v, nbrs in enumerate(_neighbours(k, edges))]
    increasing = order is None and all(closed[u] == closed[w] and w in closed[u]
                                       for u in free for w in free)
    if increasing:
        coefficient *= math.factorial(len(free))
    return _OpenTerm(coefficient, edges, open_edge, free, order, increasing)


@lru_cache(maxsize=None)
def _weight_plan(pattern: PatternGraph) -> _WeightPlan:
    """Open-edge homomorphism terms whose sum is aut(G) times the copy counts per edge.

    inj(G, A) = sum over partitions pi with no edge inside a block of
    mu(pi) hom(G/pi, A), mu(pi) = prod_B (-1)^{|B|-1} (|B|-1)!.  Each edge
    of G mapped to the quotient edge f of multiplicity m_f leaves f open once,
    and A o A = A, so the partition contributes mu(pi) m_f times the count of
    G/pi with f open and the other edges simple.  Isomorphic terms are merged.
    """
    automorphisms = automorphism_count(pattern)  # checks the pattern-size cap before any walk
    coefficients: dict[tuple, int] = {}
    keys: dict[tuple, tuple] = {}  # many partitions share a labeled quotient
    for labels, sizes in _independent_partitions(pattern):
        mu = math.prod((-1) ** (s - 1) * math.factorial(s - 1) for s in sizes)
        multiplicity: dict[Edge, int] = {}
        for u, w in pattern.edges:
            f = _normalize_edge(labels[u], labels[w])
            multiplicity[f] = multiplicity.get(f, 0) + 1
        for f, m in multiplicity.items():
            term = (len(sizes), tuple(sorted(g for g in multiplicity if g != f)), f)
            if term not in keys:
                keys[term] = _canonical_term(*term)
            coefficients[keys[term]] = coefficients.get(keys[term], 0) + mu * m
    terms = tuple(_open_term(c, *key) for key, c in sorted(coefficients.items()) if c)
    return _WeightPlan(automorphisms, terms)


def _oriented(factor: tuple, first: int) -> np.ndarray:
    """A pair factor's array indexed [replicate, first, other]; symmetric ones as stored."""
    scope, arr, symmetric = factor
    return arr if symmetric or scope[0] == first else arr.transpose(0, 2, 1)


def _eliminate(factors: list, v: int) -> list:
    """Sum out vertex v from factors (scope, array indexed [replicate, *scope], symmetric)."""
    vec = None
    pairs: dict[int, list] = {}  # neighbour w -> the factors on {v, w}
    rest = []
    for factor in factors:
        scope, arr, _ = factor
        if v not in scope:
            rest.append(factor)
        elif len(scope) == 1:
            vec = arr if vec is None else vec * arr
        else:
            pairs.setdefault(scope[0] + scope[1] - v, []).append(factor)

    def matrix(w: int, first: int) -> np.ndarray:
        return reduce(np.multiply, (_oriented(f, first) for f in pairs[w]))

    ws = sorted(pairs)
    if not ws:
        rest.append(((), vec.sum(axis=1), True))
    elif len(ws) == 1:
        m = matrix(ws[0], v)
        rest.append(((ws[0],), m.sum(axis=1) if vec is None else (vec[:, None, :] @ m)[:, 0], True))
    else:
        left = matrix(ws[0], ws[0])
        if vec is not None:
            left = left * vec[:, None, :]
        rest.append(((ws[0], ws[1]), left @ matrix(ws[1], v), False))
    return rest


def _on_open_edge(factor: tuple, a: int) -> np.ndarray:
    """A factor left after elimination, broadcast to [replicate, a, b]."""
    scope, arr, _ = factor
    if len(scope) == 2:
        return _oriented(factor, a)
    if not scope:
        return arr[:, None, None]
    return arr[:, :, None] if scope == (a,) else arr[:, None, :]


def _eliminated_count(term: _OpenTerm, adjacency: np.ndarray):
    """hom of the term's quotient with its open edge on (i, j), per replicate: [r, i, j]."""
    factors = [(edge, adjacency, True) for edge in term.edges]
    for v in term.order:
        factors = _eliminate(factors, v)
    if not factors:
        return 1.0
    factors.sort(key=lambda f: len(f[0]))  # vectors first: one full-size product fewer
    return reduce(np.multiply, (_on_open_edge(f, term.open_edge[0]) for f in factors))


def _conditioned_count(term: _OpenTerm, adjacency: np.ndarray):
    """sum over value tuples t of the free vertices of s_t * outer(u_t, v_t), by matmul.

    s_t is the product of the edges among the free vertices, u_t (v_t) that
    of the edges from them to the first (second) end of the open edge.
    """
    c, n = adjacency.shape[:2]
    a, b = term.open_edge
    slot = {v: i for i, v in enumerate(term.free)}
    inner = [(slot[u], slot[w]) for u, w in term.edges if u in slot and w in slot]
    at = {e: tuple(slot[u + w - e] for u, w in term.edges if e in (u, w)) for e in (a, b)}
    k = len(term.free)
    tuples = combinations(range(n), k) if term.increasing else product(range(n), repeat=k)
    step = max(1, _CHUNK_CELLS // (c * n))
    total = 0.0
    while block := list(islice(tuples, step)):
        t = np.array(block)
        if not term.increasing:  # adjacent free vertices on one host vertex add nothing
            t = t[np.all([t[:, i] != t[:, j] for i, j in inner], axis=0)]
        # arrays indexed [replicate, tuple, host vertex]
        scale = np.ones((c, len(t), 1))
        for i, j in inner:
            scale = scale * adjacency[:, t[:, i], t[:, j]][:, :, None]
        rows = {i: adjacency[:, t[:, i], :] for i in set(at[a] + at[b])}
        # an end with no free neighbour (a disconnected pattern) is one column of ones
        ends = {xs: reduce(np.multiply, (rows[i] for i in xs)) if xs else np.ones((c, len(t), 1))
                for xs in (at[a], at[b])}
        total = total + (ends[at[a]] * scale).transpose(0, 2, 1) @ ends[at[b]]
    return total


@lru_cache(maxsize=None)
def _host_cells(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge index of every cell of the n x n adjacency (n_edges off the edge set),
    and the flat cells (i, j) and (j, i) of each edge i < j."""
    iu, ju = np.triu_indices(n, 1)
    upper, lower = iu * n + ju, ju * n + iu
    cell_edge = np.full(n * n, iu.size)
    cell_edge[upper] = cell_edge[lower] = np.arange(iu.size)
    return cell_edge, upper, lower


def _accumulate_weights(plan: _WeightPlan, n: int, p: float, model: WeightModel,
                        seed: int, out: np.ndarray, lo: int, hi: int) -> None:
    """Fill out[lo:hi] with combined weights for replicates lo..hi.

    W = sum_e w_e N_e, where N_e counts the present copies through the
    present edge e.  N_e comes from the batched 0/1 adjacency through the
    pattern's ``_weight_plan``; every count is an integer below 2^53, so it
    is exact and the same whatever the chunk, and each replicate's row sum
    is taken on its own.
    """
    n_edges = n * (n - 1) // 2
    u = rng.uniform_matrix(seed, hi - lo, n_edges, first_row=lo)
    present = u < p
    weights = np.zeros_like(u)
    weights[present] = model.quantile_array(u[present] / p)
    cell_edge, upper, lower = _host_cells(n)
    padded = np.zeros((hi - lo, n_edges + 1))
    padded[:, :n_edges] = present
    adjacency = padded[:, cell_edge].reshape(hi - lo, n, n)
    counts = sum(term.coefficient * (_conditioned_count(term, adjacency) if term.order is None
                                     else _eliminated_count(term, adjacency))
                 for term in plan.terms)
    counts = np.broadcast_to(counts, adjacency.shape).reshape(hi - lo, n * n)
    per_edge = (counts[:, upper] + counts[:, lower]) / plan.automorphisms
    out[lo:hi] = (weights * per_edge).sum(axis=1)


def normalized_samples(pattern: PatternGraph, n: int, p: float, model: WeightModel,
                       reps: int, seed: int) -> SampleBatch:
    """Independent replicates of the combined weight, centered and scaled exactly."""
    if reps < 0:
        raise ValueError(f"reps must be nonnegative, got {reps}")
    check_sample_config(pattern, n, p)
    mean = exact_mean(pattern, n, p, model)
    var = exact_variance(pattern, n, p, model)
    if var <= 1e-12 * mean * mean:
        raise DegenerateConfigError(
            "configuration has numerically zero variance; cannot normalize"
        )
    raw = np.empty(reps, dtype=float)
    plan = _weight_plan(pattern)
    rng.map_chunks(
        lambda lo, hi: _accumulate_weights(plan, n, p, model, seed, raw, lo, hi),
        rng.chunk_ranges(reps, max(1, _CHUNK_CELLS // (n * n))),
    )
    normalized = (raw - mean) / math.sqrt(var)
    raw.setflags(write=False)
    normalized.setflags(write=False)
    return SampleBatch(pattern=pattern, n=n, p=p, model=model, seed=seed,
                       exact_mean=mean, exact_variance=var, raw=raw, normalized=normalized)
