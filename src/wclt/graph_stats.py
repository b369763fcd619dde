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
from decimal import Decimal
from functools import lru_cache
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


def retained_weights(uniforms: np.ndarray, p: float, model: WeightModel,
                     out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The mask u < p and the weights quantile(u / p) where u < p, else 0.

    Both come in the input's shape; ``out``, a float64 array of that shape
    when given, receives the weights.  The quantile runs on the retained
    edges only.  Their flat index comes from the bool mask, and ``take`` and
    the indexed store move the values without the branch per element of a
    boolean gather and scatter.
    """
    present = uniforms < p
    index = np.flatnonzero(present)
    if out is None:
        weights = np.zeros(present.shape)
    else:
        weights = out
        weights.fill(0.0)
    retained = uniforms.take(index)
    retained /= p
    weights.reshape(-1)[index] = model.quantile_array(retained)
    return present, weights


@dataclass(frozen=True)
class HostSample:
    """One realization of the weighted random graph, determined by its uniforms.

    With ``sample_host`` and ``combined_weight``, the copy-search oracle of the
    tests and the benchmark checks: no library path calls them."""

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
        return retained_weights(self.uniforms, self.p, self.model)[1]

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


# Work units per replicate above which the sampler refuses a configuration.
# Each bag of a plan term costs n^2 per value tuple: n^3 for a single vertex,
# C(n, k) n^2 or n^k n^2 for a final bag of k.  Every term counts at least
# n^3, so one replicate's n^2 cells stay small.  At the cap a replicate
# takes from about 5 ms (the triangle at n = 464, float32 counts) to 0.07 s
# (complete:10 at n = 21, float64 counts), one thread on a 2-vCPU VM at p = 0.1.
MAX_REPLICATE_WORK = 10**8


def check_sample_config(pattern: PatternGraph, n: int, p: float) -> None:
    """Reject a configuration that ``normalized_samples`` cannot run, before any work."""
    _check_np(pattern, n, p)
    work = 0
    for term in _weight_plan(pattern).terms:
        bags = sum(max(math.comb(n, len(bag)) if term.increasing else n ** len(bag), n) * n * n
                   for bag in term.bags)
        work += max(bags, n**3)
    if work > MAX_REPLICATE_WORK:
        raise ResourceLimitError(
            f"sampler plan at n = {n} for the pattern with v_G = {pattern.num_vertices}, "
            f"e_G = {pattern.num_edges}: {Decimal(work):.3g} work units per replicate, "
            f"capped at {Decimal(MAX_REPLICATE_WORK):.0e}")


def sample_host(n: int, p: float, model: WeightModel, seed: int, replicate: int) -> HostSample:
    """Deterministic host draw: uniforms are the (replicate)-th row of the seed's stream."""
    if n > MAX_HOST_VERTICES:  # its hosts are for the copy search, which has this cap
        raise ResourceLimitError(f"host capped at {MAX_HOST_VERTICES} vertices, got n = {n}")
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
    weight = dict(zip(complete_graph_edges(host.n), host.edge_weights()))
    total = 0.0
    for copy in enumerate_copies(pattern, present):
        total += sum(weight[e] for e in copy)
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
    variance, mean = model.variance, model.mean
    e_g = pattern.num_edges
    total = 0.0
    for h, count in intersection_pair_census(pattern, n).items():
        total += count * p ** (2 * e_g - h) * (h * variance + e_g**2 * (1.0 - p**h) * mean**2)
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
    v_g, e_g = pattern.num_vertices, pattern.num_edges
    overlaps = sum(
        prof.multiplicity * math.perm(n, 2 * v_g - prof.v_h) * p ** (2 * e_g - prof.e_h)
        for prof in edge_subgraph_profiles(pattern)
    )
    return (model.variance + (1.0 - p) * model.mean**2) * overlaps


# Bytes in one dense (chunk, n, n) array of the sampler, and in one per-block
# array of a bag's gathered rows: small enough that a chunk's arrays stay in
# cache.  At 8 bytes a value this is 2^15 host cells, at 4 bytes 2^16.  The
# chunk size depends on n and the count dtype alone, never on the thread count.
_CHUNK_BYTES = 1 << 18

# Every integer of magnitude up to 2^24 is exact in float32: the range of its
# 24-bit significand.
_FLOAT32_EXACT = 1 << 24


def _chunk_rows(dtype: np.dtype, cells: int) -> int:
    """Rows of ``cells`` values of ``dtype`` that fit the byte budget; at least 1."""
    return max(1, _CHUNK_BYTES // (dtype.itemsize * cells))


class _OpenTerm(NamedTuple):
    """coefficient * hom(quotient, A) with the ends of its open edge held at (i, j).

    ``edges`` are the quotient's edges other than the open one.  The other
    vertices are summed out bag by bag, in order: single vertices while one
    has at most two neighbours left, then the rest as one final bag.  If a
    bag holds all of them and they are pairwise adjacent twins,
    ``increasing`` is set: only its increasing value tuples are taken and
    the coefficient carries their orderings.
    """

    coefficient: int
    edges: tuple[Edge, ...]
    open_edge: Edge
    bags: tuple[tuple[int, ...], ...]
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


def _elimination_bags(k: int, edges, open_edge: Edge) -> tuple[tuple[int, ...], ...]:
    """Greedy minimum-degree elimination of the vertices off the open edge, as bags.

    Eliminating a vertex joins its neighbours.  Single vertices are taken
    while one has at most two neighbours left; the free vertices still left
    then form one final bag, whose outside neighbours lie on the open edge.
    """
    nbrs = _neighbours(k, edges)
    free = [v for v in range(k) if v not in open_edge]
    bags = []
    while free:
        v = min(free, key=lambda x: (len(nbrs[x]), x))
        if len(nbrs[v]) > 2:
            return (*bags, tuple(free))
        for a in nbrs[v]:
            nbrs[a] |= nbrs[v] - {a}
            nbrs[a].discard(v)
        bags.append((v,))
        free.remove(v)
    return tuple(bags)


def _open_term(coefficient: int, k: int, edges: tuple[Edge, ...], open_edge: Edge) -> _OpenTerm:
    bags = _elimination_bags(k, edges, open_edge)
    # only a bag of every free vertex: a later one's orderings would move _count_dtype's bound
    first = bags[0] if bags else ()
    closed = [nbrs | {v} for v, nbrs in enumerate(_neighbours(k, edges))]
    increasing = len(first) > 1 and all(closed[u] == closed[w] and w in closed[u]
                                        for u in first for w in first)
    if increasing:
        coefficient *= math.factorial(len(first))
    return _OpenTerm(coefficient, edges, open_edge, bags, increasing)


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


def _count_dtype(plan: _WeightPlan, n: int) -> np.dtype:
    """float32 when it holds every integer the plan forms at host size n, else float64.

    A term's intermediates count partial homomorphisms of its quotient, so
    each is at most n^|free|.  The cube adds coefficient * count over the
    terms and an edge adds two cells, so no value the sampler forms in the
    count dtype exceeds 2 sum_t |coefficient_t| n^|free_t| in magnitude.
    """
    bound = 2 * sum(abs(term.coefficient) * n ** sum(map(len, term.bags)) for term in plan.terms)
    return np.dtype(np.float32 if bound < _FLOAT32_EXACT else np.float64)


class SamplerLayout(NamedTuple):
    """How ``normalized_samples`` evaluates the copy counts at one host size."""

    count_dtype: np.dtype
    chunk_rows: int
    plan_terms: int


def sampler_layout(pattern: PatternGraph, n: int) -> SamplerLayout:
    """The count dtype, the replicates per chunk and the plan's term count at host size n."""
    plan = _weight_plan(pattern)
    dtype = _count_dtype(plan, n)
    return SamplerLayout(dtype, _chunk_rows(dtype, n * n), len(plan.terms))


class _Scratch:
    """One span's plan intermediates, in the count dtype: flat buffers of ``size`` values
    lent as arrays of any shape that fits.  ``reclaim`` frees every buffer that no live
    array sits on, so no caller tracks what it was lent, and a span holds as many buffers
    as one term keeps live at once, reused over terms and chunks.
    """

    def __init__(self, size: int, dtype: np.dtype) -> None:
        self.size, self.dtype = size, dtype
        self._owned, self._free = {}, []  # all buffers, keyed by id as .base points; free ones

    def lend(self, *shape: int) -> np.ndarray:
        buffer = self._free.pop() if self._free else np.empty(self.size, self.dtype)
        self._owned[id(buffer)] = buffer
        return buffer[:math.prod(shape)].reshape(shape)

    def reclaim(self, *live: np.ndarray) -> None:
        """Free every buffer that none of ``live`` sits on; arrays not lent here are ignored."""
        free = self._owned.copy()
        for arr in live:
            free.pop(id(arr.base), None)
        self._free = [*free.values()]


def _oriented(factor: tuple, first: int) -> np.ndarray:
    """A pair factor's array indexed [replicate, first, other]; symmetric ones as stored."""
    scope, arr, symmetric = factor
    return arr if symmetric or scope[0] == first else arr.transpose(0, 2, 1)


def _bag_tuples(bag: tuple[int, ...], term: _OpenTerm, n: int, step: int):
    """A final bag's value tuples, ``step`` at a time, as arrays indexed [tuple, bag slot].

    Adjacent bag vertices on one host vertex add nothing, as the adjacency's
    diagonal is zero; a factor made by an elimination has a nonzero
    diagonal, so only the term's own edges filter.
    """
    inner = [(bag.index(u), bag.index(w)) for u, w in term.edges if u in bag and w in bag]
    tuples = (combinations(range(n), len(bag)) if term.increasing
              else product(range(n), repeat=len(bag)))
    while block := list(islice(tuples, step)):
        t = np.array(block)
        if not term.increasing:
            for i, j in inner:
                t = t[t[:, i] != t[:, j]]
        yield t


def _read(reads: list, t: np.ndarray | None, n: int, scratch: _Scratch) -> np.ndarray:
    """The product of the reads (array, bag slots) at the value tuples t, [replicate, tuple, ...].

    An array's axis 1 runs over the flat cells of its one or two bag slots, and one
    ``take`` reads it at the tuples' cells.  t None stands for a single vertex's tuples,
    the n host vertices in order: every array reads as stored, and is never written.
    """
    out = None
    for arr, slots in reads:
        if t is not None:
            cells = t[:, slots[0]] if len(slots) == 1 else t[:, slots[0]] * n + t[:, slots[1]]
            arr = arr.take(cells, axis=1, out=scratch.lend(len(arr), len(t), *arr.shape[2:]),
                           mode="wrap")  # "wrap": straight into the buffer, no temporary
        out = arr if out is None else np.multiply(
            out, arr, out=scratch.lend(*out.shape) if out is reads[0][0] else out)
    return out


def _contract(s: np.ndarray | None, ends: list, stored: bool, scratch: _Scratch) -> np.ndarray:
    """The sum over the tuples of s times the outer product of the ends' rows, [replicate, *ends].

    s is indexed [replicate, tuple], None when all 1, each end [replicate, tuple, end].
    ``stored``: the first of two ends is its own transpose and goes in as stored.
    """
    if not ends:
        return s.sum(axis=1, out=scratch.lend(len(s)))
    c, t, n = ends[0].shape
    if len(ends) == 1:  # column sums by one product: numpy sums a middle axis far slower
        weights = np.ones((1, 1, t), ends[0].dtype) if s is None else s[:, None, :]
        return np.matmul(weights, ends[0], out=scratch.lend(c, 1, n))[:, 0]
    left = ends[0] if s is None else np.multiply(ends[0], s[:, :, None], out=scratch.lend(c, t, n))
    return np.matmul(left if stored else left.transpose(0, 2, 1), ends[1],
                     out=scratch.lend(c, n, n))


def _eliminate(factors: list, bag: tuple[int, ...], term: _OpenTerm, n: int,
               scratch: _Scratch) -> list:
    """Sum out the vertices of ``bag`` from factors (scope, array indexed [replicate, *scope],
    symmetric), by one batched matmul per block of the bag's value tuples t.

    s_t is the product of the factors within the bag, read at their flat cells, and an
    outside end's row at t the product of the factors to it, read at their bag vertex.
    The new factor sums s_t times the outer product of the ends' rows over t.
    """
    slot = {v: i for i, v in enumerate(bag)}
    rest, inside, ends, mixed = [], [], {}, set()  # mixed: ends with a factor not symmetric
    for factor in factors:
        scope, arr, symmetric = factor
        inner = [v for v in scope if v in slot]
        if not inner:
            rest.append(factor)
        elif len(inner) == len(scope):
            inside.append((arr.reshape(len(arr), -1), tuple(slot[v] for v in scope)))
        else:
            w = sum(scope) - inner[0]
            ends.setdefault(w, []).append((_oriented(factor, inner[0]), (slot[inner[0]],)))
            if not symmetric:
                mixed.add(w)
    ws = sorted(ends)
    groups = [inside, *(ends[w] for w in ws)]
    keys = [tuple(sorted((id(arr), slots) for arr, slots in reads)) for reads in groups]
    unique = dict(zip(keys, groups))  # equal reads: one product per block
    # a product of symmetric factors at the n host vertices in order is its own transpose
    stored = len(bag) == 1 and not inside and not mixed.intersection(ws[:1])
    inputs = [f[1] for f in factors]
    new = None
    for t in (_bag_tuples(bag, term, n, _chunk_rows(scratch.dtype, len(inputs[0]) * n))
              if len(bag) > 1 else [None]):
        if new is not None:  # the last block's reads go back with the bag's reclaim
            scratch.reclaim(new, *inputs)
        memo = {key: _read(reads, t, n, scratch) for key, reads in unique.items() if reads}
        part = _contract(memo.get(keys[0]), [memo[key] for key in keys[1:]], stored, scratch)
        new = part if new is None else np.add(new, part, out=new)
    return [*rest, (tuple(ws), new, len(ws) < 2)]


def _on_open_edge(factor: tuple, a: int) -> np.ndarray:
    """A factor left after elimination, broadcast to [replicate, a, b]."""
    scope, arr, _ = factor
    if len(scope) == 2:
        return _oriented(factor, a)
    if not scope:
        return arr[:, None, None]
    return arr[:, :, None] if scope == (a,) else arr[:, None, :]


def _add_eliminated(term: _OpenTerm, adjacency: np.ndarray, cube: np.ndarray, first: bool,
                    scratch: _Scratch) -> None:
    """cube += coefficient * hom of the term's quotient with its open edge on (i, j),
    per replicate [r, i, j]; the first term writes the cube instead."""
    factors = [(edge, adjacency, True) for edge in term.edges]
    for bag in term.bags:
        factors = _eliminate(factors, bag, term, adjacency.shape[-1], scratch)
        scratch.reclaim(*(f[1] for f in factors))
    factors.sort(key=lambda f: len(f[0]))  # vectors first: one full-size product fewer
    parts = [_on_open_edge(f, term.open_edge[0]) for f in factors]
    if not parts:  # no edge left: the count is 1 on every cell
        cube[...] = term.coefficient if first else cube + term.coefficient
        return
    out = cube if first else scratch.lend(*np.broadcast_shapes(*(f.shape for f in parts)))
    np.multiply(parts[0], term.coefficient, out=out)
    for part in parts[1:]:
        np.multiply(out, part, out=out)
    if not first:
        cube += out
    scratch.reclaim()


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
                        seed: int, out: np.ndarray, lo: int, hi: int, chunk: int) -> None:
    """Fill out[lo:hi] with combined weights for replicates lo..hi, ``chunk`` at a time.

    W = sum_e w_e N_e, where N_e counts the present copies through the
    present edge e.  N_e comes from the batched 0/1 adjacency through the
    pattern's ``_weight_plan``, evaluated in ``_count_dtype``: every value it
    forms is an integer that dtype holds exactly, so N_e is exact and the
    same whatever the chunk and the dtype.  The per-edge sums turn float64
    before the division by aut(G), the weights and the row sum, and each
    replicate's row sum is taken on its own.  The span reads its uniforms
    from ``rng.uniform_chunks`` and refills one set of buffers in place, the
    plan's intermediates included: fresh arrays of chunk * n^2 cells, freed
    after every chunk, are handed back to the system by the allocator and
    page-faulted in again by the next chunk.
    """
    n_edges = n * (n - 1) // 2
    rows = min(chunk, hi - lo)
    dtype = _count_dtype(plan, n)
    cell_edge, upper, lower = _host_cells(n)
    padded = np.zeros((rows, n_edges + 1), dtype)  # the last column stays 0: the diagonal's "edge"
    cells = np.empty((rows, n * n), dtype)
    counts_cells = np.empty((rows, n * n), dtype)
    upper_rows = np.empty((rows, n_edges), dtype)
    lower_rows = np.empty((rows, n_edges), dtype)
    per_edge_rows = np.empty((rows, n_edges))
    weight_rows = np.empty((rows, n_edges))
    # a bag's gathered rows hold at most the budget, or one tuple of rows * n cells
    scratch = _Scratch(max(rows * n * n, _CHUNK_BYTES // dtype.itemsize), dtype)
    for a, u in rng.uniform_chunks(seed, n_edges, lo, hi, chunk):
        c = u.shape[0]
        present, weights = retained_weights(u, p, model, out=weight_rows[:c])
        padded[:c, :n_edges] = present
        # the indices are in range by construction; "wrap" writes straight
        # into the buffer, where the default "raise" fills a temporary first
        adjacency = padded[:c].take(cell_edge, axis=1, out=cells[:c], mode="wrap").reshape(c, n, n)
        counts = counts_cells[:c]
        cube = counts.reshape(c, n, n)  # a view: the same cells, indexed [replicate, i, j]
        for i, term in enumerate(plan.terms):
            _add_eliminated(term, adjacency, cube, i == 0, scratch)
        per_edge = counts.take(upper, axis=1, out=upper_rows[:c], mode="wrap")
        per_edge += counts.take(lower, axis=1, out=lower_rows[:c], mode="wrap")
        per_edge = np.divide(per_edge, plan.automorphisms, out=per_edge_rows[:c], dtype=np.float64)
        per_edge *= weights
        out[a:a + c] = per_edge.sum(axis=1)


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
    chunk = sampler_layout(pattern, n).chunk_rows
    rng.map_spans(reps, chunk,
                  lambda lo, hi: _accumulate_weights(plan, n, p, model, seed, raw, lo, hi, chunk))
    normalized = (raw - mean) / math.sqrt(var)
    raw.setflags(write=False)
    normalized.setflags(write=False)
    return SampleBatch(pattern=pattern, n=n, p=p, model=model, seed=seed,
                       exact_mean=mean, exact_variance=var, raw=raw, normalized=normalized)
