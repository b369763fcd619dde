"""Small pattern graphs: parsing, subgraph statistics, and copy enumeration.

A pattern is a fixed small graph.  The statistics exposed here (extremal
subgraph terms, density ratio, balance test) drive the convergence-rate
formulas, while the table of partial self-maps, which yields the
automorphism and copy counts and the pair census, supports exact moments of
the combined pattern weight in a random host graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import DegenerateConfigError, PatternError, ResourceLimitError

# Pattern vertices above which the self-map table, and with it automorphism
# counts, copy counts, the pair census and the sampler plan, is refused.
MAX_PATTERN_VERTICES = 10
MAX_PROFILE_EDGES = 20
MAX_HOST_VERTICES = 64  # host cap of the copy search, an oracle that no library path calls

Edge = tuple[int, int]


def _normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _neighbours(k: int, edges) -> list[set[int]]:
    nbrs: list[set[int]] = [set() for _ in range(k)]
    for u, w in edges:
        nbrs[u].add(w)
        nbrs[w].add(u)
    return nbrs


@dataclass(frozen=True)
class PatternGraph:
    """A fixed small graph given by vertex count and an unordered edge list."""

    num_vertices: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if self.num_vertices < 1:
            raise PatternError("pattern needs at least one vertex")
        seen: set[Edge] = set()
        normalized = []
        for u, v in self.edges:
            if u == v:
                raise PatternError(f"self-loop at vertex {u}")
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise PatternError(f"edge ({u}, {v}) out of range for {self.num_vertices} vertices")
            e = _normalize_edge(u, v)
            if e in seen:
                raise PatternError(f"duplicate edge ({e[0]}, {e[1]})")
            seen.add(e)
            normalized.append(e)
        object.__setattr__(self, "edges", tuple(sorted(normalized)))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def covered_vertices(self) -> frozenset[int]:
        return frozenset(v for e in self.edges for v in e)

    @property
    def has_isolated_vertices(self) -> bool:
        return len(self.covered_vertices) < self.num_vertices

    def degrees(self) -> list[int]:
        deg = [0] * self.num_vertices
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def is_connected(self) -> bool:
        """Connectivity over all vertices (an isolated vertex disconnects)."""
        adj = _neighbours(self.num_vertices, self.edges)
        seen = {0}
        stack = [0]
        while stack:
            w = stack.pop()
            for x in adj[w]:
                if x not in seen:
                    seen.add(x)
                    stack.append(x)
        return len(seen) == self.num_vertices


@dataclass(frozen=True)
class SubgraphProfile:
    """One (vertex count, edge count) class of edge-subset subgraphs."""

    v_h: int
    e_h: int
    multiplicity: int


def parse_pattern(text: str) -> PatternGraph:
    """Parse the edge-list pattern format: first line v_G, then one edge per line."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise PatternError("empty pattern file")
    try:
        num_vertices = int(lines[0])
    except ValueError:
        raise PatternError(f"line 1: expected vertex count, got {lines[0]!r}") from None
    edges = []
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise PatternError(f"line {lineno}: expected 'i j', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise PatternError(f"line {lineno}: expected integers, got {ln!r}") from None
        if u == v:
            raise PatternError(f"line {lineno}: self-loop at vertex {u}")
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise PatternError(f"line {lineno}: vertex index out of range")
        edge = _normalize_edge(u, v)
        if edge in edges:
            raise PatternError(f"line {lineno}: duplicate edge")
        edges.append(edge)
    return PatternGraph(num_vertices, tuple(edges))


def named_pattern(name: str) -> PatternGraph:
    """Built-in patterns: triangle, cycle:r, complete:r, path:r, star:r."""
    name = name.strip().lower()
    if name == "triangle":
        return PatternGraph(3, ((0, 1), (1, 2), (0, 2)))
    if ":" in name:
        kind, _, arg = name.partition(":")
        try:
            r = int(arg)
        except ValueError:
            raise PatternError(f"bad pattern parameter in {name!r}") from None
        if kind == "cycle":
            if r < 3:
                raise PatternError("cycle:r needs r >= 3")
            return PatternGraph(r, tuple((i, (i + 1) % r) for i in range(r)))
        if kind == "complete":
            if r < 2:
                raise PatternError("complete:r needs r >= 2")
            return PatternGraph(r, tuple(combinations(range(r), 2)))
        if kind == "path":
            if r < 2:
                raise PatternError("path:r needs r >= 2 vertices")
            return PatternGraph(r, tuple((i, i + 1) for i in range(r - 1)))
        if kind == "star":
            if r < 1:
                raise PatternError("star:r needs r >= 1 leaves")
            return PatternGraph(r + 1, tuple((0, i) for i in range(1, r + 1)))
    raise PatternError(f"unknown pattern {name!r}")


def edge_subgraph_profiles(pattern: PatternGraph) -> list[SubgraphProfile]:
    """Profiles of all subgraphs spanned by nonempty edge subsets.

    A subgraph is identified with an edge subset; its vertex count is the
    number of incident vertices, so no profile carries isolated vertices.
    Multiplicities over all profiles sum to 2^e - 1.
    """
    return list(_profile_table(pattern))


@lru_cache(maxsize=None)
def _profile_table(pattern: PatternGraph) -> tuple[SubgraphProfile, ...]:
    """The profiles, enumerated once per pattern over all 2^e - 1 edge subsets."""
    e = pattern.num_edges
    if e < 1:
        raise PatternError("pattern needs at least one edge")
    if e > MAX_PROFILE_EDGES:
        raise ResourceLimitError(f"profile enumeration capped at {MAX_PROFILE_EDGES} edges")
    counts: dict[tuple[int, int], int] = {}
    edges = pattern.edges
    for size in range(1, e + 1):
        for subset in combinations(edges, size):
            verts = set()
            for u, v in subset:
                verts.add(u)
                verts.add(v)
            key = (len(verts), size)
            counts[key] = counts.get(key, 0) + 1
    return tuple(SubgraphProfile(v_h, e_h, mult) for (v_h, e_h), mult in sorted(counts.items()))


def beta(pattern: PatternGraph) -> Fraction:
    """Maximal edge/vertex density over edge-subset subgraphs, as an exact rational."""
    return max(Fraction(prof.e_h, prof.v_h) for prof in edge_subgraph_profiles(pattern))


def check_p(p: float) -> None:
    """The one rule for the retention probability p.

    p = 0 or p = 1 leaves no edge randomness, a degenerate configuration;
    NaN or a value outside [0, 1] is not a probability.
    """
    if not (0.0 < p < 1.0):
        message = f"p must lie in (0, 1), got {p}"
        if p in (0.0, 1.0):
            raise DegenerateConfigError(message)
        raise ValueError(message)


def _check_np(pattern: PatternGraph, n: int, p: float) -> None:
    if n < pattern.num_vertices:
        raise ValueError(f"need n >= {pattern.num_vertices}, got {n}")
    check_p(p)


def log_min_subgraph_term(pattern: PatternGraph, n: int, p: float) -> float:
    """log of min over subgraph profiles of n^{v_H} p^{e_H}."""
    _check_np(pattern, n, p)
    ln_n, ln_p = math.log(n), math.log(p)
    return min(prof.v_h * ln_n + prof.e_h * ln_p for prof in edge_subgraph_profiles(pattern))


def min_subgraph_term(pattern: PatternGraph, n: int, p: float) -> float:
    return math.exp(log_min_subgraph_term(pattern, n, p))


def log_max_variance_term(pattern: PatternGraph, n: int, p: float) -> float:
    """log of max over profiles of n^{2 v_G - v_H} p^{2 e_G - e_H}.

    The maximum is attained at the profile of the minimal subgraph term, so
    this is 2 (v_G ln n + e_G ln p) - log_min_subgraph_term.
    """
    log_min = log_min_subgraph_term(pattern, n, p)
    return 2 * (pattern.num_vertices * math.log(n) + pattern.num_edges * math.log(p)) - log_min


def max_variance_term(pattern: PatternGraph, n: int, p: float) -> float:
    return math.exp(log_max_variance_term(pattern, n, p))


def is_balanced(pattern: PatternGraph) -> bool:
    """Balance test: (e_H - 1)/(v_H - 2) over v_H >= 3 profiles is maximized at the whole pattern.

    Balanced patterns are exactly those for which the extremal subgraph
    minimum collapses to min(n^2 p, n^{v_G} p^{e_G}).
    """
    if pattern.num_vertices < 3:
        raise PatternError("balance test needs graphs with at least three vertices")
    if pattern.num_edges < 1:
        raise PatternError("balance test needs at least one edge")
    ratios = [
        Fraction(prof.e_h - 1, prof.v_h - 2)
        for prof in edge_subgraph_profiles(pattern)
        if prof.v_h >= 3
    ]
    if not ratios:
        return False
    return max(ratios) == Fraction(pattern.num_edges - 1, pattern.num_vertices - 2)


def _dp_order(nbrs: list[set[int]]) -> list[int]:
    """Vertex order for the self-map DP: few unplaced vertices next to the placed set.

    Each such vertex keeps a mask in the DP state, so the state count grows
    with their number.  Greedily take next the vertex that leaves the fewest
    of them, then the one with the most placed neighbours, then the lowest
    label.
    """
    order: list[int] = []
    placed: set[int] = set()
    frontier: set[int] = set()
    while len(order) < len(nbrs):
        w = min(set(range(len(nbrs))) - placed,
                key=lambda v: (len((frontier | nbrs[v]) - placed - {v}), -len(nbrs[v] & placed), v))
        order.append(w)
        placed.add(w)
        frontier = (frontier | nbrs[w]) - placed
    return order


@lru_cache(maxsize=None)
def _partial_self_maps(pattern: PatternGraph) -> tuple[tuple[int, int, int], ...]:
    """Triples (s, h, N_s(h)): partial injections of V(G) into V(G) of size s
    that carry exactly h pattern edges onto pattern edges; zero counts omitted.

    The row s = v_G, h = e_G counts the automorphisms.  A level DP over
    the domain vertices in ``_dp_order``, each left unmapped or sent to an
    unused image x.  The state is the set of used images and, for each later
    vertex, the images of its earlier neighbours already placed; sending w
    to x carries popcount(nbrs(x) & mask_w) more edges.  A state's value is
    its generating polynomial sum_h count_h X^h at X = 2^bits, with bits
    enough for the count of all partial injections, so no coefficient
    carries into the next.  The table does not depend on the order.
    """
    v_g = pattern.num_vertices
    if v_g > MAX_PATTERN_VERTICES:
        raise ResourceLimitError(f"pattern capped at {MAX_PATTERN_VERTICES} vertices, got {v_g}")
    nbrs = _neighbours(v_g, pattern.edges)
    image_nbrs = [sum(1 << y for y in nbrs[x]) for x in range(v_g)]
    bits = sum(math.comb(v_g, s) ** 2 * math.factorial(s) for s in range(v_g + 1)).bit_length()
    states = {(0, (0,) * v_g): 1}
    done: set[int] = set()
    for w in _dp_order(nbrs):
        done.add(w)
        later = [u for u in nbrs[w] if u not in done]
        step: dict[tuple, int] = {}
        for (used, masks), poly in states.items():
            rest = masks[:w] + (0,) + masks[w + 1:]
            step[used, rest] = step.get((used, rest), 0) + poly
            for x in range(v_g):
                if used >> x & 1:
                    continue
                placed = list(rest)
                for u in later:
                    placed[u] |= 1 << x
                key = (used | 1 << x, tuple(placed))
                carried = (image_nbrs[x] & masks[w]).bit_count()
                step[key] = step.get(key, 0) + (poly << (carried * bits))
        states = step
    by_size: dict[int, int] = {}
    for (used, _), poly in states.items():
        by_size[used.bit_count()] = by_size.get(used.bit_count(), 0) + poly
    low = (1 << bits) - 1
    return tuple((s, h, c) for s, poly in sorted(by_size.items())
                 for h in range(pattern.num_edges + 1) if (c := (poly >> (h * bits)) & low))


@lru_cache(maxsize=None)
def automorphism_count(pattern: PatternGraph) -> int:
    """Number of vertex permutations preserving the edge set.

    A permutation that carries all e_G edges onto edges is an automorphism,
    so this is the self-map table's count at s = v_G, h = e_G.
    """
    v_g, e_g = pattern.num_vertices, pattern.num_edges
    return next(c for s, h, c in _partial_self_maps(pattern) if (s, h) == (v_g, e_g))


def copies_in_complete(pattern: PatternGraph, n: int) -> int:
    """Number of copies (edge subsets isomorphic to the pattern) in a complete host."""
    if pattern.has_isolated_vertices:
        raise PatternError("copy counting requires a pattern without isolated vertices")
    if n < pattern.num_vertices:
        return 0
    return math.perm(n, pattern.num_vertices) // automorphism_count(pattern)


def complete_graph_edges(n: int) -> list[Edge]:
    """Edges of the complete graph on n labeled vertices, in the fixed numbering order."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def enumerate_copies(pattern: PatternGraph, host_edges) -> list[tuple[Edge, ...]]:
    """All edge subsets of the host isomorphic to the pattern, each listed once.

    Copies are non-induced: the host may contain extra edges among the copy's
    vertices.  Output is deterministic (sorted edge tuples, sorted list).
    The copy search is the oracle of the tests and the benchmark checks; no
    library path calls it.
    """
    if pattern.has_isolated_vertices:
        raise PatternError("copy enumeration requires a pattern without isolated vertices")
    hedges = {_normalize_edge(u, v) for u, v in host_edges}
    host_vertices = sorted({w for e in hedges for w in e})
    if host_vertices and host_vertices[-1] + 1 > MAX_HOST_VERTICES:
        raise ResourceLimitError(f"host capped at {MAX_HOST_VERTICES} vertices")
    adj = _neighbours(host_vertices[-1] + 1 if host_vertices else 0, hedges)
    pdeg = pattern.degrees()
    pattern_adj = _neighbours(pattern.num_vertices, pattern.edges)

    # Placement order: greedy, always extending the already-placed set when possible.
    order: list[int] = []
    placed: set[int] = set()
    verts = sorted(range(pattern.num_vertices), key=lambda w: -pdeg[w])
    while len(order) < pattern.num_vertices:
        best = None
        for w in verts:
            if w in placed:
                continue
            attached = len(pattern_adj[w] & placed)
            key = (attached, pdeg[w], -w)
            if best is None or key > best[0]:
                best = (key, w)
        order.append(best[1])
        placed.add(best[1])

    copies: set[tuple[Edge, ...]] = set()
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int) -> None:
        if i == len(order):
            copy = tuple(sorted(_normalize_edge(mapping[u], mapping[v]) for u, v in pattern.edges))
            copies.add(copy)
            return
        w = order[i]
        anchors = [x for x in pattern_adj[w] if x in mapping]
        if anchors:
            cands = set(adj[mapping[anchors[0]]])
            for x in anchors[1:]:
                cands &= adj[mapping[x]]
            cands -= used
        else:
            cands = set(host_vertices) - used
        for h in sorted(cands):
            if len(adj[h]) < pdeg[w]:
                continue
            mapping[w] = h
            used.add(h)
            extend(i + 1)
            del mapping[w]
            used.remove(h)

    if hedges and pattern.num_edges <= len(hedges):
        extend(0)
    return sorted(copies)
