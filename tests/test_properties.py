"""Property tests on random patterns against independent oracles.

The direct pair census and the edge-count combined weight come from
``oracles``; the sampler's combined weights are checked against the copy
search ``combined_weight`` on the same hosts, for connected and
disconnected patterns; copy and automorphism counts
are checked against networkx's VF2 matcher.  Examples are derandomized and
bounded, so every run checks the same cases.
"""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from oracles import direct_pair_census, weight_by_edge_counts
from wclt.graph_stats import (
    combined_weight,
    intersection_pair_census,
    normalized_samples,
    sample_host,
)
from wclt.patterns import (
    PatternGraph,
    automorphism_count,
    complete_graph_edges,
    copies_in_complete,
    enumerate_copies,
)
from wclt.weights import Exponential

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=30)


@st.composite
def connected_patterns(draw, max_vertices=5):
    """A random spanning tree on 2..max_vertices vertices, extra edges, and a relabeling."""
    v = draw(st.integers(2, max_vertices))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, v)}
    others = [e for e in complete_graph_edges(v) if e not in edges]
    if others:
        edges |= set(draw(st.lists(st.sampled_from(others), unique=True)))
    label = draw(st.permutations(range(v)))
    return PatternGraph(v, tuple((label[a], label[b]) for a, b in edges))


@st.composite
def patterns_without_isolated_vertices(draw):
    """A connected pattern on at most 5 vertices, or, as often, its disjoint
    union with a second one, relabeled (at most 6 vertices in all)."""
    first = draw(connected_patterns())
    v = first.num_vertices
    if v > 4 or not draw(st.booleans()):
        return first
    second = draw(connected_patterns(max_vertices=6 - v))
    edges = first.edges + tuple((a + v, b + v) for a, b in second.edges)
    label = draw(st.permutations(range(v + second.num_vertices)))
    return PatternGraph(len(label), tuple((label[a], label[b]) for a, b in edges))


def _monomorphisms(pattern: PatternGraph, host_edges, n: int) -> int:
    host = nx.Graph(host_edges)
    host.add_nodes_from(range(n))
    target = nx.Graph(pattern.edges)
    return sum(1 for _ in GraphMatcher(host, target).subgraph_monomorphisms_iter())


@PROPERTY
@given(data=st.data())
def test_census_matches_direct_oracle(data):
    pattern = data.draw(connected_patterns())
    v_g = pattern.num_vertices
    n = data.draw(st.integers(v_g, min(2 * v_g + 2, 10)))
    assert intersection_pair_census(pattern, n) == direct_pair_census(pattern, n)


@PROPERTY
@given(data=st.data())
def test_combined_weight_matches_edge_counts(data):
    pattern = data.draw(connected_patterns())
    n = data.draw(st.integers(pattern.num_vertices, 8))
    p = data.draw(st.floats(0.2, 0.9))
    host = sample_host(n, p, Exponential(1.0), seed=data.draw(st.integers(0, 2**32)), replicate=0)
    a = combined_weight(pattern, host)
    assert abs(a - weight_by_edge_counts(pattern, host)) <= 1e-9 * (1 + abs(a))


@PROPERTY
@given(data=st.data())
def test_sampler_matches_copy_search(data):
    pattern = data.draw(patterns_without_isolated_vertices())
    n = data.draw(st.integers(pattern.num_vertices, 8))
    p = data.draw(st.floats(0.2, 0.9))
    seed = data.draw(st.integers(0, 2**32))
    model = Exponential(1.0)
    batch = normalized_samples(pattern, n, p, model, reps=3, seed=seed)
    for r, raw in enumerate(batch.raw):
        oracle = combined_weight(pattern, sample_host(n, p, model, seed, r))
        assert abs(raw - oracle) <= 1e-12 * abs(oracle)


@PROPERTY
@given(data=st.data())
def test_copy_counts_match_networkx(data):
    pattern = data.draw(connected_patterns())
    target = nx.Graph(pattern.edges)
    aut = automorphism_count(pattern)
    assert aut == sum(1 for _ in GraphMatcher(target, target).isomorphisms_iter())
    n = data.draw(st.integers(pattern.num_vertices, 7))
    kn = complete_graph_edges(n)
    assert copies_in_complete(pattern, n) * aut == _monomorphisms(pattern, kn, n)
    host = data.draw(st.lists(st.sampled_from(kn), unique=True))
    assert len(enumerate_copies(pattern, host)) * aut == _monomorphisms(pattern, host, n)
