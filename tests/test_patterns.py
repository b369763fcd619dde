"""Pattern parsing, subgraph statistics, and copy enumeration."""

import math
import random
import re
from fractions import Fraction

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from wclt.errors import PatternError, ResourceLimitError
from wclt.patterns import (
    PatternGraph,
    _partial_self_maps,
    automorphism_count,
    beta,
    complete_graph_edges,
    copies_in_complete,
    edge_subgraph_profiles,
    enumerate_copies,
    is_balanced,
    log_min_subgraph_term,
    max_variance_term,
    min_subgraph_term,
    named_pattern,
    parse_pattern,
)

TRIANGLE = named_pattern("triangle")
EDGE = named_pattern("path:2")
P3 = named_pattern("path:3")
TRIANGLE_PENDANT = PatternGraph(4, ((0, 1), (1, 2), (0, 2), (2, 3)))


def random_pattern(rng: random.Random, max_vertices: int = 6, require_covered: bool = False) -> PatternGraph:
    while True:
        v = rng.randint(3, max_vertices)
        edges = tuple(e for e in complete_graph_edges(v) if rng.random() < 0.5)
        if not edges:
            continue
        g = PatternGraph(v, edges)
        if require_covered and g.has_isolated_vertices:
            continue
        return g


class TestParsing:
    def test_triangle(self):
        g = parse_pattern("3\n0 1\n1 2\n0 2")
        assert g.num_vertices == 3 and g.num_edges == 3

    def test_self_loop_rejected(self):
        with pytest.raises(PatternError, match="self-loop"):
            parse_pattern("2\n0 0")

    def test_path4(self):
        g = parse_pattern("4\n0 1\n1 2\n2 3")
        assert g.num_vertices == 4
        assert not g.has_isolated_vertices

    def test_duplicate_edge_rejected(self):
        with pytest.raises(PatternError, match="duplicate"):
            parse_pattern("3\n0 1\n1 0")

    def test_out_of_range_rejected(self):
        with pytest.raises(PatternError, match="range"):
            parse_pattern("2\n0 5")

    def test_error_names_line(self):
        with pytest.raises(PatternError, match="line 3"):
            parse_pattern("3\n0 1\n0 9")

    def test_named_patterns(self):
        assert named_pattern("cycle:4").num_edges == 4
        assert named_pattern("complete:4").num_edges == 6
        assert named_pattern("star:4").num_vertices == 5
        with pytest.raises(PatternError):
            named_pattern("hexagon")


class TestProfiles:
    def test_triangle_profiles(self):
        profs = {(p.v_h, p.e_h): p.multiplicity for p in edge_subgraph_profiles(TRIANGLE)}
        assert profs == {(2, 1): 3, (3, 2): 3, (3, 3): 1}

    def test_single_edge(self):
        profs = {(p.v_h, p.e_h): p.multiplicity for p in edge_subgraph_profiles(EDGE)}
        assert profs == {(2, 1): 1}

    def test_p3(self):
        profs = {(p.v_h, p.e_h): p.multiplicity for p in edge_subgraph_profiles(P3)}
        assert profs == {(2, 1): 2, (3, 2): 1}

    def test_multiplicities_sum(self):
        rng = random.Random(20240)
        for _ in range(40):
            g = random_pattern(rng)
            profs = edge_subgraph_profiles(g)
            assert sum(p.multiplicity for p in profs) == 2**g.num_edges - 1


class TestDensityAndTerms:
    def test_beta_values(self):
        assert beta(EDGE) == Fraction(1, 2)
        assert beta(TRIANGLE) == Fraction(1, 1)
        assert beta(named_pattern("complete:4")) == Fraction(3, 2)

    def test_beta_dominates_every_profile(self):
        rng = random.Random(99)
        for _ in range(40):
            g = random_pattern(rng)
            b = beta(g)
            for prof in edge_subgraph_profiles(g):
                assert b >= Fraction(prof.e_h, prof.v_h)

    def test_min_term_examples(self):
        assert min_subgraph_term(TRIANGLE, 10, 0.1) == pytest.approx(1.0)
        assert min_subgraph_term(EDGE, 5, 0.5) == pytest.approx(12.5)
        assert min_subgraph_term(P3, 10, 0.01) == pytest.approx(0.1)

    def test_max_variance_term_examples(self):
        assert max_variance_term(TRIANGLE, 10, 0.1) == pytest.approx(1.0)
        assert max_variance_term(EDGE, 10, 0.5) == pytest.approx(50.0)
        assert max_variance_term(TRIANGLE, 10, 0.9) == pytest.approx(5904.9)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            min_subgraph_term(TRIANGLE, 2, 0.5)
        with pytest.raises(ValueError):
            min_subgraph_term(TRIANGLE, 10, 1.0)


class TestBalance:
    def test_examples(self):
        assert is_balanced(TRIANGLE)
        assert is_balanced(P3)
        assert not is_balanced(TRIANGLE_PENDANT)

    def test_needs_three_vertices(self):
        with pytest.raises(PatternError):
            is_balanced(EDGE)

    def test_balanced_min_collapses(self):
        # 100 random connected balanced patterns: extremal minimum equals min(n^2 p, n^v p^e)
        rng = random.Random(7)
        found = 0
        while found < 100:
            g = random_pattern(rng, require_covered=True)
            if not g.is_connected() or not is_balanced(g):
                continue
            found += 1
            for n in (8, 12, 20):
                for p in (0.05, 0.3, 0.7):
                    lhs = log_min_subgraph_term(g, n, p)
                    rhs = min(2 * math.log(n) + math.log(p),
                              g.num_vertices * math.log(n) + g.num_edges * math.log(p))
                    assert lhs == pytest.approx(rhs, rel=1e-12)


class TestCopies:
    def test_automorphisms(self):
        assert automorphism_count(TRIANGLE) == 6
        assert automorphism_count(P3) == 2
        assert automorphism_count(named_pattern("complete:4")) == 24

    @pytest.mark.parametrize("v, edges", [
        (1, ()),
        (3, ()),
        (4, ((0, 1), (1, 2), (0, 2))),                  # triangle and an isolated vertex
        (4, ((0, 1), (2, 3))),                          # 2K2
        (5, ((0, 1), (1, 2), (0, 2), (3, 4))),          # K3+K2
        (6, ((0, 1), (1, 2), (3, 4))),                  # P3, K2 and an isolated vertex
        (7, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3))),  # 2K3 and an isolated vertex
    ])
    def test_automorphisms_match_networkx(self, v, edges):
        target = nx.Graph()
        target.add_nodes_from(range(v))
        target.add_edges_from(edges)
        expected = sum(1 for _ in GraphMatcher(target, target).isomorphisms_iter())
        assert automorphism_count(PatternGraph(v, edges)) == expected

    @pytest.mark.parametrize("pattern", [
        *(pytest.param(named_pattern(name), id=name) for name in (
            "triangle", *(f"path:{r}" for r in range(2, 9)), *(f"cycle:{r}" for r in range(4, 9)),
            *(f"complete:{r}" for r in range(4, 9)), *(f"star:{r}" for r in range(2, 8)))),
        pytest.param(PatternGraph(4, ((0, 1), (1, 2), (0, 2))), id="K3+K1"),
        pytest.param(PatternGraph(4, ((0, 1), (2, 3))), id="2K2"),
        pytest.param(PatternGraph(5, ((0, 1), (1, 2), (0, 2), (3, 4))), id="K3+K2"),
        pytest.param(PatternGraph(6, ((0, 1), (1, 2), (3, 4))), id="P3+K2+K1"),
        pytest.param(PatternGraph(6, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5))),
                     id="K4+K2"),
        pytest.param(PatternGraph(7, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3))), id="2K3+K1"),
    ])
    def test_self_map_table_ignores_labels(self, pattern):
        # the DP's vertex order depends on the labels; the table must not
        labels = list(range(pattern.num_vertices))
        random.Random(pattern.num_vertices * 100 + pattern.num_edges).shuffle(labels)
        relabeled = PatternGraph(pattern.num_vertices,
                                 tuple((labels[u], labels[v]) for u, v in pattern.edges))
        assert _partial_self_maps(relabeled) == _partial_self_maps(pattern)

    def test_automorphisms_of_ten_vertex_patterns(self):
        assert automorphism_count(named_pattern("complete:10")) == math.factorial(10)
        assert automorphism_count(named_pattern("star:9")) == math.factorial(9)

    def test_automorphism_count_cached(self):
        star = named_pattern("star:7")
        first = automorphism_count(star)
        hits = automorphism_count.cache_info().hits
        assert automorphism_count(star) == first == 5040
        assert automorphism_count.cache_info().hits == hits + 1

    def test_copies_in_complete(self):
        assert copies_in_complete(TRIANGLE, 3) == 1
        assert copies_in_complete(TRIANGLE, 4) == 4
        assert copies_in_complete(EDGE, 10) == 45
        assert copies_in_complete(TRIANGLE, 2) == 0

    def test_isolated_vertices_rejected(self):
        lonely = PatternGraph(3, ((0, 1),))
        with pytest.raises(PatternError):
            copies_in_complete(lonely, 5)
        with pytest.raises(PatternError):
            enumerate_copies(lonely, complete_graph_edges(4))

    def test_enumerate_examples(self):
        assert len(enumerate_copies(TRIANGLE, complete_graph_edges(4))) == 4
        assert enumerate_copies(TRIANGLE, named_pattern("cycle:4").edges) == []
        assert len(enumerate_copies(P3, TRIANGLE.edges)) == 3

    def test_enumeration_matches_count_formula(self):
        rng = random.Random(5150)
        patterns = [TRIANGLE, P3, named_pattern("path:4"), named_pattern("star:3"),
                    named_pattern("cycle:4"), named_pattern("complete:4"),
                    named_pattern("cycle:5")]
        for _ in range(10):
            patterns.append(random_pattern(rng, max_vertices=5, require_covered=True))
        for g in patterns:
            for n in range(g.num_vertices, 8):
                expected = copies_in_complete(g, n)
                assert len(enumerate_copies(g, complete_graph_edges(n))) == expected

    def test_copies_listed_once_and_sorted(self):
        copies = enumerate_copies(TRIANGLE, complete_graph_edges(5))
        assert len(set(copies)) == len(copies)
        assert copies == sorted(copies)


class TestDirectConstruction:
    # parse_pattern checks each line first, so only a direct construction reaches these
    @pytest.mark.parametrize("vertices, edges, message", [
        (0, (), "pattern needs at least one vertex"),
        (3, ((1, 1),), "self-loop at vertex 1"),
        (3, ((0, 3),), "edge (0, 3) out of range for 3 vertices"),
        (3, ((-1, 2),), "edge (-1, 2) out of range for 3 vertices"),
        (3, ((0, 1), (1, 0)), "duplicate edge (0, 1)"),
    ])
    def test_pattern_rules(self, vertices, edges, message):
        with pytest.raises(PatternError, match=f"^{re.escape(message)}$"):
            PatternGraph(vertices, edges)

    @pytest.mark.parametrize("call, message", [
        (edge_subgraph_profiles, "pattern needs at least one edge"),
        (is_balanced, "balance test needs at least one edge"),
    ])
    def test_edgeless_pattern(self, call, message):
        with pytest.raises(PatternError, match=f"^{message}$"):
            call(PatternGraph(3, ()))

    def test_no_profile_of_three_vertices_is_unbalanced(self):
        # one edge among three vertices: every profile has two vertices
        assert not is_balanced(PatternGraph(3, ((0, 1),)))

    def test_copy_search_host_cap(self):
        with pytest.raises(ResourceLimitError, match="^host capped at 64 vertices$"):
            enumerate_copies(EDGE, [(0, 64)])
