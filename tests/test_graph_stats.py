"""Host sampling, combined weights, and exact moments."""

import math
import random

import numpy as np
import pytest

from oracles import direct_pair_census, gathered_weights, masked_weights, weight_by_edge_counts
from wclt import graph_stats, patterns, rng
from wclt.errors import DegenerateConfigError, ResourceLimitError
from wclt.graph_stats import (
    HostSample,
    _accumulate_weights,
    _chunk_rows,
    _count_dtype,
    _weight_plan,
    asymptotic_variance,
    check_sample_config,
    combined_weight,
    exact_mean,
    exact_variance,
    intersection_pair_census,
    normalized_samples,
    retained_weights,
    sample_host,
    sampler_layout,
)
from wclt.patterns import (
    PatternGraph,
    complete_graph_edges,
    copies_in_complete,
    edge_subgraph_profiles,
    max_variance_term,
    named_pattern,
)
from wclt.weights import Constant, Exponential, TwoPoint, Uniform

TRIANGLE = named_pattern("triangle")
EDGE = named_pattern("path:2")
P3 = named_pattern("path:3")
DISJOINT_UNIONS = {
    "2K2": PatternGraph(4, ((0, 1), (2, 3))),
    "K3+K2": PatternGraph(5, ((0, 1), (1, 2), (0, 2), (3, 4))),
    "K4+K2": PatternGraph(6, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5))),
}
# plans with mixed terms: single vertices summed out, then a final bag
MIXED_TERMS = {
    "K4+pendant": PatternGraph(5, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4))),
    "K4+pendant-path": PatternGraph(6, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4),
                                        (4, 5))),
}


def host_with_uniforms(n, p, model, uniforms) -> HostSample:
    u = np.asarray(uniforms, dtype=float)
    return HostSample(n=n, p=p, model=model, seed=0, replicate=0, uniforms=u)


class TestSampleHost:
    def test_determinism(self):
        a = sample_host(6, 0.4, Uniform(1.0), seed=9, replicate=3)
        b = sample_host(6, 0.4, Uniform(1.0), seed=9, replicate=3)
        assert np.array_equal(a.uniforms, b.uniforms)
        c = sample_host(6, 0.4, Uniform(1.0), seed=9, replicate=4)
        assert not np.array_equal(a.uniforms, c.uniforms)

    def test_domain(self):
        with pytest.raises(ValueError):
            sample_host(6, 1.0, Uniform(1.0), 0, 0)
        with pytest.raises(ValueError):
            sample_host(1, 0.5, Uniform(1.0), 0, 0)
        with pytest.raises(ResourceLimitError):
            sample_host(65, 0.5, Uniform(1.0), 0, 0)

    def test_high_p_all_present(self):
        host = sample_host(3, 0.999999, Constant(1.0), seed=1, replicate=0)
        assert host.present.all()

    def test_mean_edge_count_binomial(self):
        # n=3, p=0.5: edge count is Binomial(3, 1/2)
        reps = 100_000
        u = rng.uniform_matrix(123, reps, 3)
        counts = (u < 0.5).sum(axis=1)
        se = math.sqrt(3 * 0.25 / reps)
        assert abs(counts.mean() - 1.5) < 4 * se

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("model", [Constant(1.5), Uniform(2.0), Exponential(1.0),
                                       TwoPoint(0.0, 1.0, 0.3)], ids=repr)
    def test_retained_weights_match_masked_form(self, model, p):
        # flat-index gather and the boolean-mask reference: same bits, sign included
        u = rng.uniform_matrix(17, 12, 45)
        u[0, :3] = (0.0, p, np.nextafter(p, 0.0))  # the edges of the retention cut
        for uniforms in (u, u[3], u[:, 5:], u.T):
            present, got = retained_weights(uniforms, p, model)
            expected = masked_weights(uniforms, p, model)
            assert np.array_equal(present, uniforms < p)
            assert got.shape == expected.shape and got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()

    def test_weight_conditional_law(self):
        # conditionally on presence, weights follow the model exactly
        host = sample_host(50, 0.3, Uniform(2.0), seed=5, replicate=0)
        w = host.edge_weights()[host.present]
        assert w.size > 100
        assert abs(w.mean() - 1.0) < 5 * (2 / math.sqrt(12)) / math.sqrt(w.size)


class TestCombinedWeight:
    def test_full_triangle(self):
        host = host_with_uniforms(3, 0.5, Constant(1.0), [0.1, 0.2, 0.3])
        assert combined_weight(TRIANGLE, host) == pytest.approx(3.0)

    def test_k4_all_present(self):
        host = host_with_uniforms(4, 0.5, Constant(1.0), [0.1] * 6)
        assert combined_weight(TRIANGLE, host) == pytest.approx(12.0)

    def test_missing_edge_kills_copy(self):
        host = host_with_uniforms(3, 0.5, Constant(1.0), [0.1, 0.2, 0.9])
        assert combined_weight(TRIANGLE, host) == pytest.approx(0.0)

    def test_dual_algorithms_agree(self):
        rnd = random.Random(31337)
        patterns = [TRIANGLE, EDGE, P3, named_pattern("cycle:4"), named_pattern("star:3")]
        for trial in range(1000):
            n = rnd.randint(3, 10)
            pattern = patterns[trial % len(patterns)]
            if pattern.num_vertices > n:
                continue
            p = rnd.uniform(0.2, 0.9)
            host = sample_host(n, p, Uniform(1.0), seed=trial, replicate=0)
            a = combined_weight(pattern, host)
            b = weight_by_edge_counts(pattern, host)
            assert abs(a - b) <= 1e-9 * (1 + abs(a))

    def test_constant_weight_is_scaled_count(self):
        # constant weights: W = c * e_G * (number of present copies), pathwise
        from wclt.patterns import enumerate_copies

        c = 2.5
        for seed in range(25):
            host = sample_host(7, 0.5, Constant(c), seed=seed, replicate=0)
            count = len(enumerate_copies(TRIANGLE, host.present_edges()))
            assert combined_weight(TRIANGLE, host) == pytest.approx(c * 3 * count)


class TestExactMoments:
    def test_mean_examples(self):
        assert exact_mean(EDGE, 3, 0.5, Constant(1.0)) == pytest.approx(1.5)
        assert exact_mean(TRIANGLE, 3, 0.999999, Constant(1.0)) == pytest.approx(3.0, rel=1e-4)
        assert exact_mean(TRIANGLE, 4, 0.5, Uniform(1.0)) == pytest.approx(0.75)

    def test_census_examples(self):
        assert intersection_pair_census(EDGE, 3) == {1: 3}
        assert intersection_pair_census(TRIANGLE, 3) == {3: 1}
        assert intersection_pair_census(TRIANGLE, 4) == {1: 12, 3: 4}
        assert intersection_pair_census(TRIANGLE, 2) == {}  # below v_G: no copy, no pair

    def test_census_symmetry(self):
        for pattern, n in ((TRIANGLE, 6), (P3, 5), (named_pattern("cycle:4"), 6)):
            census = intersection_pair_census(pattern, n)
            e_g = pattern.num_edges
            from wclt.patterns import copies_in_complete

            assert census[e_g] >= copies_in_complete(pattern, n)
            for h, count in census.items():
                if h < e_g:
                    assert count % 2 == 0

    def test_variance_examples(self):
        assert exact_variance(EDGE, 3, 0.5, Constant(1.0)) == pytest.approx(0.75)
        assert exact_variance(TRIANGLE, 3, 0.5, Constant(1.0)) == pytest.approx(63 / 64)

    def test_variance_by_enumeration(self):
        # brute force over all 2^6 edge configurations of K_4, constant weights
        p = 0.3
        c = 2.0
        edges = complete_graph_edges(4)
        mean_bf = 0.0
        second_bf = 0.0
        for mask in range(64):
            present = [(mask >> i) & 1 for i in range(6)]
            prob = math.prod(p if b else 1 - p for b in present)
            u = [p / 2 if b else (1 + p) / 2 for b in present]
            host = host_with_uniforms(4, p, Constant(c), u)
            w = combined_weight(TRIANGLE, host)
            mean_bf += prob * w
            second_bf += prob * w * w
        assert exact_mean(TRIANGLE, 4, p, Constant(c)) == pytest.approx(mean_bf)
        assert exact_variance(TRIANGLE, 4, p, Constant(c)) == pytest.approx(second_bf - mean_bf**2)

    def test_census_triangle_n41(self):
        # 10660 triangles in K_41; each of their 3 edges lies in 38 other
        # triangles, so 10660 * 3 * 38 = 1215240 ordered pairs share one edge
        assert intersection_pair_census(TRIANGLE, 41) == {1: 1215240, 3: 10660}

    @pytest.mark.parametrize("name", ["path:2", "path:3", "path:4", "path:5", "triangle",
                                      "star:2", "star:3", "star:4", "cycle:4", "cycle:5",
                                      "complete:4", "complete:5", *DISJOINT_UNIONS])
    def test_census_matches_direct_oracle(self, name):
        pattern = DISJOINT_UNIONS.get(name) or named_pattern(name)
        v_g = pattern.num_vertices
        for n in range(v_g, min(2 * v_g + 2, 10) + 1):
            census = intersection_pair_census(pattern, n)
            assert census == direct_pair_census(pattern, n)
            assert list(census) == sorted(census)

    @pytest.mark.parametrize("name", ["cycle:8", "path:7"])
    def test_census_large_pattern_small_host(self, name):
        # the census enumerates no copies of K_n; the oracle enumerates K_{v_G}
        pattern = named_pattern(name)
        n = pattern.num_vertices
        assert intersection_pair_census(pattern, n) == direct_pair_census(pattern, n)

    def test_copy_cap(self):
        # path:3 has 124992 copies in K_64, but neither the census nor the
        # sampler enumerates them
        batch = normalized_samples(P3, 64, 0.5, Uniform(1.0), reps=3, seed=0)
        oracle = gathered_weights(P3, 64, 0.5, Uniform(1.0), 0, 0, 3)
        np.testing.assert_allclose(batch.raw, oracle, rtol=1e-12, atol=0)
        # the sampler caps the plan's work per replicate, not the copies of K_n:
        # each pattern runs at its last host size N and is refused at N + 1
        # (the triangle costs n^3; cycle:4 3 n^3; complete:4 C(n, 2) n^2 over
        # the increasing tuples of its one bag; cycle:8 has one such term among
        # 90 of single vertices; path:10 and cycle:10 have mixed terms, whose
        # single vertices cost n^3 each and whose final bag n^2 per tuple)
        for name, last in (("triangle", 464), ("cycle:4", 292), ("complete:4", 119),
                           ("cycle:8", 65), ("path:10", 15), ("cycle:10", 17)):
            pattern = named_pattern(name)
            check_sample_config(pattern, last, 0.5)
            with pytest.raises(ResourceLimitError, match=rf"sampler plan at n = {last + 1} .* "
                                                         r"work units per replicate, capped at 1e\+8"):
                normalized_samples(pattern, last + 1, 0.5, Uniform(1.0), reps=3, seed=0)

    @pytest.mark.parametrize("name, n, p", [("path:9", 10, 0.3), ("cycle:10", 10, 0.5),
                                            ("cycle:8", 10, 0.3), ("triangle", 200, 0.05),
                                            ("path:10", 12, 0.3), ("cycle:10", 13, 0.3)])
    def test_large_plans_match_copy_search(self, name, n, p, monkeypatch):
        # plans with final bags of 2-4 vertices, some after single vertices
        # (path:10 at n = 12 and cycle:10 at 13 were refused while such terms
        # enumerated tuples of all their free vertices), and a host past the
        # copy search's 64-vertex cap, which is lifted for this oracle only
        # (sparse hosts keep the search fast)
        monkeypatch.setattr(patterns, "MAX_HOST_VERTICES", n)
        monkeypatch.setattr(graph_stats, "MAX_HOST_VERTICES", n)
        pattern, model = named_pattern(name), Exponential(1.0)
        batch = normalized_samples(pattern, n, p, model, reps=4, seed=3)
        oracle = [combined_weight(pattern, sample_host(n, p, model, 3, r)) for r in range(4)]
        np.testing.assert_allclose(batch.raw, oracle, rtol=1e-12, atol=0)
        assert batch.raw.any()

    @pytest.mark.parametrize("name", ["path:11", "cycle:11"])
    def test_pattern_cap_before_partition_walk(self, name, monkeypatch):
        def walk(pattern):
            raise AssertionError("vertex partitions walked before the pattern-size cap")

        monkeypatch.setattr(graph_stats, "_independent_partitions", walk)
        with pytest.raises(ResourceLimitError, match="pattern capped at 10 vertices, got 11"):
            check_sample_config(named_pattern(name), 20, 0.5)

    @pytest.mark.parametrize("name, n", [("path:7", 10), ("star:8", 20), ("complete:8", 12)])
    def test_census_enumerates_no_copies(self, name, n):
        # K_10 holds 302400 copies of path:7 and K_20 holds 1511640 of star:8,
        # and a copy search walks 40320 maps per copy of complete:8
        pattern = named_pattern(name)
        check_sample_config(pattern, n, 0.5)
        census = intersection_pair_census(pattern, n)
        copies, e_g = copies_in_complete(pattern, n), pattern.num_edges
        assert census[e_g] == copies
        # every host edge lies in copies * e_G / C(n, 2) copies
        assert sum(h * c for h, c in census.items()) * math.comb(n, 2) == (copies * e_g) ** 2
        assert exact_variance(pattern, n, 0.5, Uniform(1.0)) > 0

    @pytest.mark.parametrize("p", [1.5, float("nan"), 0.0])
    def test_moments_reject_bad_p(self, p):
        with pytest.raises(ValueError, match="p must lie in"):
            exact_mean(TRIANGLE, 10, p, Uniform(1.0))
        with pytest.raises(ValueError, match="p must lie in"):
            exact_variance(TRIANGLE, 10, p, Uniform(1.0))

    def test_asymptotic_variance(self):
        # Single edge, n = 10, p = 0.5, constant weight 1: the weight factor is
        # Var 0 + (1 - 0.5) * 1^2 = 0.5; the only profile is the edge itself
        # (v_H = 2, e_H = 1, multiplicity 1), placing 2*2 - 2 = 2 vertices, so
        # the value is 0.5 * (10)_2 * 0.5^(2 - 1) = 0.5 * 90 * 0.5 = 22.5.
        value = asymptotic_variance(EDGE, 10, 0.5, Constant(1.0))
        assert value == pytest.approx(22.5)
        # agrees with the exact value (45 copies * p(1-p) = 11.25) up to a bounded factor
        exact = exact_variance(EDGE, 10, 0.5, Constant(1.0))
        assert exact / value == pytest.approx(0.5)

    @pytest.mark.parametrize("name", ["triangle", "path:3", "cycle:4", "star:3", "complete:4"])
    def test_asymptotic_variance_theta_sandwich(self, name):
        # max_H (n)_{2v-v_H} p^{2e-e_H} <= overlap sum <= (2^e - 1) max_H n^{2v-v_H} p^{2e-e_H}
        pattern = named_pattern(name)
        v_g, e_g = pattern.num_vertices, pattern.num_edges
        model = Uniform(1.0)
        for n in (2 * v_g, 2 * v_g + 3, 20):
            for p in (0.1, 0.5, 0.9):
                factor = model.variance + (1.0 - p) * model.mean**2
                value = asymptotic_variance(pattern, n, p, model) / factor
                lower = max(
                    math.prod(range(n - (2 * v_g - prof.v_h) + 1, n + 1)) * p ** (2 * e_g - prof.e_h)
                    for prof in edge_subgraph_profiles(pattern)
                )
                upper = (2**e_g - 1) * max_variance_term(pattern, n, p)
                assert lower * (1 - 1e-12) <= value <= upper * (1 + 1e-12)
                assert lower > 0

    def test_asymptotic_variance_overlap_must_fit(self):
        # Star with 3 leaves on n = v_G = 4 host vertices: every proper edge
        # subset misses a leaf, so 2*4 - v_H > 4 and only H = G contributes:
        # (Var 0 + 0.5 * 1) * (4)_4 * 0.5^3 = 0.5 * 24 * 0.125 = 1.5.
        assert asymptotic_variance(named_pattern("star:3"), 4, 0.5, Constant(1.0)) == pytest.approx(1.5)
        # In general, at n = v_G only the profiles spanning all v_G vertices survive.
        p = 0.3
        for name in ("triangle", "path:3", "path:4", "cycle:4", "complete:4"):
            pattern = named_pattern(name)
            v_g, e_g = pattern.num_vertices, pattern.num_edges
            spanning = sum(prof.multiplicity * p ** (2 * e_g - prof.e_h)
                           for prof in edge_subgraph_profiles(pattern) if prof.v_h == v_g)
            expected = (1.0 - p) * math.factorial(v_g) * spanning
            assert asymptotic_variance(pattern, v_g, p, Constant(1.0)) == pytest.approx(expected, rel=1e-12)


class TestNormalizedSamples:
    def test_binomial_lattice(self):
        # edge pattern, constant weights: normalized sample lives on a 4-point lattice
        batch = normalized_samples(EDGE, 3, 0.5, Constant(1.0), reps=4000, seed=3)
        lattice = {(k - 1.5) / math.sqrt(0.75) for k in range(4)}
        seen = {round(v, 12) for v in batch.normalized}
        assert seen <= {round(v, 12) for v in lattice}
        assert len(seen) == 4

    def test_mean_and_variance_self_consistency(self):
        batch = normalized_samples(TRIANGLE, 8, 0.5, Uniform(1.0), reps=20_000, seed=17)
        z = batch.normalized
        assert abs(z.mean()) < 4 / math.sqrt(z.size)
        var_se = math.sqrt(max(float((z**4).mean()) - 1, 0.1) / z.size)
        assert abs(z.var() - 1.0) < 5 * var_se

    def test_negative_reps_rejected_first(self):
        # before the work cap (cycle:8 is refused past n = 65) and the exact moments
        with pytest.raises(ValueError, match="reps must be nonnegative, got -1"):
            normalized_samples(named_pattern("cycle:8"), 66, 0.5, Uniform(1.0), reps=-1, seed=0)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateConfigError):
            normalized_samples(EDGE, 3, 1 - 1e-15, Constant(1.0), reps=10, seed=0)

    @pytest.mark.parametrize("name", ["path:2", "path:3", "path:4", "path:5", "triangle",
                                      "star:3", "star:4", "cycle:4", "cycle:5",
                                      "complete:4", "complete:5", *MIXED_TERMS])
    def test_matches_gather_oracle(self, name):
        # every named pattern with v_G <= 5 (star:2 is path:3), and patterns
        # with mixed terms, against the per-copy gather on the same uniforms;
        # a 6-vertex pattern stops at v_G + 3, where the oracle's copy list is
        # still short (K_14 holds 360k copies of K4+pendant-path)
        pattern = MIXED_TERMS.get(name) or named_pattern(name)
        v_g = pattern.num_vertices
        models = [Constant(1.5), Uniform(2.0), Exponential(1.0), TwoPoint(0.5, 2.0, 0.3)]
        for n in (v_g, v_g + 1, 2 * v_g + 2 if v_g <= 5 else v_g + 3):
            for p in (0.2, 0.8):
                for i, model in enumerate(models):
                    seed = 1000 * n + 10 * i + int(10 * p)
                    batch = normalized_samples(pattern, n, p, model, reps=40, seed=seed)
                    oracle = gathered_weights(pattern, n, p, model, seed, 0, 40)
                    np.testing.assert_allclose(batch.raw, oracle, rtol=1e-12, atol=0,
                                               err_msg=f"{name} n={n} p={p} {model}")

    @pytest.mark.parametrize("v, edges", [
        (4, ((0, 1), (2, 3))),  # two disjoint edges
        (5, ((0, 1), (1, 2), (0, 2), (3, 4))),  # triangle and an edge
        (6, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5))),  # K4 and an edge
    ])
    def test_disconnected_matches_gather_oracle(self, v, edges):
        # an open edge whose ends have no neighbour among the vertices summed out
        pattern = PatternGraph(v, edges)
        for n in (v, v + 2):
            for p in (0.5, 0.9):
                seed = 10 * n + int(10 * p)
                batch = normalized_samples(pattern, n, p, Exponential(1.0), reps=40, seed=seed)
                oracle = gathered_weights(pattern, n, p, Exponential(1.0), seed, 0, 40)
                np.testing.assert_allclose(batch.raw, oracle, rtol=1e-12, atol=0,
                                           err_msg=f"{edges} n={n} p={p}")

    @pytest.mark.parametrize("name, model, n", [
        pytest.param("triangle", Exponential(1.0), 9, id="triangle"),
        pytest.param("cycle:4", Exponential(1.0), 9, id="cycle:4"),
        pytest.param("complete:4", Exponential(1.0), 9, id="complete:4"),
        pytest.param("triangle", TwoPoint(0.5, 2.0, 0.3), 9, id="triangle-twopoint"),
        pytest.param("cycle:4", TwoPoint(0.5, 2.0, 0.3), 9, id="cycle:4-twopoint"),
        pytest.param("complete:4", TwoPoint(0.5, 2.0, 0.3), 9, id="complete:4-twopoint"),
        # 45 edges: span starts at 2 and 3 chunks fall inside a Philox block
        pytest.param("cycle:4", Exponential(1.0), 10, id="cycle:4-n10"),
        # counts past float32's integers: the float64 side of the precision rule
        pytest.param("star:5", Exponential(1.0), 80, id="star:5-n80-float64"),
        # final bags after single vertices, over several tuple blocks in a chunk
        # of 327 replicates and one block in a chunk of one
        pytest.param("path:9", Exponential(1.0), 10, id="path:9-n10"),
        # the triangle's last vertex is summed out with no outside end
        pytest.param("K3+K2", Exponential(1.0), 9, id="triangle+edge"),
    ])
    def test_raw_bitwise_chunk_invariant(self, name, model, n, monkeypatch):
        # one chunk for all replicates or one chunk per replicate: same bits;
        # and the sampler's four chunks in one, two or three spans: same bits
        pattern, p = DISJOINT_UNIONS.get(name) or named_pattern(name), 0.6
        plan = _weight_plan(pattern)
        chunk = _chunk_rows(_count_dtype(plan, n), n * n)
        assert sampler_layout(pattern, n).chunk_rows == chunk
        reps = 3 * chunk + max(1, chunk // 10)  # the fourth chunk is partial
        whole = np.empty(reps)
        _accumulate_weights(plan, n, p, model, 4, whole, 0, reps, reps)
        # path:9 has 621 plan terms, about 70 ms per chunk: a chunk per replicate
        # over the first 12 replicates only
        singles = 12 if name == "path:9" else reps
        single = np.empty(reps)
        _accumulate_weights(plan, n, p, model, 4, single, 0, singles, 1)
        assert whole[:singles].tobytes() == single[:singles].tobytes()
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("WCLT_THREADS", threads)
            batch = normalized_samples(pattern, n, p, model, reps=reps, seed=4)
            assert batch.raw.tobytes() == whole.tobytes(), f"WCLT_THREADS={threads}"

    @pytest.mark.parametrize("name, n", [("complete:4", 9), ("path:8", 10)])
    def test_scratch_does_not_grow_with_chunks(self, name, n, monkeypatch):
        # a lent buffer that is never reclaimed makes every chunk allocate afresh
        spans = []

        class Recorded(graph_stats._Scratch):
            def __init__(self, *args):
                super().__init__(*args)
                spans.append(self)

        monkeypatch.setattr(graph_stats, "_Scratch", Recorded)
        plan, buffers = _weight_plan(named_pattern(name)), []
        for chunks in (1, 5):
            _accumulate_weights(plan, n, 0.6, Exponential(1.0), 4, np.empty(4 * chunks),
                                0, 4 * chunks, 4)
            buffers.append(len(spans[-1]._owned))
        assert len(spans) == 2 and buffers[0] == buffers[1] > 0

    def test_count_dtype_boundary(self):
        # star:4 forms at most 2 (24 + 44 n + 24 n^2 + 4 n^3) in its counts:
        # 16776192 at n = 126, under 2^24, and 17172480 at n = 127
        plan = _weight_plan(named_pattern("star:4"))
        assert [(abs(t.coefficient), sum(map(len, t.bags))) for t in plan.terms] == [
            (24, 0), (44, 1), (24, 2), (4, 3)]
        assert _count_dtype(plan, 126) == np.float32
        assert _count_dtype(plan, 127) == np.float64
        assert sampler_layout(named_pattern("star:4"), 126) == (np.float32, 4, 4)
        assert sampler_layout(named_pattern("star:4"), 127) == (np.float64, 2, 4)

    def test_precision_guard_needed(self, monkeypatch):
        # star:5 at n = 80 counts past 2^24: float64 by the rule; in float32
        # the counts round and the samples move
        pattern, p, model = named_pattern("star:5"), 0.8, Exponential(1.0)
        assert sampler_layout(pattern, 80).count_dtype == np.float64
        exact = normalized_samples(pattern, 80, p, model, reps=20, seed=5).raw
        monkeypatch.setattr(graph_stats, "_FLOAT32_EXACT", 1 << 60)
        assert sampler_layout(pattern, 80).count_dtype == np.float32
        rounded = normalized_samples(pattern, 80, p, model, reps=20, seed=5).raw
        assert rounded.tobytes() != exact.tobytes()
        np.testing.assert_allclose(rounded, exact, rtol=1e-6)

    def test_chunking_invariance(self):
        # identical output whatever the internal chunk boundaries
        b1 = normalized_samples(TRIANGLE, 6, 0.4, Exponential(1.0), reps=301, seed=8)
        b2 = normalized_samples(TRIANGLE, 6, 0.4, Exponential(1.0), reps=301, seed=8)
        assert np.array_equal(b1.raw, b2.raw)
        single = sample_host(6, 0.4, Exponential(1.0), seed=8, replicate=170)
        assert combined_weight(TRIANGLE, single) == pytest.approx(b1.raw[170], abs=1e-12)
