"""Host sampling, combined weights, and exact moments."""

import math
import random

import numpy as np
import pytest

from oracles import direct_pair_census, gathered_weights, weight_by_edge_counts
from wclt import graph_stats, rng
from wclt.errors import DegenerateConfigError, ResourceLimitError
from wclt.graph_stats import (
    HostSample,
    _accumulate_weights,
    _weight_plan,
    asymptotic_variance,
    check_sample_config,
    combined_weight,
    exact_mean,
    exact_variance,
    intersection_pair_census,
    normalized_samples,
    sample_host,
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
        # cycle:8 has a plan term with no elimination order: K_10 holds 113400 copies
        with pytest.raises(ResourceLimitError, match="capped at 100000 copies, K_10 holds 113400"):
            normalized_samples(named_pattern("cycle:8"), 10, 0.5, Uniform(1.0), reps=3, seed=0)
        # complete:4 has no elimination order, so its copies in K_n are capped
        # too: K_40 holds 91390, K_41 holds 101270
        check_sample_config(named_pattern("complete:4"), 40, 0.5)
        with pytest.raises(ResourceLimitError, match="capped at 100000 copies, K_41 holds 101270"):
            normalized_samples(named_pattern("complete:4"), 41, 0.5, Uniform(1.0), reps=3, seed=0)

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
        m = model.moments()
        for n in (2 * v_g, 2 * v_g + 3, 20):
            for p in (0.1, 0.5, 0.9):
                factor = m.variance + (1.0 - p) * m.mean**2
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
        # before the copy cap and the exact moments are looked at
        with pytest.raises(ValueError, match="reps must be nonnegative, got -1"):
            normalized_samples(named_pattern("cycle:8"), 10, 0.5, Uniform(1.0), reps=-1, seed=0)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateConfigError):
            normalized_samples(EDGE, 3, 1 - 1e-15, Constant(1.0), reps=10, seed=0)

    @pytest.mark.parametrize("name", ["path:2", "path:3", "path:4", "path:5", "triangle",
                                      "star:3", "star:4", "cycle:4", "cycle:5",
                                      "complete:4", "complete:5"])
    def test_matches_gather_oracle(self, name):
        # every named pattern with v_G <= 5 (star:2 is path:3), against the
        # per-copy gather on the same uniforms
        pattern = named_pattern(name)
        v_g = pattern.num_vertices
        models = [Constant(1.5), Uniform(2.0), Exponential(1.0), TwoPoint(0.5, 2.0, 0.3)]
        for n in (v_g, v_g + 1, 2 * v_g + 2):
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

    @pytest.mark.parametrize("name", ["triangle", "cycle:4"])
    def test_raw_bitwise_chunk_invariant(self, name):
        # one chunk for all replicates or one chunk per replicate: same bits
        pattern, n, p, model, reps = named_pattern(name), 9, 0.6, Exponential(1.0), 50
        plan = _weight_plan(pattern)
        whole = np.empty(reps)
        _accumulate_weights(plan, n, p, model, 4, whole, 0, reps)
        single = np.empty(reps)
        for r in range(reps):
            _accumulate_weights(plan, n, p, model, 4, single, r, r + 1)
        assert whole.tobytes() == single.tobytes()
        batch = normalized_samples(pattern, n, p, model, reps=reps, seed=4)
        assert batch.raw.tobytes() == whole.tobytes()

    def test_chunking_invariance(self):
        # identical output whatever the internal chunk boundaries
        b1 = normalized_samples(TRIANGLE, 6, 0.4, Exponential(1.0), reps=301, seed=8)
        b2 = normalized_samples(TRIANGLE, 6, 0.4, Exponential(1.0), reps=301, seed=8)
        assert np.array_equal(b1.raw, b2.raw)
        single = sample_host(6, 0.4, Exponential(1.0), seed=8, replicate=170)
        assert combined_weight(TRIANGLE, single) == pytest.approx(b1.raw[170], abs=1e-12)
