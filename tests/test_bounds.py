"""Rate terms, family classification, and the regime-split bounds."""

import math
from itertools import combinations

import pytest

from wclt import patterns
from wclt.bounds import classify_family, rate_term, regime_bound, wasserstein_bound
from wclt.errors import DegenerateConfigError, PatternError, UnsupportedPatternError
from wclt.patterns import PatternGraph, named_pattern
from wclt.weights import Constant, Uniform

TRIANGLE = named_pattern("triangle")
EDGE = named_pattern("path:2")
TRIANGLE_PENDANT = PatternGraph(4, ((0, 1), (1, 2), (0, 2), (2, 3)))


class TestRateTerm:
    def test_examples(self):
        assert rate_term(TRIANGLE, 10, 0.1) == pytest.approx(0.9**-0.5)
        assert rate_term(EDGE, 100, 0.5) == pytest.approx(0.02)

    def test_decreasing_in_n(self):
        for p in (0.1, 0.5, 0.9):
            for n in (5, 10, 20, 40):
                assert rate_term(TRIANGLE, 2 * n, p) < rate_term(TRIANGLE, n, p)

    def test_vanishes_for_large_n(self):
        assert rate_term(TRIANGLE, 10_000, 0.5) < 1e-3

    def test_p_one_vacuous(self):
        with pytest.raises(DegenerateConfigError):
            rate_term(TRIANGLE, 10, 1.0)

    def test_sufficient_condition_sequences(self):
        # along n p^beta -> inf and n^2 (1-p) -> inf, the rate term vanishes
        sequences = [
            lambda n: 0.5,                    # fixed p
            lambda n: n ** -0.5,              # sparse: n p = sqrt(n) -> inf (beta = 1)
            lambda n: 1.0 - n ** -0.5,        # dense: n^2 (1-p) = n^1.5 -> inf
        ]
        for p_of_n in sequences:
            values = [rate_term(TRIANGLE, n, p_of_n(n)) for n in (10, 100, 1000, 10_000)]
            assert all(b < a for a, b in zip(values, values[1:]))
            assert values[-1] < 0.05


class TestWassersteinBound:
    def test_product_structure(self):
        rep = wasserstein_bound(TRIANGLE, 10, 0.1, Uniform(1.0))
        assert rep.bound_value == pytest.approx(rep.rate_term * rep.moment_ratio)
        assert rep.rate_term == pytest.approx(rate_term(TRIANGLE, 10, 0.1))
        assert rep.rate_only

    def test_constant_weight_recovers_count_bound(self):
        # deterministic weight 1/e_G: moment ratio 1, bound equals the count rate
        rep = wasserstein_bound(TRIANGLE, 12, 0.3, Constant(1 / 3))
        assert rep.moment_ratio == pytest.approx(1.0)
        assert rep.bound_value == pytest.approx(rep.count_bound)

    def test_monotone_in_n(self):
        a = wasserstein_bound(TRIANGLE, 10, 0.5, Uniform(1.0)).bound_value
        b = wasserstein_bound(TRIANGLE, 20, 0.5, Uniform(1.0)).bound_value
        assert b < a

    def test_rejects_isolated_vertices(self):
        with pytest.raises(PatternError):
            wasserstein_bound(PatternGraph(3, ((0, 1),)), 10, 0.5, Uniform(1.0))


class TestClassify:
    def test_examples(self):
        assert classify_family(named_pattern("cycle:5")) == ("cycle", 5)
        assert classify_family(named_pattern("complete:4")) == ("complete", 4)
        assert classify_family(named_pattern("star:4")) == ("tree", 4)
        assert classify_family(TRIANGLE) == ("cycle", 3)
        assert classify_family(EDGE) == ("tree", 1)
        assert classify_family(TRIANGLE_PENDANT) == ("general", None)


class TestRegimeBound:
    def test_dense_example(self):
        rep = regime_bound(TRIANGLE, 100, 0.9, Uniform(1.0), cutoff=0.5)
        expected = math.sqrt(1 / 5) / (100 * math.sqrt(0.1) * (1 / 12))
        assert rep.regime == "dense"
        assert rep.bound_value == pytest.approx(expected)

    def test_tree_low_example(self):
        # tree with 2 edges at p below 1/n
        rep = regime_bound(P3 := named_pattern("path:3"), 10, 0.05, Uniform(1.0))
        assert rep.regime == "sparse-low"
        assert rep.regime_threshold == pytest.approx(0.1)
        expected = math.sqrt(1 / 5) / (10**1.5 * 0.05 * (1 / 3))
        assert rep.bound_value == pytest.approx(expected)

    def test_mid_regime(self):
        rep = regime_bound(TRIANGLE, 100, 0.2, Uniform(1.0), cutoff=0.5)
        assert rep.regime == "sparse-mid"
        assert rep.bound_value == pytest.approx(math.sqrt(1 / 5) / (100 * math.sqrt(0.2) * (1 / 3)))

    def test_cycle_threshold(self):
        # the balance formula n^{-(v_G-2)/(e_G-1)} gives each family's classical
        # exponent exactly: cycles (r-2)/(r-1), complete graphs 2/(r+1), trees 1
        exponents = {"triangle": 1 / 2}
        exponents.update({f"cycle:{r}": (r - 2) / (r - 1) for r in range(3, 11)})
        exponents.update({f"complete:{r}": 2 / (r + 1) for r in range(3, 7)})
        exponents.update({f"path:{r}": 1.0 for r in range(2, 11)})
        exponents.update({f"star:{r}": 1.0 for r in range(1, 10)})
        for name, exponent in exponents.items():
            pattern = named_pattern(name)
            for n in (8, 10, 50, 200):
                if n < pattern.num_vertices:
                    continue
                rep = regime_bound(pattern, n, 0.05, Uniform(1.0))
                assert rep.regime_threshold == n ** -exponent, (name, n)

    def test_profiles_enumerated_once(self, monkeypatch):
        pattern = named_pattern("complete:5")
        sizes = []

        def counting(iterable, r):
            sizes.append(r)
            return combinations(iterable, r)

        patterns._profile_table.cache_clear()
        monkeypatch.setattr(patterns, "combinations", counting)
        for i in range(32):
            n, p = 8 + i, 0.05 + 0.025 * i
            regime_bound(pattern, n, p, Uniform(1.0))
            wasserstein_bound(pattern, n, p, Uniform(1.0))
        assert sizes.count(pattern.num_edges) == 1  # one pass over the edge subsets

    def test_constant_dense_degenerate(self):
        with pytest.raises(DegenerateConfigError):
            regime_bound(TRIANGLE, 100, 0.9, Constant(1.0))

    def test_unbalanced_rejected(self):
        with pytest.raises(UnsupportedPatternError):
            regime_bound(TRIANGLE_PENDANT, 10, 0.5, Uniform(1.0))

    def test_agreement_with_general_bound(self):
        # same decay up to a pattern constant: log-ratio range bounded on a grid
        ratios = []
        for n in (10, 20, 40, 80):
            for p in (0.1, 0.3, 0.5, 0.7, 0.9):
                general = wasserstein_bound(TRIANGLE, n, p, Uniform(1.0)).bound_value
                regime = regime_bound(TRIANGLE, n, p, Uniform(1.0)).bound_value
                ratios.append(math.log(general / regime))
        assert max(ratios) - min(ratios) <= 3.0
