"""Graph-weight chaos families: pathwise identity, alignment, local-kernel rates."""

import math
import re

import numpy as np
import pytest

from oracles import completion_counts
from wclt import graph_chaos
from wclt.chaos import (
    MAX_DENSE_ELEMENTS,
    MAX_GRID_SIZE,
    PATHWISE_TOL,
    Kernel,
    block_center,
    random_paths,
)
from wclt.errors import AlignmentError, PatternError, ResourceLimitError
from wclt.graph_chaos import (
    _copies_in_kn,
    center_local_kernel,
    graph_weight_family,
    local_kernel_norms,
    local_kernel_rates,
    local_weight_kernel,
    path_host_uniforms,
)
from wclt.graph_stats import HostSample, combined_weight, exact_mean, exact_variance
from wclt.patterns import (
    PatternGraph,
    _check_np,
    check_p,
    complete_graph_edges,
    copies_in_complete,
    enumerate_copies,
    named_pattern,
)
from wclt.weights import Constant, TwoPoint, Uniform

TRIANGLE = named_pattern("triangle")
EDGE = named_pattern("path:2")


def host_from_path(u, n, p, model) -> HostSample:
    return HostSample(n=n, p=p, model=model, seed=0, replicate=0,
                      uniforms=path_host_uniforms(u))


def family_variance(family) -> float:
    return sum(math.factorial(k.order) * k.half_norm_sq() for k in family.kernels)


class TestGraphFamily:
    def test_single_edge_two_paths(self):
        # one block, p = 1/2, M = 2: the two half-block paths decide presence
        model = Constant(1.0)
        fam = graph_weight_family(EDGE, 2, 0.5, model, cells=2)
        assert fam.constant == pytest.approx(0.5)  # the exact mean
        for u0, expected in ((-0.5, 1.0), (0.5, 0.0)):
            u = np.array([[u0]])
            assert fam.eval_many(u)[0] == pytest.approx(expected, abs=PATHWISE_TOL)
            host = host_from_path(np.array([u0]), 2, 0.5, model)
            assert combined_weight(EDGE, host) == pytest.approx(expected)

    def test_triangle_constant_pathwise(self):
        model = Constant(1.0)
        fam = graph_weight_family(TRIANGLE, 3, 0.5, model, cells=2)
        u = random_paths(71, 1000, 3)
        w = np.array([combined_weight(TRIANGLE, host_from_path(row, 3, 0.5, model)) for row in u])
        dev = np.max(np.abs(w - fam.eval_many(u)))
        assert dev <= PATHWISE_TOL

    def test_triangle_twopoint_pathwise_and_moments(self):
        model = TwoPoint(1.0, 3.0, 0.5)
        fam = graph_weight_family(TRIANGLE, 4, 0.5, model, cells=4)
        u = random_paths(72, 1000, 6)
        w = np.array([combined_weight(TRIANGLE, host_from_path(row, 4, 0.5, model)) for row in u])
        dev = np.max(np.abs(w - fam.eval_many(u)))
        assert dev <= PATHWISE_TOL
        # aligned models: family mean and variance are the exact moments
        assert fam.constant == pytest.approx(exact_mean(TRIANGLE, 4, 0.5, model), rel=1e-12)
        assert family_variance(fam) == pytest.approx(exact_variance(TRIANGLE, 4, 0.5, model), rel=1e-12)

    def test_edge_exact_variance_identity(self):
        model = TwoPoint(0.0, 2.0, 0.5)
        fam = graph_weight_family(EDGE, 3, 0.25, model, cells=8)
        assert family_variance(fam) == pytest.approx(exact_variance(EDGE, 3, 0.25, model), rel=1e-12)

    def test_continuous_model_moment_level(self):
        # uniform weights: quantile is cell-averaged, mean exact, variance close
        model = Uniform(1.0)
        fam = graph_weight_family(TRIANGLE, 3, 0.5, model, cells=8)
        assert fam.constant == pytest.approx(exact_mean(TRIANGLE, 3, 0.5, model), rel=1e-12)
        exact = exact_variance(TRIANGLE, 3, 0.5, model)
        assert family_variance(fam) == pytest.approx(exact, rel=0.02)

    def test_misalignment_rejected(self):
        with pytest.raises(AlignmentError):
            graph_weight_family(TRIANGLE, 3, 0.3, Constant(1.0), cells=2)
        with pytest.raises(AlignmentError):
            # atom split at (1-q) p M = 0.3 * 2 not an integer
            graph_weight_family(TRIANGLE, 3, 0.5, TwoPoint(1.0, 3.0, 0.7), cells=4)

    def test_caps(self, monkeypatch):
        # the order-e_G kernel holds grid.size^e_G entries: cycle:4 on K_10 with
        # 2 cells per block would need 90^4, past the 2^24 dense-array cap, and
        # is refused before the copy list or any array is built
        def copies(pattern, n):
            raise AssertionError("copies listed before the dense-array cap")

        monkeypatch.setattr(graph_chaos, "_copies_in_kn", copies)
        with pytest.raises(ResourceLimitError, match="order 4 on 90 cells exceeds the dense"):
            graph_weight_family(named_pattern("cycle:4"), 10, 0.5, Constant(1.0), cells=2)
        # the triangle's 256^3 entries fit the cap exactly, so its grid cap decides
        with pytest.raises(ResourceLimitError, match="grid size capped at 256 cells"):
            graph_weight_family(TRIANGLE, 17, 0.5, Constant(1.0), cells=2)

    @pytest.mark.parametrize("n, p", [(4, 1.5), (4, 1.0), (4, 0.0), (4, -0.5), (4, math.nan),
                                      (1, 0.5), (2, 0.5), (2, 1.0)])
    def test_host_and_p_rules_come_first(self, monkeypatch, n, p):
        # the family refuses a bad host size or p with the rule's own error, before
        # any grid, copy list or kernel array is built
        with pytest.raises(ValueError) as expected:
            _check_np(TRIANGLE, n, p)

        def built(*args, **kwargs):
            raise AssertionError("built before the host and p rules")

        for name in ("GridSpec", "_copies_in_kn", "local_weight_kernel"):
            monkeypatch.setattr(graph_chaos, name, built)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$") as got:
            graph_weight_family(TRIANGLE, n, p, Constant(1.0), cells=2)
        assert type(got.value) is type(expected.value)

    def test_cycle4_constant_pathwise(self):
        # four pattern edges on 10 blocks: an order-4 kernel on 20 cells
        pattern, model = named_pattern("cycle:4"), Constant(1.0)
        fam = graph_weight_family(pattern, 5, 0.5, model, cells=2)
        u = random_paths(73, 300, 10)
        w = np.array([combined_weight(pattern, host_from_path(row, 5, 0.5, model)) for row in u])
        assert w.any()
        assert np.max(np.abs(w - fam.eval_many(u))) <= PATHWISE_TOL

    def test_kernels_block_centered(self):
        fam = graph_weight_family(TRIANGLE, 3, 0.5, Constant(1.0), cells=2)
        assert fam.is_block_centered

    @pytest.mark.parametrize("name,n,model,p,cells", [
        ("triangle", 4, TwoPoint(1.0, 3.0, 0.5), 0.5, 4),
        ("path:3", 5, Constant(2.0), 0.25, 8),
        ("path:4", 5, Uniform(1.0), 0.5, 2),
    ])
    def test_kernels_match_block_centered_product(self, name, n, model, p, cells):
        # centering the local factor equals block-centering the dense product
        pattern = named_pattern(name)
        e_g = pattern.num_edges
        fam = graph_weight_family(pattern, n, p, model, cells)
        for k, kern in enumerate(fam.kernels, start=1):
            counts = completion_counts(_copies_in_kn(pattern, n), fam.grid.blocks, e_g, k)
            local = local_weight_kernel(model, p, cells, e_g, k)
            interleaved = [a for i in range(k) for a in (i, k + i)]
            dense = np.multiply.outer(counts, local).transpose(interleaved)
            centered = block_center(Kernel(fam.grid, k, dense.reshape((fam.grid.size,) * k)))
            assert np.array_equal(kern.values, centered.values)
            # the family builds its kernels unchecked: a checked copy must pass
            assert np.array_equal(Kernel(fam.grid, k, kern.values).values, kern.values)


def largest_family_host(pattern) -> int:
    """Largest n whose family passes the grid and dense-array caps at 2 cells
    per block, the fewest that align a retention window (0, 2p) with p < 1:
    16 for up to 3 edges, 8 for cycle:4, 4 for complete:4."""
    n = pattern.num_vertices
    while ((size := (n + 1) * n) <= MAX_GRID_SIZE
           and size**pattern.num_edges <= MAX_DENSE_ELEMENTS):
        n += 1
    return n


class TestCopyList:
    @pytest.mark.parametrize("pattern", [
        *map(named_pattern, ["triangle", "path:3", "star:3", "cycle:4", "path:4", "complete:4"]),
        PatternGraph(4, ((0, 1), (2, 3))),  # two disjoint edges
    ], ids=str)
    def test_copies_match_the_copy_search(self, pattern):
        # the family lists copies from injective maps; the copy search is the oracle
        for n in (pattern.num_vertices, largest_family_host(pattern)):
            edges = complete_graph_edges(n)
            index = {e: i for i, e in enumerate(edges)}
            oracle = [tuple(index[e] for e in copy) for copy in enumerate_copies(pattern, edges)]
            copies = _copies_in_kn(pattern, n)
            assert list(copies) == oracle
            assert len(copies) == copies_in_complete(pattern, n)

    def test_isolated_vertex_refused(self):
        # a triangle plus an isolated vertex: refused before any array is built
        pattern = PatternGraph(4, ((0, 1), (1, 2), (0, 2)))
        with pytest.raises(PatternError, match="without isolated vertices"):
            graph_weight_family(pattern, 4, 0.5, Constant(1.0), cells=2)


class TestLocalKernels:
    def test_order_zero_scalar(self):
        g0 = local_weight_kernel(Constant(2.0), 0.5, 4, 3, 0)
        # p^3 / 3! * 3 * mean
        assert float(g0) == pytest.approx(0.5**3 / 6 * 3 * 2.0)
        lhs1, lhs2 = local_kernel_norms(center_local_kernel(g0), 0, 4)
        assert lhs1 == pytest.approx(float(g0) ** 2)
        assert lhs2 == pytest.approx(float(g0) ** 4)

    @pytest.mark.parametrize("p", [1.5, 1.0, 0.0, -0.5, math.nan])
    def test_p_rule(self, p):
        # p = 1.5 read past the cell grid, and the rates had no p rule at all
        with pytest.raises(ValueError) as expected:
            check_p(p)
        for call in (lambda: local_weight_kernel(Constant(1.0), p, 2, 3, 1),
                     lambda: local_kernel_rates(Constant(1.0), p, 3, 1, 0)):
            with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$") as got:
                call()
            assert type(got.value) is type(expected.value)

    @pytest.mark.parametrize("k", [-1, 4])
    def test_order_range(self, k):
        with pytest.raises(ValueError, match=r"^order must lie in \[0, 3\]$"):
            local_weight_kernel(Constant(1.0), 0.5, 2, 3, k)

    @pytest.mark.parametrize("l", [-1, 3])
    def test_norm_index_range(self, l):
        centered = center_local_kernel(local_weight_kernel(Constant(1.0), 0.5, 2, 3, 2))
        with pytest.raises(ValueError, match="^need 0 <= l <= 2$"):
            local_kernel_norms(centered, l, 2)

    def test_constant_model_closed_form(self):
        # centered local kernel integrals have the closed form
        # (factor * e_G * c)^2 * (2 p (1-p))^k for a constant weight
        c, p, e_g, cells = 2.0, 0.5, 3, 8
        for k in (1, 2):
            raw = local_weight_kernel(Constant(c), p, cells, e_g, k)
            lhs1, _ = local_kernel_norms(center_local_kernel(raw), 0, cells)
            factor = p ** (e_g - k) / (math.factorial(e_g - k) * math.factorial(k))
            expected = (factor * e_g * c) ** 2 * (2 * p * (1 - p)) ** k
            assert lhs1 == pytest.approx(expected, rel=1e-12)

    def test_constant_ratio_flat_in_p(self):
        # lhs1 / rate1 is p-free for constant weights
        ratios = []
        for p in (0.25, 0.5, 0.75):
            raw = local_weight_kernel(Constant(1.0), p, 8, 3, 2)
            lhs1, _ = local_kernel_norms(center_local_kernel(raw), 0, 8)
            rate1, _ = local_kernel_rates(Constant(1.0), p, 3, 2, 0)
            ratios.append(lhs1 / rate1)
        assert max(ratios) / min(ratios) == pytest.approx(1.0, rel=1e-9)

    def test_rate_sweep_bounded(self):
        # both integral/rate ratios stay within a factor 10 across the sweep
        models = [Constant(1.0), Constant(2.0), TwoPoint(1.0, 3.0, 0.5), TwoPoint(0.5, 1.5, 0.5)]
        for model in models:
            for k in (1, 2):
                for l in range(0, k + 1):
                    ratios1, ratios2 = [], []
                    for p in (0.25, 0.5, 0.75):
                        raw = local_weight_kernel(model, p, 8, 3, k)
                        lhs1, lhs2 = local_kernel_norms(center_local_kernel(raw), l, 8)
                        rate1, rate2 = local_kernel_rates(model, p, 3, k, l)
                        ratios1.append(lhs1 / rate1)
                        ratios2.append(lhs2 / rate2)
                    assert max(ratios1) / min(ratios1) <= 10.0, (model, k, l)
                    assert max(ratios2) / min(ratios2) <= 10.0, (model, k, l)

    def test_zero_atom_law_wider_spread(self):
        # a two-point law with an atom at zero stretches the nested-integral
        # ratio to ~10.9 at (k, l) = (2, 0); pinned here so a change is loud
        model = TwoPoint(0.0, 1.0, 0.5)
        ratios = []
        for p in (0.25, 0.5, 0.75):
            raw = local_weight_kernel(model, p, 8, 3, 2)
            _, lhs2 = local_kernel_norms(center_local_kernel(raw), 0, 8)
            _, rate2 = local_kernel_rates(model, p, 3, 2, 0)
            ratios.append(lhs2 / rate2)
        assert max(ratios) / min(ratios) == pytest.approx(10.886, abs=0.01)
