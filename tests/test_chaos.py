"""Kernel algebra, integral evaluation, operators, and the explicit normal bound."""

import math
import re
import sys
from collections import Counter

import numpy as np
import pytest

from oracles import (
    combination_derivative,
    combination_derivative_tables,
    combination_eval,
    combination_stein_terms,
    combination_ustat,
    derivative_family,
    gathered_block_sum,
    gathered_derivative,
    gathered_integral,
    path_cells,
    stein_terms_by_gather,
)
from wclt import chaos, rng
from wclt.chaos import (
    EXACT_TOL,
    PATHWISE_TOL,
    GridSpec,
    Kernel,
    KernelFamily,
    block_center,
    contract,
    contract_symmetrized,
    contraction_inequality_check,
    derivative_energy_identity,
    derivative_values_many,
    family_from_kernels,
    half_inner,
    integral_eval_many,
    is_block_centered,
    product_check_many,
    product_expansion,
    random_kernel,
    random_paths,
    second_moment_product_route,
    slice_kernel,
    stein_bound_terms,
    symmetrize,
    ustat_chaos_decomposition,
    ustat_eval_many,
    zero_kernel,
    _block_tables,
    _chunk_paths,
    _derivative_tables,
    _fold,
    _integral_tables,
    _stein_tables,
)
from wclt.errors import ChaosError, ResourceLimitError
from wclt.graph_chaos import graph_weight_family
from wclt.patterns import named_pattern
from wclt.weights import parse_weight_model


def rademacher_kernel(blocks: int = 1, cells: int = 2, scale: float = 1.0) -> Kernel:
    """+-scale split on every block; block centered by construction."""
    grid = GridSpec(blocks, cells)
    half = cells // 2
    base = np.array([scale] * half + [-scale] * (cells - half))
    return Kernel(grid, 1, np.tile(base, blocks))


class TestKernelBasics:
    def test_symmetrize_idempotent(self):
        grid = GridSpec(3, 2)
        k = random_kernel(grid, 2, seed=1, centered=False)
        again = symmetrize(grid, 2, k.values)
        assert np.allclose(k.values, again.values)

    def test_symmetrize_two_term_average(self):
        grid = GridSpec(2, 1)
        raw = np.zeros((2, 2))
        raw[0, 1] = 1.0
        k = symmetrize(grid, 2, raw)
        assert k.values[0, 1] == pytest.approx(0.5)
        assert k.values[1, 0] == pytest.approx(0.5)

    def test_same_block_zeroed(self):
        grid = GridSpec(2, 2)
        raw = np.ones((4, 4))
        k = symmetrize(grid, 2, raw)
        assert np.all(k.values[:2, :2] == 0)
        assert np.all(k.values[2:, 2:] == 0)
        assert np.all(k.values[:2, 2:] == 1)

    def test_validation_rejects_asymmetric(self):
        grid = GridSpec(2, 1)
        raw = np.zeros((2, 2))
        raw[0, 1] = 1.0
        with pytest.raises(ChaosError):
            Kernel(grid, 2, raw)

    def test_validation_rejects_diagonal_mass(self):
        grid = GridSpec(2, 2)
        raw = np.zeros((4, 4))
        raw[0, 1] = raw[1, 0] = 1.0  # same block
        with pytest.raises(ChaosError):
            Kernel(grid, 2, raw)

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_validation_rejects_non_finite(self, order, bad):
        # every comparison with NaN is false, so a symmetric off-diagonal NaN pair
        # passed the symmetry and diagonal checks; an unchecked kernel is kept as is
        raw = np.zeros((2,) * order)
        raw[(0, 1)[:order]] = raw[(1, 0)[:order]] = bad
        with pytest.raises(ChaosError, match="kernel values must be finite"):
            Kernel(GridSpec(2, 1), order, raw)
        assert np.array_equal(Kernel(GridSpec(2, 1), order, raw, validate=False).values, raw,
                              equal_nan=True)

    def test_cached_marginals_are_read_only(self):
        # every later integral reads the cached marginals, so an in-place edit
        # of one would silently change them
        grid = GridSpec(4, 2)
        k = random_kernel(grid, 2, seed=2, centered=False)
        u = random_paths(3, 20, 4)
        before = integral_eval_many(k, u)
        for keep in (1, 2):
            marginal = k.marginal(keep)
            with pytest.raises(ValueError, match="read-only"):
                marginal += 1.0
        assert np.array_equal(integral_eval_many(k, u), before)

class TestCentering:
    def test_zero_kernel_centered(self):
        assert is_block_centered(zero_kernel(GridSpec(2, 2), 2))

    def test_split_kernel_centered(self):
        assert is_block_centered(rademacher_kernel())

    def test_constant_kernel_not_centered(self):
        grid = GridSpec(1, 2)
        assert not is_block_centered(Kernel(grid, 1, np.array([3.0, 3.0])))

    def test_center_fixes_centered(self):
        k = rademacher_kernel(blocks=2)
        assert np.array_equal(block_center(k).values, k.values)

    def test_center_kills_block_constant(self):
        grid = GridSpec(1, 2)
        k = Kernel(grid, 1, np.array([5.0, 5.0]))
        assert np.all(block_center(k).values == 0)

    def test_center_product_kernel_coordinatewise(self):
        # product of two one-block functions centers factor by factor
        grid = GridSpec(2, 2)
        g = np.array([1.0, 3.0, 0.0, 0.0])   # lives on block 0
        h = np.array([0.0, 0.0, 2.0, 6.0])   # lives on block 1
        raw = np.add.outer(np.zeros(4), np.zeros(4))
        raw = np.outer(g, h)
        k = symmetrize(grid, 2, raw)
        centered = block_center(k)
        gc = g - np.array([2.0, 2.0, 0.0, 0.0])  # per-block mean of g on block 0
        hc = h - np.array([0.0, 0.0, 4.0, 4.0])
        expected = symmetrize(grid, 2, np.outer(gc, hc)).values
        assert np.allclose(centered.values, expected)


class TestNormsAndContractions:
    def test_half_norm_block_constant(self):
        # constant c on one block: squared half-norm is c^2
        grid = GridSpec(1, 4)
        k = Kernel(grid, 1, np.full(4, 2.0))
        assert k.half_norm_sq() == pytest.approx(4.0)

    def test_zero_norm(self):
        assert zero_kernel(GridSpec(2, 2), 2).half_norm_sq() == 0.0

    def test_disjoint_supports_orthogonal(self):
        grid = GridSpec(2, 2)
        a = Kernel(grid, 1, np.array([1.0, -1.0, 0.0, 0.0]))
        b = Kernel(grid, 1, np.array([0.0, 0.0, 1.0, -1.0]))
        assert half_inner(a, b) == 0.0

    def test_full_contraction_is_half_norm(self):
        k = random_kernel(GridSpec(3, 2), 2, seed=11)
        full = contract(k, k, 2, 2)
        assert float(full) == pytest.approx(k.half_norm_sq())

    def test_contraction_with_zero(self):
        grid = GridSpec(3, 2)
        k = random_kernel(grid, 2, seed=12)
        z = zero_kernel(grid, 2)
        assert np.all(contract(k, z, 1, 0) == 0)

    def test_disjoint_block_order1_contraction(self):
        grid = GridSpec(2, 2)
        a = Kernel(grid, 1, np.array([1.0, -1.0, 0.0, 0.0]))
        b = Kernel(grid, 1, np.array([0.0, 0.0, 1.0, -1.0]))
        assert float(contract(a, b, 1, 1)) == 0.0

    def test_contraction_index_validation(self):
        grid = GridSpec(2, 2)
        k = random_kernel(grid, 1, seed=13)
        with pytest.raises(ChaosError):
            contract(k, k, 2, 0)
        with pytest.raises(ChaosError):
            contract(k, k, 0, 1)

    def test_symmetrized_contraction_valid_kernel(self):
        grid = GridSpec(4, 2)
        f = random_kernel(grid, 2, seed=14)
        g = random_kernel(grid, 1, seed=15)
        out = contract_symmetrized(f, g, 1, 0)
        assert out.order == 2
        assert np.array_equal(out.values, out.values.swapaxes(0, 1))


class TestIntegralEvaluation:
    def test_constant_kernel_integral_vanishes(self):
        grid = GridSpec(1, 2)
        k = Kernel(grid, 1, np.array([4.0, 4.0]))
        for u0 in (-0.9, -0.1, 0.3, 0.8):
            assert integral_eval_many(k, np.array([[u0]]))[0] == pytest.approx(0.0)

    def test_split_kernel_sign(self):
        k = rademacher_kernel(scale=2.0)
        assert integral_eval_many(k, np.array([[-0.5]]))[0] == pytest.approx(2.0)
        assert integral_eval_many(k, np.array([[0.5]]))[0] == pytest.approx(-2.0)

    def test_order2_matches_ustat(self):
        # centered kernels: integral equals the distinct-block U-statistic
        grid = GridSpec(4, 2)
        u = random_paths(21, 300, 4)
        for seed in range(5):
            k = random_kernel(grid, 2, seed=100 + seed)
            dev = np.max(np.abs(integral_eval_many(k, u) - ustat_eval_many(k, u)))
            assert dev <= PATHWISE_TOL

    def test_order3_matches_ustat(self):
        grid = GridSpec(4, 2)
        u = random_paths(22, 120, 4)
        k = random_kernel(grid, 3, seed=200)
        dev = np.max(np.abs(integral_eval_many(k, u) - ustat_eval_many(k, u)))
        assert dev <= PATHWISE_TOL

    def test_centering_invariance_pathwise(self):
        # projection onto centered kernels leaves the integral unchanged
        grid = GridSpec(4, 2)
        u = random_paths(23, 100, 4)
        for seed in range(10):
            for order in (1, 2, 3):
                k = random_kernel(grid, order, seed=300 + seed, centered=False)
                dev = np.max(np.abs(
                    integral_eval_many(k, u) - integral_eval_many(block_center(k), u)
                ))
                assert dev <= PATHWISE_TOL

    def test_path_cells(self):
        grid = GridSpec(2, 4)
        idx = path_cells(grid, np.array([[-0.9, 0.9]]))
        assert idx[0, 0] == 0       # low uniform -> first cell of block 0
        assert idx[0, 1] == 7       # high uniform -> last cell of block 1

    def test_random_paths_scale_the_uniform_table(self):
        expected = 2.0 * rng.uniform_matrix(24, 33, 6) - 1.0
        assert np.array_equal(random_paths(24, 33, 6), expected)

    def test_variance_dominated_for_uncentered(self):
        # without block centering the second moment stays below n! times the norm
        n_paths = 20_000
        grid = GridSpec(4, 2)
        u = random_paths(26, n_paths, 4)
        for seed in range(4):
            for order in (1, 2):
                k = random_kernel(grid, order, seed=550 + seed, centered=False)
                vals = integral_eval_many(k, u)
                bound = math.factorial(order) * k.half_norm_sq()
                se = float(np.std(vals**2, ddof=1)) / math.sqrt(n_paths)
                assert float((vals**2).mean()) <= bound + 4 * se

    def test_ustat_decomposition_pathwise(self):
        grid = GridSpec(4, 2)
        u = random_paths(24, 300, 4)
        for seed, order in ((1, 1), (2, 2), (3, 2), (4, 3)):
            k = random_kernel(grid, order, seed=400 + seed, centered=False)
            fam = ustat_chaos_decomposition(k)
            dev = np.max(np.abs(ustat_eval_many(k, u) - fam.eval_many(u)))
            assert dev <= PATHWISE_TOL

    def test_ustat_decomposition_of_centered_is_trivial(self):
        grid = GridSpec(4, 2)
        k = random_kernel(grid, 2, seed=500)
        fam = ustat_chaos_decomposition(k)
        assert fam.constant == pytest.approx(0.0, abs=EXACT_TOL)
        assert np.allclose(fam.kernels[0].values, 0.0, atol=EXACT_TOL)
        assert np.allclose(fam.kernels[1].values, k.values)

    def test_product_of_block_constants_decomposes(self):
        # order-2 product of block-constant slabs: mixture verified pathwise
        grid = GridSpec(3, 2)
        g = np.array([2.0, 2.0, 0.0, 0.0, 0.0, 0.0])
        h = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0])
        k = symmetrize(grid, 2, np.outer(g, h))
        fam = ustat_chaos_decomposition(k)
        u = random_paths(25, 500, 3)
        dev = np.max(np.abs(ustat_eval_many(k, u) - fam.eval_many(u)))
        assert dev <= PATHWISE_TOL


class TestOperators:
    def test_derivative_of_order1_is_kernel(self):
        f = rademacher_kernel(blocks=2)
        fam = family_from_kernels([f])
        u = random_paths(31, 20, 2)
        d, _ = derivative_values_many(fam, u)
        assert np.allclose(d, np.broadcast_to(f.values, d.shape))

    def test_derivative_of_order2_pathwise(self):
        # against the definition: slice integral evaluated directly per cell
        grid = GridSpec(3, 2)
        f2 = random_kernel(grid, 2, seed=600)
        fam = family_from_kernels([f2])
        u = random_paths(32, 100, 3)
        d, _ = derivative_values_many(fam, u)
        for t in (0, 2, 5):
            direct = 2.0 * integral_eval_many(slice_kernel(f2, t), u)
            assert np.max(np.abs(d[:, t] - direct)) <= PATHWISE_TOL

    def test_derivative_slice_scalar(self):
        f = rademacher_kernel(blocks=2)
        fam = family_from_kernels([f])
        u = np.array([0.3, -0.4])
        d, _ = derivative_values_many(fam, u)
        assert d.shape == (1, 4)
        assert d[0, 0] == pytest.approx(1.0)
        assert d[0, 3] == pytest.approx(-1.0)

    def test_derivative_family_matches_matrix(self):
        grid = GridSpec(3, 2)
        fam = family_from_kernels([random_kernel(grid, 1, seed=650),
                                   random_kernel(grid, 2, seed=651)])
        u = random_paths(33, 50, 3)
        d, _ = derivative_values_many(fam, u)
        for block, cell in ((0, 0), (1, 1), (2, 0)):
            slice_fam = derivative_family(fam, block, cell)
            vals = slice_fam.eval_many(u)
            assert np.max(np.abs(vals - d[:, block * 2 + cell])) <= PATHWISE_TOL

    def test_order4_derivative_matches_slice_integrals(self):
        # against the definition, j * I_{j-1} of the slice, for every order up to 4
        grid = GridSpec(4, 2)
        fam = family_from_kernels([random_kernel(grid, j, seed=660 + j) for j in (1, 2, 3, 4)])
        u = random_paths(34, 50, 4)
        d, _ = derivative_values_many(fam, u)
        for block in range(4):
            for cell in range(2):
                vals = derivative_family(fam, block, cell).eval_many(u)
                assert np.max(np.abs(vals - d[:, block * 2 + cell])) <= PATHWISE_TOL

    def test_derivative_needs_centered(self):
        grid = GridSpec(2, 2)
        k = Kernel(grid, 1, np.array([1.0, 2.0, 0.0, 0.0]))
        with pytest.raises(ChaosError):
            derivative_values_many(family_from_kernels([k]), np.zeros((1, 2)))

    def test_zero_family_derivative(self):
        grid = GridSpec(2, 2)
        fam = family_from_kernels([zero_kernel(grid, 1)])
        d, d_inv = derivative_values_many(fam, np.zeros((3, 2)))
        assert np.all(d == 0) and np.all(d_inv == 0)

class TestEnergyIdentity:
    def test_order1_tight(self):
        fam = family_from_kernels([rademacher_kernel(blocks=2)])
        lhs, rhs, ineq = derivative_energy_identity(fam)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert ineq == pytest.approx(rhs, rel=1e-12)

    def test_order2_strict(self):
        fam = family_from_kernels([random_kernel(GridSpec(4, 2), 2, seed=800)])
        lhs, rhs, ineq = derivative_energy_identity(fam)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert ineq == pytest.approx(2 * rhs, rel=1e-12)

    def test_zero_family(self):
        fam = family_from_kernels([zero_kernel(GridSpec(2, 2), 2)])
        assert derivative_energy_identity(fam) == (0.0, 0.0, 0.0)


class TestSteinBound:
    def test_rademacher(self):
        fam = family_from_kernels([rademacher_kernel()])
        terms = stein_bound_terms(fam, 500, seed=5)
        assert terms.term1 == pytest.approx(0.0, abs=1e-12)
        assert terms.term2 == pytest.approx(0.0, abs=1e-12)
        assert terms.term3 == pytest.approx(2.0, abs=1e-12)
        assert terms.total == pytest.approx(2.0, abs=1e-12)

    def test_scaled_block_sum(self):
        for blocks in (2, 4, 8):
            grid = GridSpec(blocks, 2)
            vals = np.tile([1.0, -1.0], blocks) / math.sqrt(blocks)
            fam = family_from_kernels([Kernel(grid, 1, vals)])
            terms = stein_bound_terms(fam, 400, seed=6)
            assert terms.total == pytest.approx(2.0 / math.sqrt(blocks), rel=1e-9)

    def test_zero_family(self):
        fam = family_from_kernels([zero_kernel(GridSpec(2, 2), 1)])
        terms = stein_bound_terms(fam, 100, seed=7)
        assert terms.term1 == pytest.approx(1.0)
        assert terms.term2 == 0.0 and terms.term3 == 0.0

    def test_requires_centered(self):
        fam = KernelFamily(GridSpec(1, 2), 0.5, [rademacher_kernel()])
        with pytest.raises(ChaosError):
            stein_bound_terms(fam, 10, seed=0)

    @pytest.mark.parametrize("n_paths", [0, -1])
    def test_rejects_nonpositive_path_count(self, n_paths):
        fam = family_from_kernels([rademacher_kernel()])
        with pytest.raises(ChaosError, match="at least one path"):
            stein_bound_terms(fam, n_paths, seed=0)

    def test_standard_errors_vanish_for_constant_inner_product(self):
        terms = stein_bound_terms(family_from_kernels([rademacher_kernel()]), 500, seed=5)
        assert terms.term2_se == 0.0 and terms.term3_se == 0.0
        assert terms.to_dict()["term2_se"] == 0.0 and terms.to_dict()["term3_se"] == 0.0

    def test_standard_errors_shrink_like_inverse_sqrt_paths(self):
        grid = GridSpec(6, 2)
        raw = random_kernel(grid, 2, seed=60)
        scale = math.sqrt(2.0 * raw.half_norm_sq())
        fam = family_from_kernels([Kernel(grid, 2, raw.values / scale, validate=False)])
        small = stein_bound_terms(fam, 4_000, seed=63)
        large = stein_bound_terms(fam, 16_000, seed=64)
        assert small.term2_se > 0.0 and small.term3_se > 0.0
        # four times the paths: half the standard error
        assert 1.7 < small.term2_se / large.term2_se < 2.3
        assert 1.7 < small.term3_se / large.term3_se < 2.3

    def test_order2_bound_dominates_distance(self):
        # quick version of the absolute acceptance check, with a genuinely
        # random inner product (term2 > 0)
        from wclt.distance import wasserstein1_to_normal

        grid = GridSpec(6, 2)
        raw = random_kernel(grid, 2, seed=60)
        scale = math.sqrt(2.0 * raw.half_norm_sq())
        fam = family_from_kernels([Kernel(grid, 2, raw.values / scale, validate=False)])
        terms = stein_bound_terms(fam, 20_000, seed=61)
        assert terms.term2 > 0.0
        samples = fam.eval_many(random_paths(62, 20_000, 6))
        dist = wasserstein1_to_normal(samples)
        assert dist.w1 <= terms.total + 3.0 * dist.estimated_statistical_error


def assert_matches_gather(new, old):
    """Agreement with the fancy-index oracle at 1e-12, relative to the array's scale."""
    scale = 1.0 + float(np.max(np.abs(old), initial=0.0))
    np.testing.assert_allclose(new, old, rtol=1e-12, atol=1e-12 * scale)


# blocks 1..6 and cells 1..4, single-block and single-cell grids included
GATHER_GRIDS = [(1, 1), (1, 3), (2, 1), (2, 4), (3, 2), (4, 1), (5, 3), (6, 4)]


def zeroed_block_tuples(kern: Kernel) -> Kernel:
    """The kernel with every block tuple whose block sum is a multiple of 3 set to zero.

    The mask is symmetric and acts on whole block tuples, so a block-centered
    kernel stays block centered.
    """
    grid = kern.grid
    block_of = np.arange(grid.size) // grid.cells
    keep = sum(np.ix_(*[block_of] * kern.order)) % 3 != 0
    return Kernel(grid, kern.order, kern.values * keep, validate=False)


def blocks_within(kern: Kernel, blocks: set[int]) -> Kernel:
    """The kernel with every block tuple that leaves the given blocks set to zero;
    block centered when the kernel is, like ``zeroed_block_tuples``."""
    grid = kern.grid
    inside = np.isin(np.arange(grid.size) // grid.cells, list(blocks))
    keep = np.ones((grid.size,) * kern.order, dtype=bool)
    for axis in range(kern.order):
        keep &= inside.reshape([-1 if i == axis else 1 for i in range(kern.order)])
    return Kernel(grid, kern.order, kern.values * keep, validate=False)


def graph_family(pattern: str, n: int, weights: str, p: float, cells: int) -> KernelFamily:
    return graph_weight_family(named_pattern(pattern), n, p, parse_weight_model(weights), cells)


SPARSE_FAMILIES = {
    "triangle-n4": lambda: graph_family("triangle", 4, "twopoint:1,3,0.5", 0.5, 4),
    "triangle-n5": lambda: graph_family("triangle", 5, "twopoint:1,3,0.5", 0.5, 4),
    "path3-n5": lambda: graph_family("path:3", 5, "const:2", 0.25, 8),
    "zeroed-tuples": lambda: family_from_kernels(
        [zeroed_block_tuples(random_kernel(GridSpec(6, 3), j, seed=2100 + j)) for j in (1, 2, 3)]),
    # the top kernel lives on blocks 0..2 only, so most narrower tables have no home
    "narrow-top": lambda: family_from_kernels(
        [random_kernel(GridSpec(5, 2), j, seed=2150 + j) for j in (1, 2)]
        + [blocks_within(random_kernel(GridSpec(5, 2), 3, seed=2153), {0, 1, 2})]),
    "all-zero": lambda: KernelFamily(GridSpec(4, 2), 0.5,
                                     [zero_kernel(GridSpec(4, 2), j) for j in (1, 2, 3)]),
}


BITWISE_FAMILIES = {
    **{name: SPARSE_FAMILIES[name]
       for name in ("triangle-n4", "triangle-n5", "path3-n5", "zeroed-tuples", "narrow-top")},
    "dense-random": lambda: family_from_kernels(
        [random_kernel(GridSpec(5, 3), j, seed=2200 + j) for j in (1, 2, 3)]),
    "over-budget": lambda: family_from_kernels(
        [random_kernel(GridSpec(16, 2), j, seed=2210 + j) for j in (1, 2, 3)]),
    # the top order alone: its derivative tables are of one width, so only
    # the budget packs them
    "over-budget-top": lambda: family_from_kernels([random_kernel(GridSpec(16, 2), 3, seed=2214)]),
    # a graph family over the budget: the union of a host edge's block sets
    # is the other 35 edges
    "path3-n9": lambda: graph_family("path:3", 9, "const:2", 0.5, 2),
    # block 15's target has one home (the order-1 table) and every other
    # target 2, so the bound reads tabulated and gathered shares together
    "mixed-homes": lambda: family_from_kernels(
        [random_kernel(GridSpec(16, 2), 1, seed=2220),
         blocks_within(random_kernel(GridSpec(16, 2), 2, seed=2221), set(range(15)))]),
}


FOLD_FAMILIES = {
    # over-budget-top's block tables have, in order, the blocks and shapes of
    # the first of over-budget's, so the fold places them alike
    **{name: make for name, make in BITWISE_FAMILIES.items() if name != "over-budget-top"},
    # each top derivative table, (32, 2) rows over 32**2 codes, is twice the
    # byte budget, and every narrower table of its target lies in it
    "wide-tables": lambda: family_from_kernels(
        [random_kernel(GridSpec(3, 32), j, seed=2230 + j) for j in (1, 2, 3)]),
}


def stein_chunk_rows(fam: KernelFamily) -> int:
    """Paths per chunk of ``stein_bound_terms`` on the family."""
    return _chunk_paths(fam.grid, bool(_stein_tables(fam)[1]))


class TestBlockTableGather:
    @pytest.mark.parametrize("blocks,cells", GATHER_GRIDS)
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_block_sums_match_fancy_index(self, blocks, cells, order):
        grid = GridSpec(blocks, cells)
        kern = random_kernel(grid, order, seed=1500 + 10 * blocks + cells, centered=False)
        u = random_paths(1600 + order, 200, blocks)
        idx = path_cells(grid, u)
        assert_matches_gather(ustat_eval_many(kern, u), gathered_block_sum(kern.values, idx, order))
        assert_matches_gather(integral_eval_many(kern, u), gathered_integral(kern, idx))

    @pytest.mark.parametrize("blocks,cells", GATHER_GRIDS)
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_derivative_matches_fancy_index(self, blocks, cells, order):
        grid = GridSpec(blocks, cells)
        fam = family_from_kernels([random_kernel(grid, j, seed=1700 + 10 * order + j)
                                   for j in range(1, order + 1)])
        u = random_paths(1800 + order, 200, blocks)
        idx = path_cells(grid, u)
        d, d_inv = derivative_values_many(fam, u)
        assert_matches_gather(d, gathered_derivative(fam, idx))
        assert_matches_gather(d_inv, gathered_derivative(fam, idx, unit_weights=True))

    def test_family_eval_matches_kernel_sum(self):
        grid = GridSpec(5, 3)
        kernels = [random_kernel(grid, j, seed=1900 + j, centered=False) for j in (1, 2, 3)]
        fam = KernelFamily(grid, 0.25, kernels)
        u = random_paths(1901, 300, 5)
        idx = path_cells(grid, u)
        assert_matches_gather(fam.eval_many(u),
                              0.25 + sum(gathered_integral(k, idx) for k in kernels))

    @pytest.mark.parametrize("name", sorted(SPARSE_FAMILIES))
    def test_sparse_tables_match_fancy_index(self, name):
        # families with all-zero block tables and zero column blocks; the
        # plain block sums add the same values in the same order as the
        # per-home gather, so they agree exactly, while the fancy index adds
        # them in combination order and the oracle integrals and derivatives
        # scale before summing
        fam = SPARSE_FAMILIES[name]()
        u = random_paths(2000, 300, fam.grid.blocks)
        idx = path_cells(fam.grid, u)
        for kern in fam.kernels:
            block_sums = ustat_eval_many(kern, u)
            assert np.array_equal(block_sums, combination_ustat(kern, u))
            assert_matches_gather(block_sums, gathered_block_sum(kern.values, idx, kern.order))
            assert_matches_gather(integral_eval_many(kern, u), gathered_integral(kern, idx))
        assert_matches_gather(fam.eval_many(u),
                              fam.constant + sum(gathered_integral(k, idx) for k in fam.kernels))
        d, d_inv = derivative_values_many(fam, u)
        assert_matches_gather(d, gathered_derivative(fam, idx))
        assert_matches_gather(d_inv, gathered_derivative(fam, idx, unit_weights=True))

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_one_cell_grid_past_64_blocks(self, order):
        # at one cell per block every code is 0, so no home carries one size-1
        # axis per block, which past 64 blocks numpy refuses
        grid = GridSpec(65, 1)
        kern = random_kernel(grid, order, seed=2600 + order, centered=False)
        u = random_paths(2601, 200, grid.blocks)
        idx = path_cells(grid, u)
        block_sums = gathered_block_sum(kern.values, idx, order)
        assert_matches_gather(ustat_eval_many(kern, u), block_sums)
        # a kernel constant on each block integrates to 0, so both routes
        # leave rounding residues, on the scale of the block sums
        np.testing.assert_allclose(integral_eval_many(kern, u), gathered_integral(kern, idx),
                                   rtol=0.0, atol=1e-12 * (1.0 + np.max(np.abs(block_sums))))

    def test_block_tables_drop_zero_parts(self):
        # triangle at n = 5: a pair of host edges lies in a triangle only when
        # the edges meet, and then with one third edge
        fam = SPARSE_FAMILIES["triangle-n5"]()
        top = fam.kernels[2].values
        integral = _block_tables(top, 3, fam.grid)
        derivative = _block_tables(top, 2, fam.grid)
        assert len(integral) == 10
        assert len(derivative) == 30
        assert all(len(parts) == 1 for _, parts in derivative)
        for _, parts in integral + derivative:
            assert all(table.any() for _, table in parts)
        assert _block_tables(np.zeros_like(top), 2, fam.grid) == []

    @pytest.mark.parametrize("derivative", [False, True])
    def test_cover_folds_every_narrower_table_once(self, derivative, monkeypatch):
        # triangle at n = 5: each derivative target's union, the 6 host edges
        # that meet it, fits the byte budget, so its 3 triangle tables and
        # every narrower one fold into one table over that union; the
        # integral's union, all 10 edges, exceeds it, so its tables (a
        # triangle, a pair of edges, one edge, none) pack into 3 homes of at
        # most 7 edges, each within the budget
        fam = SPARSE_FAMILIES["triangle-n5"]()
        cells = fam.grid.cells
        inputs = []
        monkeypatch.setattr(chaos, "_fold", lambda tables, cells: inputs.append(tables) or [])
        if derivative:
            _derivative_tables(fam)
        else:
            _integral_tables(fam.kernels, fam.grid)
        monkeypatch.undo()
        # the i-th table of a target is the integer 2**i, in an object array
        # (8 bytes an entry, as for float64), so a sum of them says exactly
        # which tables it holds
        marked, own, row_bytes = [], {}, {}  # own[target][i] = blocks of table i
        for combo, parts in inputs[0]:
            marked.append((combo, []))
            for target, table in parts:
                mark = np.full(table.shape, 1 << len(own.setdefault(target, [])), dtype=object)
                marked[-1][1].append((target, mark))
                own[target].append(set(combo))
                row_bytes[target] = table.nbytes // table.shape[-1]
        seen = dict.fromkeys(own, 0)
        writes = []
        for combo, gathered in _fold(marked, cells):
            for rows, table in gathered:
                target = None if rows == () else rows.start // cells
                mark = table.flat[0]
                assert np.all(table == mark)
                writes.append(target)
                held = [i for i in range(len(own[target])) if mark >> i & 1]
                # one table, over the union of its tables' blocks
                assert set(combo) == set().union(*(own[target][i] for i in held))
                assert row_bytes[target] * cells ** len(combo) <= chaos.UNION_TABLE_BYTES
                assert seen[target] & mark == 0
                seen[target] |= mark
        assert all(seen[target] == 2 ** len(tabs) - 1 for target, tabs in own.items())
        if derivative:
            assert sorted(writes) == list(range(fam.grid.blocks))
        else:
            assert writes == [None] * 3
        assert sum(len(parts) for _, parts in _derivative_tables(fam)) == 10
        assert len(_integral_tables(fam.kernels, fam.grid)) == 3

    @pytest.mark.parametrize("name", sorted(FOLD_FAMILIES))
    def test_fold_packs_homes_within_budget(self, name, monkeypatch):
        # in input order, a block table joins the first home of its target
        # whose blocks hold its own or, joined with them, still fit the byte
        # budget; else it opens a home.  The i-th table of a target is marked
        # with the integer 2**i, in an object array of the table's shape (8
        # bytes an entry, as for float64), so a home's sum says exactly which
        # tables it holds
        fam = FOLD_FAMILIES[name]()
        cells = fam.grid.cells
        inputs = []  # what the integral and the derivative pass to _fold
        monkeypatch.setattr(chaos, "_fold", lambda tables, cells: inputs.append(tables) or [])
        _integral_tables(fam.kernels, fam.grid)
        _derivative_tables(fam)
        monkeypatch.undo()

        def fits(row_bytes, blocks):
            return row_bytes * cells ** len(blocks) <= chaos.UNION_TABLE_BYTES

        for tables in inputs:
            own, row_bytes, marked = {}, {}, []  # own[target][i] = blocks of its table i
            for combo, parts in tables:
                marked.append((combo, []))
                for target, table in parts:
                    mark = np.full(table.shape, 1 << len(own.setdefault(target, [])), dtype=object)
                    marked[-1][1].append((target, mark))
                    own[target].append(set(combo))
                    row_bytes[target] = table.nbytes // table.shape[-1]  # one lead per target
            homes = {target: [] for target in own}  # per target, its homes' table indices
            for combo, parts in _fold(marked, cells):
                for rows, table in parts:
                    target = None if rows == () else rows.start // cells
                    assert target is None or rows == slice(target * cells, (target + 1) * cells)
                    mark = table.flat[0]
                    assert np.all(table == mark)
                    held = [i for i in range(len(own[target])) if mark >> i & 1]
                    assert set(combo) == set().union(*(own[target][i] for i in held))
                    homes[target].append(held)
            for target, blocks in own.items():
                row = row_bytes[target]
                # every table in exactly one home of its own target
                assert sorted(sum(homes[target], [])) == list(range(len(blocks)))
                if fits(row, set().union(*blocks)):
                    assert len(homes[target]) == 1
                for held in homes[target]:
                    if len(held) > 1:  # packed within the budget, or into its first table
                        union = set().union(*(blocks[i] for i in held))
                        assert fits(row, union) or union == blocks[held[0]]
                # replay the tables in input order: each joins the first home,
                # in opening order, that takes it, or opens the next one
                home_of = {i: k for k, held in enumerate(sorted(homes[target], key=min))
                           for i in held}
                now = []  # the blocks of each home opened so far
                for i, combo in enumerate(blocks):
                    k = home_of[i]
                    joins = [held >= combo or fits(row, held | combo) for held in now]
                    assert not any(joins[:k])
                    if k < len(now):
                        assert joins[k]
                        now[k] |= combo
                    else:
                        assert k == len(now)
                        now.append(set(combo))

    @pytest.mark.parametrize("name", sorted(BITWISE_FAMILIES))
    def test_bitwise_equal_to_combination_gather(self, name, monkeypatch):
        # a home holds what its block tables add up to at each path, in
        # input order, every gather adds the homes into a zeroed output in
        # the oracle's order, and the bound reduces each target's cells in
        # the oracle's order, so every output is bit for bit the oracle's, at
        # any thread count and with a partial last chunk
        fam = BITWISE_FAMILIES[name]()
        grid = fam.grid
        # one table per home: a single one for a target whose union fits the
        # budget, and over it as many as the budget packs its tables into (2
        # rows of 2 cells over at most 2**13 codes)
        homes = Counter(b for b, _ in combination_derivative_tables(fam))
        assert sum(len(p) for _, p in _derivative_tables(fam)) == sum(homes.values())
        if name == "mixed-homes":
            assert homes == {15: 1, **dict.fromkeys(range(15), 2)}
        n_paths = 2 * stein_chunk_rows(fam) + 7
        u = random_paths(2500, n_paths, grid.blocks)
        u_eval = random_paths(2501, 2 * _chunk_paths(grid, False) + 7, grid.blocks)
        expected_d = combination_derivative(fam, u)
        centered = KernelFamily(grid, 0.0, fam.kernels)  # the bound needs a zero constant
        expected_terms = combination_stein_terms(centered, n_paths, seed=2502)
        expected_eval = combination_eval(fam, u_eval)
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("WCLT_THREADS", threads)
            assert all(map(np.array_equal, derivative_values_many(fam, u), expected_d)), threads
            assert stein_bound_terms(centered, n_paths, seed=2502).to_dict() == expected_terms, threads
            assert np.array_equal(fam.eval_many(u_eval), expected_eval), threads

    @pytest.mark.parametrize("name", ["triangle-n4", "triangle-n5", "path3-n5", "zeroed-tuples",
                                      "narrow-top", "dense-random", "path3-n9", "mixed-homes"])
    def test_stein_terms_match_gathered_derivative(self, name):
        # path3-n9 gathers every target per path, mixed-homes 15 of its 16
        family = BITWISE_FAMILIES[name]()
        fam = KernelFamily(family.grid, 0.0, family.kernels)
        n_paths = 2 * stein_chunk_rows(fam) + 7  # three chunks
        terms = stein_bound_terms(fam, n_paths, seed=2300).to_dict()
        oracle = stein_terms_by_gather(fam, n_paths, seed=2300)
        for key, value in oracle.items():
            assert terms[key] == pytest.approx(value, rel=1e-12), key

    def test_wrong_path_width_raises(self):
        fam = SPARSE_FAMILIES["triangle-n4"]()
        kern = fam.kernels[2]
        calls = (fam.eval_many, lambda v: integral_eval_many(kern, v),
                 lambda v: ustat_eval_many(kern, v), lambda v: derivative_values_many(fam, v))
        for width in (fam.grid.blocks - 1, fam.grid.blocks + 1):
            u = random_paths(2400, 5, width)
            for call in calls:
                with pytest.raises(ChaosError, match="one value per block"):
                    call(u)
        # values that are not finite or lie outside [-1, 1] are refused, not
        # cast and clipped into a block's edge cells
        u = random_paths(2401, 3, fam.grid.blocks)
        for bad in (np.nan, np.inf, -np.inf, 1.0 + 1e-12, -1.5):
            v = u.copy()
            v[1, 2] = bad
            for call in calls:
                with pytest.raises(ChaosError, match=r"finite and lie in \[-1, 1\]"):
                    call(v)
        v = u.copy()
        v[0, :] = -1.0
        v[2, :] = 1.0
        for call in calls:
            call(v)

    def test_results_independent_of_thread_count(self, monkeypatch):
        # one path, a chunk less one, a chunk and one, and at least 3 chunks;
        # up to 8 threads, more than there are chunks or cores, with a short
        # switch interval, so a write outside a chunk's own rows would show
        grid = GridSpec(10, 4)
        graph = SPARSE_FAMILIES["triangle-n5"]()
        assert graph.grid == grid
        families = [family_from_kernels([random_kernel(grid, j, seed=1950 + j) for j in (1, 2, 3)]),
                    KernelFamily(grid, 0.0, graph.kernels)]
        eval_chunk = _chunk_paths(grid, False)
        eval_counts = (1, eval_chunk - 1, eval_chunk + 1, 3 * eval_chunk + 1)
        derivative_count = _chunk_paths(grid, True) + 1
        u = random_paths(1960, eval_counts[-1], grid.blocks)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for fam in families:
                # the dense family gathers its targets per path, the graph
                # family reads tabulated shares, in chunks of other sizes
                stein_chunk = stein_chunk_rows(fam)
                stein_counts = (1, stein_chunk - 1, stein_chunk + 1, 3 * stein_chunk + 1)
                results = {}
                for threads in ("1", "2", "4", "8"):
                    monkeypatch.setenv("WCLT_THREADS", threads)
                    results[threads] = (
                        [stein_bound_terms(fam, n, seed=1961).to_dict() for n in stein_counts],
                        [fam.eval_many(u[:n]) for n in eval_counts],
                        derivative_values_many(fam, u[:derivative_count]),
                    )
                for threads in ("2", "4", "8"):
                    stein, evals, derivative = results[threads]
                    assert stein == results["1"][0]
                    assert all(map(np.array_equal, evals, results["1"][1]))
                    assert all(map(np.array_equal, derivative, results["1"][2]))
        finally:
            sys.setswitchinterval(interval)

    def test_results_independent_of_chunk_size(self, monkeypatch):
        # 97 entries cut the 301 paths into chunks of 9 where a span holds
        # one entry per block and of 2 where it holds one per cell, against
        # one chunk at the default; every output is bit for bit the same
        grid = GridSpec(10, 4)
        graph = SPARSE_FAMILIES["triangle-n5"]()
        dense = family_from_kernels([random_kernel(grid, j, seed=1970 + j) for j in (1, 2, 3)])
        assert graph.grid == grid and graph.constant != 0.0
        assert not _stein_tables(graph)[1] and _stein_tables(dense)[1]
        u = random_paths(1980, 301, grid.blocks)
        default = chaos.CHUNK_ENTRIES
        monkeypatch.setenv("WCLT_THREADS", "2")
        for fam in (graph, dense):
            centered = KernelFamily(grid, 0.0, fam.kernels)
            results = {}
            for entries in (97, default):
                monkeypatch.setattr(chaos, "CHUNK_ENTRIES", entries)
                results[entries] = (
                    [fam.eval_many(u), ustat_eval_many(fam.kernels[-1], u),
                     *derivative_values_many(fam, u)],
                    stein_bound_terms(centered, 203, seed=1981).to_dict(),
                )
            arrays, stein = results[97]
            assert all(map(np.array_equal, arrays, results[default][0]))
            assert stein == results[default][1]


class TestProductExpansion:
    def test_rademacher_square(self):
        f = rademacher_kernel()
        u = random_paths(41, 100, 1)
        lhs, rhs = product_check_many(f, f, u)
        assert np.allclose(lhs, 1.0)
        assert np.max(np.abs(lhs - rhs)) <= PATHWISE_TOL

    def test_zero_factor(self):
        grid = GridSpec(3, 2)
        f = random_kernel(grid, 2, seed=900)
        z = zero_kernel(grid, 1)
        u = random_paths(42, 50, 3)
        lhs, rhs = product_check_many(f, z, u)
        assert np.all(lhs == 0) and np.max(np.abs(rhs)) <= PATHWISE_TOL

    def test_random_pairs_pathwise(self):
        grid = GridSpec(4, 2)
        u = random_paths(43, 1000, 4)
        cases = [(1, 1), (1, 2), (2, 2)]
        for i, (n, m) in enumerate(cases):
            f = random_kernel(grid, n, seed=1000 + i)
            g = random_kernel(grid, m, seed=1100 + i)
            lhs, rhs = product_check_many(f, g, u)
            assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs))) <= PATHWISE_TOL

    def test_requires_centered(self):
        grid = GridSpec(2, 2)
        k = Kernel(grid, 1, np.array([1.0, 2.0, 0.0, 0.0]))
        with pytest.raises(ChaosError):
            product_expansion(k, k)

    def test_second_moment_dual_route(self):
        grid = GridSpec(4, 2)
        fam = family_from_kernels([random_kernel(grid, 1, seed=1200),
                                   random_kernel(grid, 2, seed=1201)])
        iso = fam.second_moment()
        via_products = second_moment_product_route(fam)
        assert via_products == pytest.approx(iso, rel=1e-12)

    def test_second_moment_route_builds_only_full_contractions(self, monkeypatch):
        # the order-0 terms of the whole expansion, summed in the same order, give
        # the same bits; no symmetrized (positive-order) term is built any more
        grid = GridSpec(4, 2)
        fam = family_from_kernels([random_kernel(grid, 1, seed=1210),
                                   random_kernel(grid, 2, seed=1211)], constant=0.5)
        expected = fam.constant**2
        for f in fam.kernels:
            for g in fam.kernels:
                for coef, kern in product_expansion(f, g):
                    if kern.order == 0:
                        expected += coef * float(kern.values)

        def no_symmetrize(*args):
            raise AssertionError("a positive-order product term was built")

        monkeypatch.setattr(chaos, "symmetrize", no_symmetrize)
        assert second_moment_product_route(fam) == expected
        uncentered = family_from_kernels([Kernel(grid, 1, np.arange(8.0))])
        with pytest.raises(ChaosError, match="block-centered"):
            second_moment_product_route(uncentered)


class TestContractionInequalities:
    def grids(self):
        return GridSpec(3, 2)

    def test_zero_g_trivial(self):
        grid = self.grids()
        f = random_kernel(grid, 2, seed=1300)
        z = zero_kernel(grid, 2)
        res = contraction_inequality_check(f, z, 2, 1)
        assert res.holds and res.lhs == 0.0

    def test_equal_kernels_full_indices(self):
        grid = self.grids()
        f = random_kernel(grid, 2, seed=1301)
        res = contraction_inequality_check(f, f, 2, 2)
        assert res.holds

    def test_random_pairs_all_index_configs(self):
        grid = self.grids()
        printed_failures = 0
        for trial in range(100):
            for n in (1, 2, 3):
                for m in (1, 2, 3):
                    f = random_kernel(grid, n, seed=2000 + 10 * trial + n)
                    g = random_kernel(grid, m, seed=3000 + 10 * trial + m)
                    for k in range(0, min(n, m) + 1):
                        for l in range(0, k + 1):
                            res = contraction_inequality_check(f, g, k, l)
                            assert res.holds, (n, m, k, l)
                            if res.printed_holds is False:
                                printed_failures += 1
        # the as-printed variant of the l < k inequality may or may not hold;
        # recorded for information, never asserted


class TestFamilyValidation:
    def test_order_slots(self):
        grid = GridSpec(2, 2)
        with pytest.raises(ChaosError):
            KernelFamily(grid, 0.0, [zero_kernel(grid, 2)])

    def test_family_from_kernels_pads(self):
        grid = GridSpec(3, 2)
        fam = family_from_kernels([random_kernel(grid, 2, seed=1400)])
        assert len(fam.kernels) == 2
        assert np.all(fam.kernels[0].values == 0)


def uncentered_family() -> KernelFamily:
    """A zero-constant family whose order-1 kernel is not block centered."""
    return family_from_kernels([Kernel(GridSpec(2, 2), 1, np.array([1.0, 2.0, 0.0, 0.0]))])


G2, G3 = GridSpec(2, 2), GridSpec(3, 2)


class TestRefusals:
    @pytest.mark.parametrize("call, error, message", [
        (lambda: Kernel(G2, -1, np.zeros(())), ChaosError, "kernel order must be nonnegative"),
        (lambda: Kernel(G2, 1, np.zeros(3)), ChaosError,
         "kernel of order 1 needs shape (4,), got (3,)"),
        (lambda: half_inner(zero_kernel(G2, 1), zero_kernel(G2, 2)), ChaosError,
         "inner product needs kernels of equal order on one grid"),
        (lambda: half_inner(zero_kernel(G2, 1), zero_kernel(G3, 1)), ChaosError,
         "inner product needs kernels of equal order on one grid"),
        (lambda: contract(zero_kernel(G2, 1), zero_kernel(G3, 1), 1, 1), ChaosError,
         "contraction needs kernels on the same grid"),
        # 256 cells: the order-4 result of two order-2 kernels has 2^32 entries
        (lambda: contract(zero_kernel(GridSpec(128, 2), 2), zero_kernel(GridSpec(128, 2), 2),
                          0, 0), ResourceLimitError,
         "contraction result exceeds the dense-array cap"),
        (lambda: KernelFamily(G2, 0.0, [zero_kernel(G3, 1)]), ChaosError,
         "family kernels must share one grid"),
        (lambda: family_from_kernels([]), ChaosError, "family needs at least one kernel"),
        (lambda: slice_kernel(zero_kernel(G2, 0), 0), ChaosError,
         "cannot slice an order-0 kernel"),
        (lambda: uncentered_family().second_moment(), ChaosError,
         "second moment via the norm identity needs block-centered kernels"),
        (lambda: stein_bound_terms(uncentered_family(), 10, seed=0), ChaosError,
         "bound needs block-centered kernels"),
        (lambda: derivative_energy_identity(uncentered_family()), ChaosError,
         "identity needs a block-centered family"),
    ])
    def test_message(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()

    def test_order_zero_kernel_folds_into_the_constant(self):
        f1 = random_kernel(G2, 1, seed=1500)
        fam = family_from_kernels([Kernel(G2, 0, np.array(1.5)), f1], constant=0.25)
        assert fam.constant == 1.75
        assert len(fam.kernels) == 1 and fam.kernels[0] is f1
