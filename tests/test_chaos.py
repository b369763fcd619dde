"""Kernel algebra, integral evaluation, operators, and the explicit normal bound."""

import math
import sys

import numpy as np
import pytest

from oracles import derivative_family, gathered_block_sum, gathered_derivative, gathered_integral
from wclt.chaos import (
    EVAL_CHUNK_ROWS,
    EXACT_TOL,
    PATHWISE_TOL,
    STEIN_CHUNK_ENTRIES,
    GridSpec,
    Kernel,
    KernelFamily,
    block_center,
    contract,
    contract_symmetrized,
    contraction_inequality_check,
    contraction_norm_bound,
    derivative_energy_identity,
    derivative_slice,
    derivative_values_many,
    family_from_kernels,
    half_inner,
    integral_eval,
    integral_eval_many,
    is_block_centered,
    kernel_from_json,
    kernel_to_json,
    ou_inverse,
    ou_apply,
    ou_negative,
    ou_sqrt,
    path_cells,
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
)
from wclt.errors import ChaosError


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

    def test_json_roundtrip(self):
        k = random_kernel(GridSpec(3, 2), 2, seed=4)
        back = kernel_from_json(kernel_to_json(k))
        assert np.array_equal(k.values, back.values)
        assert back.is_block_centered == k.is_block_centered


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
            assert integral_eval(k, [u0]) == pytest.approx(0.0)

    def test_split_kernel_sign(self):
        k = rademacher_kernel(scale=2.0)
        assert integral_eval(k, [-0.5]) == pytest.approx(2.0)
        assert integral_eval(k, [0.5]) == pytest.approx(-2.0)

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
        d = derivative_values_many(fam, u)
        assert np.allclose(d, np.broadcast_to(f.values, d.shape))

    def test_derivative_of_order2_pathwise(self):
        # against the definition: slice integral evaluated directly per cell
        grid = GridSpec(3, 2)
        f2 = random_kernel(grid, 2, seed=600)
        fam = family_from_kernels([f2])
        u = random_paths(32, 100, 3)
        d = derivative_values_many(fam, u)
        for t in (0, 2, 5):
            direct = 2.0 * integral_eval_many(slice_kernel(f2, t), u)
            assert np.max(np.abs(d[:, t] - direct)) <= PATHWISE_TOL

    def test_derivative_slice_scalar(self):
        f = rademacher_kernel(blocks=2)
        fam = family_from_kernels([f])
        u = np.array([0.3, -0.4])
        assert derivative_slice(fam, 0, 0, u) == pytest.approx(1.0)
        assert derivative_slice(fam, 1, 1, u) == pytest.approx(-1.0)

    def test_derivative_family_matches_matrix(self):
        grid = GridSpec(3, 2)
        fam = family_from_kernels([random_kernel(grid, 1, seed=650),
                                   random_kernel(grid, 2, seed=651)])
        u = random_paths(33, 50, 3)
        d = derivative_values_many(fam, u)
        for block, cell in ((0, 0), (1, 1), (2, 0)):
            slice_fam = derivative_family(fam, block, cell)
            vals = slice_fam.eval_many(u)
            assert np.max(np.abs(vals - d[:, block * 2 + cell])) <= PATHWISE_TOL

    def test_order4_derivative_matches_slice_integrals(self):
        # against the definition, j * I_{j-1} of the slice, for every order up to 4
        grid = GridSpec(4, 2)
        fam = family_from_kernels([random_kernel(grid, j, seed=660 + j) for j in (1, 2, 3, 4)])
        u = random_paths(34, 50, 4)
        d = derivative_values_many(fam, u)
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
        assert np.all(derivative_values_many(fam, np.zeros((3, 2))) == 0)

    def test_ou_roundtrip(self):
        grid = GridSpec(3, 2)
        fam = family_from_kernels([random_kernel(grid, 1, seed=700),
                                   random_kernel(grid, 2, seed=701)])
        back = ou_apply(ou_inverse(fam))
        for a, b in zip(fam.kernels, back.kernels):
            assert np.allclose(a.values, b.values)

    def test_ou_sqrt_squares(self):
        grid = GridSpec(3, 2)
        fam = family_from_kernels([random_kernel(grid, 2, seed=702)])
        twice = ou_sqrt(ou_sqrt(fam))
        target = ou_negative(fam)
        for a, b in zip(twice.kernels, target.kernels):
            assert np.allclose(a.values, b.values)

    def test_ou_inverse_requires_centered_constant(self):
        grid = GridSpec(2, 2)
        fam = KernelFamily(grid, 1.0, [rademacher_kernel(2)])
        with pytest.raises(ChaosError):
            ou_inverse(fam)

    def test_sqrt_ou_norm_identity(self):
        # E[((-L)^{1/2} X)^2] equals sum of n * n! half-norms
        grid = GridSpec(3, 2)
        fam = family_from_kernels([random_kernel(grid, 1, seed=703),
                                   random_kernel(grid, 2, seed=704)])
        lhs = ou_sqrt(fam).second_moment()
        rhs = sum(k.order * math.factorial(k.order) * k.half_norm_sq() for k in fam.kernels)
        assert lhs == pytest.approx(rhs, rel=1e-12)


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
        for unit in (False, True):
            assert_matches_gather(derivative_values_many(fam, u, unit_weights=unit),
                                  gathered_derivative(fam, idx, unit_weights=unit))

    def test_family_eval_matches_kernel_sum(self):
        grid = GridSpec(5, 3)
        kernels = [random_kernel(grid, j, seed=1900 + j, centered=False) for j in (1, 2, 3)]
        fam = KernelFamily(grid, 0.25, kernels)
        u = random_paths(1901, 300, 5)
        idx = path_cells(grid, u)
        assert_matches_gather(fam.eval_many(u),
                              0.25 + sum(gathered_integral(k, idx) for k in kernels))

    def test_results_independent_of_thread_count(self, monkeypatch):
        # at least 3 chunks each; 4 threads on fewer cores with a short switch
        # interval, so a write outside a chunk's own rows would show
        grid = GridSpec(10, 4)
        fam = family_from_kernels([random_kernel(grid, j, seed=1950 + j) for j in (1, 2, 3)])
        n_paths = 15_001
        u = random_paths(1960, 3 * EVAL_CHUNK_ROWS + 1, grid.blocks)
        assert n_paths > 3 * (STEIN_CHUNK_ENTRIES // grid.size)
        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for threads in ("1", "2", "4"):
                monkeypatch.setenv("WCLT_THREADS", threads)
                results[threads] = (stein_bound_terms(fam, n_paths, seed=1961).to_dict(),
                                    fam.eval_many(u))
        finally:
            sys.setswitchinterval(interval)
        for threads in ("2", "4"):
            assert results[threads][0] == results["1"][0]
            assert np.array_equal(results[threads][1], results["1"][1])


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


class TestContractionNormBound:
    def test_zero_family_is_one(self):
        fam = family_from_kernels([zero_kernel(GridSpec(2, 2), 1)])
        value, norm_sum = contraction_norm_bound(fam)
        assert value == pytest.approx(1.0)
        assert norm_sum == 0.0

    def test_single_rademacher(self):
        f = rademacher_kernel()
        fam = family_from_kernels([f])
        value, norm_sum = contraction_norm_bound(fam)
        # only f *_1^0 f survives: the plain L2 norm of the pointwise square
        expected = float((f.values**2) ** 2 @ np.full(2, f.grid.cell_width))
        assert norm_sum == pytest.approx(expected)
        assert value == pytest.approx(abs(1 - fam.second_moment()) + math.sqrt(norm_sum))

    def test_block_scaling(self):
        # spreading the kernel over K blocks scales the contraction sum like 1/K
        sums = {}
        for blocks in (2, 8):
            grid = GridSpec(blocks, 2)
            vals = np.tile([1.0, -1.0], blocks) / math.sqrt(blocks)
            fam = family_from_kernels([Kernel(grid, 1, vals)])
            sums[blocks] = contraction_norm_bound(fam)[1]
        assert sums[2] / sums[8] == pytest.approx(4.0, rel=1e-9)


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
        assert fam.max_order == 2
        assert np.all(fam.kernels[0].values == 0)
