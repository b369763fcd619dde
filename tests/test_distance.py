"""Exact Wasserstein-1 integrator and the normal CDF/quantile plumbing."""

import math
import os
import subprocess
import sys
from functools import lru_cache

import numpy as np
import pytest

from oracles import w1_every_piece, w1_quantile_space
from wclt import chaos, distance, graph_chaos, patterns, rng, weights
from wclt.distance import normal_cdf, normal_pdf, normal_quantile, wasserstein1_to_normal

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

# closed-form constants, independently verified by adaptive quadrature
SINGLE_ZERO_W1 = 2.0 / math.sqrt(2.0 * math.pi)      # 0.79788456080...
RADEMACHER_W1 = 0.5353773215478799


def cdf_series(x: float, terms: int = 120) -> float:
    """Taylor series of the normal CDF around 0; independent oracle for |x| <= 2."""
    total = 0.0
    term = x
    k = 0
    while k < terms:
        total += term / (2 * k + 1)
        k += 1
        term *= -x * x / (2 * k)
    return 0.5 + total / math.sqrt(2 * math.pi)


def riemann_w1(samples, lo=-10.0, hi=10.0, step=1e-4) -> float:
    """Brute-force Riemann-sum oracle for the distance."""
    xs = np.sort(np.asarray(samples, dtype=float))
    grid = np.arange(lo, hi, step)
    emp = np.searchsorted(xs, grid, side="right") / xs.size
    return float(np.abs(emp - normal_cdf(grid)).sum() * step)


class TestNormalPlumbing:
    def test_cdf_symmetry(self):
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_quantile_symmetry(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_cdf_against_series(self):
        for x in (-2.0, -1.0, -0.3, 0.1, 1.0, 1.7):
            assert normal_cdf(x) == pytest.approx(cdf_series(x), abs=1e-13)
        assert normal_cdf(1.0) == pytest.approx(0.841344746068543, abs=1e-12)

    @pytest.mark.parametrize("x, expected", [
        (-10.0, 7.619853024160526066e-24),
        (-20.0, 2.7536241186062336951e-89),
        (-30.0, 4.9067139271481870595e-198),
        (-37.0, 5.7255712225245768227e-300),
    ])
    def test_cdf_far_tail(self, x, expected):
        # mpmath values; x * sqrt(1/2) is rounded, which costs up to 9e-14 here
        assert normal_cdf(x) == pytest.approx(expected, rel=1e-12)

    def test_shapes(self):
        grid = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        for fn, arg in ((normal_cdf, grid), (normal_quantile, normal_cdf(grid))):
            out = fn(arg)
            assert out.shape == (3, 4)
            assert out[1, 2] == fn(float(arg[1, 2]))
            assert isinstance(fn(float(arg[0, 0])), float)
        assert normal_quantile(0.0) == normal_quantile(1e-300)
        assert normal_quantile(1.0) == normal_quantile(1.0 - 1e-16)

    @pytest.mark.parametrize("size", [0, 1, distance._MAP_SLICE - 1, distance._MAP_SLICE,
                                      distance._MAP_SLICE + 1])
    def test_sliced_map_matches_whole_array_map(self, size):
        x = rng.uniform_stream(80, 0).random(2 * size).reshape(size, 2)
        for fn in (math.erfc, distance._inv_cdf):
            for arr in (x[:, 0].copy(), x):  # 1-D, and 2-D input
                whole = np.fromiter(map(fn, arr.ravel().tolist()), float, arr.size)
                assert np.array_equal(distance._map(fn, arr), whole.reshape(arr.shape))

    def test_quantile_inverts_cdf(self):
        us = np.concatenate([
            np.array([1e-12, 1e-8, 1e-4]),
            np.linspace(0.001, 0.999, 101),
            1.0 - np.array([1e-12, 1e-8, 1e-4]),
        ])
        back = normal_cdf(normal_quantile(us))
        assert np.max(np.abs(back - us)) < 1e-10

    def test_pdf(self):
        assert normal_pdf(0.0) == pytest.approx(1 / math.sqrt(2 * math.pi))

    def test_pdf_of_huge_values_does_not_overflow(self):
        # x * x overflows from |x| ~ 1.3e154, and the suite turns the overflow
        # warning into an error; up to the clamp every value is the plain
        # formula's, bit for bit
        huge = np.array([1e200, -1e200, 1.4e154, np.inf, -np.inf, 41.0, -40.0])
        assert np.array_equal(normal_pdf(huge), np.zeros(huge.size))
        assert normal_pdf(-1e300) == 0.0
        x = np.linspace(-40.0, 40.0, 10_001)
        assert np.array_equal(normal_pdf(x), 1.0 / math.sqrt(2.0 * math.pi) * np.exp(-0.5 * x * x))


class TestW1:
    def test_single_sample_zero(self):
        res = wasserstein1_to_normal([0.0])
        assert res.w1 == pytest.approx(SINGLE_ZERO_W1, abs=1e-12)
        assert res.sample_size == 1

    def test_rademacher_support(self):
        res = wasserstein1_to_normal([-1.0, 1.0])
        assert res.w1 == pytest.approx(RADEMACHER_W1, abs=1e-12)

    def test_stratified_quantile_sample_small(self):
        m = 10_000
        xs = normal_quantile((np.arange(1, m + 1) - 0.5) / m)
        res = wasserstein1_to_normal(xs)
        assert 0.0 < res.w1 < 0.002

    def test_huge_sample_value(self):
        # the far value adds its distance to the normal, and nothing warns
        assert wasserstein1_to_normal([1e200, -3.0]).w1 == pytest.approx(5e199, rel=1e-15)

    def test_positive_for_finite_samples(self):
        res = wasserstein1_to_normal([0.1, -0.4, 2.0])
        assert res.w1 > 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            wasserstein1_to_normal([])
        with pytest.raises(ValueError):
            wasserstein1_to_normal([0.0, float("nan")])

    def test_translation_is_lipschitz(self):
        u = rng.uniform_matrix(77, 1, 200)[0]
        xs = normal_quantile(np.clip(u, 1e-6, 1 - 1e-6))
        base = wasserstein1_to_normal(xs).w1
        for delta in (0.01, -0.01):
            shifted = wasserstein1_to_normal(xs + delta).w1
            assert abs(shifted - base) <= abs(delta) + 1e-12

    def test_against_riemann_oracle(self):
        # 50 random samples of size <= 100; agreement to 1e-3
        for i in range(50):
            m = 1 + (i * 7) % 100
            u = rng.uniform_matrix(1000 + i, 1, m)[0]
            xs = 4.0 * (u - 0.5)
            exact = wasserstein1_to_normal(xs).w1
            assert exact == pytest.approx(riemann_w1(xs), abs=1e-3)

    def test_monotone_refinement(self):
        # nested quantile-stratified samples: distance decreases as m doubles
        prev = None
        for m in (250, 500, 1000, 2000):
            xs = normal_quantile((np.arange(1, m + 1) - 0.5) / m)
            w1 = wasserstein1_to_normal(xs).w1
            if prev is not None:
                assert w1 < prev
            prev = w1

    def test_error_estimate_field(self):
        res = wasserstein1_to_normal(np.zeros(400) + 0.3)
        assert res.estimated_statistical_error == pytest.approx(1 / 20)


class TestQuantileSpaceOracle:
    """W1 against the integral over u of |F_m^-1(u) - ndtri(u)|, computed with scipy."""

    @pytest.mark.parametrize("samples", [
        pytest.param([0.0], id="m1-zero"),
        pytest.param([-2.5], id="m1"),
        pytest.param([-1.0, 1.0], id="m2"),
        pytest.param([0.3, 0.3], id="m2-tied"),
        pytest.param([0.3] * 400, id="all-tied"),
        pytest.param(np.round(rng.uniform_matrix(11, 1, 2000)[0] * 6.0 - 3.0, 1), id="rounded"),
        pytest.param([-30.0, 30.0], id="pm30"),
        pytest.param([-30.0, -1.0, 0.0, 0.0, 2.0, 30.0], id="to30-tied"),
        pytest.param([25.0, 30.0], id="right-of-0"),
    ])
    def test_matches(self, samples):
        assert wasserstein1_to_normal(samples).w1 == pytest.approx(w1_quantile_space(samples),
                                                                    rel=1e-12)

    def test_large_normal_sample(self):
        # W1 ~ 2e-3 at m = 300k sums ~400 sign changes of cdf - F, each with
        # a few-ulp cdf error: against 34-digit mpmath values of five such
        # samples this W1 was off by up to 2.6e-15 and the oracle by 1.4e-14
        xs = np.random.default_rng(2020).standard_normal(300_000)
        assert wasserstein1_to_normal(xs).w1 == pytest.approx(w1_quantile_space(xs),
                                                              rel=0, abs=3e-14)


def stratified(m: int) -> np.ndarray:
    """Normal quantiles at (i - 1/2)/m: the empirical CDF crosses the normal on every piece."""
    return normal_quantile((np.arange(1, m + 1) - 0.5) / m)


@lru_cache(maxsize=None)
def unit_triangle_sample(n: int) -> np.ndarray:
    """eval_many on 300k paths of the unit-variance triangle family on K_n.

    Two-point weights 1 or 3 and p = 1/2, so the sample is a lattice (76
    distinct values at n = 4).
    """
    family = graph_chaos.graph_weight_family(patterns.named_pattern("triangle"), n, 0.5,
                                             weights.parse_weight_model("twopoint:1,3,0.5"), 4)
    scale = math.sqrt(family.second_moment() - family.constant**2)
    unit = chaos.KernelFamily(family.grid, 0.0, [
        chaos.Kernel(family.grid, k.order, k.values / scale, validate=False)
        for k in family.kernels
    ])
    return unit.eval_many(chaos.random_paths(42, 300_000, family.grid.blocks))


def every_piece_evaluations(samples) -> int:
    """Normal CDF values computed piece by piece: each end of both halves, one per crossing."""
    xs = np.sort(np.asarray(samples, dtype=float))
    count = 0
    for neg in (xs[xs <= 0.0], -xs[xs >= 0.0][::-1]):
        cdf = normal_cdf(np.append(neg, 0.0))
        q = np.arange(1, cdf.size) / xs.size
        count += cdf.size + int(np.count_nonzero((cdf[:-1] < q) & (cdf[1:] > q)))
    return count


BISECTION_SAMPLES = {
    "m1-zero": lambda: [0.0],
    "m1": lambda: [-2.5],
    "m2": lambda: [-1.0, 1.0],
    "all-tied": lambda: [0.3] * 400,
    "rounded": lambda: np.round(rng.uniform_matrix(11, 1, 2000)[0] * 6.0 - 3.0, 1),
    "pm30": lambda: [-30.0, 30.0],
    "to30-tied": lambda: [-30.0, -1.0, 0.0, 0.0, 2.0, 30.0],
    "right-of-0": lambda: [25.0, 30.0],
    "huge": lambda: [1e200, -3.0],
    "all-crossing-10k": lambda: stratified(10_000),
    "normal-300k": lambda: np.random.default_rng(2020).standard_normal(300_000),
    "gamma-300k": lambda: np.random.default_rng(2020).gamma(4.0, size=300_000) / 2.0 - 2.0,
    "triangle-n4-lattice": lambda: unit_triangle_sample(4),
}


class TestBisection:
    """The bisecting integrator against the piece-by-piece one, and its CDF count."""

    @pytest.mark.parametrize("name", BISECTION_SAMPLES)
    def test_matches_every_piece(self, name):
        samples = BISECTION_SAMPLES[name]()
        w1 = wasserstein1_to_normal(samples).w1
        assert w1 == pytest.approx(w1_every_piece(samples), rel=0, abs=1e-14 * max(1.0, w1))

    @pytest.mark.parametrize("xs", [
        pytest.param(BISECTION_SAMPLES["gamma-300k"], id="gamma-300k"),
        pytest.param(lambda: unit_triangle_sample(4), id="triangle-n4"),
        pytest.param(lambda: unit_triangle_sample(5), id="triangle-n5"),
    ])
    def test_few_cdf_evaluations(self, xs):
        xs = xs()
        assert wasserstein1_to_normal(xs).cdf_evaluations <= xs.size / 100

    def test_all_crossing_evaluations_at_most_every_piece(self):
        xs = stratified(10_000)
        assert wasserstein1_to_normal(xs).cdf_evaluations <= every_piece_evaluations(xs)

    def test_single_point_counts(self):
        # each half of [0] evaluates the cdf at its two ends, both 0
        assert wasserstein1_to_normal([0.0]).cdf_evaluations == 4
        # [-2.5]: ends -2.5 and 0 on the left; the empty right half needs the cdf at 0 only
        assert wasserstein1_to_normal([-2.5]).cdf_evaluations == 3


def test_runtime_loads_no_scipy():
    code = ("import sys, wclt.cli\n"
            "from wclt.distance import wasserstein1_to_normal\n"
            "wasserstein1_to_normal([i / 10 - 5 for i in range(100)])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
