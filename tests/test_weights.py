"""Weight laws: closed-form moments, quantiles, and the moment ratio."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from wclt import rng
from wclt.errors import WeightModelError
from wclt.weights import Constant, Exponential, TwoPoint, Uniform, moment_ratio, parse_weight_model

ALL_MODELS = [
    Constant(1.0),
    Constant(2.5),
    Uniform(1.0),
    Uniform(2.0),
    Exponential(1.0),
    Exponential(0.5),
    TwoPoint(0.0, 1.0, 0.3),
    TwoPoint(1.0, 3.0, 0.5),
]


class TestMoments:
    def test_constant(self):
        m = Constant(2.0)
        assert (m.mean, m.variance, m.fourth_central, m.raw_moment(2)) == (2.0, 0.0, 0.0, 4.0)

    def test_uniform01(self):
        m = Uniform(1.0)
        assert m.mean == pytest.approx(0.5)
        assert m.variance == pytest.approx(1 / 12)
        assert m.fourth_central == pytest.approx(1 / 80)
        assert m.raw_moment(2) == pytest.approx(1 / 3)

    def test_twopoint_bernoulli(self):
        for q in (0.2, 0.5, 0.8):
            m = TwoPoint(0.0, 1.0, q)
            assert m.mean == pytest.approx(q)
            assert m.variance == pytest.approx(q * (1 - q))
            assert m.fourth_central == pytest.approx(q * (1 - q) * (1 - 3 * q + 3 * q * q))
            assert m.raw_moment(2) == pytest.approx(q)

    def test_exponential(self):
        m = Exponential(2.0)
        assert m.mean == pytest.approx(0.5)
        assert m.variance == pytest.approx(0.25)
        assert m.fourth_central == pytest.approx(9 / 16)

    @pytest.mark.parametrize("model, law", [
        (Constant(2.0), stats.rv_discrete(values=([2], [1.0]))),
        (Uniform(2.0), stats.uniform(0.0, 2.0)),
        (Exponential(0.5), stats.expon(scale=2.0)),
        (Exponential(3.0), stats.expon(scale=1 / 3.0)),
        (TwoPoint(0.0, 1.0, 0.3), stats.bernoulli(0.3)),
        (TwoPoint(1.0, 3.0, 0.25), stats.rv_discrete(values=([1, 3], [0.75, 0.25]))),
    ])
    def test_raw_moments_match_scipy(self, model, law):
        # scipy integrates the exponential's moments above k = 4 numerically
        # (1.2e-9 off at k = 6); the lower ones and the other laws agree exactly
        for k in range(1, 7):
            assert model.raw_moment(k) == pytest.approx(law.moment(k), rel=1e-8)
        # the closed-form central moments against scipy's integration of (x - mean)^k
        mean = law.mean()
        for k, central in ((2, model.variance), (4, model.fourth_central)):
            assert central == pytest.approx(law.expect(lambda x: (x - mean)**k), rel=1e-12)

    def test_monte_carlo_agreement(self):
        # sample moments of 1e6 inverse-transform draws within 5 standard errors
        u = rng.uniform_matrix(2024, 1, 1_000_000)[0]
        for model in ALL_MODELS:
            x = model.quantile_array(u)
            m = model
            n = x.size
            mean_se = max(math.sqrt(m.variance / n), 1e-12)
            assert abs(x.mean() - m.mean) < 5 * mean_se
            centered = x - m.mean
            var_hat = float((centered**2).mean())
            var_se = max(math.sqrt(max(m.fourth_central - m.variance**2, 0.0) / n), 1e-12)
            assert abs(var_hat - m.variance) < 5 * var_se


def exact_central_moment(law: TwoPoint, k: int) -> float:
    """E[(X - E[X])^k] of the two-point law's float parameters, in exact arithmetic."""
    a, b, q = map(Fraction, (law.low_value, law.high_value, law.prob_high))
    mean = (1 - q) * a + q * b
    return float((1 - q) * (a - mean) ** k + q * (b - mean) ** k)


class TestClosedFormCentralMoments:
    def test_benchmark_laws(self):
        # the raw-moment expansion gave these values exactly; unif:1's
        # variance is now 1/12 correctly rounded (0.08333333333333331 before)
        for law, central in [(Exponential(1.0), (1.0, 9.0)), (Exponential(2.0), (0.25, 9 / 16)),
                             (TwoPoint(1.0, 3.0, 0.5), (1.0, 1.0)),
                             (Uniform(1.0), (1 / 12, 1 / 80))]:
            assert (law.variance, law.fourth_central) == central

    @pytest.mark.parametrize("high", [1.00001, 1.000000001, 1.0 + 2**-52, 3.0])
    @pytest.mark.parametrize("q", [0.5, 0.1])
    def test_twopoint_small_spread(self, high, q):
        # raw moments cancel here: E[X^4] - 4 m E[X^3] + ... gave 4.4e-16 for
        # twopoint:1,1.00001,0.5, whose fourth central moment is 6.25e-22
        law = TwoPoint(1.0, high, q)
        assert law.variance == pytest.approx(exact_central_moment(law, 2), rel=1e-14, abs=0.0)
        assert law.fourth_central == pytest.approx(exact_central_moment(law, 4), rel=1e-14, abs=0.0)

    def test_small_spread_moment_ratio_is_one(self):
        # sqrt(fourth central) = variance for a symmetric two-point law
        law = TwoPoint(1.0, 1.00001, 0.5)
        assert moment_ratio(law, 0.999999999999) == pytest.approx(1.0, rel=1e-12)
        assert TwoPoint(1.0, 1.000000001, 0.5).variance == pytest.approx(2.5e-19, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("spec, k", [
        ("exp:1e-200", 2), ("unif:1e-100", 4), ("const:1e-200", 2), ("twopoint:0,1e-90,0.5", 4),
        ("twopoint:1e200,1e300,0.5", 2), ("unif:1e300", 2), ("exp:1e300", 2), ("const:1e-77", 4),
    ])
    def test_rejects_moments_outside_float_range(self, spec, k):
        with pytest.raises(WeightModelError, match=rf"^weight law \w+\(.*\): E\[X\^{k}\] leaves"):
            parse_weight_model(spec)

    @pytest.mark.parametrize("law", [
        Constant(1e-76), Constant(1e77), Uniform(1e-76), Uniform(1e77), Exponential(1e-76),
        Exponential(1e76), TwoPoint(0.0, 1.0, 1e-300), TwoPoint(1e-70, 1e-70 * (1 + 2**-50), 0.5),
    ])
    def test_accepted_laws_have_moments(self, law):
        # construction accepts these, so the moments and the ratio must not raise
        m = law
        assert all(math.isfinite(v) and v >= 0.0 for v in (m.mean, m.variance, m.fourth_central))
        assert math.isfinite(moment_ratio(law, 0.5))


class TestQuantile:
    def test_constant(self):
        assert Constant(3.0).quantile_array(0.0) == 3.0
        assert Constant(3.0).quantile_array(0.99) == 3.0

    def test_uniform(self):
        assert Uniform(2.0).quantile_array(0.25) == pytest.approx(0.5)

    def test_twopoint_step(self):
        m = TwoPoint(1.0, 3.0, 0.3)
        assert m.quantile_array(0.7) == 1.0
        assert m.quantile_array(0.71) == 3.0

    def test_nondecreasing(self):
        grid = np.linspace(0.0, 0.999999, 2001)
        for model in ALL_MODELS:
            vals = model.quantile_array(grid)
            assert np.all(np.diff(vals) >= -1e-15)

    @pytest.mark.parametrize("a", [0.0, 0.5])
    def test_exponential_quantile_mean_up_to_one(self, a):
        # the antiderivative (1-u) log(1-u) + u is 1 at u = 1, where log(1-u) has no
        # value; the average of -log(1-u)/2 over (a, 1) is (1 - log(1-a)) / 2
        expected = (1.0 - math.log1p(-a)) / 2.0
        assert Exponential(2.0).quantile_mean(a, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_quantile_mean_matches_numeric(self):
        # closed-form partial averages against midpoint-rule integration
        for model in ALL_MODELS:
            for a, b in ((0.0, 0.5), (0.25, 0.75), (0.1, 0.9)):
                grid = np.linspace(a, b, 20001)
                mids = (grid[:-1] + grid[1:]) / 2
                numeric = model.quantile_array(mids).mean()
                assert model.quantile_mean(a, b) == pytest.approx(numeric, rel=1e-3, abs=1e-3)


class TestMomentRatio:
    def test_constant_is_one(self):
        for p in (0.01, 0.5, 0.99):
            assert moment_ratio(Constant(1.7), p) == pytest.approx(1.0)

    def test_uniform_example(self):
        expected = (math.sqrt(1 / 80) + 0.5 * 0.25) / (1 / 12 + 0.5 * 0.25)
        assert moment_ratio(Uniform(1.0), 0.5) == pytest.approx(expected)
        assert expected == pytest.approx(1.1367, abs=1e-4)

    def test_exponential_example(self):
        assert moment_ratio(Exponential(1.0), 0.9) == pytest.approx(3.1 / 1.1)


class TestValidationAndParsing:
    def test_rejects_degenerate(self):
        with pytest.raises(WeightModelError):
            Constant(0.0)
        with pytest.raises(WeightModelError):
            TwoPoint(0.0, 0.0, 0.5)
        with pytest.raises(WeightModelError):
            Exponential(0.0)
        with pytest.raises(WeightModelError):
            Uniform(-1.0)

    @pytest.mark.parametrize("law, params", [
        (Constant, (math.nan,)), (Constant, (math.inf,)),
        (Uniform, (math.nan,)), (Uniform, (math.inf,)),
        (Exponential, (math.nan,)), (Exponential, (math.inf,)),
        (TwoPoint, (math.nan, 1.0, 0.5)), (TwoPoint, (0.0, math.inf, 0.5)),
        (TwoPoint, (0.0, 1.0, math.nan)),
    ])
    def test_rejects_non_finite(self, law, params):
        with pytest.raises(WeightModelError, match="must be finite"):
            law(*params)

    @pytest.mark.parametrize("params, message", [
        ((-1.0, 1.0, 0.5), "two-point atoms must be nonnegative"),
        ((1.0, -1.0, 0.5), "two-point atoms must be nonnegative"),
        ((1.0, 3.0, 0.0), "two-point probability must lie in (0, 1)"),
        ((1.0, 3.0, 1.0), "two-point probability must lie in (0, 1)"),
    ])
    def test_twopoint_rules(self, params, message):
        with pytest.raises(WeightModelError, match=f"^{re.escape(message)}$"):
            TwoPoint(*params)

    @pytest.mark.parametrize("spec", ["unif:one", "twopoint:1,x,0.5"])
    def test_parse_rejects_non_numeric_parameter(self, spec):
        with pytest.raises(WeightModelError,
                           match=f"^bad numeric parameter in weight model {re.escape(repr(spec))}$"):
            parse_weight_model(spec)

    def test_twopoint_normalizes_order(self):
        m = TwoPoint(3.0, 1.0, 0.25)  # 3 with prob 0.75
        assert (m.low_value, m.high_value) == (1.0, 3.0)
        assert m.prob_high == pytest.approx(0.75)
        assert m.mean == pytest.approx(0.25 * 1.0 + 0.75 * 3.0)

    def test_parse(self):
        assert parse_weight_model("const:2") == Constant(2.0)
        assert parse_weight_model("unif:1.5") == Uniform(1.5)
        assert parse_weight_model("exp:2") == Exponential(2.0)
        assert parse_weight_model("twopoint:1,3,0.5") == TwoPoint(1.0, 3.0, 0.5)
        with pytest.raises(WeightModelError):
            parse_weight_model("cauchy:1")
        with pytest.raises(WeightModelError):
            parse_weight_model("unif:")
