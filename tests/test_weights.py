"""Weight laws: closed-form moments, quantiles, and the moment ratio."""

import math

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
        m = Constant(2.0).moments()
        assert (m.mean, m.variance, m.fourth_central, m.second_raw) == (2.0, 0.0, 0.0, 4.0)
        assert m.kurtosis == math.inf

    def test_uniform01(self):
        m = Uniform(1.0).moments()
        assert m.mean == pytest.approx(0.5)
        assert m.variance == pytest.approx(1 / 12)
        assert m.fourth_central == pytest.approx(1 / 80)
        assert m.second_raw == pytest.approx(1 / 3)
        assert m.kurtosis == pytest.approx(9 / 5)

    def test_twopoint_bernoulli(self):
        for q in (0.2, 0.5, 0.8):
            m = TwoPoint(0.0, 1.0, q).moments()
            assert m.mean == pytest.approx(q)
            assert m.variance == pytest.approx(q * (1 - q))
            assert m.fourth_central == pytest.approx(q * (1 - q) * (1 - 3 * q + 3 * q * q))
            assert m.second_raw == pytest.approx(q)

    def test_exponential(self):
        m = Exponential(2.0).moments()
        assert m.mean == pytest.approx(0.5)
        assert m.variance == pytest.approx(0.25)
        assert m.fourth_central == pytest.approx(9 / 16)
        assert m.kurtosis == pytest.approx(9.0)

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

    def test_monte_carlo_agreement(self):
        # sample moments of 1e6 inverse-transform draws within 5 standard errors
        u = rng.uniform_matrix(2024, 1, 1_000_000)[0]
        for model in ALL_MODELS:
            x = model.quantile_array(u)
            m = model.moments()
            n = x.size
            mean_se = max(math.sqrt(m.variance / n), 1e-12)
            assert abs(x.mean() - m.mean) < 5 * mean_se
            centered = x - m.mean
            var_hat = float((centered**2).mean())
            var_se = max(math.sqrt(max(m.fourth_central - m.variance**2, 0.0) / n), 1e-12)
            assert abs(var_hat - m.variance) < 5 * var_se


class TestQuantile:
    def test_constant(self):
        assert Constant(3.0).quantile(0.0) == 3.0
        assert Constant(3.0).quantile(0.99) == 3.0

    def test_uniform(self):
        assert Uniform(2.0).quantile(0.25) == pytest.approx(0.5)

    def test_twopoint_step(self):
        m = TwoPoint(1.0, 3.0, 0.3)
        assert m.quantile(0.7) == 1.0
        assert m.quantile(0.71) == 3.0

    def test_domain(self):
        with pytest.raises(WeightModelError):
            Uniform(1.0).quantile(1.0)
        with pytest.raises(WeightModelError):
            Uniform(1.0).quantile(-0.1)

    def test_nondecreasing(self):
        grid = np.linspace(0.0, 0.999999, 2001)
        for model in ALL_MODELS:
            vals = model.quantile_array(grid)
            assert np.all(np.diff(vals) >= -1e-15)

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
