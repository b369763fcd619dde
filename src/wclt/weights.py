"""Nonnegative edge-weight laws with closed-form moments and quantile functions.

All sampling is inverse-transform: a weight is always quantile(u) of a
supplied uniform, which lets the graph sampler and the chaos kernels share
one coupling exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfigError, WeightModelError
from .patterns import check_p


@dataclass(frozen=True)
class Moments:
    mean: float
    variance: float
    fourth_central: float
    second_raw: float
    kurtosis: float  # math.inf for degenerate laws


class WeightModel:
    """Base class; concrete laws implement the raw moments and the quantile."""

    def raw_moment(self, k: int) -> float:
        """E[X^k] in closed form."""
        raise NotImplementedError

    @property
    def mean(self) -> float:
        return self.raw_moment(1)

    @property
    def second_raw(self) -> float:
        return self.raw_moment(2)

    @property
    def third_raw(self) -> float:
        return self.raw_moment(3)

    @property
    def fourth_raw(self) -> float:
        return self.raw_moment(4)

    @property
    def variance(self) -> float:
        return self.second_raw - self.mean**2

    @property
    def fourth_central(self) -> float:
        m1 = self.mean
        return self.fourth_raw - 4 * m1 * self.third_raw + 6 * m1**2 * self.second_raw - 3 * m1**4

    def moments(self) -> Moments:
        var = self.variance
        c4 = self.fourth_central
        kurt = c4 / var**2 if var > 0 else math.inf
        return Moments(self.mean, var, c4, self.second_raw, kurt)

    def quantile(self, u: float) -> float:
        """Generalized inverse of the CDF, left-continuous convention."""
        if not (0.0 <= u < 1.0):
            raise WeightModelError(f"quantile argument must lie in [0, 1), got {u}")
        return float(self.quantile_array(np.array(u)))

    def quantile_array(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def quantile_mean(self, a: float, b: float) -> float:
        """Average of the quantile over u in (a, b), in closed form."""
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(WeightModel):
    value: float

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise WeightModelError("constant weight must be positive (zero-mean laws are rejected)")

    def raw_moment(self, k: int) -> float:
        return self.value**k

    def quantile_array(self, u: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(u, dtype=float), self.value)

    def quantile_mean(self, a: float, b: float) -> float:
        return self.value


@dataclass(frozen=True)
class Uniform(WeightModel):
    """Uniform law on (0, high)."""

    high: float

    def __post_init__(self) -> None:
        if self.high <= 0:
            raise WeightModelError("uniform upper endpoint must be positive")

    def raw_moment(self, k: int) -> float:
        return self.high**k / (k + 1)

    def quantile_array(self, u: np.ndarray) -> np.ndarray:
        return self.high * np.asarray(u, dtype=float)

    def quantile_mean(self, a: float, b: float) -> float:
        return self.high * (a + b) / 2


@dataclass(frozen=True)
class Exponential(WeightModel):
    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise WeightModelError("exponential rate must be positive")

    def raw_moment(self, k: int) -> float:
        return math.factorial(k) / self.rate**k

    def quantile_array(self, u: np.ndarray) -> np.ndarray:
        return -np.log1p(-np.asarray(u, dtype=float)) / self.rate

    def quantile_mean(self, a: float, b: float) -> float:
        # antiderivative of -log(1-u) is (1-u) log(1-u) + u
        def anti(u: float) -> float:
            if u >= 1.0:
                return 1.0
            return (1 - u) * math.log1p(-u) + u

        return (anti(b) - anti(a)) / ((b - a) * self.rate)


@dataclass(frozen=True)
class TwoPoint(WeightModel):
    """Two-atom law: value ``low_value`` or ``high_value``, q = P(high_value)."""

    low_value: float
    high_value: float
    prob_high: float

    def __post_init__(self) -> None:
        if self.low_value < 0 or self.high_value < 0:
            raise WeightModelError("two-point atoms must be nonnegative")
        if not (0.0 < self.prob_high < 1.0):
            raise WeightModelError("two-point probability must lie in (0, 1)")
        if self.low_value > self.high_value:
            # normalize so the quantile is a nondecreasing step function
            lo, hi, q = self.high_value, self.low_value, 1.0 - self.prob_high
            object.__setattr__(self, "low_value", lo)
            object.__setattr__(self, "high_value", hi)
            object.__setattr__(self, "prob_high", q)
        if self.low_value == 0 and self.high_value == 0:
            raise WeightModelError("two-point law must have positive mean")

    @property
    def _prob_low(self) -> float:
        return 1.0 - self.prob_high

    def raw_moment(self, k: int) -> float:
        return self._prob_low * self.low_value**k + self.prob_high * self.high_value**k

    def quantile_array(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return np.where(u <= self._prob_low, self.low_value, self.high_value)

    def quantile_mean(self, a: float, b: float) -> float:
        split = self._prob_low
        low_len = max(0.0, min(b, split) - a)
        high_len = max(0.0, b - max(a, split))
        return (self.low_value * low_len + self.high_value * high_len) / (b - a)


def parse_weight_model(spec: str) -> WeightModel:
    """Parse the CLI syntax: const:c, unif:b, exp:lambda, twopoint:a,b,q."""
    spec = spec.strip().lower()
    kind, _, arg = spec.partition(":")
    if not arg:
        raise WeightModelError(f"missing parameters in weight model {spec!r}")
    try:
        params = [float(x) for x in arg.split(",")]
    except ValueError:
        raise WeightModelError(f"bad numeric parameter in weight model {spec!r}") from None
    if kind == "const" and len(params) == 1:
        return Constant(params[0])
    if kind == "unif" and len(params) == 1:
        return Uniform(params[0])
    if kind == "exp" and len(params) == 1:
        return Exponential(params[0])
    if kind == "twopoint" and len(params) == 3:
        return TwoPoint(params[0], params[1], params[2])
    raise WeightModelError(f"unknown weight model {spec!r}")


def moment_ratio(model: WeightModel, p: float) -> float:
    """Weight-law factor of the rate bound:
    (sqrt(fourth central moment) + (1-p) mean^2) / (variance + (1-p) mean^2).
    """
    check_p(p)
    m = model.moments()
    denom = m.variance + (1.0 - p) * m.mean**2
    if denom <= 0.0:
        raise DegenerateConfigError("degenerate weight/retention combination")
    return (math.sqrt(m.fourth_central) + (1.0 - p) * m.mean**2) / denom
