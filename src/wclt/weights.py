"""Nonnegative edge-weight laws with closed-form moments and quantile functions.

All sampling is inverse-transform: a weight is always the quantile of a
supplied uniform, which lets the graph sampler and the chaos kernels share
one coupling exactly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateConfigError, WeightModelError
from .patterns import check_p


class WeightModel:
    """Base of the frozen-dataclass laws: each states E[X^k], the variance and the
    fourth central moment in closed form, and the quantile function."""

    def __post_init__(self) -> None:
        _check_finite(self)
        self._check()
        _check_moments(self)

    def _check(self) -> None:
        """The law's own parameter rule; a law may normalize its fields here."""

    def raw_moment(self, k: int) -> float:
        """E[X^k] in closed form."""
        raise NotImplementedError

    @property
    def mean(self) -> float:
        return self.raw_moment(1)

    @property
    def variance(self) -> float:
        """E[(X - E[X])^2] in closed form: no raw moments cancel."""
        raise NotImplementedError

    @property
    def fourth_central(self) -> float:
        """E[(X - E[X])^4] in closed form."""
        raise NotImplementedError

    def moments(self) -> WeightModel:
        """The law itself, whose properties are its moments: the benchmark checks call this."""
        return self

    def quantile_array(self, u: np.ndarray) -> np.ndarray:
        """Generalized inverse of the CDF, left-continuous convention, at each u in [0, 1)."""
        raise NotImplementedError

    def quantile_mean(self, a: float, b: float) -> float:
        """Average of the quantile over u in (a, b), in closed form."""
        raise NotImplementedError


def _check_finite(model: WeightModel) -> None:
    """Reject a NaN or infinite law parameter, which would make every weight NaN."""
    for field in fields(model):
        value = getattr(model, field.name)
        if not math.isfinite(value):
            raise WeightModelError(f"{type(model).__name__} {field.name} must be finite, "
                                   f"got {value}")


def _check_moments(model: WeightModel) -> None:
    """Reject a law whose raw moments E[X^k], k = 1..4, are not normal finite floats."""
    for k in range(1, 5):
        try:
            value = model.raw_moment(k)
        except (OverflowError, ZeroDivisionError):  # a power overflowed, or a divisor underflowed
            value = math.nan
        if not sys.float_info.min <= value <= sys.float_info.max:
            raise WeightModelError(f"weight law {model}: E[X^{k}] leaves the normal float range")


@dataclass(frozen=True)
class Constant(WeightModel):
    value: float

    def _check(self) -> None:
        if self.value <= 0:
            raise WeightModelError("constant weight must be positive (zero-mean laws are rejected)")

    def raw_moment(self, k: int) -> float:
        return self.value**k

    variance = fourth_central = 0.0

    def quantile_array(self, u: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(u, dtype=float), self.value)

    def quantile_mean(self, a: float, b: float) -> float:
        return self.value


@dataclass(frozen=True)
class Uniform(WeightModel):
    """Uniform law on (0, high)."""

    high: float

    def _check(self) -> None:
        if self.high <= 0:
            raise WeightModelError("uniform upper endpoint must be positive")

    def raw_moment(self, k: int) -> float:
        return self.high**k / (k + 1)

    @property
    def variance(self) -> float:
        return self.high**2 / 12

    @property
    def fourth_central(self) -> float:
        return self.high**4 / 80

    def quantile_array(self, u: np.ndarray) -> np.ndarray:
        return self.high * np.asarray(u, dtype=float)

    def quantile_mean(self, a: float, b: float) -> float:
        return self.high * (a + b) / 2


@dataclass(frozen=True)
class Exponential(WeightModel):
    rate: float

    def _check(self) -> None:
        if self.rate <= 0:
            raise WeightModelError("exponential rate must be positive")

    def raw_moment(self, k: int) -> float:
        return math.factorial(k) / self.rate**k

    @property
    def variance(self) -> float:
        return 1.0 / self.rate**2

    @property
    def fourth_central(self) -> float:
        return 9.0 / self.rate**4

    def quantile_array(self, u: np.ndarray) -> np.ndarray:
        # -log1p(-u) / rate in one array: a / -b is -a / b exactly
        out = np.negative(np.asarray(u, dtype=float))
        np.log1p(out, out=out)
        out /= -self.rate
        return out

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

    def _check(self) -> None:
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

    @property
    def variance(self) -> float:
        # X - E[X] is (1 - q) d with probability q and -q d otherwise; the factor
        # (1 - q) + q is not always 1.0 in floats, and dropping it moves the variance
        q, d = self.prob_high, self.high_value - self.low_value
        return q * (1 - q) * d**2 * ((1 - q) + q)

    @property
    def fourth_central(self) -> float:
        q, d = self.prob_high, self.high_value - self.low_value
        return q * (1 - q) * d**4 * ((1 - q)**3 + q**3)

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
    mean_sq = model.mean**2
    denom = model.variance + (1.0 - p) * mean_sq
    if denom <= 0.0:
        raise DegenerateConfigError("degenerate weight/retention combination")
    return (math.sqrt(model.fourth_central) + (1.0 - p) * mean_sq) / denom
