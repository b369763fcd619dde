"""Exact Wasserstein-1 distance between an empirical sample and the standard normal.

The distance equals the area between the empirical CDF and the normal CDF.
Both curves are integrated in closed form piece by piece (the normal CDF has
the antiderivative x*cdf(x) + pdf(x)), so the only numerical error is the
CDF accuracy itself.  The CDF is 0.5 * erfc(-x * sqrt(1/2)) from ``math.erfc``
and its inverse is ``statistics.NormalDist().inv_cdf``, both at double
precision.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from statistics import NormalDist

import numpy as np

_SQRT_HALF = math.sqrt(0.5)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_U_FLOOR = 1e-300
_U_CEIL = 1.0 - 1e-16
_inv_cdf = NormalDist().inv_cdf
# Values per slice of _map: a Python list of one half-line of a large sample
# (about 5 MB at 300k values) would set the process's memory peak.
_MAP_SLICE = 8192


def _map(fn, x: np.ndarray) -> np.ndarray:
    """A scalar float function applied to every entry of a float array, a slice at a time."""
    flat = x.ravel()
    out = np.empty(flat.size)
    for lo in range(0, flat.size, _MAP_SLICE):
        part = flat[lo:lo + _MAP_SLICE]
        out[lo:lo + part.size] = np.fromiter(map(fn, part.tolist()), float, part.size)
    return out.reshape(x.shape)


def _cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * _map(math.erfc, -_SQRT_HALF * x)


def _cdf_antiderivative(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """A(x) = x * cdf(x) + pdf(x), from cdf(x); A' = cdf, A(-inf) = 0."""
    return x * cdf + normal_pdf(x)


def normal_cdf(x):
    """Standard normal CDF; accepts scalars or arrays."""
    out = _cdf(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


def normal_pdf(x):
    # |x| clamped at 40, where the pdf is already 0.0, so x * x cannot overflow
    x = np.minimum(np.abs(np.asarray(x, dtype=float)), 40.0)
    out = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return float(out) if out.ndim == 0 else out


def normal_quantile(u):
    """Inverse standard normal CDF with clamped tails; scalars or arrays."""
    u = np.clip(np.asarray(u, dtype=float), _U_FLOOR, _U_CEIL)
    out = _map(_inv_cdf, u)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class DistanceResult:
    w1: float
    sample_size: int
    estimated_statistical_error: float

    def to_dict(self) -> dict:
        return asdict(self)


def _half_line(neg: np.ndarray, m: int) -> float:
    """Integral over (-inf, 0] of |F - cdf|, F the empirical CDF of a sample of size m.

    neg holds the sample's values <= 0, sorted.  Between consecutive values
    a <= b (the last piece ends at 0) F is constant q = i/m.  The normal CDF
    lies above q on the whole piece when cdf(a) >= q, below it when
    cdf(b) <= q, and otherwise crosses it once, at the normal quantile x* of
    q; each case integrates in closed form, so the quantile is needed on the
    crossing pieces only.  Where cdf(a) rounds to q the crossing formula at
    x* = a equals the first case, so a rounding tie cannot change the sum.
    """
    ends = np.append(neg, 0.0)
    cdf = _cdf(ends)
    anti = _cdf_antiderivative(ends, cdf)
    a, b = ends[:-1], ends[1:]
    aa, ab = anti[:-1], anti[1:]
    q = np.arange(1, ends.size, dtype=float) / m
    below = cdf[:-1] >= q    # cdf >= q on the whole piece
    above = cdf[1:] <= q     # cdf <= q on the whole piece
    piece = np.where(below, (ab - aa) - q * (b - a), q * (b - a) - (ab - aa))
    cross = np.flatnonzero(~(below | above))
    qc = q[cross]
    x_star = _map(_inv_cdf, qc)
    piece[cross] = (qc * (2.0 * x_star - a[cross] - b[cross]) + aa[cross] + ab[cross]
                    - 2.0 * _cdf_antiderivative(x_star, _cdf(x_star)))
    return float(anti[0]) + float(piece.sum())    # anti[0]: integral of cdf left of ends[0]


def wasserstein1_to_normal(samples) -> DistanceResult:
    """Exact integral of |empirical CDF - normal CDF| over the real line.

    By the normal's symmetry the integral over [0, inf) equals the integral
    over (-inf, 0] for the mirrored sample -x, so both halves are computed
    where the normal CDF is at most 1/2: there the CDF and its antiderivative
    are small and carry small absolute rounding errors, which a CDF near 1
    would not.  Tails use the same antiderivative, with no truncation.
    """
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("empty sample")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample contains non-finite values")

    xs = np.sort(arr)
    m = xs.size
    total = _half_line(xs[xs <= 0.0], m) + _half_line(-xs[xs >= 0.0][::-1], m)
    return DistanceResult(w1=total, sample_size=m,
                          estimated_statistical_error=1.0 / math.sqrt(m))
