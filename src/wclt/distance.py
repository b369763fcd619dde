"""Exact Wasserstein-1 distance between an empirical sample and the standard normal.

The distance equals the area between the empirical CDF and the normal CDF,
integrated in closed form (the normal CDF has the antiderivative
x*cdf(x) + pdf(x)), so the only numerical error is the CDF accuracy itself.
Bisection over blocks of pieces computes the CDF only where the sign of the
difference is still open: a few hundred values on typical 300k samples, and
never more than piece by piece, at every sample point and crossing.  The CDF is
0.5 * erfc(-x * sqrt(1/2)) from ``math.erfc`` and its inverse is
``statistics.NormalDist().inv_cdf``, both at double precision.
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
    cdf_evaluations: int  # normal CDF values computed: block ends plus one per crossing

    def to_dict(self) -> dict:
        return asdict(self)


def _half_line(neg: np.ndarray, m: int) -> tuple[float, int]:
    """Integral over (-inf, 0] of |F - cdf|, and the number of cdf values computed.

    F is the empirical CDF of a sample of size m, and neg holds its values
    <= 0, sorted.  With 0 appended they are the ends e_0 <= ... <= e_k of
    pieces [e_i, e_{i+1}] on which F = q_i = (i+1)/m.  The cdf is monotone,
    so on a block [s, t) of pieces it lies above every q_i when
    cdf(e_s) >= q_{t-1} and below every q_i when cdf(e_t) <= q_s.  Bisection
    splits each other block at its midpoint, one new cdf value per split,
    down to single pieces that cross q once, at the normal quantile x* of q.
    A decided block's integral telescopes in A(x) = x cdf(x) + pdf(x) to
    +-[A(e_t) - A(e_s) - sum q_i (e_{i+1} - e_i)], the sum taken over the
    block's own pieces: a difference of prefix sums would cancel next to a
    huge value.  The three closed forms agree where cdf(e_i) or cdf(e_{i+1})
    rounds to q, so a rounding tie moves the sum at rounding level only.
    Where F nears the cdf in a few places this computes a few hundred cdf
    values on 300k points; where every piece crosses, the k + 1 ends and one
    per crossing, as many as integrating piece by piece.
    """
    ends = np.append(neg, 0.0)
    k = neg.size
    head = _cdf(ends[:1])
    total = float(_cdf_antiderivative(ends[:1], head)[0])  # integral of cdf left of e_0
    if k == 0:
        return total, 1
    s, t = np.zeros(1, dtype=np.intp), np.full(1, k, dtype=np.intp)  # the open blocks
    cdf_at = np.empty(k + 1)              # the cdf at each end computed so far
    sign_at = np.empty(k, dtype=np.int8)  # +1 cdf >= F, -1 cdf <= F, 0 crossing
    bound = np.zeros(k + 1, dtype=bool)   # the decided blocks' ends (sign_at at their starts)
    cdf_at[0], cdf_at[k], bound[k] = head[0], _cdf(ends[k:])[0], True
    evaluations = 2
    while s.size:
        cs, ct = cdf_at[s], cdf_at[t]
        sign = np.where(cs >= t / m, 1, np.where(ct <= (s + 1) / m, -1, 0))
        split = (sign == 0) & (t - s > 1)
        done = s[~split]
        bound[done], sign_at[done] = True, sign[~split]
        s, t = s[split], t[split]
        mid = (s + t) // 2
        cdf_at[mid] = _cdf(ends[mid])
        evaluations += mid.size
        s, t = np.concatenate((s, mid)), np.concatenate((mid, t))
    at = np.flatnonzero(bound)
    s, sign, anti = at[:-1], sign_at[at[:-1]], _cdf_antiderivative(ends[at], cdf_at[at])
    rect = np.diff(ends)
    rect *= np.arange(1, k + 1) / m       # q_i (e_{i+1} - e_i), summed per block
    piece = sign * (np.diff(anti) - np.add.reduceat(rect, s))
    cross = np.flatnonzero(sign == 0)     # single pieces [e_i, e_{i+1}] that cross
    i = s[cross]
    qc = (i + 1) / m
    x_star = _map(_inv_cdf, qc)
    piece[cross] = (qc * (2.0 * x_star - ends[i] - ends[i + 1]) + anti[cross] + anti[cross + 1]
                    - 2.0 * _cdf_antiderivative(x_star, _cdf(x_star)))
    return total + float(piece.sum()), evaluations + cross.size


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
    left, left_evaluations = _half_line(xs[xs <= 0.0], m)
    right, right_evaluations = _half_line(-xs[xs >= 0.0][::-1], m)
    return DistanceResult(w1=left + right, sample_size=m,
                          estimated_statistical_error=1.0 / math.sqrt(m),
                          cdf_evaluations=left_evaluations + right_evaluations)
