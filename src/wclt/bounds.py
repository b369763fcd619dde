"""Normal-approximation rate bounds for the normalized combined pattern weight.

All bounds here are reported without their unknown pattern-dependent
constants (rate_only=True): downstream comparisons are trend and ratio
tests, never absolute ones.  The explicit, absolutely comparable bound
lives in :mod:`wclt.chaos` (stein_bound_terms).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import DegenerateConfigError, PatternError, UnsupportedPatternError
from .patterns import PatternGraph, _check_np, is_balanced, log_min_subgraph_term
from .weights import WeightModel, moment_ratio

DEFAULT_CUTOFF = 0.5


@dataclass(frozen=True)
class BoundReport:
    rate_term: float
    moment_ratio: float
    bound_value: float
    regime: str | None            # dense | sparse-mid | sparse-low
    regime_threshold: float | None
    family: str                   # cycle | complete | tree | general-balanced | general
    family_order: int | None
    count_bound: float
    cutoff: float
    rate_only: bool = True

    def to_dict(self) -> dict:
        return asdict(self)


def _rate_exp(log_rate: float, n: int, p: float) -> float:
    """exp(log_rate) for a rate term at (n, p), naming both when it overflows."""
    try:
        return math.exp(log_rate)
    except OverflowError:
        raise OverflowError(f"rate term at n = {n}, p = {p!r} overflows a float") from None


def _bound_value(rate: float, ratio: float, n: int, p: float) -> float:
    """rate * ratio for a bound at (n, p), naming both when it overflows."""
    if math.isinf(rate * ratio):
        raise OverflowError(f"bound value at n = {n}, p = {p!r} overflows a float")
    return rate * ratio


def rate_term(pattern: PatternGraph, n: int, p: float) -> float:
    """((1 - p) * min subgraph term)^(-1/2), evaluated in log scale."""
    log_min = log_min_subgraph_term(pattern, n, p)
    return _rate_exp(-0.5 * (math.log1p(-p) + log_min), n, p)


def classify_family(pattern: PatternGraph) -> tuple[str, int | None]:
    """Structural detection of the specialized families: cycle, complete, tree."""
    v, e = pattern.num_vertices, pattern.num_edges
    if pattern.has_isolated_vertices or not pattern.is_connected():
        return ("general", None)
    degrees = pattern.degrees()
    if v >= 3 and e == v and all(d == 2 for d in degrees):
        return ("cycle", v)
    if v >= 3 and e == v * (v - 1) // 2:
        return ("complete", v)
    if e == v - 1:
        return ("tree", e)
    return ("general", None)


def _detect_regime(pattern: PatternGraph, n: int, p: float, cutoff: float):
    """(family, order, regime, threshold); regime and threshold are None when unbalanced.

    A balanced pattern with e_G >= 2 splits at n^{-(v_G-2)/(e_G-1)} [BKR];
    a single edge splits at 1/n.  The family only labels the report.
    """
    family, order = classify_family(pattern)
    v_g, e_g = pattern.num_vertices, pattern.num_edges
    if e_g == 1:
        exponent = 1.0
    elif is_balanced(pattern):
        exponent = (v_g - 2) / (e_g - 1)
    else:
        return family, order, None, None
    if family == "general":
        family = "general-balanced"
    threshold = n ** -exponent
    if p > cutoff:
        regime = "dense"
    elif p > threshold:
        regime = "sparse-mid"
    else:
        regime = "sparse-low"
    return family, order, regime, threshold


def wasserstein_bound(pattern: PatternGraph, n: int, p: float, model: WeightModel) -> BoundReport:
    """Rate bound: moment ratio of the weight law times the rate term.

    For a constant weight the moment ratio is 1 and the report reduces to
    the plain count-statistic rate (the count_bound field).
    """
    if pattern.has_isolated_vertices:
        raise PatternError("bound requires a pattern without isolated vertices")
    rt = rate_term(pattern, n, p)
    ratio = moment_ratio(model, p)
    family, order, regime, threshold = _detect_regime(pattern, n, p, DEFAULT_CUTOFF)
    return BoundReport(
        rate_term=rt,
        moment_ratio=ratio,
        bound_value=_bound_value(rt, ratio, n, p),
        regime=regime,
        regime_threshold=threshold,
        family=family,
        family_order=order,
        count_bound=rt,
        cutoff=DEFAULT_CUTOFF,
    )


def regime_bound(pattern: PatternGraph, n: int, p: float, model: WeightModel,
                 cutoff: float = DEFAULT_CUTOFF) -> BoundReport:
    """Three-regime bound for balanced patterns (cycles, complete graphs and trees among them).

    dense (p > cutoff):       sqrt(E[X^4]) / (n sqrt(1-p) Var[X])
    mid (threshold < p <= c): sqrt(E[X^4]) / (n sqrt(p) E[X^2])
    low (p <= threshold):     sqrt(E[X^4]) / (n^{v_G/2} p^{e_G/2} E[X^2])
    with the threshold n^{-(v_G-2)/(e_G-1)} (1/n for a single edge).
    """
    if not (0.0 < cutoff < 1.0):
        raise ValueError("cutoff must lie in (0, 1)")
    if pattern.has_isolated_vertices:
        raise PatternError("bound requires a pattern without isolated vertices")
    _check_np(pattern, n, p)
    family, order, regime, threshold = _detect_regime(pattern, n, p, cutoff)
    if regime is None:
        raise UnsupportedPatternError(
            "pattern is outside the balance class; use wasserstein_bound instead"
        )
    sqrt_m4 = math.sqrt(model.raw_moment(4))
    if regime == "dense":
        if model.variance <= 0.0:
            raise DegenerateConfigError("dense-regime bound divides by Var[X] = 0")
        rate = 1.0 / (n * math.sqrt(1.0 - p))
        ratio = sqrt_m4 / model.variance
    elif regime == "sparse-mid":
        rate = 1.0 / (n * math.sqrt(p))
        ratio = sqrt_m4 / model.raw_moment(2)
    else:
        v_g, e_g = pattern.num_vertices, pattern.num_edges
        rate = _rate_exp(-0.5 * (v_g * math.log(n) + e_g * math.log(p)), n, p)
        ratio = sqrt_m4 / model.raw_moment(2)
    return BoundReport(
        rate_term=rate,
        moment_ratio=ratio,
        bound_value=_bound_value(rate, ratio, n, p),
        regime=regime,
        regime_threshold=threshold,
        family=family,
        family_order=order,
        count_bound=rate_term(pattern, n, p),
        cutoff=cutoff,
    )
