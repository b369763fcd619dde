"""Weighted subgraph statistics of random graphs.

Library + CLI for: pattern-graph statistics, weighted random-graph
simulation with exact first and second moments, grid-discretized chaos
calculus with an explicit normal-approximation bound, convergence-rate
formulas, and an exact empirical Wasserstein-1 distance to the standard
normal.
"""

from .bounds import BoundReport, classify_family, rate_term, regime_bound, wasserstein_bound
from .distance import DistanceResult, normal_cdf, normal_quantile, wasserstein1_to_normal
from .errors import (
    AlignmentError,
    ChaosError,
    DegenerateConfigError,
    PatternError,
    ResourceLimitError,
    UnsupportedPatternError,
    WeightModelError,
)
from .graph_stats import (
    SampleBatch,
    asymptotic_variance,
    exact_mean,
    exact_variance,
    intersection_pair_census,
    normalized_samples,
)
from .patterns import (
    PatternGraph,
    SubgraphProfile,
    automorphism_count,
    beta,
    copies_in_complete,
    edge_subgraph_profiles,
    is_balanced,
    max_variance_term,
    min_subgraph_term,
    named_pattern,
    parse_pattern,
)
from .weights import Constant, Exponential, TwoPoint, Uniform, WeightModel, moment_ratio, parse_weight_model

__version__ = "0.1.0"
