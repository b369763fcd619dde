"""Chaos kernels that reproduce the combined pattern weight pathwise.

Block k of the grid is the k-th edge of the complete host in the fixed edge
numbering; the edge's uniform is (1 + u_k) / 2, so the same path drives both
the sampled graph and the kernel family.  With a cell-aligned retention
probability (and cell-aligned atoms for two-point weights) every kernel is
exactly piecewise constant and the identity

    constant + sum_k integral(kernel_k, path) == combined weight of the host

holds pathwise to floating precision.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations

import numpy as np

from .chaos import GridSpec, Kernel, KernelFamily
from .errors import AlignmentError, ResourceLimitError
from .graph_stats import exact_mean
from .patterns import PatternGraph, complete_graph_edges, enumerate_copies
from .weights import TwoPoint, WeightModel

MAX_PATTERN_EDGES = 3
MAX_HOST_N = 5
MAX_CELLS = 8


def _support_cells(model: WeightModel, p: float, cells: int) -> int:
    """Number of cells covered by the retention window (0, 2p); must be exact."""
    s = p * cells
    s_int = round(s)
    if abs(s - s_int) > 1e-9 or s_int < 1:
        raise AlignmentError(
            f"retention window must be cell-aligned: p * M = {s!r} is not a positive integer"
        )
    if isinstance(model, TwoPoint):
        split = (1.0 - model.prob_high) * s_int
        if abs(split - round(split)) > 1e-9:
            raise AlignmentError(
                "two-point atom split must be cell-aligned: (1 - q) * p * M = "
                f"{split!r} is not an integer"
            )
    return s_int


def local_weight_kernel(model: WeightModel, p: float, cells: int,
                        pattern_edges: int, k: int) -> np.ndarray:
    """Local factor of the order-k graph kernel on the cell grid of one block.

    On the retention window the value is
    p^{e_G - k} / ((e_G - k)! k!) * ((e_G - k) E[X] + sum_i qbar(c_i)),
    where qbar is the cell average of the quantile of u / p; the value is
    zero off the window.  Exact for constant and cell-aligned two-point
    weights, a cell average otherwise.
    """
    support = _support_cells(model, p, cells)
    e_g = pattern_edges
    if not (0 <= k <= e_g):
        raise ValueError(f"order must lie in [0, {e_g}]")
    factor = p ** (e_g - k) / (math.factorial(e_g - k) * math.factorial(k))
    if k == 0:
        return np.array(factor * e_g * model.mean)
    qbar = np.array([
        model.quantile_mean(c / support, (c + 1) / support) for c in range(support)
    ])
    bracket = np.full((support,) * k, (e_g - k) * model.mean)
    for axis in range(k):
        shape = [1] * k
        shape[axis] = support
        bracket = bracket + qbar.reshape(shape)
    out = np.zeros((cells,) * k)
    out[np.ix_(*([range(support)] * k))] = factor * bracket
    return out


@lru_cache(maxsize=None)
def _copies_in_kn(pattern: PatternGraph, n: int) -> tuple[tuple[int, ...], ...]:
    """Copies of the pattern in the complete host, as tuples of edge indices."""
    edges = complete_graph_edges(n)
    index = {e: i for i, e in enumerate(edges)}
    return tuple(tuple(index[e] for e in copy) for copy in enumerate_copies(pattern, edges))


def _completion_counts(copies, n_blocks: int, e_g: int, k: int) -> np.ndarray:
    """counts[b_1..b_k] = ordered ways to extend the k distinct edges b to a copy.

    Each copy containing all k edges contributes (e_G - k)! orderings of its
    remaining edges; tuples with repeated edges never occur (they cannot be
    part of a copy's edge set).
    """
    counts = np.zeros((n_blocks,) * k)
    remaining = math.factorial(e_g - k)
    for copy in copies:
        for perm in permutations(copy, k):
            counts[perm] += remaining
    return counts


def graph_weight_family(pattern: PatternGraph, n: int, p: float, model: WeightModel,
                        cells: int) -> KernelFamily:
    """Chaos family of the combined pattern weight on the host with n vertices.

    The order-k kernel is the completion count of the blocks times the
    centered local factor: block-centering acts on the cell axes only, so
    centering the factor centers the product.  The constant term is the
    exact mean.
    """
    e_g = pattern.num_edges
    if e_g > MAX_PATTERN_EDGES:
        raise ResourceLimitError(f"graph kernels capped at {MAX_PATTERN_EDGES} pattern edges")
    if n > MAX_HOST_N:
        raise ResourceLimitError(f"graph kernels capped at host size {MAX_HOST_N}")
    if cells > MAX_CELLS:
        raise ResourceLimitError(f"graph kernels capped at {MAX_CELLS} cells per block")
    n_blocks = n * (n - 1) // 2
    grid = GridSpec(n_blocks, cells)
    copies = _copies_in_kn(pattern, n)
    kernels = []
    for k in range(1, e_g + 1):
        local = center_local_kernel(local_weight_kernel(model, p, cells, e_g, k))
        counts = _completion_counts(copies, n_blocks, e_g, k)
        outer = np.multiply.outer(counts, local)
        # interleave (block, cell) axis pairs, then flatten to global cell indices
        axes = []
        for i in range(k):
            axes.extend([i, k + i])
        full = outer.transpose(axes).reshape((grid.size,) * k)
        kernels.append(Kernel(grid, k, full))
    constant = exact_mean(pattern, n, p, model)
    return KernelFamily(grid, constant, kernels)


def path_host_uniforms(u: np.ndarray) -> np.ndarray:
    """Per-edge uniforms of the host coupled to a path: (1 + u) / 2."""
    return (np.asarray(u, dtype=float) + 1.0) / 2.0


# -- local-kernel norm rates ---------------------------------------------------


def center_local_kernel(raw: np.ndarray) -> np.ndarray:
    """Subtract the cell average in every coordinate (one block per coordinate)."""
    out = np.asarray(raw, dtype=float)
    for axis in range(out.ndim):
        out = out - out.mean(axis=axis, keepdims=True)
    return out


def local_kernel_norms(centered: np.ndarray, l: int, cells: int) -> tuple[float, float]:
    """Exact integrals of the centered local kernel.

    Returns (lhs1, lhs2):
    lhs1 integrates the squared kernel over all k coordinates;
    lhs2 integrates, over the outer k - l coordinates, the square of the
    inner integral of the squared kernel over the first l coordinates.
    """
    k = np.ndim(centered)
    if not (0 <= l <= k):
        raise ValueError(f"need 0 <= l <= {k}")
    w = 2.0 / cells
    sq = np.asarray(centered, dtype=float) ** 2
    lhs1 = float(sq.sum() * w**k)
    inner = sq.sum(axis=tuple(range(l))) * w**l if l else sq
    lhs2 = float((inner**2).sum() * w ** (k - l))
    return lhs1, lhs2


def local_kernel_rates(model: WeightModel, p: float, pattern_edges: int,
                       k: int, l: int) -> tuple[float, float]:
    """Constant-free rate targets for the two local-kernel integrals.

    rate1: p^{2 e_G - k} (1-p)^{k-1} (Var[X] + (1-p) E[X]^2)
    rate2: p^{4 e_G - 3k + l} (1-p)^{k+l-2} (E[(X-E[X])^4] + (1-p)^2 E[X]^4)
    """
    m = model.moments()
    e_g = pattern_edges
    rate1 = p ** (2 * e_g - k) * (1.0 - p) ** (k - 1) * (m.variance + (1.0 - p) * m.mean**2)
    rate2 = (
        p ** (4 * e_g - 3 * k + l)
        * (1.0 - p) ** (k + l - 2)
        * (m.fourth_central + (1.0 - p) ** 2 * m.mean**4)
    )
    return rate1, rate2
