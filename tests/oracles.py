"""Independent second algorithms that the tests compare the library against.

The library computes each quantity with one algorithm; these take another
code path on purpose and are only fast enough for small hosts.
"""

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

from wclt import rng
from wclt.chaos import Kernel, KernelFamily, family_from_kernels
from wclt.errors import ChaosError
from wclt.graph_stats import HostSample
from wclt.patterns import complete_graph_edges, enumerate_copies


def weight_by_edge_counts(pattern, host: HostSample) -> float:
    """Edge-centric combined weight: weight(e) times the number of present copies through e."""
    copies = _complete_host_copies(pattern, host.n)
    if copies.size == 0:
        return 0.0
    present = host.present
    present_copies = present[copies].all(axis=1)
    counts = np.bincount(copies[present_copies].ravel(), minlength=present.size)
    return float(np.dot(host.edge_weights(), counts))


@lru_cache(maxsize=None)
def _complete_host_copies(pattern, n: int) -> np.ndarray:
    """Copies of the pattern in K_n as rows of edge indices."""
    edges = complete_graph_edges(n)
    index = {e: i for i, e in enumerate(edges)}
    return np.array([[index[e] for e in copy] for copy in enumerate_copies(pattern, edges)],
                    dtype=np.int64)


def gathered_weights(pattern, n: int, p: float, model, seed: int, lo: int, hi: int) -> np.ndarray:
    """Combined weights of replicates lo..hi, summed over the copy list of K_n.

    Per replicate and copy, the copy counts when all its edges are present,
    and then adds its edge weights; the uniforms are the sampler's.
    """
    copies = _complete_host_copies(pattern, n)
    u = rng.uniform_matrix(seed, hi - lo, n * (n - 1) // 2, first_row=lo)
    present = u < p
    weights = np.zeros_like(u)
    weights[present] = model.quantile_array(u[present] / p)
    all_present = np.ones((hi - lo, copies.shape[0]), dtype=bool)
    weight_sums = np.zeros((hi - lo, copies.shape[0]))
    for j in range(copies.shape[1]):
        all_present &= present[:, copies[:, j]]
        weight_sums += weights[:, copies[:, j]]
    return (all_present * weight_sums).sum(axis=1)


def direct_pair_census(pattern, n: int) -> dict[int, int]:
    """Ordered pairs of copies in K_n by shared edge count >= 1, over every pair of copies.

    Each copy is a bitmask over the host edges; the shared edge count of a
    pair is the popcount of the AND of their masks.
    """
    copies = _complete_host_copies(pattern, n)
    if not copies.size:
        return {}
    words = (n * (n - 1) // 2 + 63) // 64
    masks = np.zeros((len(copies), words), dtype=np.uint64)
    for i, copy in enumerate(copies):
        for e in copy:
            masks[i, e // 64] |= np.uint64(1) << np.uint64(e % 64)
    counts = np.zeros(pattern.num_edges + 1, dtype=np.int64)
    chunk = max(1, 4_000_000 // len(copies))
    for lo in range(0, len(copies), chunk):
        shared = np.zeros((min(chunk, len(copies) - lo), len(copies)), dtype=np.uint8)
        for w in range(words):
            shared += np.bitwise_count(masks[lo:lo + chunk, w, None] & masks[None, :, w])
        counts += np.bincount(shared.ravel(), minlength=counts.size)
    return {h: int(c) for h, c in enumerate(counts) if h and c}


def gathered_block_sum(values: np.ndarray, idx: np.ndarray, r: int) -> np.ndarray:
    """Sum of a symmetric order-r array over ordered distinct block tuples.

    ``idx`` holds the global path cells as a (paths, blocks) array; each block
    combination indexes the full array with one index array per axis.
    """
    n_paths, blocks = idx.shape
    if r == 0:
        return np.full(n_paths, float(values))
    out = np.zeros(n_paths)
    for combo in combinations(range(blocks), r):
        out += values[tuple(idx[:, b] for b in combo)]
    return out * math.factorial(r)


def gathered_integral(kernel, idx: np.ndarray) -> np.ndarray:
    """Multiple integral as the alternating sum of gathered marginal block sums."""
    n = kernel.order
    total = np.zeros(idx.shape[0])
    for r in range(n + 1):
        coef = (-1.0) ** (n - r) / 2.0 ** (n - r) * math.comb(n, r)
        total += coef * gathered_block_sum(kernel.marginal(r), idx, r)
    return total


def gathered_derivative(family, idx: np.ndarray, *, unit_weights: bool = False) -> np.ndarray:
    """Derivative matrix by fancy indexing the full kernels, one gather per block combination.

    Order j adds coef * (j-1)! * kernel_j[:, cells of the combination] for every
    (j-1)-combination of blocks, with coef = j (or 1 under ``unit_weights``).
    """
    n_paths, blocks = idx.shape
    out = np.zeros((n_paths, family.grid.size))
    for kern in family.kernels:
        j = kern.order
        coef = (1.0 if unit_weights else float(j)) * math.factorial(j - 1)
        if j == 1:
            out += coef * kern.values[None, :]
            continue
        for combo in combinations(range(blocks), j - 1):
            out += coef * kern.values[(slice(None),) + tuple(idx[:, b] for b in combo)].T
    return out


def derivative_family(family, block: int, cell: int):
    """The derivative at a fixed cell as a kernel family of its own.

    Order j contributes j times the slice of kernel_j at the cell; the order-1
    kernel contributes a constant.  Evaluating the returned family along a
    path equals the (block, cell) entry of the derivative matrix.
    """
    if not family.is_block_centered:
        raise ChaosError("derivative needs a block-centered family; apply block_center first")
    t = block * family.grid.cells + cell
    constant = 0.0
    slices = []
    for kern in family.kernels:
        j = kern.order
        sliced = Kernel(kern.grid, j - 1, kern.values[t] * float(j), validate=False)
        if j == 1:
            constant += float(sliced.values)
        else:
            slices.append(sliced)
    if not slices:
        return KernelFamily(family.grid, constant, [])
    return family_from_kernels(slices, constant=constant)
