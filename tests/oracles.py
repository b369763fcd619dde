"""Independent second algorithms that the tests compare the library against.

The library computes each quantity with one algorithm; these take another
code path on purpose and are only fast enough for small hosts.
"""

from functools import lru_cache

import numpy as np

from wclt import rng
from wclt.graph_stats import HostSample, _copies_in_kn
from wclt.patterns import complete_graph_edges, enumerate_copies


def weight_by_edge_counts(pattern, host: HostSample) -> float:
    """Edge-centric combined weight: weight(e) times the number of present copies through e."""
    copies = np.array(_copies_in_kn(pattern, host.n), dtype=np.int64)
    if copies.size == 0:
        return 0.0
    present = host.present
    present_copies = present[copies].all(axis=1)
    counts = np.bincount(copies[present_copies].ravel(), minlength=present.size)
    return float(np.dot(host.edge_weights(), counts))


@lru_cache(maxsize=None)
def _complete_host_copies(pattern, n: int) -> np.ndarray:
    """Copies of the pattern in K_n as rows of edge indices, without the library's copy cap."""
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
    copies = _copies_in_kn(pattern, n)
    if not copies:
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
