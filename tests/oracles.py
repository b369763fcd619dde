"""Independent second algorithms that the tests compare the library against.

The library computes each quantity with one algorithm; these take another
code path on purpose and are only fast enough for small hosts.
"""

import math
from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np
from scipy import special

from wclt import chaos, rng
from wclt.chaos import Kernel, KernelFamily, family_from_kernels, random_paths
from wclt.distance import _cdf, _cdf_antiderivative, _inv_cdf, _map
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


def completion_counts(copies, n_blocks: int, e_g: int, k: int) -> np.ndarray:
    """counts[b_1..b_k] = ordered ways to extend the k distinct edges b to a copy.

    Each copy containing all k edges contributes (e_G - k)! orderings of its
    remaining edges; tuples with repeated edges never occur (they cannot be
    part of a copy's edge set).  The graph family derives every order from the
    top one by summing the last axis; this enumerates each order on its own.
    """
    counts = np.zeros((n_blocks,) * k)
    remaining = math.factorial(e_g - k)
    for copy in copies:
        for perm in permutations(copy, k):
            counts[perm] += remaining
    return counts


def path_cells(grid, u: np.ndarray) -> np.ndarray:
    """Global cell index hit by each block coordinate 2k + 1 + u_k.

    Block k's cells cut [2k, 2k + 2) into M intervals of width 2 / M, and
    u_k = 1 lies in the last of them.
    """
    u = np.asarray(u, dtype=float)
    local = np.minimum(np.floor((u + 1.0) * grid.cells / 2.0), grid.cells - 1).astype(np.int64)
    return local + np.arange(grid.blocks, dtype=np.int64) * grid.cells


def masked_weights(u: np.ndarray, p: float, model) -> np.ndarray:
    """quantile(u / p) where u < p, else 0, by a boolean gather and scatter."""
    present = u < p
    weights = np.zeros_like(u)
    weights[present] = model.quantile_array(u[present] / p)
    return weights


def gathered_weights(pattern, n: int, p: float, model, seed: int, lo: int, hi: int) -> np.ndarray:
    """Combined weights of replicates lo..hi, summed over the copy list of K_n.

    Per replicate and copy, the copy counts when all its edges are present,
    and then adds its edge weights; the uniforms are the sampler's.
    """
    copies = _complete_host_copies(pattern, n)
    u = rng.uniform_matrix(seed, hi - lo, n * (n - 1) // 2, first_row=lo)
    present = u < p
    weights = masked_weights(u, p, model)
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


def w1_quantile_space(samples) -> float:
    """W1 to the standard normal as the integral over u of |F_m^-1(u) - ndtri(u)|.

    On [(i-1)/m, i/m] the empirical quantile is the i-th order statistic x,
    the integrand changes sign at u* = ndtr(x), and ndtri integrates to
    -pdf(ndtri(u)), which vanishes at u = 0 and u = 1.
    """
    xs = np.sort(np.asarray(samples, dtype=float).ravel())
    m = xs.size
    lo = np.arange(m) / m
    hi = np.arange(1, m + 1) / m

    def antiderivative(u):
        return -np.exp(-0.5 * special.ndtri(u) ** 2) / math.sqrt(2.0 * math.pi)

    u_star = np.clip(special.ndtr(xs), lo, hi)
    left = xs * (u_star - lo) - (antiderivative(u_star) - antiderivative(lo))
    right = antiderivative(hi) - antiderivative(u_star) - xs * (hi - u_star)
    return float((left + right).sum())


def w1_every_piece(samples) -> float:
    """W1 to the standard normal with the normal CDF computed at every sample point.

    The library's integrator with its bisection taken out: each piece
    between consecutive sample values is classified and integrated on its
    own, with the same CDF, quantile and closed forms.
    """
    xs = np.sort(np.asarray(samples, dtype=float).ravel())
    m = xs.size
    return (_every_piece_half_line(xs[xs <= 0.0], m)
            + _every_piece_half_line(-xs[xs >= 0.0][::-1], m))


def _every_piece_half_line(neg: np.ndarray, m: int) -> float:
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


@lru_cache(maxsize=None)
def _off_diagonal_mask(blocks: int, cells: int, order: int) -> np.ndarray:
    """Boolean mask of index tuples whose blocks are pairwise distinct."""
    size = blocks * cells
    block_of = np.arange(size) // cells
    mask = np.ones((size,) * order, dtype=bool)
    for i in range(order):
        for j in range(i + 1, order):
            shape_i = [1] * order
            shape_i[i] = size
            shape_j = [1] * order
            shape_j[j] = size
            mask &= block_of.reshape(shape_i) != block_of.reshape(shape_j)
    return mask


def masked_symmetrize(grid, order: int, raw) -> np.ndarray:
    """Average over coordinate permutations, then multiply by the full 0/1 mask."""
    raw = np.asarray(raw, dtype=float)
    acc = np.zeros_like(raw)
    perms = list(permutations(range(order)))
    for perm in perms:
        acc += np.transpose(raw, perm)
    acc /= len(perms)
    acc *= _off_diagonal_mask(grid.blocks, grid.cells, order)
    return acc


def masked_verdict(grid, order: int, values) -> str | None:
    """The refusal a checked kernel of these values raises (None when accepted),
    found through swapped copies and the full mask."""
    values = np.asarray(values, dtype=float)
    scale = float(np.max(np.abs(values))) if values.size else 0.0
    if not math.isfinite(scale):
        return "kernel values must be finite"
    if order >= 2:
        tol = chaos.EXACT_TOL * (1.0 + scale)
        for i in range(order - 1):
            swapped = np.swapaxes(values, i, order - 1)
            if np.max(np.abs(values - swapped)) > tol:
                return "kernel values are not symmetric"
        off = _off_diagonal_mask(grid.blocks, grid.cells, order)
        if np.max(np.abs(values[~off])) > tol:
            return "kernel has mass on the block diagonal"
    return None


def is_block_centered_moveaxis(kernel) -> bool:
    """The centering check with each axis moved last and split into (block, cell)."""
    if kernel.order == 0:
        return True
    g = kernel.grid
    scale = float(np.max(np.abs(kernel.values))) if kernel.values.size else 0.0
    tol = chaos.EXACT_TOL * (1.0 + scale)
    v = kernel.values
    for axis in range(kernel.order):
        moved = np.moveaxis(v, axis, -1)
        blocked = moved.reshape(moved.shape[:-1] + (g.blocks, g.cells))
        if np.max(np.abs(blocked.sum(axis=-1))) > tol * g.cells:
            return False
    return True


def block_center_moveaxis(kernel) -> np.ndarray:
    """The centered values, each axis moved last, split and centered in a new array."""
    if kernel.order == 0:
        return kernel.values
    g = kernel.grid
    v = kernel.values
    for axis in range(kernel.order):
        moved = np.moveaxis(v, axis, -1)
        blocked = moved.reshape(moved.shape[:-1] + (g.blocks, g.cells))
        blocked = blocked - blocked.mean(axis=-1, keepdims=True)
        v = np.moveaxis(blocked.reshape(moved.shape), -1, axis)
    return v


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


def stein_terms_by_gather(family, n_paths: int, seed: int) -> dict:
    """term2, term3 and their standard errors from the gathered derivatives.

    The paths are ``random_paths(seed, n_paths, blocks)``, the ones the bound
    reads; each per-path cell sum and each moment is taken over whole arrays.
    """
    grid = family.grid
    idx = path_cells(grid, random_paths(seed, n_paths, grid.blocks))
    d = gathered_derivative(family, idx)
    d_inv = gathered_derivative(family, idx, unit_weights=True)
    half_w = grid.cell_width / 2.0
    inner = (d * d_inv).sum(axis=1) * half_w
    fourth = (d**4).sum(axis=1)
    ex2 = family.second_moment()
    dev = inner - inner.mean()
    var = float(np.var(inner, ddof=1))
    term2 = math.sqrt(var)
    term2_se = math.sqrt(max(float(np.mean(dev**4)) - var * var, 0.0) / n_paths) / (2.0 * term2)
    integral = float(fourth.mean()) * half_w
    fourth_se = float(np.std(fourth, ddof=1)) / math.sqrt(n_paths) * half_w
    return {"term2": term2, "term3": 2.0 * math.sqrt(ex2 * integral), "term2_se": term2_se,
            "term3_se": math.sqrt(ex2 / integral) * fourth_se}


def _homes(tables, cells: int) -> list:
    """The homes the combination gather adds, in opening order.

    ``tables`` list (combination, target, table) widest combination first.
    Taken in input order, each table joins the first home of its target
    whose blocks hold its combination, or whose blocks together with it take
    a table of at most ``chaos.UNION_TABLE_BYTES``; else it opens a home.  A
    home is (target, [(combination, table)]), its first table first.
    """
    opened = []  # (blocks, target, [(combination, table)]) in opening order
    for combo, target, table in tables:
        lead = math.prod(table.shape[:-1])
        home = next((h for h in opened if h[1] == target and (
            set(combo) <= h[0]
            or lead * cells ** len(h[0] | set(combo)) * 8 <= chaos.UNION_TABLE_BYTES)), None)
        if home is None:
            home = (set(), target, [])
            opened.append(home)
        home[0].update(combo)
        home[2].append((combo, table))
    return [(target, group) for _, target, group in opened]


def _combination_gather(homes, grid, u: np.ndarray, out: np.ndarray, index) -> np.ndarray:
    """Zero ``out``, then add every home at the paths: each of its tables read
    at the code of its own combination, summed in order, goes into
    out[index(target)], whose last axis is the paths."""
    local = (path_cells(grid, u) - np.arange(grid.blocks) * grid.cells).T

    def read(combo, table):
        code = np.zeros(u.shape[0], dtype=np.int64)
        for b in combo:
            code = code * grid.cells + local[b]
        return table.take(code, axis=-1)

    out.fill(0.0)
    for target, group in homes:
        out[index(target)] += sum((read(*part) for part in group[1:]), start=read(*group[0]))
    return out


def combination_integral_tables(kernels, grid):
    """The integral's homes: parts (None, [(combination, r! A_r table)])."""
    arrays = {}
    for kern in kernels:
        n = kern.order
        if not kern.values.any():
            continue
        for r in range(n + 1):
            term = (-1.0) ** (n - r) / 2.0 ** (n - r) * math.comb(n, r) * kern.marginal(r)
            arrays[r] = arrays[r] + term if r in arrays else term
    scaled = [(combo, None, math.factorial(r) * table)
              for r in sorted(arrays, reverse=True)
              for combo, _, table in chaos._block_tables(arrays[r], r, grid)]
    return _homes(scaled, grid.cells)


def combination_derivative_tables(family):
    """The derivative's homes: parts (column block, [(combination, table)]), each
    table the (2, M, codes) stack [j (j-1)! K_j, (j-1)! K_j] for a (2, cells,
    paths) accumulator [d, d_inv]."""
    stacked = []
    for kern in reversed(family.kernels):
        if not kern.values.any():
            continue
        j = kern.order
        f = math.factorial(j - 1)
        stacked += [(combo, b, np.stack([j * f * table, f * table]))
                    for combo, b, table in chaos._block_tables(kern.values, j - 1, family.grid)]
    return _homes(stacked, family.grid.cells)


def combination_eval(family, u: np.ndarray) -> np.ndarray:
    """``family.eval_many(u)`` by the per-home gather."""
    out = np.empty(u.shape[0])
    _combination_gather(combination_integral_tables(family.kernels, family.grid), family.grid,
                        u, out, lambda target: ())
    out += family.constant
    return out


def combination_ustat(kernel, u: np.ndarray) -> np.ndarray:
    """``ustat_eval_many(kernel, u)`` by the per-home gather."""
    out = np.empty(u.shape[0])
    homes = _homes(chaos._block_tables(kernel.values, kernel.order, kernel.grid), kernel.grid.cells)
    _combination_gather(homes, kernel.grid, u, out, lambda target: ())
    return out * math.factorial(kernel.order)


def combination_derivative(family, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``derivative_values_many(family, u)`` by the per-home gather into a
    (2, cells, paths) accumulator."""
    m = family.grid.cells
    acc = np.empty((2, family.grid.size, u.shape[0]))
    d, d_inv = _combination_gather(combination_derivative_tables(family), family.grid, u, acc,
                                   lambda b: (slice(None), slice(b * m, (b + 1) * m)))
    return np.ascontiguousarray(d.T), np.ascontiguousarray(d_inv.T)


def combination_stein_terms(family, n_paths: int, seed: int) -> dict:
    """``stein_bound_terms(family, n_paths, seed).to_dict()`` from ``combination_derivative``.

    Per path, each target's share of the inner product and of the
    fourth-power sum adds the target's cells one after another in cell
    order, and the inner product's share is then scaled by half_w; the
    shares of the targets with one home add in block order, then those of
    the targets with several homes in block order.  The moments are the
    library's, so only the derivative's gather differs.
    """
    grid = family.grid
    m = grid.cells
    half_w = grid.cell_width / 2.0
    ex2 = family.second_moment()
    d, d_inv = combination_derivative(family, random_paths(seed, n_paths, grid.blocks))

    def cell_terms(t):
        square = d[:, t] * d[:, t]
        return d[:, t] * d_inv[:, t], square * square

    homes = Counter(target for target, _ in combination_derivative_tables(family))
    inner = np.zeros(n_paths)
    fourth = np.zeros(n_paths)
    for b in sorted(homes, key=lambda target: (homes[target] > 1, target)):
        share_inner, share_fourth = cell_terms(b * m)
        for t in range(b * m + 1, (b + 1) * m):
            product, power = cell_terms(t)
            share_inner = share_inner + product
            share_fourth = share_fourth + power
        inner = inner + share_inner * half_w
        fourth = fourth + share_fourth
    term1 = abs(1.0 - ex2)
    term2, term2_se = chaos._sd_with_se(inner)
    fourth_integral = float(fourth.sum()) / n_paths * half_w
    term3 = 2.0 * math.sqrt(ex2 * fourth_integral)
    term3_se = 0.0
    if n_paths > 1 and fourth_integral > 0.0:
        fourth_se = float(np.std(fourth, ddof=1)) / math.sqrt(n_paths) * half_w
        term3_se = math.sqrt(ex2 / fourth_integral) * fourth_se
    return {"term1": term1, "term2": term2, "term3": term3, "total": term1 + term2 + term3,
            "n_paths": n_paths, "term2_se": term2_se, "term3_se": term3_se}
