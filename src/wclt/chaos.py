"""Grid-discretized chaos calculus over independent block uniforms.

The half-line is cut into blocks of length 2; block k carries one uniform
u_k in (-1, 1) evaluated at the point 2k + 1 + u_k.  Kernels are symmetric
piecewise-constant functions on (block, cell) tuples that vanish whenever
two coordinates share a block, so every integral in sight is a finite sum
and the only stochastic approximation anywhere is Monte Carlo over paths.

Conventions:
  * half norms/inner products use the reference measure (dx/2) per coordinate;
  * plain (Lebesgue) norms are used by the contraction-norm bounds;
  * multiple-integral evaluation follows the alternating sum over partially
    evaluated, partially integrated marginals;
  * a kernel is "block centered" when every per-block average vanishes in
    every coordinate, which makes its integral coincide with the plain
    U-statistic sum over distinct blocks.
"""

from __future__ import annotations

import json
import math
import string
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from . import rng
from .errors import ChaosError, ResourceLimitError

MAX_GRID_SIZE = 256
MAX_DENSE_ELEMENTS = 1 << 24
EXACT_TOL = 1e-12
PATHWISE_TOL = 1e-9
KERNEL_JSON_VERSION = 1


@dataclass(frozen=True)
class GridSpec:
    """K blocks of length 2, each split into M equal cells of width 2/M."""

    blocks: int
    cells: int

    def __post_init__(self) -> None:
        if self.blocks < 1 or self.cells < 1:
            raise ChaosError("grid needs at least one block and one cell")
        if self.blocks * self.cells > MAX_GRID_SIZE:
            raise ResourceLimitError(f"grid size capped at {MAX_GRID_SIZE} cells")

    @property
    def size(self) -> int:
        return self.blocks * self.cells

    @property
    def cell_width(self) -> float:
        return 2.0 / self.cells


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


class Kernel:
    """Symmetric piecewise-constant kernel supported off the block diagonal."""

    __slots__ = ("grid", "order", "values", "_marginals", "_centered")

    def __init__(self, grid: GridSpec, order: int, values, *, validate: bool = True):
        if order < 0:
            raise ChaosError("kernel order must be nonnegative")
        values = np.asarray(values, dtype=float)
        expected = (grid.size,) * order
        if values.shape != expected:
            raise ChaosError(f"kernel of order {order} needs shape {expected}, got {values.shape}")
        if validate and order >= 2:
            scale = float(np.max(np.abs(values))) if values.size else 0.0
            tol = EXACT_TOL * (1.0 + scale)
            for i in range(order - 1):
                swapped = np.swapaxes(values, i, order - 1)
                if np.max(np.abs(values - swapped)) > tol:
                    raise ChaosError("kernel values are not symmetric")
            off = _off_diagonal_mask(grid.blocks, grid.cells, order)
            if np.max(np.abs(values[~off])) > tol:
                raise ChaosError("kernel has mass on the block diagonal")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_marginals", {})
        object.__setattr__(self, "_centered", None)

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("Kernel is immutable")

    # -- structural flags ------------------------------------------------

    @property
    def is_block_centered(self) -> bool:
        cached = self._centered
        if cached is None:
            cached = is_block_centered(self)
            object.__setattr__(self, "_centered", cached)
        return cached

    # -- exact integrals ---------------------------------------------------

    def marginal(self, keep: int) -> np.ndarray:
        """Integrate out the last (order - keep) coordinates with Lebesgue measure."""
        if keep == self.order:
            return self.values
        cached = self._marginals.get(keep)
        if cached is None:
            drop = self.order - keep
            cached = self.values.sum(axis=tuple(range(keep, self.order)))
            cached = cached * self.grid.cell_width**drop
            self._marginals[keep] = cached
        return cached

    def half_norm_sq(self) -> float:
        """Squared norm with the (dx/2) reference measure."""
        w = self.grid.cell_width / 2.0
        return float((self.values**2).sum() * w**self.order)


def zero_kernel(grid: GridSpec, order: int) -> Kernel:
    return Kernel(grid, order, np.zeros((grid.size,) * order), validate=False)


def symmetrize(grid: GridSpec, order: int, raw) -> Kernel:
    """Average over coordinate permutations, then zero the block diagonal."""
    raw = np.asarray(raw, dtype=float)
    if order == 0:
        return Kernel(grid, 0, raw)
    acc = np.zeros_like(raw)
    perms = list(permutations(range(order)))
    for perm in perms:
        acc += np.transpose(raw, perm)
    acc /= len(perms)
    acc *= _off_diagonal_mask(grid.blocks, grid.cells, order)
    return Kernel(grid, order, acc, validate=False)


def is_block_centered(kernel: Kernel) -> bool:
    """True when every per-block cell average vanishes in every coordinate."""
    if kernel.order == 0:
        return True
    g = kernel.grid
    scale = float(np.max(np.abs(kernel.values))) if kernel.values.size else 0.0
    tol = EXACT_TOL * (1.0 + scale)
    v = kernel.values
    for axis in range(kernel.order):
        moved = np.moveaxis(v, axis, -1)
        blocked = moved.reshape(moved.shape[:-1] + (g.blocks, g.cells))
        if np.max(np.abs(blocked.sum(axis=-1))) > tol * g.cells:
            return False
    return True


def block_center(kernel: Kernel) -> Kernel:
    """Subtract the per-block cell average in every coordinate.

    This is the projection onto block-centered kernels; it leaves the
    multiple integral unchanged pathwise.
    """
    if kernel.order == 0:
        return kernel
    g = kernel.grid
    v = kernel.values
    for axis in range(kernel.order):
        moved = np.moveaxis(v, axis, -1)
        blocked = moved.reshape(moved.shape[:-1] + (g.blocks, g.cells))
        blocked = blocked - blocked.mean(axis=-1, keepdims=True)
        v = np.moveaxis(blocked.reshape(moved.shape), -1, axis)
    return Kernel(kernel.grid, kernel.order, v, validate=False)


def half_inner(f: Kernel, g: Kernel) -> float:
    if f.order != g.order or f.grid != g.grid:
        raise ChaosError("inner product needs kernels of equal order on one grid")
    w = f.grid.cell_width / 2.0
    return float((f.values * g.values).sum() * w**f.order)


# -- contractions ----------------------------------------------------------


def contract(f: Kernel, g: Kernel, k: int, l: int) -> np.ndarray:
    """Identify k coordinates of f and g and integrate out l of them.

    The integrated coordinates carry the (dx/2) weight; identified but not
    integrated coordinates stay free; the result is the raw (unsymmetrized)
    array of order (order_f + order_g - k - l).
    """
    if f.grid != g.grid:
        raise ChaosError("contraction needs kernels on the same grid")
    n, m = f.order, g.order
    if not (0 <= l <= k <= min(n, m)):
        raise ChaosError(f"need 0 <= l <= k <= min(n, m); got k={k}, l={l}")
    out_order = n + m - k - l
    if f.grid.size**out_order > MAX_DENSE_ELEMENTS:
        raise ResourceLimitError("contraction result exceeds the dense-array cap")
    letters = string.ascii_lowercase
    shared = letters[:k]
    f_free = letters[k:n]
    g_free = letters[n:n + m - k]
    sub_f = shared + f_free
    sub_g = shared + g_free
    sub_out = shared[l:] + f_free + g_free
    raw = np.einsum(f"{sub_f},{sub_g}->{sub_out}", f.values, g.values)
    return raw * (f.grid.cell_width / 2.0) ** l


def contract_symmetrized(f: Kernel, g: Kernel, k: int, l: int) -> Kernel:
    """Symmetrized, block-diagonal-free contraction (the tilde variant)."""
    raw = contract(f, g, k, l)
    return symmetrize(f.grid, f.order + g.order - k - l, raw)


def _lebesgue_norm_sq(raw: np.ndarray, grid: GridSpec) -> float:
    return float((np.asarray(raw) ** 2).sum() * grid.cell_width**np.ndim(raw))


@dataclass(frozen=True)
class ContractionInequalityResult:
    lhs: float
    rhs: float
    holds: bool
    printed_lhs: float | None
    printed_rhs: float | None
    printed_holds: bool | None


def contraction_inequality_check(f: Kernel, g: Kernel, k: int, l: int) -> ContractionInequalityResult:
    """Domination of a mixed contraction norm by self-contraction norms.

    For l < k the checked inequality is the one established in the proof
    (both power-of-two factors on the right):
        |f *_k^l g|^2 <= 2^{2n-2k-1} |f *_n^{l+n-k} f|^2
                         + 2^{2m-2k-1} |g *_m^{l+m-k} g|^2.
    The printed statement puts 2^{2n-2k-1} on the left instead; it is
    evaluated too and reported separately.  For l = k:
        |f *_k^k g|^2 <= 2^{2n-4k-1} |f *_{n-k}^{n-k} f|^2
                         + 2^{2m-4k-1} |g *_{m-k}^{m-k} g|^2.
    """
    n, m = f.order, g.order
    grid = f.grid
    lhs = _lebesgue_norm_sq(contract(f, g, k, l), grid)
    tol = EXACT_TOL * (1.0 + abs(lhs))
    if l < k:
        a = _lebesgue_norm_sq(contract(f, f, n, l + n - k), grid)
        b = _lebesgue_norm_sq(contract(g, g, m, l + m - k), grid)
        rhs = 2.0 ** (2 * n - 2 * k - 1) * a + 2.0 ** (2 * m - 2 * k - 1) * b
        printed_lhs = lhs * 2.0 ** (2 * n - 2 * k - 1)
        printed_rhs = a + 2.0 ** (2 * m - 2 * k - 1) * b
        return ContractionInequalityResult(
            lhs=lhs, rhs=rhs, holds=lhs <= rhs + tol,
            printed_lhs=printed_lhs, printed_rhs=printed_rhs,
            printed_holds=printed_lhs <= printed_rhs + EXACT_TOL * (1.0 + printed_lhs),
        )
    a = _lebesgue_norm_sq(contract(f, f, n - k, n - k), grid)
    b = _lebesgue_norm_sq(contract(g, g, m - k, m - k), grid)
    rhs = 2.0 ** (2 * n - 4 * k - 1) * a + 2.0 ** (2 * m - 4 * k - 1) * b
    return ContractionInequalityResult(lhs=lhs, rhs=rhs, holds=lhs <= rhs + tol,
                                       printed_lhs=None, printed_rhs=None, printed_holds=None)


# -- multiple-integral evaluation -------------------------------------------

# Paths per evaluation chunk: small enough that a chunk's gathers stay in cache.
EVAL_CHUNK_ROWS = 8192


def _local_cells(grid: GridSpec, u: np.ndarray) -> np.ndarray:
    """Cell index within its block (0 .. cells - 1) hit by each block coordinate."""
    u = np.asarray(u, dtype=float)
    if u.shape[-1] != grid.blocks:
        raise ChaosError(f"path needs one value per block ({grid.blocks}), got {u.shape[-1]}")
    return np.clip(((u + 1.0) * 0.5 * grid.cells).astype(np.int64), 0, grid.cells - 1)


def path_cells(grid: GridSpec, u: np.ndarray) -> np.ndarray:
    """Global cell index hit by each block coordinate 2k + 1 + u_k."""
    return _local_cells(grid, u) + np.arange(grid.blocks, dtype=np.int64) * grid.cells


def _block_tables(values: np.ndarray, r: int, grid: GridSpec) -> list[np.ndarray]:
    """Block tables of a symmetric array, one per r-combination of blocks.

    For the combination (b_1, ..., b_r), in ``combinations`` order, the
    leading r axes of values are cut to the cells of those blocks and
    flattened: a small contiguous table of cells**r rows over the remaining
    axes, row c_1 M^{r-1} + ... + c_r holding values[b_1 M + c_1, ..., b_r M + c_r].
    """
    m = grid.cells
    shape = (m**r,) + values.shape[r:]
    return [np.ascontiguousarray(values[tuple(slice(b * m, (b + 1) * m) for b in combo)])
            .reshape(shape) for combo in combinations(range(grid.blocks), r)]


def _combo_codes(loc: np.ndarray, r: int, cells: int):
    """Per r-combination of blocks, in ``combinations`` order, every path's
    local-cell code c_1 M^{r-1} + ... + c_r; ``loc`` is (blocks, paths)."""
    blocks, n_paths = loc.shape
    if r == 0:
        yield np.zeros(n_paths, dtype=np.int64)
        return

    def extend(start: int, depth: int, base):
        for b in range(start, blocks - r + depth + 1):
            code = loc[b] if base is None else base + loc[b]
            if depth == r - 1:
                yield code
            else:
                yield from extend(b + 1, depth + 1, code * cells)

    yield from extend(0, 0, None)


def _gather_sum(tables: list[np.ndarray], loc: np.ndarray, r: int, cells: int,
                out: np.ndarray) -> np.ndarray:
    """Sum over the r-combinations of blocks of the table row at each path's code.

    For the tables of a symmetric order-r array this is its sum over distinct
    block r-sets at the path cells; for an order-(r + 1) kernel it is, per
    cell t, the sum over r-sets of kernel(t, path cells).  ``out`` has one row
    per path and is overwritten.
    """
    buf = np.empty_like(out)
    out.fill(0.0)
    for table, code in zip(tables, _combo_codes(loc, r, cells)):
        out += np.take(table, code, axis=0, out=buf)
    return out


def _integral_tables(kernels, grid: GridSpec) -> list[tuple[int, list[np.ndarray]]]:
    """(r, block tables of A_r) such that the sum of the kernels' integrals is
    the sum over r of r! times the distinct-block-set sum of A_r.

    A_r adds (-1)^{n-r} 2^{r-n} C(n, r) times the (n - r)-fold marginal of each
    order-n kernel; all-zero kernels are skipped.  The marginals are computed
    here, so their caches are filled before any evaluation thread starts.
    """
    arrays: dict[int, np.ndarray] = {}
    for kern in kernels:
        n = kern.order
        if not kern.values.any():
            continue
        for r in range(n + 1):
            term = (-1.0) ** (n - r) / 2.0 ** (n - r) * math.comb(n, r) * kern.marginal(r)
            arrays[r] = arrays[r] + term if r in arrays else term
    return [(r, _block_tables(a, r, grid)) for r, a in sorted(arrays.items())]


def _eval_block_sums(grid: GridSpec, terms, u: np.ndarray, constant: float = 0.0) -> np.ndarray:
    """constant + sum over (r, tables) of r! times the gathered table sums, per path.

    Runs over fixed chunks of EVAL_CHUNK_ROWS paths, possibly threaded; each
    chunk writes only its own rows, so the result does not depend on the
    thread count.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    out = np.empty(u.shape[0])

    def work(lo: int, hi: int) -> None:
        loc = np.ascontiguousarray(_local_cells(grid, u[lo:hi]).T)
        part = np.empty(hi - lo)
        total = np.full(hi - lo, constant)
        for r, tables in terms:
            total += math.factorial(r) * _gather_sum(tables, loc, r, grid.cells, part)
        out[lo:hi] = total

    rng.map_chunks(work, rng.chunk_ranges(u.shape[0], EVAL_CHUNK_ROWS))
    return out


def integral_eval_many(kernel: Kernel, u: np.ndarray) -> np.ndarray:
    """Multiple stochastic integral of the kernel along each path (row of u).

    Alternating sum over r of (-1)^{n-r} 2^{r-n} C(n, r) times the plain sum,
    over distinct block r-tuples, of the kernel with its remaining n - r
    coordinates integrated out.
    """
    return _eval_block_sums(kernel.grid, _integral_tables([kernel], kernel.grid), u)


def integral_eval(kernel: Kernel, u) -> float:
    return float(integral_eval_many(kernel, np.asarray(u, dtype=float)[None, :])[0])


def ustat_eval_many(kernel: Kernel, u: np.ndarray) -> np.ndarray:
    """Plain U-statistic: kernel summed at path points over distinct block tuples."""
    r = kernel.order
    return _eval_block_sums(kernel.grid, [(r, _block_tables(kernel.values, r, kernel.grid))], u)


def random_paths(seed: int, n_paths: int, blocks: int, first: int = 0) -> np.ndarray:
    """Rows of path uniforms in (-1, 1), position-stable in the seed's stream."""
    return 2.0 * rng.uniform_matrix(seed, n_paths, blocks, first_row=first) - 1.0


# -- kernel families ---------------------------------------------------------


class KernelFamily:
    """A constant plus kernels of orders 1..N, representing their integral sum."""

    __slots__ = ("grid", "constant", "kernels")

    def __init__(self, grid: GridSpec, constant: float, kernels):
        kernels = tuple(kernels)
        for i, kern in enumerate(kernels):
            if kern.order != i + 1:
                raise ChaosError(f"kernel at slot {i} must have order {i + 1}")
            if kern.grid != grid:
                raise ChaosError("family kernels must share one grid")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "constant", float(constant))
        object.__setattr__(self, "kernels", kernels)

    def __setattr__(self, name, value):
        raise AttributeError("KernelFamily is immutable")

    @property
    def max_order(self) -> int:
        return len(self.kernels)

    @property
    def is_block_centered(self) -> bool:
        return all(k.is_block_centered for k in self.kernels)

    def second_moment(self) -> float:
        """E[X^2] = constant^2 + sum of n! half-norms; exact for centered kernels."""
        if not self.is_block_centered:
            raise ChaosError("second moment via the norm identity needs block-centered kernels")
        return self.constant**2 + sum(
            math.factorial(k.order) * k.half_norm_sq() for k in self.kernels
        )

    def eval_many(self, u: np.ndarray) -> np.ndarray:
        """The constant plus the integral of every kernel, along each path (row of u)."""
        terms = _integral_tables(self.kernels, self.grid)
        return _eval_block_sums(self.grid, terms, u, self.constant)


def family_from_kernels(kernels, constant: float = 0.0) -> KernelFamily:
    """Build a family from kernels of distinct positive orders, padding with zeros."""
    kernels = list(kernels)
    if not kernels:
        raise ChaosError("family needs at least one kernel")
    grid = kernels[0].grid
    top = max(k.order for k in kernels)
    slots = [zero_kernel(grid, i + 1) for i in range(top)]
    for k in kernels:
        if k.order == 0:
            constant += float(k.values)
            continue
        slots[k.order - 1] = k
    return KernelFamily(grid, constant, slots)


def ou_inverse(family: KernelFamily) -> KernelFamily:
    """Inverse Ornstein-Uhlenbeck operator: order n scales by -1/n; needs a centered family."""
    if family.constant != 0.0:
        raise ChaosError("inverse OU operator is defined on centered families only")
    return _scale_orders(family, [-1.0 / n for n in range(1, family.max_order + 1)])


def _scale_orders(family: KernelFamily, factors) -> KernelFamily:
    # constants are annihilated by every Ornstein-Uhlenbeck scaling
    kernels = [
        Kernel(k.grid, k.order, k.values * factors[k.order - 1], validate=False)
        for k in family.kernels
    ]
    return KernelFamily(family.grid, 0.0, kernels)


def ou_negative(family: KernelFamily) -> KernelFamily:
    """(-L): order n scales by n."""
    return _scale_orders(family, [float(n) for n in range(1, family.max_order + 1)])


def ou_apply(family: KernelFamily) -> KernelFamily:
    """L itself: order n scales by -n, so L composed with its inverse is the identity."""
    return _scale_orders(family, [-float(n) for n in range(1, family.max_order + 1)])


def ou_sqrt(family: KernelFamily) -> KernelFamily:
    """(-L)^{1/2}: order n scales by sqrt(n)."""
    return _scale_orders(family, [math.sqrt(n) for n in range(1, family.max_order + 1)])


def ustat_chaos_decomposition(kernel: Kernel) -> KernelFamily:
    """Expand the plain U-statistic of a symmetric kernel into integral components.

    Component of order r is 2^{r-n} C(n, r) times the (n - r)-fold marginal;
    pathwise, constant + sum of the component integrals equals the raw
    U-statistic sum.
    """
    n = kernel.order
    constant = 0.0
    comps = []
    for r in range(n + 1):
        values = kernel.marginal(r) * (math.comb(n, r) / 2.0 ** (n - r))
        if r == 0:
            constant = float(values)
        else:
            comps.append(Kernel(kernel.grid, r, values, validate=False))
    return KernelFamily(kernel.grid, constant, comps)


# -- finite-difference derivative and the explicit normal bound -------------


def slice_kernel(kernel: Kernel, cell: int) -> Kernel:
    """Fix the first coordinate at a cell; slices of centered kernels stay centered."""
    if kernel.order == 0:
        raise ChaosError("cannot slice an order-0 kernel")
    return Kernel(kernel.grid, kernel.order - 1, kernel.values[cell], validate=False)


def _derivative_tables(family: KernelFamily) -> list[tuple[int, list[np.ndarray]]]:
    """(j, block tables of the order-j kernel over its first j - 1 axes), nonzero kernels only."""
    return [(k.order, _block_tables(k.values, k.order - 1, family.grid))
            for k in family.kernels if k.values.any()]


def _derivative_pieces(grid: GridSpec, tables, loc: np.ndarray):
    """Yield (j, D_j) per order, where j * D_j is the order-j part of the derivative.

    D_j(p, t) = (j-1)! times the sum, over (j-1)-sets of blocks, of kernel_j at
    t and the path's cells in those blocks; a (paths, cells) matrix that is
    overwritten by the next order, so use it before resuming.
    """
    piece = np.empty((loc.shape[1], grid.size))
    for j, kernel_tables in tables:
        _gather_sum(kernel_tables, loc, j - 1, grid.cells, piece)
        if j > 2:
            piece *= math.factorial(j - 1)
        yield j, piece


def derivative_values_many(family: KernelFamily, u: np.ndarray, *,
                           unit_weights: bool = False) -> np.ndarray:
    """Finite-difference derivative along each path, as a (paths, cells) matrix.

    Entry (p, t) is sum over orders j of j * I_{j-1}(kernel_j(t, .)) at path p
    (coefficient 1 instead of j under ``unit_weights``, which equals the
    negated derivative of the inverse-OU image).  Requires a block-centered
    family, for which the correction term of the derivative vanishes.
    """
    if not family.is_block_centered:
        raise ChaosError("derivative needs a block-centered family; apply block_center first")
    u = np.atleast_2d(np.asarray(u, dtype=float))
    grid = family.grid
    loc = np.ascontiguousarray(_local_cells(grid, u).T)
    out = np.zeros((u.shape[0], grid.size))
    for j, piece in _derivative_pieces(grid, _derivative_tables(family), loc):
        out += piece if unit_weights else j * piece
    return out


def derivative_slice(family: KernelFamily, block: int, cell: int, u) -> float:
    """Derivative at one grid cell for a single path."""
    grid = family.grid
    t = block * grid.cells + cell
    return float(derivative_values_many(family, np.asarray(u, dtype=float)[None, :])[0, t])


@dataclass(frozen=True)
class SteinBoundTerms:
    """Explicit, absolutely comparable upper bound on the Wasserstein distance to normal."""

    term1: float  # |1 - E[X^2]|, exact
    term2: float  # sqrt Var of the derivative inner product, Monte Carlo
    term3: float  # 2 sqrt(E[X^2] * integral of E[derivative^4]/2), Monte Carlo
    total: float
    n_paths: int
    term2_se: float  # standard error of term2 (delta method for a sample SD)
    term3_se: float  # standard error of term3 (delta method on the fourth-power mean)

    def to_dict(self) -> dict:
        return asdict(self)


# (paths x cells) entries per Stein chunk: keeps a chunk's derivative in cache.
STEIN_CHUNK_ENTRIES = 200_000


def _sd_with_se(x: np.ndarray) -> tuple[float, float]:
    """Sample standard deviation s and its delta-method standard error.

    se = sqrt((m4 - s^4) / n) / (2 s), with m4 the fourth central sample
    moment; both are 0 for fewer than two values or a constant sample.
    """
    n = x.size
    if n < 2:
        return 0.0, 0.0
    dev = x - x.mean()
    var = float((dev * dev).sum()) / (n - 1)
    if var == 0.0:
        return 0.0, 0.0
    m4 = float(np.mean(dev**4))
    sd = math.sqrt(var)
    return sd, math.sqrt(max(m4 - var * var, 0.0) / n) / (2.0 * sd)


def stein_bound_terms(family: KernelFamily, n_paths: int, seed: int) -> SteinBoundTerms:
    """Evaluate the three explicit bound terms for a centered block-centered family.

    The inner product <derivative, negated inverse-OU derivative> is computed
    exactly per path as a cell sum with the (dx/2) weight; only its variance
    and the fourth-moment integral are Monte Carlo averages over paths.  One
    derivative pass per chunk gives both derivatives: d = sum_j j D_j and the
    negated inverse-OU derivative sum_j D_j.
    """
    if n_paths < 1:
        raise ChaosError(f"bound needs at least one path, got {n_paths}")
    if family.constant != 0.0:
        raise ChaosError("bound needs a centered family (zero constant term)")
    if not family.is_block_centered:
        raise ChaosError("bound needs block-centered kernels")
    grid = family.grid
    half_w = grid.cell_width / 2.0
    ex2 = family.second_moment()
    term1 = abs(1.0 - ex2)
    tables = _derivative_tables(family)

    inner = np.empty(n_paths)
    fourth = np.empty(n_paths)  # per path, the cell sum of derivative^4

    def work(lo: int, hi: int) -> None:
        u = random_paths(seed, hi - lo, grid.blocks, first=lo)
        loc = np.ascontiguousarray(_local_cells(grid, u).T)
        d = np.zeros((hi - lo, grid.size))
        d_inv = np.zeros_like(d)
        for j, piece in _derivative_pieces(grid, tables, loc):
            d_inv += piece
            piece *= j
            d += piece
        inner[lo:hi] = np.einsum("ij,ij->i", d, d_inv) * half_w
        d *= d
        fourth[lo:hi] = np.einsum("ij,ij->i", d, d)

    rng.map_chunks(work, rng.chunk_ranges(n_paths, max(1, STEIN_CHUNK_ENTRIES // grid.size)))

    term2, term2_se = _sd_with_se(inner)
    fourth_integral = float(fourth.sum()) / n_paths * half_w
    term3 = 2.0 * math.sqrt(ex2 * fourth_integral)
    term3_se = 0.0
    if n_paths > 1 and fourth_integral > 0.0:
        # d term3 / d F = sqrt(ex2 / F) at the fourth-moment integral F
        fourth_se = float(np.std(fourth, ddof=1)) / math.sqrt(n_paths) * half_w
        term3_se = math.sqrt(ex2 / fourth_integral) * fourth_se
    total = term1 + term2 + term3
    return SteinBoundTerms(term1=term1, term2=term2, term3=term3, total=total, n_paths=n_paths,
                           term2_se=term2_se, term3_se=term3_se)


# -- product expansion and norm identities -----------------------------------


def product_expansion(f: Kernel, g: Kernel) -> list[tuple[float, Kernel]]:
    """Expansion of the product of two integrals into integrals of contractions.

    I(f) I(g) = sum over k <= min(orders), i <= k of
    k! C(m, k) C(n, k) C(k, i) I(symmetrized contraction f *_k^i g);
    requires both kernels block centered.
    """
    if not (f.is_block_centered and g.is_block_centered):
        raise ChaosError("product expansion needs block-centered kernels")
    n, m = f.order, g.order
    terms = []
    for k in range(min(n, m) + 1):
        outer = math.factorial(k) * math.comb(m, k) * math.comb(n, k)
        for i in range(k + 1):
            coef = outer * math.comb(k, i)
            terms.append((float(coef), contract_symmetrized(f, g, k, i)))
    return terms


def product_check_many(f: Kernel, g: Kernel, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pathwise left and right sides of the product expansion."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    lhs = integral_eval_many(f, u) * integral_eval_many(g, u)
    rhs = np.zeros(u.shape[0])
    for coef, kern in product_expansion(f, g):
        rhs += coef * integral_eval_many(kern, u)
    return lhs, rhs


def second_moment_product_route(family: KernelFamily) -> float:
    """E[X^2] assembled from the order-0 terms of pairwise product expansions.

    Independent route to the isometry value: expands every product
    I(f_i) I(f_j) and keeps the constants.
    """
    total = family.constant**2
    for f in family.kernels:
        if not f.values.any():
            continue
        for g in family.kernels:
            if not g.values.any():
                continue
            for coef, kern in product_expansion(f, g):
                if kern.order == 0:
                    total += coef * float(kern.values)
    return total


def contraction_norm_bound(family: KernelFamily) -> tuple[float, float]:
    """Rate-only distance bound from contraction norms (constant suppressed).

    Returns (value, norm_sum) with
    value = |1 - E[X^2]| + sqrt(norm_sum), where norm_sum adds the plain
    L2 norms of f_i *_i^l f_i (l < i), f_i *_l^l f_i and f_l *_l^l f_i
    (1 <= l < i).
    """
    grid = family.grid
    norm_sum = 0.0
    kernels = {k.order: k for k in family.kernels if k.values.any()}
    orders = sorted(kernels)
    for i in orders:
        f_i = kernels[i]
        for l in range(0, i):
            norm_sum += _lebesgue_norm_sq(contract(f_i, f_i, i, l), grid)
        for l in range(1, i):
            norm_sum += _lebesgue_norm_sq(contract(f_i, f_i, l, l), grid)
            if l in kernels:
                norm_sum += _lebesgue_norm_sq(contract(kernels[l], f_i, l, l), grid)
    value = abs(1.0 - family.second_moment()) + math.sqrt(norm_sum)
    return value, norm_sum


def derivative_energy_identity(family: KernelFamily) -> tuple[float, float, float]:
    """(lhs, rhs, inequality_rhs) of the derivative-energy identity.

    lhs integrates the expected squared derivative via slice norms; rhs is
    sum of n * n! half-norms; inequality_rhs (sum of n^2 * n! half-norms)
    dominates both.  lhs equals rhs exactly and is at most inequality_rhs.
    """
    if not family.is_block_centered:
        raise ChaosError("identity needs a block-centered family")
    grid = family.grid
    half_w = grid.cell_width / 2.0
    lhs = 0.0
    rhs = 0.0
    ineq = 0.0
    for kern in family.kernels:
        n = kern.order
        slice_sum = sum(slice_kernel(kern, t).half_norm_sq() for t in range(grid.size))
        lhs += n**2 * math.factorial(n - 1) * slice_sum * half_w
        rhs += n * math.factorial(n) * kern.half_norm_sq()
        ineq += n**2 * math.factorial(n) * kern.half_norm_sq()
    return lhs, rhs, ineq


# -- serialization and test fixtures -----------------------------------------


def kernel_to_json(kernel: Kernel) -> str:
    payload = {
        "format_version": KERNEL_JSON_VERSION,
        "order": kernel.order,
        "blocks": kernel.grid.blocks,
        "cells": kernel.grid.cells,
        "flags": {
            "is_symmetric": True,
            "vanishes_off_diagonal": True,
            "is_block_centered": kernel.is_block_centered,
        },
        "values": np.asarray(kernel.values).ravel().tolist(),
    }
    return json.dumps(payload, sort_keys=True)


def kernel_from_json(text: str) -> Kernel:
    payload = json.loads(text)
    if payload.get("format_version") != KERNEL_JSON_VERSION:
        raise ChaosError("unsupported kernel format version")
    grid = GridSpec(payload["blocks"], payload["cells"])
    order = payload["order"]
    values = np.array(payload["values"], dtype=float).reshape((grid.size,) * order)
    return Kernel(grid, order, values)


def random_kernel(grid: GridSpec, order: int, seed: int, *, centered: bool = True) -> Kernel:
    """Deterministic random kernel: symmetrized noise, optionally block centered."""
    flat = rng.uniform_matrix(seed, 1, grid.size**order)[0] * 2.0 - 1.0
    kern = symmetrize(grid, order, flat.reshape((grid.size,) * order))
    return block_center(kern) if centered else kern
