"""Grid-discretized chaos calculus over independent block uniforms.

The half-line is cut into blocks of length 2; block k carries one uniform
u_k in (-1, 1) evaluated at the point 2k + 1 + u_k.  Kernels are symmetric
piecewise-constant functions on (block, cell) tuples that vanish whenever
two coordinates share a block, so every integral in sight is a finite sum
and the only stochastic approximation anywhere is Monte Carlo over paths.

Conventions:
  * half norms/inner products use the reference measure (dx/2) per coordinate;
  * plain (Lebesgue) norms are used by the contraction inequalities;
  * multiple-integral evaluation follows the alternating sum over partially
    evaluated, partially integrated marginals;
  * a kernel is "block centered" when every per-block average vanishes in
    every coordinate, which makes its integral coincide with the plain
    U-statistic sum over distinct blocks.
"""

from __future__ import annotations

import math
import string
from collections import Counter
from dataclasses import KW_ONLY, InitVar, asdict, dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, permutations

import numpy as np

from . import rng
from .errors import ChaosError, ResourceLimitError

MAX_GRID_SIZE = 256
MAX_DENSE_ELEMENTS = 1 << 24
EXACT_TOL = 1e-12
PATHWISE_TOL = 1e-9


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


@dataclass(frozen=True, eq=False)
class Kernel:
    """Symmetric piecewise-constant kernel supported off the block diagonal."""

    grid: GridSpec
    order: int
    values: np.ndarray = field(repr=False)
    _: KW_ONLY
    validate: InitVar[bool] = True
    _marginals: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self, validate: bool) -> None:
        order = self.order
        if order < 0:
            raise ChaosError("kernel order must be nonnegative")
        values = np.asarray(self.values, dtype=float)
        expected = (self.grid.size,) * order
        if values.shape != expected:
            raise ChaosError(f"kernel of order {order} needs shape {expected}, got {values.shape}")
        if validate:
            # a NaN propagates through the max, where it would fail every comparison below
            scale = float(np.max(np.abs(values))) if values.size else 0.0
            if not math.isfinite(scale):
                raise ChaosError("kernel values must be finite")
        if validate and order >= 2:
            tol = EXACT_TOL * (1.0 + scale)
            for i in range(order - 1):
                swapped = np.swapaxes(values, i, order - 1)
                if np.max(np.abs(values - swapped)) > tol:
                    raise ChaosError("kernel values are not symmetric")
            off = _off_diagonal_mask(self.grid.blocks, self.grid.cells, order)
            if np.max(np.abs(values[~off])) > tol:
                raise ChaosError("kernel has mass on the block diagonal")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    # -- structural flags ------------------------------------------------

    @cached_property
    def is_block_centered(self) -> bool:
        return is_block_centered(self)

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
            cached.setflags(write=False)  # shared by every later call
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

# Path entries per chunk of a chaos span, one per cell of a path where the span
# gathers a derivative, else one per block: small enough that a chunk's buffers
# stay in cache, large enough that two threads gain more than lock handoffs cost.
CHUNK_ENTRIES = 100_000


def _chunk_paths(grid: GridSpec, per_cell: bool) -> int:
    """Paths per chunk of a span holding one entry per cell (else per block) of a path."""
    return max(1, CHUNK_ENTRIES // (grid.size if per_cell else grid.blocks))


def _path_matrix(grid: GridSpec, u) -> np.ndarray:
    """Paths as rows of block uniforms, one value per block."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[-1] != grid.blocks:
        raise ChaosError(f"path needs one value per block ({grid.blocks}), got {u.shape[-1]}")
    # min and max allocate no path-sized temporary, and a NaN fails both comparisons
    if u.size and not (u.min() >= -1.0 and u.max() <= 1.0):
        raise ChaosError("path values must be finite and lie in [-1, 1]")
    return u


def _local_cells(grid: GridSpec, u: np.ndarray, scratch: np.ndarray, loc: np.ndarray) -> None:
    """Fill loc, laid out (blocks, paths), with the cell index within its block
    (0 .. cells - 1) hit by each block coordinate of the paths u; ``scratch``
    is a float array of u's shape."""
    np.add(u, 1.0, out=scratch)
    scratch *= 0.5
    scratch *= grid.cells
    np.copyto(loc.T, scratch, casting="unsafe")  # truncates, as astype does
    np.clip(loc, 0, grid.cells - 1, out=loc)


# (block combination, [(target, table)]): the target of a table is a column
# block or None.
_BlockTables = list[tuple[tuple[int, ...], list[tuple[object, np.ndarray]]]]
# (block combination, [(rows, table)]): the gather reads a table at each path's
# code and adds it into out[rows].
_GatherTables = list[tuple[tuple[int, ...], list[tuple[object, np.ndarray]]]]

# Largest table, in bytes, that _fold packs several block tables into: exactly
# the triangle family's derivative home at n = 5, 2 rows of 4 cells over the
# 4**6 codes of the 6 host edges that meet the target edge.
UNION_TABLE_BYTES = 256 * 1024


def _block_tables(values: np.ndarray, r: int, grid: GridSpec) -> _BlockTables:
    """Nonzero block tables of a symmetric array, per r-combination of blocks.

    For the combination (b_1, ..., b_r), in ``combinations`` order, the
    leading r axes of values are cut to the cells of those blocks and
    flattened into a last axis of cells**r codes, code c_1 M^{r-1} + ... + c_r
    holding values[b_1 M + c_1, ..., b_r M + c_r].  An array with one more
    axis (the cell t of a derivative) puts t first and is cut along it into
    column blocks of M cells, each a contiguous (M, cells**r) table whose
    target is its column block; an array without one has the target None.
    All-zero tables are dropped: a combination keeps (target, table) pairs
    for its nonzero parts only, and one with none is left out.
    """
    m = grid.cells
    if values.ndim == r:
        column_blocks = [(None, slice(None))]
    else:
        column_blocks = [(b, slice(b * m, (b + 1) * m)) for b in range(grid.blocks)]
    kept = []
    for combo in combinations(range(grid.blocks), r):
        codes = values[tuple(slice(b * m, (b + 1) * m) for b in combo)]
        codes = codes.reshape((m**r,) + values.shape[r:]).T
        parts = [(target, np.ascontiguousarray(codes[cols]))
                 for target, cols in column_blocks if codes[cols].any()]
        if parts:
            kept.append((combo, parts))
    return kept


def _fold(tables: _BlockTables, cells: int) -> _GatherTables:
    """Gather tables that add up each target's block tables in input order.

    ``tables`` run widest combination first.  In input order, each block
    table joins the first home of its own target whose combination already
    contains the table's, or whose union with it takes a table of at most
    UNION_TABLE_BYTES; else it opens a home.  So a target whose union fits
    has that union as its one home, and a table wider than the budget is
    the home of the narrower tables it contains.  Each table is added into
    its home's zeroed table in input order, constant along the home's other
    blocks, so each code of a home holds what its tables add up to at a
    path with that code.

    The homes come out as (rows, table) parts grouped by their final
    combination, the combinations in the order in which the first home to
    end with each opened; rows are all of them for the target None, else its
    column block of ``cells`` cells.
    """
    opened = []  # (blocks, target, [(combination, table)]) per home, in opening order
    homes: dict = {}  # target -> its homes, in opening order
    for combo, parts in tables:
        if cells == 1:  # every code is 0, so a home needs no block axes
            combo = ()
        for target, table in parts:
            row_bytes = table.nbytes // table.shape[-1]
            for blocks, _, held in homes.setdefault(target, []):
                wider = blocks.union(combo)
                if wider == blocks or row_bytes * cells ** len(wider) <= UNION_TABLE_BYTES:
                    blocks.update(combo)
                    held.append((combo, table))
                    break
            else:
                opened.append((set(combo), target, [(combo, table)]))
                homes[target].append(opened[-1])
    gather: dict = {}
    for blocks, target, held in opened:
        home = tuple(sorted(blocks))
        lead = held[0][1].shape[:-1]
        total = np.zeros(lead + (cells,) * len(home), held[0][1].dtype)
        for combo, table in held:  # constant along the home's blocks that combo lacks
            total += table.reshape(lead + tuple(cells if b in combo else 1 for b in home))
        rows = () if target is None else slice(target * cells, (target + 1) * cells)
        gather.setdefault(home, []).append((rows, total.reshape(lead + (-1,))))
    return list(gather.items())


class _SpanBuffers:
    """One span's buffers for gathering the tables over chunks of up to ``rows`` paths.

    ``loc`` holds the chunk's local cells, laid out (blocks, paths); ``buf``
    receives the rows of a part before they are added.
    """

    def __init__(self, grid: GridSpec, rows: int, tables: _GatherTables):
        widest = max((table.size // table.shape[-1] for _, parts in tables for _, table in parts),
                     default=0)
        self.grid = grid
        self.scratch = np.empty((rows, grid.blocks))
        self.loc = np.empty((grid.blocks, rows), dtype=np.int64)
        self.code = np.empty(rows, dtype=np.int64)
        self.buf = np.empty(widest * rows)

    def locate(self, u: np.ndarray) -> None:
        """Take the paths u, rows of block uniforms, as the current chunk."""
        _local_cells(self.grid, u, self.scratch[:u.shape[0]], self.loc[:, :u.shape[0]])


def _gather_sum(tables: _GatherTables, span: _SpanBuffers, out: np.ndarray) -> None:
    """Zero ``out``, then add every table read at the codes of the current chunk's paths.

    A part (rows, table) adds the table rows gathered at each path's code
    into ``out[rows]``, whose last axis holds the paths, in part order.
    Each combination forms its code once.
    """
    c = out.shape[-1]
    out.fill(0.0)
    loc = span.loc[:, :c]
    cells = span.grid.cells
    views = {}  # the gather buffer as a (lead..., c) array, reshaped once per lead shape
    for combo, parts in tables:
        if len(combo) == 1:
            code = loc[combo[0]]
        else:
            code = span.code[:c]
            if not combo:
                code.fill(0)
            else:
                np.multiply(loc[combo[0]], cells, out=code)
                code += loc[combo[1]]
                for b in combo[2:]:
                    code *= cells
                    code += loc[b]
        for rows, table in parts:
            lead = table.shape[:-1]
            buf = views.get(lead)
            if buf is None:
                buf = views[lead] = span.buf[:c * math.prod(lead)].reshape(lead + (c,))
            target = out[rows]
            # the codes are in range by construction; "wrap" writes straight
            # into its out, where the default "raise" fills a temporary first
            target += table.take(code, axis=-1, out=buf, mode="wrap")


def _integral_tables(kernels, grid: GridSpec) -> _GatherTables:
    """Gather tables whose gathered sum is the sum of the kernels' integrals.

    The integrals add up to the sum over r of r! times the distinct-block-set
    sum of A_r, where A_r adds (-1)^{n-r} 2^{r-n} C(n, r) times the
    (n - r)-fold marginal of each order-n kernel; all-zero kernels are
    skipped.  The block tables hold r! A_r and are folded by _fold.  The
    marginals are computed here, so their caches are filled before any
    evaluation thread starts.
    """
    arrays: dict[int, np.ndarray] = {}
    for kern in kernels:
        n = kern.order
        if not kern.values.any():
            continue
        for r in range(n + 1):
            term = (-1.0) ** (n - r) / 2.0 ** (n - r) * math.comb(n, r) * kern.marginal(r)
            arrays[r] = arrays[r] + term if r in arrays else term
    scaled = [(combo, [(None, math.factorial(r) * table) for _, table in parts])
              for r in sorted(arrays, reverse=True)
              for combo, parts in _block_tables(arrays[r], r, grid)]
    return _fold(scaled, grid.cells)


def _eval_block_sums(grid: GridSpec, tables: _GatherTables, u, lead: tuple = ()) -> np.ndarray:
    """The gathered table sum along each path (row of u), as a (lead..., paths) array.

    Runs over chunks of _chunk_paths paths, one entry per cell of a path when
    there is a lead, else one per block, cut into spans that each hold one
    set of buffers, possibly threaded; each chunk writes only its own paths,
    so the result does not depend on the thread count.
    """
    u = _path_matrix(grid, u)
    out = np.empty(lead + (u.shape[0],))
    chunk = _chunk_paths(grid, bool(lead))

    def work(lo: int, hi: int) -> None:
        span = _SpanBuffers(grid, min(chunk, hi - lo), tables)
        for a in range(lo, hi, chunk):
            b = min(a + chunk, hi)
            span.locate(u[a:b])
            _gather_sum(tables, span, out[..., a:b])

    rng.map_spans(u.shape[0], chunk, work)
    return out


def integral_eval_many(kernel: Kernel, u: np.ndarray) -> np.ndarray:
    """Multiple stochastic integral of the kernel along each path (row of u).

    Alternating sum over r of (-1)^{n-r} 2^{r-n} C(n, r) times the plain sum,
    over distinct block r-tuples, of the kernel with its remaining n - r
    coordinates integrated out.
    """
    return _eval_block_sums(kernel.grid, _integral_tables([kernel], kernel.grid), u)


def ustat_eval_many(kernel: Kernel, u: np.ndarray) -> np.ndarray:
    """Plain U-statistic: kernel summed at path points over distinct block tuples."""
    r = kernel.order
    tables = _fold(_block_tables(kernel.values, r, kernel.grid), kernel.grid.cells)
    return math.factorial(r) * _eval_block_sums(kernel.grid, tables, u)


def _to_paths(u: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) mapped in place to path values 2u - 1."""
    u *= 2.0
    u -= 1.0
    return u


def random_paths(seed: int, n_paths: int, blocks: int) -> np.ndarray:
    """Rows of path uniforms in [-1, 1), position-stable in the seed's stream
    (_to_paths maps a uniform of 0.0 to -1)."""
    return _to_paths(rng.uniform_matrix(seed, n_paths, blocks))


# -- kernel families ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KernelFamily:
    """A constant plus kernels of orders 1..N, representing their integral sum."""

    grid: GridSpec
    constant: float
    kernels: tuple[Kernel, ...]

    def __post_init__(self) -> None:
        kernels = tuple(self.kernels)
        for i, kern in enumerate(kernels):
            if kern.order != i + 1:
                raise ChaosError(f"kernel at slot {i} must have order {i + 1}")
            if kern.grid != self.grid:
                raise ChaosError("family kernels must share one grid")
        object.__setattr__(self, "constant", float(self.constant))
        object.__setattr__(self, "kernels", kernels)

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
        out = _eval_block_sums(self.grid, _integral_tables(self.kernels, self.grid), u)
        out += self.constant
        return out


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


def _derivative_tables(family: KernelFamily) -> _GatherTables:
    """Gather tables of the derivative and the negated inverse-OU derivative.

    Order j adds (j-1)! K_j, with K_j the block tables of kernel_j over its
    first j - 1 axes, into the negated inverse-OU derivative d_inv, and j
    times that into the derivative d.  The tables add into a target-major
    (cells, 2, paths) accumulator [d, d_inv]: each block table is the (M, 2,
    codes) stack [j (j-1)! K_j, (j-1)! K_j] along its middle axis, and _fold
    adds them up per column block.
    """
    grid = family.grid
    stacked = []
    for kern in reversed(family.kernels):
        if not kern.values.any():
            continue
        j = kern.order
        f = math.factorial(j - 1)
        stacked += [(combo, [(b, np.stack([j * f * table, f * table], axis=1))
                             for b, table in parts])
                    for combo, parts in _block_tables(kern.values, j - 1, grid)]
    return _fold(stacked, grid.cells)


def derivative_values_many(family: KernelFamily, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Finite-difference derivative along each path, and the negated
    derivative of the inverse-OU image, each a (paths, cells) view of one
    target-major (cells, 2, paths) array.

    Entry (p, t) of the derivative is sum over orders j of
    j * I_{j-1}(kernel_j(t, .)) at path p; the inverse-OU one has coefficient
    1 in place of j.  Requires a block-centered family, for which the
    correction term of the derivative vanishes.  The tests and the benchmark
    call it; ``stein_bound_terms`` gathers its own tables.
    """
    if not family.is_block_centered:
        raise ChaosError("derivative needs a block-centered family; apply block_center first")
    grid = family.grid
    acc = _eval_block_sums(grid, _derivative_tables(family), u, (grid.size, 2))
    return acc[:, 0].T, acc[:, 1].T


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


def _sd_with_se(x: np.ndarray) -> tuple[float, float]:
    """Sample standard deviation s and its delta-method standard error.

    se = sqrt((m4 - s^4) / n) / (2 s), with m4 the fourth central sample
    moment; both are 0 for fewer than two values or a constant sample.
    """
    n = x.size
    if n < 2:
        return 0.0, 0.0
    dev = x - x.mean()
    d2 = dev * dev
    var = float(d2.sum()) / (n - 1)
    if var == 0.0:
        return 0.0, 0.0
    # the squares squared in place: dev**4 pays a pow per element, and a BLAS
    # dot of d2 with itself starts its threads for one pass
    m4 = float(np.square(d2, out=d2).sum()) / n
    sd = math.sqrt(var)
    return sd, math.sqrt(max(m4 - var * var, 0.0) / n) / (2.0 * sd)


def _cell_sums(stack: np.ndarray, half_w: float) -> np.ndarray:
    """[half_w sum_t d_t d_inv_t, sum_t (d_t d_t)^2] over the M cells t of a
    stack shaped (..., M, 2, n) that holds [d, d_inv] per cell.

    Each sum adds the cells one after another in cell order (numpy's pairwise
    sum of a contiguous row would reorder them from 8 cells on), then the
    first is scaled.  Works in place: returns a (..., 2, n) view into the
    stack, whose first cell accumulates the others.
    """
    d, d_inv = stack[..., 0, :], stack[..., 1, :]
    d_inv *= d
    np.square(d, out=d)
    np.square(d, out=d)  # (d d)^2, as d**4 pays a pow per element
    sums = stack[..., 0, :, :]  # [fourth, inner] per cell, and the sums in cell 0
    for t in range(1, stack.shape[-3]):
        sums += stack[..., t, :, :]
    sums[..., 1, :] *= half_w
    return sums[..., ::-1, :]


def _stein_tables(family: KernelFamily) -> tuple[_GatherTables, _GatherTables]:
    """The bound's (reduced, gathered) tables, split from the derivative's.

    A target with one home, (M, 2, codes) over its combination, is reduced by
    _cell_sums to a (2, codes) table of its share of [inner, fourth] at each
    code; these add into a (2, paths) output in target order.  Every other
    target keeps its homes in the derivative's order, for the (cells, 2,
    paths) accumulator.
    """
    half_w = family.grid.cell_width / 2.0
    tables = _derivative_tables(family)
    homes = Counter(rows.start for _, parts in tables for rows, _ in parts)
    single, gathered = [], []
    for combo, parts in tables:
        for rows, table in parts:
            if homes[rows.start] == 1:
                sums = np.ascontiguousarray(_cell_sums(table.copy(), half_w))
                single.append((rows.start, combo, sums))
        several = [part for part in parts if homes[part[0].start] > 1]
        if several:
            gathered.append((combo, several))
    single.sort(key=lambda item: item[0])
    reduced = [(combo, [((), sums)]) for _, combo, sums in single]
    return reduced, gathered


def stein_bound_terms(family: KernelFamily, n_paths: int, seed: int) -> SteinBoundTerms:
    """Evaluate the three explicit bound terms for a centered block-centered family.

    The inner product <derivative, negated inverse-OU derivative> is computed
    exactly per path as a cell sum with the (dx/2) weight; only its variance
    and the fourth-moment integral are Monte Carlo averages over paths.

    A path's inner product and fourth-power sum add up per-target shares:
    each target sums its cells in cell order, then the targets with one home
    add in target order, then the others in target order.  The share of a
    target with one home depends only on that home's code, so it is read
    from a (2, codes) table reduced once (see _stein_tables), and the
    derivative itself is never formed for it.  A target with several homes
    (one over UNION_TABLE_BYTES) is gathered per path into the derivative's
    (cells, 2, paths) accumulator and reduced there by the same formula.
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
    reduced, gathered = _stein_tables(family)
    targets = sorted({rows.start // grid.cells for _, parts in gathered for rows, _ in parts})
    chunk = _chunk_paths(grid, bool(gathered))

    moments = np.empty((2, n_paths))  # per path, [inner, cell sum of derivative^4]

    def work(lo: int, hi: int) -> None:
        rows = min(chunk, hi - lo)
        span = _SpanBuffers(grid, rows, reduced + gathered)
        # only when used: an untouched one still raised the peak RSS
        acc = np.empty((grid.size, 2, rows)) if gathered else None
        # the rows of random_paths(seed, n_paths, grid.blocks), a chunk at a time
        for a, u in rng.uniform_chunks(seed, grid.blocks, lo, hi, chunk):
            c = u.shape[0]
            total = moments[:, a:a + c]
            span.locate(_to_paths(u))
            _gather_sum(reduced, span, total)
            if gathered:
                _gather_sum(gathered, span, acc[..., :c])
                sums = _cell_sums(acc[..., :c].reshape(grid.blocks, grid.cells, 2, c), half_w)
                for b in targets:
                    total += sums[b]

    rng.map_spans(n_paths, chunk, work)

    inner, fourth = moments
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

    Independent route to the isometry value: the one order-0 term of the
    expansion of I(f_i) I(f_j) is n! f_i *_n^n f_j for kernels of equal order n.
    """
    if not family.is_block_centered:
        raise ChaosError("product expansion needs block-centered kernels")
    total = family.constant**2
    for f in family.kernels:
        if not f.values.any():
            continue
        for g in family.kernels:
            if g.order == f.order and g.values.any():
                total += math.factorial(f.order) * float(contract(f, g, f.order, f.order))
    return total


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


# -- test fixtures -----------------------------------------------------------


def random_kernel(grid: GridSpec, order: int, seed: int, *, centered: bool = True) -> Kernel:
    """Deterministic random kernel: symmetrized noise, optionally block centered."""
    flat = rng.uniform_matrix(seed, 1, grid.size**order)[0] * 2.0 - 1.0
    kern = symmetrize(grid, order, flat.reshape((grid.size,) * order))
    return block_center(kern) if centered else kern
