"""Counter-based uniform streams and deterministic chunked parallelism.

Every random input in the package is a slice of a single Philox stream keyed
by the user seed, addressed by (row, column) position.  Slicing is
position-stable, so splitting work across replicate chunks or threads cannot
change a single drawn value.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

# One Philox counter increment yields four 64-bit outputs (four doubles).
_BLOCK = 4


def uniform_slice(seed: int, start: int, count: int) -> np.ndarray:
    """Values [start, start + count) of the uniform stream keyed by ``seed``."""
    if seed < 0 or start < 0 or count < 0:
        raise ValueError("seed, start and count must be nonnegative")
    bit_gen = np.random.Philox(key=seed)
    bit_gen.advance(start // _BLOCK)
    gen = np.random.Generator(bit_gen)
    skip = start % _BLOCK
    if skip:
        gen.random(skip)
    return gen.random(count)


def uniform_matrix(seed: int, rows: int, cols: int, first_row: int = 0) -> np.ndarray:
    """Rows ``first_row .. first_row + rows`` of the (row, item) uniform table.

    Row r, column c holds stream value r * cols + c, so a batched call and a
    sequence of single-row calls produce bit-identical numbers.
    """
    flat = uniform_slice(seed, first_row * cols, rows * cols)
    return flat.reshape(rows, cols)


def thread_count() -> int:
    """Worker cap from WCLT_THREADS (default 1; results never depend on it)."""
    raw = os.environ.get("WCLT_THREADS", "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"WCLT_THREADS must be a positive integer, got {raw!r}")
    return value


def chunk_ranges(total: int, chunk: int) -> list[tuple[int, int]]:
    chunk = max(1, chunk)
    return [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]


def map_chunks(work: Callable[[int, int], None], ranges: Sequence[tuple[int, int]]) -> None:
    """Run ``work(lo, hi)`` over ranges, possibly threaded.

    ``work`` must write only into the output slice [lo, hi), which keeps the
    result independent of scheduling order and thread count.
    """
    workers = min(thread_count(), len(ranges))
    if workers <= 1:
        for lo, hi in ranges:
            work(lo, hi)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(work, lo, hi) for lo, hi in ranges]
        for fut in futures:
            fut.result()
