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

# Largest accepted WCLT_THREADS.  Each worker holds its own chunk buffers, and
# a pool never has more threads than work units, so a worker count far above
# the cores only costs thread starts.
MAX_THREADS = 256


def uniform_stream(seed: int, start: int) -> np.random.Generator:
    """A generator whose draws, read forward, are values start, start + 1, ...
    of the uniform stream keyed by ``seed``."""
    if seed < 0 or start < 0:
        raise ValueError("seed and start must be nonnegative")
    bit_gen = np.random.Philox(key=seed)
    bit_gen.advance(start // _BLOCK)
    gen = np.random.Generator(bit_gen)
    skip = start % _BLOCK
    if skip:
        gen.random(skip)
    return gen


def uniform_slice(seed: int, start: int, count: int) -> np.ndarray:
    """Values [start, start + count) of the uniform stream keyed by ``seed``."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    return uniform_stream(seed, start).random(count)


def uniform_matrix(seed: int, rows: int, cols: int, first_row: int = 0, *,
                   stream: np.random.Generator | None = None,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Rows ``first_row .. first_row + rows`` of the (row, item) uniform table.

    Row r, column c holds stream value r * cols + c, so a batched call and a
    sequence of single-row calls produce bit-identical numbers.  ``stream``,
    when given, is a generator from ``uniform_stream(seed, ...)`` read forward
    to value first_row * cols; a caller that walks consecutive row blocks
    passes one and positions Philox once.  ``out``, when given, is a
    C-contiguous (rows, cols) array that receives the values.
    """
    if stream is None:
        stream = uniform_stream(seed, first_row * cols)
    return stream.random((rows, cols), out=out)


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
    if value > MAX_THREADS:
        raise ValueError(f"WCLT_THREADS is capped at {MAX_THREADS}, got {value}")
    return value


def chunk_ranges(total: int, chunk: int) -> list[tuple[int, int]]:
    chunk = max(1, chunk)
    return [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]


def _contiguous_runs(ranges: Sequence[tuple[int, int]],
                     parts: int) -> list[Sequence[tuple[int, int]]]:
    """The ranges cut, in order, into at most ``parts`` nonempty runs whose
    lengths differ by at most one."""
    k = len(ranges)
    parts = min(parts, k)
    return [ranges[i * k // parts:(i + 1) * k // parts] for i in range(parts)]


def chunk_spans(total: int, chunk: int, parts: int) -> list[tuple[int, int]]:
    """[0, total) cut into at most ``parts`` contiguous spans of whole chunks."""
    return [(run[0][0], run[-1][1])
            for run in _contiguous_runs(chunk_ranges(total, chunk), parts)]


def map_chunks(work: Callable[[int, int], None], ranges: Sequence[tuple[int, int]]) -> None:
    """Run ``work(lo, hi)`` over ranges, possibly threaded.

    Each worker is one pool task that runs a contiguous run of the ranges in
    increasing order.  ``work`` must write only into the output slice
    [lo, hi), which keeps the result independent of scheduling order and
    thread count.
    """
    def run_all(run: Sequence[tuple[int, int]]) -> None:
        for lo, hi in run:
            work(lo, hi)

    runs = _contiguous_runs(ranges, thread_count())
    if len(runs) <= 1:
        run_all(ranges)
        return
    with ThreadPoolExecutor(max_workers=len(runs)) as pool:
        futures = [pool.submit(run_all, run) for run in runs]
        for fut in futures:
            fut.result()
