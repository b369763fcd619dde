"""Counter-based uniform streams and deterministic chunked parallelism.

Every random input in the package is a slice of a single Philox stream keyed
by the user seed, addressed by (row, column) position.  Slicing is
position-stable, so splitting work across replicate chunks or threads cannot
change a single drawn value.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator

import numpy as np

# One Philox counter increment yields four 64-bit outputs (four doubles).
_BLOCK = 4

# Largest accepted WCLT_THREADS.  Each worker holds its own chunk buffers, and
# a pool never has more threads than work units, so a worker count far above
# the cores only costs thread starts.
MAX_THREADS = 256

SEED_BOUND = 1 << 128  # a seed is a Philox key, which has 128 bits


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


def uniform_matrix(seed: int, rows: int, cols: int, first_row: int = 0, *,
                   stream: np.random.Generator | None = None,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Rows ``first_row .. first_row + rows`` of the (row, item) uniform table.

    Row r, column c holds stream value r * cols + c, so a batched call and a
    sequence of single-row calls produce bit-identical numbers.  ``stream``,
    when given, is a generator from ``uniform_stream(seed, ...)`` read forward
    to value first_row * cols, and ``out`` a C-contiguous (rows, cols) array
    that receives the values; ``uniform_chunks`` passes both.
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


def uniform_chunks(seed: int, cols: int, lo: int, hi: int,
                   chunk: int) -> Iterator[tuple[int, np.ndarray]]:
    """(a, rows a .. a + c of the (row, item) uniform table) for each chunk of
    rows lo .. hi, ``chunk`` at a time.

    One Philox stream is positioned at row lo and read forward, and each
    chunk's rows refill one buffer in place, so a yielded array is
    overwritten by the next chunk.
    """
    stream = uniform_stream(seed, lo * cols)
    buffer = np.empty((min(chunk, hi - lo), cols))
    for a in range(lo, hi, chunk):
        c = min(chunk, hi - a)
        yield a, uniform_matrix(seed, c, cols, a, stream=stream, out=buffer[:c])


def map_spans(total: int, chunk: int, work: Callable[[int, int], None]) -> None:
    """Run ``work(lo, hi)`` over spans of [0, total), possibly threaded.

    [0, total) is cut into chunks of ``chunk`` rows, and the chunks, in
    order, into at most thread_count() contiguous spans whose chunk counts
    differ by at most one.  One span runs inline; otherwise each span is one
    pool task.  ``work`` must write only into the output rows [lo, hi), which
    keeps the result independent of scheduling order and thread count.
    """
    chunk = max(1, chunk)
    chunks = -(-total // chunk)
    parts = min(thread_count(), chunks)
    spans = [(i * chunks // parts * chunk, min((i + 1) * chunks // parts * chunk, total))
             for i in range(parts)]
    if len(spans) <= 1:
        for lo, hi in spans:
            work(lo, hi)
        return
    with ThreadPoolExecutor(max_workers=len(spans)) as pool:
        futures = [pool.submit(work, lo, hi) for lo, hi in spans]
        for fut in futures:
            fut.result()
