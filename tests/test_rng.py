"""Deterministic chunked parallelism: every range runs once, whatever the thread count."""

import threading

import pytest

from wclt import rng


@pytest.mark.parametrize("threads", ["1", "2", "8"])
def test_every_range_runs_once(monkeypatch, threads):
    # 8 workers is more than the 5 ranges
    monkeypatch.setenv("WCLT_THREADS", threads)
    ranges = rng.chunk_ranges(23, 5)
    calls = []
    lock = threading.Lock()

    def work(lo, hi):
        with lock:
            calls.append((lo, hi))

    rng.map_chunks(work, ranges)
    assert sorted(calls) == ranges
    assert len(ranges) == 5


@pytest.mark.parametrize("threads", ["1", "2"])
def test_empty_range_list_does_nothing(monkeypatch, threads):
    monkeypatch.setenv("WCLT_THREADS", threads)
    calls = []
    rng.map_chunks(lambda lo, hi: calls.append((lo, hi)), [])
    assert calls == []


@pytest.mark.parametrize("threads", ["1", "2"])
def test_exception_in_work_reaches_caller(monkeypatch, threads):
    monkeypatch.setenv("WCLT_THREADS", threads)

    def work(lo, hi):
        if lo == 10:
            raise ArithmeticError(f"range {lo}..{hi}")

    with pytest.raises(ArithmeticError, match="range 10..15"):
        rng.map_chunks(work, rng.chunk_ranges(23, 5))
