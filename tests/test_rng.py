"""Position-stable uniform streams, and deterministic span parallelism:
every span of whole chunks runs once, whatever the thread count."""

import threading
from concurrent import futures

import numpy as np
import pytest

from wclt import cli, rng


@pytest.mark.parametrize("start", [40, 41, 42, 43])
def test_stream_read_forward_matches_fresh_slices(start):
    # one generator placed at start, read in several draws, for each start % 4
    stream = rng.uniform_stream(5, start)
    position = start
    for count in (1, 3, 4, 7, 0, 13):
        drawn = stream.random(count)
        assert drawn.tobytes() == rng.uniform_stream(5, position).random(count).tobytes()
        position += count


def test_matrix_from_stream_into_buffer_matches_fresh_matrix():
    cols, buffer = 45, np.empty((3, 45))
    stream = rng.uniform_stream(8, 2 * cols)
    for first_row, rows in ((2, 3), (5, 1), (6, 2)):
        got = rng.uniform_matrix(8, rows, cols, first_row=first_row, stream=stream,
                                 out=buffer[:rows])
        assert np.shares_memory(got, buffer)
        assert got.tobytes() == rng.uniform_matrix(8, rows, cols, first_row=first_row).tobytes()


def test_negative_position_refused():
    with pytest.raises(ValueError, match="nonnegative"):
        rng.uniform_stream(1, -1)


def _record(monkeypatch, threads, total, chunk):
    """Per thread, the spans map_spans ran there, in the order it ran them."""
    monkeypatch.setenv("WCLT_THREADS", threads)
    calls: dict[int, list] = {}
    lock = threading.Lock()

    def work(lo, hi):
        with lock:
            calls.setdefault(threading.get_ident(), []).append((lo, hi))

    rng.map_spans(total, chunk, work)
    return calls


@pytest.mark.parametrize("threads", ["1", "2", "8"])
def test_every_range_runs_once(monkeypatch, threads):
    # 8 workers is more than the 5 chunks of 23 rows
    calls = _record(monkeypatch, threads, 23, 5)
    spans = sorted(span for run in calls.values() for span in run)
    assert len(spans) == min(int(threads), 5)
    # the spans tile [0, 23) in order, each one whole chunks
    assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
    assert spans[-1][1] == 23
    assert all(lo % 5 == 0 for lo, _ in spans)
    assert len(calls) <= len(spans)


@pytest.mark.parametrize("threads", ["1", "2", "8"])
def test_one_task_per_worker(monkeypatch, threads):
    submitted = []
    original = futures.ThreadPoolExecutor.submit

    def submit(self, fn, *args):
        submitted.append(args)
        return original(self, fn, *args)

    monkeypatch.setattr(futures.ThreadPoolExecutor, "submit", submit)
    calls = _record(monkeypatch, threads, 100, 7)
    workers = int(threads)
    assert len(submitted) == (0 if workers == 1 else workers)
    # each task is one span, submitted in order
    spans = sorted(span for run in calls.values() for span in run)
    assert submitted == (spans if workers > 1 else [])


@pytest.mark.parametrize("threads", ["1", "2", "8"])
def test_empty_range_list_does_nothing(monkeypatch, threads):
    assert _record(monkeypatch, threads, 0, 5) == {}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_exception_in_work_reaches_caller(monkeypatch, threads):
    monkeypatch.setenv("WCLT_THREADS", threads)

    def work(lo, hi):
        if hi == 23:
            raise ArithmeticError(f"span {lo}..{hi}")

    last = "0..23" if threads == "1" else "10..23"
    with pytest.raises(ArithmeticError, match=f"span {last}"):
        rng.map_spans(23, 5, work)


@pytest.mark.parametrize("total, chunk, parts, spans", [
    (23, 5, 1, [(0, 23)]),
    (23, 5, 2, [(0, 10), (10, 23)]),
    (23, 5, 3, [(0, 5), (5, 15), (15, 23)]),
    (23, 5, 8, [(0, 5), (5, 10), (10, 15), (15, 20), (20, 23)]),
    (0, 5, 2, []),
])
def test_chunk_spans_hold_whole_chunks(monkeypatch, total, chunk, parts, spans):
    calls = _record(monkeypatch, str(parts), total, chunk)
    assert sorted(span for run in calls.values() for span in run) == spans


def test_uniform_chunks_match_fresh_matrices():
    # lo = 7 is not a multiple of the Philox block, and 4 does not divide 18
    cols, lo, hi, chunk = 5, 7, 25, 4
    starts, first = [], None
    for a, u in rng.uniform_chunks(11, cols, lo, hi, chunk):
        c = min(chunk, hi - a)
        assert u.tobytes() == rng.uniform_matrix(11, c, cols, first_row=a).tobytes()
        first = u if first is None else first
        assert np.shares_memory(u, first)
        starts.append(a)
    assert starts == list(range(lo, hi, chunk))


def test_thread_cap(monkeypatch):
    monkeypatch.setenv("WCLT_THREADS", str(rng.MAX_THREADS))
    assert rng.thread_count() == rng.MAX_THREADS
    monkeypatch.setenv("WCLT_THREADS", str(rng.MAX_THREADS + 1))
    with pytest.raises(ValueError, match=f"capped at {rng.MAX_THREADS}"):
        rng.thread_count()


def test_cli_refuses_thread_count_above_cap_before_any_work(monkeypatch, capsys):
    # in process, with every way to start a thread or sample refused
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(cli, "normalized_samples", refuse)
    monkeypatch.setenv("WCLT_THREADS", "100000")
    code = cli.main(["rate-sweep", "--pattern", "cycle:4", "--weights", "exp:1",
                     "--sweep-n", "8", "--p", "0.5", "--reps", "1000000", "--seed", "1"])
    assert code == cli.EXIT_USAGE
    assert f"WCLT_THREADS is capped at {rng.MAX_THREADS}, got 100000" in capsys.readouterr().err
