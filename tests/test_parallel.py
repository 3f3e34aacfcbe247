"""Chunking and worker-resolution helpers."""

import concurrent.futures

import pytest

from harmchoice import _parallel
from harmchoice._parallel import index_chunks, map_chunks, resolve_workers


def test_index_chunks_cover_range():
    chunks = index_chunks(10, 3)
    assert chunks == [(0, 3), (3, 6), (6, 9), (9, 10)]
    assert index_chunks(0, 5) == []


def test_index_chunks_bad_size():
    with pytest.raises(ValueError):
        index_chunks(5, 0)


def test_map_chunks_preserves_order():
    chunks = list(range(20))
    for workers in (1, 2, 8):
        assert map_chunks(lambda x: x * x, chunks, workers) == [x * x for x in chunks]


def test_map_chunks_caps_threads_at_chunks_and_cpus(monkeypatch):
    """The pool never gets more threads than chunks or CPUs; none are started here."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, chunks):
            return map(func, chunks)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 4)
    chunks = list(range(10))
    assert map_chunks(lambda x: -x, chunks, 100_000) == [-x for x in chunks]
    assert map_chunks(lambda x: -x, chunks[:3], 100_000) == [0, -1, -2]
    assert map_chunks(lambda x: -x, chunks, 2) == [-x for x in chunks]
    assert sizes == [4, 3, 2]
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: None)
    assert map_chunks(lambda x: -x, chunks, 100_000) == [-x for x in chunks]
    assert sizes == [4, 3, 2]


def test_resolve_workers_validation(monkeypatch):
    assert resolve_workers(8) == 8
    for bad in (0, -1):
        with pytest.raises(ValueError):
            resolve_workers(bad)
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 3)
    assert resolve_workers() == 3
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: None)
    assert resolve_workers() == 1
