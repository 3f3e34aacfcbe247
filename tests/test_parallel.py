"""Chunking and worker-resolution helpers."""

import threading

import numpy as np
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


def test_map_chunks_runs_in_calling_thread_in_order():
    """Every chunk runs on the caller's thread, one after another, in chunk
    order, whatever worker count is passed."""
    for workers in (1, 2, 8):
        calls = []

        def func(x):
            calls.append((x, threading.get_ident()))
            return -x

        chunks = list(range(10))
        assert map_chunks(func, chunks, workers) == [-x for x in chunks]
        assert calls == [(x, threading.get_ident()) for x in chunks]


def test_resolve_workers_validation(monkeypatch):
    assert resolve_workers(8) == 8
    assert resolve_workers(np.int64(2)) == 2
    for bad in (0, -1):
        with pytest.raises(ValueError):
            resolve_workers(bad)
    for bad in (2.7, 2.0, "3", np.float64(2.0)):
        with pytest.raises(TypeError):
            resolve_workers(bad)
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 3)
    assert resolve_workers() == 3
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: None)
    assert resolve_workers() == 1
