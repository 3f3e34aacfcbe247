"""Deterministic chunked execution.

Work is split into chunks whose boundaries never depend on the worker count,
and results are combined in chunk order, so any worker count produces the
same output bytes. Workers are threads, as many as ``workers`` asks for
or one per CPU. The thread pool is imported only when more than one thread
will run, so a single-threaded command never loads ``concurrent.futures``
or the ``logging`` module it pulls in.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def resolve_workers(requested: int | None = None) -> int:
    """Worker count: the argument, else the cpu count."""
    value = (os.cpu_count() or 1) if requested is None else int(requested)
    if value < 1:
        raise ValueError("worker count must be at least 1")
    return value


def index_chunks(total: int, chunk_size: int) -> list[tuple[int, int]]:
    """[start, stop) ranges of at most chunk_size covering 0..total-1."""
    if chunk_size < 1:
        raise ValueError("chunk size must be at least 1")
    return [(s, min(s + chunk_size, total)) for s in range(0, total, chunk_size)]


def map_chunks(func: Callable[[T], R], chunks: Sequence[T], workers: int) -> list[R]:
    """Apply func to every chunk, returning results in chunk order.

    At most one thread per chunk and per CPU is started, whatever the
    requested worker count.
    """
    workers = min(workers, len(chunks), os.cpu_count() or 1)
    if workers <= 1:
        return [func(ch) for ch in chunks]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, chunks))
