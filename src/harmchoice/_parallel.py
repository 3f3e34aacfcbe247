"""Deterministic chunked execution.

Work is split into chunks whose boundaries never depend on the worker count,
and results are combined in chunk order, so any worker count produces the
same output bytes. Workers are threads.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

ENV_WORKERS = "HARMCHOICE_WORKERS"

T = TypeVar("T")
R = TypeVar("R")


def resolve_workers(requested: int | None = None) -> int:
    """Worker count: HARMCHOICE_WORKERS beats the argument beats cpu count."""
    env = os.environ.get(ENV_WORKERS, "").strip()
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"{ENV_WORKERS} must be an integer, got {env!r}") from None
    elif requested is not None:
        value = int(requested)
    else:
        value = os.cpu_count() or 1
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
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, chunks))
