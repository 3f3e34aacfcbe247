"""Deterministic chunked execution.

Work is split into chunks whose boundaries never depend on the worker count,
and the chunks run one after another on the calling thread, so any worker
count produces the same output bytes. The worker count is checked and kept
for the record; no thread is started.
"""

from __future__ import annotations

import operator
import os
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def resolve_workers(requested: int | None = None) -> int:
    """Worker count: the argument, which must be an integer of at least 1,
    else the cpu count."""
    value = (os.cpu_count() or 1) if requested is None else operator.index(requested)
    if value < 1:
        raise ValueError("worker count must be at least 1")
    return value


def index_chunks(total: int, chunk_size: int) -> list[tuple[int, int]]:
    """[start, stop) ranges of at most chunk_size covering 0..total-1."""
    if chunk_size < 1:
        raise ValueError("chunk size must be at least 1")
    return [(s, min(s + chunk_size, total)) for s in range(0, total, chunk_size)]


def map_chunks(func: Callable[[T], R], chunks: Sequence[T], workers: int) -> list[R]:
    """Apply func to every chunk on the calling thread, in chunk order.

    ``workers`` does not change what runs: the chunks' small numpy calls
    hold the interpreter lock, so threads would gain no time and would keep
    several chunks' temporaries alive at once.
    """
    return [func(ch) for ch in chunks]
