"""Explaining a choice with distortions of a single base order.

An explanation assigns to every menu a distortion index of the base order
whose maximizer reproduces the observed pick. The canonical assignment
(count of alternatives globally above the pick) always works, which is why
the per-order minimal worst index is well defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import ChoiceFunction, LinearOrder, Menu, fill_best
from .distortion import harmful_distortion


@lru_cache(maxsize=4096)
def distortion_max_tables(order: LinearOrder) -> np.ndarray:
    """tab[i, mask]: the pick a maximizer of the i-th distortion makes.

    Column 0 (the empty menu) stays -1. The result is cached and read-only.
    """
    n = order.n
    tabs = np.full((n, 1 << n), -1, dtype=np.int16)
    for i in range(n):
        fill_best(tabs[i], harmful_distortion(order, i).ranking)
    tabs.setflags(write=False)
    return tabs


@dataclass(frozen=True)
class SelfPunishmentRationalization:
    """Per-menu distortion indices of a base order explaining some choice.

    ``indices[mask - 1]`` is the index used for the menu with that bitmask;
    the distorted orders themselves are re-derived on demand.
    """

    base: LinearOrder
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.base.n
        if len(self.indices) != (1 << n) - 1:
            raise ValueError("need one index per nonempty menu")
        if any(not 0 <= i <= n - 1 for i in self.indices):
            raise ValueError("distortion indices must lie in 0..n-1")

    def index_for(self, menu: Menu) -> int:
        return self.indices[menu.mask - 1]

    @property
    def max_index(self) -> int:
        return max(self.indices)


def canonical_rationalization(
    c: ChoiceFunction, order: LinearOrder
) -> SelfPunishmentRationalization:
    """The always-valid assignment: each menu gets the global count of
    alternatives ranked above its pick.

    Demoting exactly that many leaves the pick on top of everything it lost
    to, so the assignment validates for every choice and base order. The
    indices are not menu-minimal.
    """
    n = order.n
    pos = np.empty(n, dtype=np.int64)
    pos[list(order.ranking)] = np.arange(n)
    picks = c.picks_array[1:]
    return SelfPunishmentRationalization(
        base=order, indices=tuple(int(pos[p]) for p in picks)
    )


def validate_rationalization(c: ChoiceFunction, r: SelfPunishmentRationalization) -> bool:
    """True when every menu's pick maximizes its assigned distortion."""
    if c.n != r.base.n:
        return False
    tabs = distortion_max_tables(r.base)
    idx = np.asarray(r.indices, dtype=np.int64)
    masks = np.arange(1, 1 << c.n, dtype=np.int64)
    return bool(np.array_equal(tabs[idx, masks], c.picks_array[1:]))


def min_max_index(c: ChoiceFunction, order: LinearOrder) -> int:
    """Worst menu's smallest feasible distortion index for this base order.

    Menus are independent, so evaluating all n distortions per menu and
    taking the smallest feasible index each time realizes the minimum over
    whole assignments of the largest index used.
    """
    if c.n != order.n:
        raise ValueError("choice and order live on different ground sets")
    tabs = distortion_max_tables(order)
    feasible = tabs[:, 1:] == c.picks_array[None, 1:]
    if not feasible.any(axis=0).all():
        raise RuntimeError("some menu has no feasible distortion; this cannot happen")
    return int(np.argmax(feasible, axis=0).max())
