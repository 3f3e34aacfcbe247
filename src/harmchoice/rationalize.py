"""Explaining a choice with distortions of a single base order.

An explanation assigns to every menu a distortion index of the base order
whose maximizer reproduces the observed pick. The canonical assignment
(count of alternatives globally above the pick) always works, which is why
the per-order minimal worst index is well defined.

The central quantity is the minimal distortion index of a (menu, pick, order)
triple: demoting the top block down to just past the lowest-ranked menu member
sitting above the pick is both necessary and sufficient, so the minimal index
is 1 + max(position of members above the pick), or 0 when none are above.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .core import ChoiceFunction, LinearOrder, distortion_picks


def distortion_max_tables(order: LinearOrder) -> np.ndarray:
    """tab[i, mask]: the pick a maximizer of the i-th distortion makes.

    Column 0 (the empty menu) stays -1. Each call builds a fresh read-only
    table.
    """
    tabs = np.stack([distortion_picks(order, i) for i in range(order.n)])
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
        indices = tuple(operator.index(i) for i in self.indices)
        object.__setattr__(self, "indices", indices)
        if len(indices) != (1 << n) - 1:
            raise ValueError("need one index per nonempty menu")
        if any(not 0 <= i <= n - 1 for i in indices):
            raise ValueError("distortion indices must lie in 0..n-1")


def canonical_rationalization(
    c: ChoiceFunction, order: LinearOrder
) -> SelfPunishmentRationalization:
    """The always-valid assignment: each menu gets the global count of
    alternatives ranked above its pick.

    Demoting exactly that many leaves the pick on top of everything it lost
    to, so the assignment validates for every choice and base order. The
    indices are not menu-minimal.
    """
    pos = np.argsort(order.ranking)
    indices = tuple(pos[c.picks_array[1:]].tolist())
    return SelfPunishmentRationalization(base=order, indices=indices)


def validate_rationalization(c: ChoiceFunction, r: SelfPunishmentRationalization) -> bool:
    """True when every menu's pick maximizes its assigned distortion."""
    if c.n != r.base.n:
        return False
    indices = np.array((0,) + r.indices, dtype=np.int64)
    return bool(np.array_equal(distortion_picks(r.base, indices), c.picks_array))


def min_max_index(c: ChoiceFunction, order: LinearOrder) -> int:
    """Worst menu's smallest feasible distortion index for this base order.

    Menus are independent, so taking each menu's smallest feasible index
    realizes the minimum over whole assignments of the largest index used.
    A menu's smallest index is 1 + the position of its lowest-ranked member
    above the pick, or 0 if none is above it. So the alternative at position
    k forces index k + 1 exactly when some menu holding it (an upper half of
    the table of pick positions, read as in :mod:`harmchoice.core`) picks an
    alternative ranked below k; the largest such k sets the result.
    """
    if c.n != order.n:
        raise ValueError("choice and order live on different ground sets")
    pick_pos = np.argsort(order.ranking).astype(np.int8)[c.picks_array]
    for k in range(c.n - 2, -1, -1):
        if (pick_pos.reshape(-1, 2, 1 << order.ranking[k])[:, 1] > k).any():
            return k + 1
    return 0
