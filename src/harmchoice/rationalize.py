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

from dataclasses import dataclass

import numpy as np

from .core import ChoiceFunction, LinearOrder, distortion_picks, move_bits


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
        if len(self.indices) != (1 << n) - 1:
            raise ValueError("need one index per nonempty menu")
        if any(not 0 <= i <= n - 1 for i in self.indices):
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
    indices = np.array((0,) + r.indices, dtype=np.int64)
    return bool(np.array_equal(distortion_picks(r.base, indices), c.picks_array))


def min_max_index(c: ChoiceFunction, order: LinearOrder) -> int:
    """Worst menu's smallest feasible distortion index for this base order.

    Menus are independent, so taking each menu's smallest feasible index
    realizes the minimum over whole assignments of the largest index used.
    That index is the bit length of the menu's position mask (bit k for a
    member at position k of the order) cut below the pick's position.
    """
    if c.n != order.n:
        raise ValueError("choice and order live on different ground sets")
    pos = np.argsort(np.asarray(order.ranking))
    at = move_bits(np.arange(1, 1 << c.n), pos)
    above = at & ((1 << pos[c.picks_array[1:]]) - 1)
    return int(np.frexp(above)[1].max())
