"""Ground sets, menus, linear orders, and total choice functions.

Alternatives carry dense integer ids 0..n-1 assigned in ground-set label
order. A menu is a nonempty subset of ids, canonicalized to a sorted member
tuple; it also has a bitmask form (bit ``e`` set iff id ``e`` is a member),
which is how choice functions index their picks internally. All types are
immutable values, safe to share across threads; a choice function builds
its pick counts on first read and keeps them.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    DatasetWarning,
    DuplicateMenu,
    GroundSetTooLarge,
    MissingMenu,
    PickNotInMenu,
    _shown,
)

#: Menu-enumerating operations refuse ground sets above this size.
MAX_ENUM_N = 20

#: Steps that run over all 2**n menus take at most this many at a time, so
#: their temporaries stay a fixed size however large n is.
MENU_BLOCK = 1 << 14


def require_enumerable(n: int) -> None:
    """Reject ground-set sizes for which 2**n - 1 menus cannot be handled."""
    if n < 1:
        raise ValueError("ground set needs at least one alternative")
    if n > MAX_ENUM_N:
        raise GroundSetTooLarge(
            f"operations over all menus are capped at n <= {MAX_ENUM_N}, got n = {n}"
        )


@dataclass(frozen=True)
class GroundSet:
    """Finite labeled universe of alternatives."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise ValueError("ground set needs at least one alternative")
        if any(not isinstance(lab, str) or not lab for lab in labels):
            raise ValueError("labels must be nonempty strings")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be pairwise distinct")

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown alternative {_shown(repr(label))}") from None

    def label(self, alt: int) -> str:
        return self.labels[alt]


@dataclass(frozen=True)
class Menu:
    """Nonempty set of alternative ids, canonicalized to a sorted tuple."""

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        members = tuple(sorted(self.members))
        if not members:
            raise ValueError("a menu must be nonempty")
        if members[0] < 0:
            raise ValueError("alternative ids are nonnegative")
        if len(set(members)) != len(members):
            raise ValueError("menu members must be distinct")
        object.__setattr__(self, "members", members)

    @classmethod
    def from_mask(cls, mask: int) -> "Menu":
        if mask <= 0:
            raise ValueError("menu bitmask must be positive")
        return cls(tuple(e for e in range(mask.bit_length()) if (mask >> e) & 1))

    @property
    def mask(self) -> int:
        m = 0
        for e in self.members:
            m |= 1 << e
        return m

    @property
    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.members), self.members)

    def label_list(self, ground: GroundSet) -> list[str]:
        return [ground.label(e) for e in self.members]

    def to_text(self, ground: GroundSet) -> str:
        """Members in id order: ``{a, b}``."""
        return "{" + ", ".join(self.label_list(ground)) + "}"

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, alt: object) -> bool:
        return alt in self.members


@dataclass(frozen=True)
class LinearOrder:
    """Strict total order on 0..n-1, stored best-to-worst."""

    ranking: tuple[int, ...]

    def __post_init__(self) -> None:
        ranking = tuple(int(e) for e in self.ranking)
        object.__setattr__(self, "ranking", ranking)
        if sorted(ranking) != list(range(len(ranking))):
            raise ValueError("ranking must be a permutation of 0..n-1")

    @property
    def n(self) -> int:
        return len(self.ranking)

    def label_list(self, ground: GroundSet) -> list[str]:
        return [ground.label(e) for e in self.ranking]

    def to_text(self, ground: GroundSet) -> str:
        """Best first: ``a > b > c``."""
        return " > ".join(self.label_list(ground))


class ChoiceFunction:
    """Total map assigning to every nonempty menu one of its members.

    Picks are stored in a flat read-only array indexed by menu bitmask
    (entry 0 is unused). Exactly the 2**n - 1 nonempty menus are defined.
    """

    __slots__ = ("_n", "_picks", "_counts")

    def __init__(self, n: int, picks: np.ndarray | Iterable[int]):
        require_enumerable(n)
        arr = np.array(picks, dtype=np.int16, copy=True)
        if arr.shape != (1 << n,):
            raise ValueError(f"picks array must have length 2**{n}")
        arr[0] = -1
        vals = arr[1:]
        if ((vals < 0) | (vals >= n)).any():
            raise ValueError("every menu needs a pick in 0..n-1")
        for lo in range(1, 1 << n, MENU_BLOCK):
            hi = min(lo + MENU_BLOCK, 1 << n)
            if (((np.arange(lo, hi) >> arr[lo:hi]) & 1) == 0).any():
                raise ValueError("some pick is not a member of its menu")
        arr.setflags(write=False)
        self._n = n
        self._picks = arr
        self._counts: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self._n

    @property
    def picks_array(self) -> np.ndarray:
        """Read-only picks indexed by menu bitmask; entry 0 is -1."""
        return self._picks

    @property
    def pick_counts(self) -> np.ndarray:
        """Read-only N, where N[p, q] is the number of menus that contain q
        and pick p; built on first read and kept.

        It holds the revealed relation and the reversal count. Two threads
        that race on the first read build equal arrays, and either is kept.
        """
        if self._counts is None:
            n = self._n
            picks = self._picks[1:]
            masks = np.arange(1, 1 << n, dtype=np.int64)
            counts = np.empty((n, n), dtype=np.int64)
            for q in range(n):
                counts[:, q] = np.bincount(picks[(masks >> q) & 1 == 1], minlength=n)
            counts.setflags(write=False)
            self._counts = counts
        return self._counts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChoiceFunction):
            return NotImplemented
        return self._n == other._n and np.array_equal(self._picks, other._picks)

    def __hash__(self) -> int:
        return hash((self._n, self._picks.tobytes()))

    def __repr__(self) -> str:
        return f"ChoiceFunction(n={self._n})"


@lru_cache(maxsize=None)
def menu_order(n: int) -> np.ndarray:
    """Bitmasks of all nonempty menus in canonical order: by size, then by
    member ids. A menu's index here is its canonical position; the array is
    cached and read-only.

    Among menus of one size, the smaller member tuple has the larger
    reversed mask. So the values 2**n - 1 down to 1, read as reversed masks
    and grouped by bit count, are the menus in canonical order; the order
    is built one size class at a time, with no 2**n-wide key or sort.
    """
    require_enumerable(n)
    reversed_masks = np.arange((1 << n) - 1, 0, -1, dtype=np.int32)
    sizes = np.bitwise_count(reversed_masks)
    order = np.empty(reversed_masks.size, dtype=np.int64)
    start = 0
    for size in range(1, n + 1):
        masks = move_bits(reversed_masks[sizes == size], range(n - 1, -1, -1))
        order[start : start + masks.size] = masks
        start += masks.size
    order.setflags(write=False)
    return order


def all_menu_masks(n: int) -> tuple[int, ...]:
    """Bitmasks of all nonempty menus, sorted by size then by member ids."""
    return tuple(menu_order(n).tolist())


def move_bits(masks: np.ndarray, to: Iterable[int]) -> np.ndarray:
    """``masks`` (below 2**20) with each bit ``b`` moved to bit ``to[b]``,
    looked up in one table for the low and one for the high 10 bits."""
    half = np.arange(1 << 10)
    low, high = np.zeros((2, 1 << 10), dtype=np.int64)
    for b, e in enumerate(to):
        table = low if b < 10 else high
        table[(half >> (b % 10)) & 1 == 1] |= 1 << int(e)
    return low[masks & 1023] | high[masks >> 10]


def distortion_picks(order: LinearOrder, indices: int | np.ndarray) -> np.ndarray:
    """Picks indexed by menu bitmask (entry 0 is -1) of a chooser who, in
    each menu, maximizes the ``indices``-th harmful distortion of ``order``;
    ``indices`` is one index in 0..n-1, or one per bitmask. The bitmasks are
    taken :data:`MENU_BLOCK` at a time."""
    n = order.n
    require_enumerable(n)
    picks = np.empty(1 << n, dtype=np.int16)
    for lo in range(0, 1 << n, MENU_BLOCK):
        hi = min(lo + MENU_BLOCK, 1 << n)
        block_indices = indices if np.ndim(indices) == 0 else indices[lo:hi]
        picks[lo:hi] = distortion_block(order, np.arange(lo, hi), block_indices)
    picks[0] = -1
    return picks


def distortion_block(
    order: LinearOrder, masks: np.ndarray, indices: int | np.ndarray
) -> np.ndarray:
    """The ``int16`` pick from each nonempty menu of ``masks`` of a chooser
    who maximizes the ``indices``-th harmful distortion of ``order``, one
    index for all menus or one per menu.

    Each menu becomes the mask of its members' positions in the order, best
    at bit 0. The i-th distortion ranks positions i.. first, best first,
    then the demoted top block worst first; frexp's exponent is the bit
    length.
    """
    ranking = np.asarray(order.ranking, dtype=np.int16)
    at = move_bits(masks, np.argsort(ranking))
    kept = at >> indices << indices
    pos = np.where(kept != 0, np.frexp(kept & -kept)[1], np.frexp(at)[1]) - 1
    return ranking[pos]


def rational_choice(order: LinearOrder) -> ChoiceFunction:
    """The choice a maximizer of ``order`` makes from every menu."""
    return ChoiceFunction(order.n, distortion_picks(order, 0))


def validate_choice(
    rows: Iterable[tuple[Menu | int | Iterable[int], int]] | np.ndarray, ground: GroundSet
) -> ChoiceFunction:
    """Assemble and check a total choice function from (menu, pick) rows.

    A row's menu is a :class:`Menu`, an iterable of alternative ids, or an
    int bitmask (bit ``e`` set iff id ``e`` is a member). Every nonempty
    menu must appear exactly once with a pick among its members. Absent
    singleton menus are filled in automatically (their pick is forced) and
    reported with a :class:`DatasetWarning`.

    ``rows`` may also be an integer array of shape (rows, 2), one (bitmask,
    pick) row per line, which is checked with no Python step per row.

    The checks run on whole mask and pick arrays; the first faulty row, in
    row order, raises the error a row-by-row scan would raise first.

    Raises:
        ValueError: a menu is empty, repeats an id or lies outside the
            ground set.
        TypeError: a pick is not an integer, such as 1.7, "1" or None
            (numpy integers and bools are integers).
        DuplicateMenu: a menu occurs twice.
        PickNotInMenu: a pick is not a member of its menu.
        MissingMenu: a non-singleton menu is absent.

    Row errors carry the 0-based positions of the offending rows.
    """
    n = ground.n
    require_enumerable(n)
    size = 1 << n
    if isinstance(rows, np.ndarray) and rows.dtype.kind in "iu" and rows.shape[1:] == (2,):
        masks, picks = rows.T.astype(np.int64)
        masks[(masks <= 0) | (masks >= size)] = 0
    else:
        rows = list(rows)
        masks = np.fromiter((_menu_mask(menu, size) for menu, _ in rows), np.int64, len(rows))
        picks = np.fromiter((_pick_id(pick, n) for _, pick in rows), np.int64, len(rows))
    # a row is faulty if its pick lies outside its menu (an invalid menu has
    # mask 0, an invalid pick is negative or at least n) or an earlier row
    # has the same menu
    ok = (picks >= 0) & ((masks >> np.maximum(picks, 0)) & 1 == 1)
    order = np.argsort(masks, kind="stable")
    sorted_masks = masks[order]
    ok[order[1:][sorted_masks[1:] == sorted_masks[:-1]]] = False
    faulty = np.flatnonzero(~ok)
    if faulty.size:
        row = int(faulty[0])
        menu, pick = rows[row]
        mask = _check_row(row, menu, pick, ground)
        first = int(order[np.searchsorted(sorted_masks, mask)])
        shown = _shown(Menu.from_mask(mask).to_text(ground))
        raise DuplicateMenu(
            (first, row), lambda at, again: f"menu {shown} appears at both {at} and {again}"
        )
    filled = np.full(size, -1, dtype=np.int16)
    filled[masks] = picks
    for e in range(n):
        if filled[1 << e] == -1:
            filled[1 << e] = e
            warnings.warn(
                DatasetWarning(
                    f"singleton menu {Menu((e,)).to_text(ground)} was absent;"
                    " its forced pick was filled in"
                ),
                stacklevel=2,
            )
    if (filled[1:] == -1).any():
        order = menu_order(n)
        missing = order[filled[order] == -1]
        raise MissingMenu([Menu.from_mask(int(m)) for m in missing[:8]], int(missing.size), ground)
    return ChoiceFunction(n, filled)


def _menu_mask(menu: Menu | int | Iterable[int], size: int) -> int:
    """A row menu's bitmask, or 0 if it is no menu of a ground set with
    ``size`` = 2**n masks."""
    if type(menu) is not int:
        try:
            if isinstance(menu, (int, np.integer)):
                menu = int(menu)
            else:
                menu = (menu if isinstance(menu, Menu) else Menu(tuple(menu))).mask
        except (TypeError, ValueError):
            return 0
    return menu if 0 < menu < size else 0


def _pick_id(pick: object, n: int) -> int:
    """A row pick as an alternative id, or -1 if it is none."""
    if type(pick) is not int:
        try:
            pick = operator.index(pick)
        except TypeError:
            return -1
    return pick if 0 <= pick < n else -1


def _check_row(
    row: int, menu: Menu | int | Iterable[int], pick: object, ground: GroundSet
) -> int:
    """The checks that need only one row: return its menu's bitmask, or
    raise the row's error."""
    n = ground.n
    if isinstance(menu, (int, np.integer)):
        menu = Menu.from_mask(int(menu))
    elif not isinstance(menu, Menu):
        menu = Menu(tuple(menu))
    if menu.members[-1] >= n:
        raise ValueError(f"menu {_shown(str(menu.members))} lies outside the ground set (n = {n})")
    pick = operator.index(pick)  # a float, string or None raises TypeError
    if pick not in menu:
        shown = _shown(repr(ground.label(pick) if 0 <= pick < n else pick))
        raise PickNotInMenu((row,), lambda at: f"{at}: pick {shown} is not a member of its menu")
    return menu.mask
