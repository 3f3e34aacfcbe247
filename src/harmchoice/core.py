"""Ground sets, menus, linear orders, and total choice functions.

Alternatives carry dense integer ids 0..n-1 assigned in ground-set label
order. A menu is a nonempty subset of ids, canonicalized to a sorted member
tuple; it also has a bitmask form (bit ``e`` set iff id ``e`` is a member),
which is how choice functions index their picks internally. In a 2**n-wide
table indexed by bitmask, the menus that hold id q are the upper half of
each run of 2 * 2**q bitmasks, ``table.reshape(-1, 2, 1 << q)[:, 1]``, and
those that lack it the lower half, so no step needs an array of masks. All
types are immutable values, safe to share across threads; a choice function
builds its pick counts on first read and keeps them.
"""

from __future__ import annotations

import operator
import warnings
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, NoReturn

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
        ranking = tuple(operator.index(e) for e in self.ranking)
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

    Picks are stored in a flat read-only ``int16`` array indexed by menu
    bitmask (entry 0 is unused). Exactly the 2**n - 1 nonempty menus are
    defined. The picks must be integers (numpy integers and bools are), and
    each must be a member of its menu; they are checked before they are
    narrowed.
    """

    __slots__ = ("_n", "_picks", "_counts")

    def __init__(self, n: int, picks: np.ndarray | Iterable[int]):
        require_enumerable(n)
        given = np.asarray(picks)
        if given.shape != (1 << n,):
            raise ValueError(f"picks array must have length 2**{n}")
        if given.dtype.kind not in "biu":
            raise TypeError(f"picks must be integers, got {given.dtype}")
        vals = given[1:]
        if ((vals < 0) | (vals >= n)).any():
            raise ValueError("every menu needs a pick in 0..n-1")
        arr = given.astype(np.int16)
        arr[0] = -1
        # a pick lies outside its menu exactly when some q is picked in the half
        # of the table whose menus lack q
        if any((arr.reshape(-1, 2, 1 << q)[:, 0] == q).any() for q in range(n)):
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

        Column q counts the picks of the half of the table whose menus hold
        q. It holds the revealed relation and the reversal count. Two
        threads that race on the first read build equal arrays, and either
        is kept.
        """
        if self._counts is None:
            n = self._n
            counts = np.empty((n, n), dtype=np.int64)
            for q in range(n):
                held = self._picks.reshape(-1, 2, 1 << q)[:, 1]
                counts[:, q] = np.bincount(held.ravel(), minlength=n)
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
    ``indices`` is one index in 0..n-1, or one per bitmask.

    The bitmasks are taken :data:`MENU_BLOCK` at a time. Each menu becomes
    the mask of its members' positions in the order, best at bit 0. The i-th
    distortion ranks positions i.. first, best first, then the demoted top
    block worst first; frexp's exponent is the bit length.
    """
    n = order.n
    require_enumerable(n)
    ranking = np.asarray(order.ranking, dtype=np.int16)
    to = np.argsort(ranking)
    picks = np.empty(1 << n, dtype=np.int16)
    for lo in range(0, 1 << n, MENU_BLOCK):
        hi = min(lo + MENU_BLOCK, 1 << n)
        block_indices = indices if np.ndim(indices) == 0 else indices[lo:hi]
        at = move_bits(np.arange(lo, hi), to)
        kept = at >> block_indices << block_indices
        pos = np.where(kept != 0, np.frexp(kept & -kept)[1], np.frexp(at)[1]) - 1
        picks[lo:hi] = ranking[pos]
    picks[0] = -1
    return picks


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

    Every input takes one path: other rows are checked one at a time into
    such an array, up to the first one refused. An array whose rows are all
    in range and in place fills the picks table, and is fault-free exactly
    when the table then holds one pick per row. Otherwise one bulk locator
    raises the error a row-by-row scan would raise first.

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
    refused = None
    if isinstance(rows, np.ndarray) and rows.dtype.kind in "iu" and rows.shape[1:] == (2,):
        # a uint64 value of 2**63 or more wraps negative and fails the range test
        table = rows.astype(np.int64, copy=False)
    else:
        read = array("q")
        try:
            for row, (menu, pick) in enumerate(rows):
                read.extend(_check_row(row, menu, pick, ground))
        except (ValueError, TypeError, PickNotInMenu) as exc:
            refused = exc  # raised once no earlier row repeats a menu
        table = np.frombuffer(read, dtype=np.int64).reshape(-1, 2)
    filled = np.full(1 << n, -1, dtype=np.int16)
    masks, picks = table.T
    ok = (masks > 0) & (masks < filled.size) & (picks >= 0) & (picks < n)
    ok &= (masks >> np.where(ok, picks, 0)) & 1 == 1  # no negative pick reaches the shift
    if ok.all():
        filled[masks] = picks
    if np.count_nonzero(filled != -1) != len(table):
        _raise_first_fault(rows, masks, ok, ground)
    if refused is not None:
        raise refused
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


def _raise_first_fault(rows, masks: np.ndarray, ok: np.ndarray, ground: GroundSet) -> NoReturn:
    """Raise the error of the first row out of range or repeating a menu."""
    key = np.where(ok, masks, 0)  # rows out of range or place all share key 0
    row = np.arange(ok.size)
    first = np.full(1 << ground.n, ok.size)  # each menu's first row, by bitmask
    np.minimum.at(first, key, row)
    k = int((~ok | (first[key] < row)).argmax())
    if not ok[k]:
        _check_row(k, *rows[k].tolist(), ground)  # raises; only an array holds such a row
    shown = _shown(Menu.from_mask(int(key[k])).to_text(ground))
    raise DuplicateMenu(
        (int(first[key[k]]), k), lambda at, again: f"menu {shown} appears at both {at} and {again}"
    )


def _check_row(
    row: int, menu: Menu | int | Iterable[int], pick: object, ground: GroundSet
) -> tuple[int, int]:
    """The checks that need only one row: its (bitmask, pick), or its error."""
    n = ground.n
    if type(menu) is type(pick) is int and 0 < menu < 1 << n and 0 <= pick < n and menu >> pick & 1:
        return menu, pick  # the common row, accepted with no Menu built
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
    return menu.mask, pick
