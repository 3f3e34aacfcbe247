"""Recovering the latent preference(s) behind a self-punishing choice.

For minimally self-punishing data the base order is pinned down almost
exactly: the constantly selected item goes on top and picks from menus
avoiding it order the rest. For deeper distortions only a strict partial
order is identified; every linear extension of it explains the data within
the same distortion bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .axioms import _selected_with, constant_selection_witnesses, is_cns_witness_set
from .core import ChoiceFunction, GroundSet, LinearOrder
from .errors import CycleDetected, InvalidWitness, NotWeaklyHarmful


@dataclass(frozen=True)
class StrictPartialOrder:
    """Irreflexive, asymmetric, transitively closed 'strictly before' pairs
    over alternatives 0..n-1."""

    n: int
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        pairs = frozenset((int(a), int(b)) for a, b in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        for a, b in pairs:
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError("pair member outside 0..n-1")
            if a == b:
                raise CycleDetected(f"irreflexivity violated at {a}")
            if (b, a) in pairs:
                raise CycleDetected(f"asymmetry violated on ({a}, {b})")
        closed = _transitive_closure(self.n, pairs)
        if closed != pairs:
            raise ValueError("relation is not transitively closed")

    @classmethod
    def from_cover(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "StrictPartialOrder":
        """Build from any generating pairs, closing under transitivity."""
        return cls(n, _transitive_closure(n, frozenset(pairs)))

    def before(self, a: int, b: int) -> bool:
        return (a, b) in self.pairs

    def sorted_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.pairs)

    def to_dict(self, ground: GroundSet | None = None) -> dict:
        if ground is not None:
            pairs = [[ground.label(a), ground.label(b)] for a, b in self.sorted_pairs()]
        else:
            pairs = [list(p) for p in self.sorted_pairs()]
        return {"n": self.n, "pairs": pairs}


def _transitive_closure(n: int, pairs: frozenset[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    rel = np.zeros((n, n), dtype=bool)
    for a, b in pairs:
        if a == b:
            raise CycleDetected(f"irreflexivity violated at {a}")
        rel[a, b] = True
    while True:
        grown = rel | (rel @ rel)
        if np.array_equal(grown, rel):
            break
        rel = grown
    if rel.diagonal().any():
        raise CycleDetected("relation contains a cycle")
    return frozenset(zip(*np.nonzero(rel), strict=True))


def elicit_weakly_harmful(c: ChoiceFunction) -> list[LinearOrder]:
    """One base order per constant-selection witness.

    Each order puts its witness on top; below it, y precedes z whenever some
    menu avoiding the witness but containing z has pick y. That tail relation
    is always a strict total order for choices of this kind. Every returned
    order explains the data using distortion indices 0 and 1 only.
    """
    witnesses = constant_selection_witnesses(c)
    if witnesses is None:
        raise NotWeaklyHarmful(
            "no alternative is selected in every reversal (or WARP holds)"
        )
    n = c.n
    masks = np.arange(1 << n, dtype=np.int64)
    orders = []
    for star in sorted(witnesses):
        # menus containing the witness join no row of the tail relation
        picks = np.where((masks >> star) & 1 == 1, -1, c.picks_array)
        wins = _kernels.relation(picks[None, :], n)[0].sum(axis=1)
        tail = sorted((e for e in range(n) if e != star), key=lambda e: (-wins[e], e))
        if [int(wins[e]) for e in tail] != list(range(n - 2, -1, -1)):
            raise RuntimeError("tail relation is not a linear order; this cannot happen")
        orders.append(LinearOrder((star, *tail)))
    return orders


def elicit_partial(c: ChoiceFunction, witness: Sequence[int]) -> StrictPartialOrder:
    """Partial identification of the base order from an ordered witness.

    Earlier witness items precede later ones, every witness item precedes
    every outside alternative, and among outside alternatives y precedes z
    whenever some menu containing z has pick y (no menu restriction here).
    The result is transitively closed.
    """
    n = c.n
    items = tuple(int(x) for x in witness)
    if not is_cns_witness_set(c, items):
        raise InvalidWitness(
            f"{items} is not a valid witness set for this choice"
        )
    sset = frozenset(items)
    rel: set[tuple[int, int]] = set()
    for g in range(len(items)):
        for h in range(g + 1, len(items)):
            rel.add((items[g], items[h]))
    others = [e for e in range(n) if e not in sset]
    sel = _selected_with(c)
    rel.update((y, z) for y in others for z in others if sel[y, z])
    for x in items:
        for y in others:
            rel.add((x, y))
    return StrictPartialOrder.from_cover(n, rel)


def extend_linear(p: StrictPartialOrder) -> LinearOrder:
    """One linear extension; ties at each extraction go to the smallest id."""
    n = p.n
    above = [0] * n
    below: dict[int, list[int]] = {e: [] for e in range(n)}
    for a, b in p.pairs:
        above[b] += 1
        below[a].append(b)
    remaining = set(range(n))
    ranking = []
    for _ in range(n):
        ready = [e for e in sorted(remaining) if above[e] == 0]
        if not ready:
            raise CycleDetected("no extension exists; the relation has a cycle")
        e = ready[0]
        remaining.remove(e)
        ranking.append(e)
        for b in below[e]:
            above[b] -= 1
    return LinearOrder(tuple(ranking))


@dataclass(frozen=True)
class LinearExtensions:
    """Extensions in lexicographic order, stored up to a cap; total is exact."""

    orders: tuple[LinearOrder, ...]
    total: int


def all_extensions(p: StrictPartialOrder, cap: int) -> LinearExtensions:
    """Enumerate every linear extension, keeping at most ``cap`` of them."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    n = p.n
    above = [0] * n
    below: dict[int, list[int]] = {e: [] for e in range(n)}
    for a, b in p.pairs:
        above[b] += 1
        below[a].append(b)
    stored: list[LinearOrder] = []
    prefix: list[int] = []
    remaining = sorted(range(n))
    total = 0

    def walk() -> None:
        nonlocal total
        if len(prefix) == n:
            total += 1
            if len(stored) < cap:
                stored.append(LinearOrder(tuple(prefix)))
            return
        for e in list(remaining):
            if above[e] != 0:
                continue
            remaining.remove(e)
            prefix.append(e)
            for b in below[e]:
                above[b] -= 1
            walk()
            for b in below[e]:
                above[b] += 1
            prefix.pop()
            # keep candidates sorted so enumeration stays lexicographic
            idx = 0
            while idx < len(remaining) and remaining[idx] < e:
                idx += 1
            remaining.insert(idx, e)

    walk()
    if total == 0:
        raise CycleDetected("no extension exists; the relation has a cycle")
    return LinearExtensions(orders=tuple(stored), total=total)
