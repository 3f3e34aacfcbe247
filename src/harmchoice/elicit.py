"""Recovering the latent preference(s) behind a self-punishing choice.

Elicitation reads the revealed relation ``sel`` ("p was picked from a menu
containing q"). A witness is a minimum cover of the co-selected pairs, so
the alternatives outside it share no co-selected pair. The two-element
menus make ``sel`` semicomplete, a cycle in a semicomplete digraph contains
a 3-cycle, and the menu of a 3-cycle's members would co-select one of its
pairs; so ``sel`` orders the outside alternatives as a transitive
tournament. The witness in its given order, then the rest in ``sel``
order, is one base order: one per constantly selected item at degree 1,
and at deeper degrees the only linear extension of the partial order that
an ordered witness identifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .axioms import constant_selection_witnesses, is_cns_witness_set, revealed_relation
from .core import ChoiceFunction, GroundSet, LinearOrder, require_enumerable
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


def _ranked(c: ChoiceFunction, head: Sequence[int]) -> LinearOrder:
    """``head`` in its given order, then the other alternatives by their wins
    in ``sel`` among themselves, smaller id first on ties."""
    rest = [e for e in range(c.n) if e not in head]
    wins = revealed_relation(c)[np.ix_(rest, rest)].sum(axis=1)
    tail = np.argsort(-wins, kind="stable")
    if wins[tail].tolist() != list(range(len(rest) - 1, -1, -1)):
        raise RuntimeError("tail relation is not a linear order; this cannot happen")
    return LinearOrder((*head, *(rest[i] for i in tail)))


def elicit_weakly_harmful(c: ChoiceFunction) -> list[LinearOrder]:
    """One base order per constant-selection witness: the witness on top,
    the rest in ``sel`` order. Each explains the data using distortion
    indices 0 and 1 only."""
    witnesses = constant_selection_witnesses(c)
    if witnesses is None:
        raise NotWeaklyHarmful("no alternative is selected in every reversal (or WARP holds)")
    return [_ranked(c, (star,)) for star in sorted(witnesses)]


def elicit_partial(c: ChoiceFunction, witness: Sequence[int]) -> StrictPartialOrder:
    """Identification of the base order from an ordered witness.

    Earlier witness items precede later ones, every witness item precedes
    every outside alternative, and ``sel`` orders the outside alternatives.
    The result is a total order: all n(n-1)/2 pairs of that one ranking.
    """
    items = tuple(int(x) for x in witness)
    if not is_cns_witness_set(c, items):
        raise InvalidWitness(f"{items} is not a valid witness set for this choice")
    return StrictPartialOrder(c.n, frozenset(combinations(_ranked(c, items).ranking, 2)))


@dataclass(frozen=True)
class LinearExtensions:
    """Extensions in lexicographic order, stored up to a cap; total is exact."""

    orders: tuple[LinearOrder, ...]
    total: int


def all_extensions(p: StrictPartialOrder, cap: int) -> LinearExtensions:
    """The lexicographically first ``cap`` linear extensions and their number.

    The number counts the orderings of each down-set of ``p`` (a set that
    holds everything before its members), one set size at a time: at most
    2**n sets, n + 1 for a chain. A depth-first search lists the first
    ``cap`` extensions and stops.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    n = p.n
    require_enumerable(n)
    before = [0] * n
    for a, b in p.pairs:
        before[b] |= 1 << a

    def ready(done: int) -> list[int]:
        return [e for e in range(n) if not done >> e & 1 and before[e] & done == before[e]]

    ways = {0: 1}
    for _ in range(n):
        grown: dict[int, int] = {}
        for done, count in ways.items():
            for e in ready(done):
                grown[done | 1 << e] = grown.get(done | 1 << e, 0) + count
        ways = grown
    total = ways.get((1 << n) - 1, 0)
    if total == 0:
        raise CycleDetected("no extension exists; the relation has a cycle")
    orders: list[LinearOrder] = []

    def walk(done: int, prefix: tuple[int, ...]) -> None:
        if len(prefix) == n:
            orders.append(LinearOrder(prefix))
        for e in ready(done):
            if len(orders) == cap:
                return
            walk(done | 1 << e, (*prefix, e))

    walk(0, ())
    return LinearExtensions(orders=tuple(orders), total=total)
