"""Reversal detection and the behavioral axioms on a choice function.

A reversal is a pair of distinct menus whose distinct picks both lie in the
menus' intersection; it is the atomic violation of the weak axiom of
revealed preference (WARP). Every axiom here depends on the choice only
through its co-selected pick pairs, read off the revealed relation that the
choice's pick counts hold, with actual menu pairs materialized on demand.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable

import numpy as np

from .core import ChoiceFunction, GroundSet, Menu, menu_order
from .errors import InvalidJ

#: ``analyze`` lists at most this many reversals (the count stays exact).
REVERSAL_CAP = 100


@dataclass(frozen=True)
class Reversal:
    """Two menus co-selecting two alternatives from their intersection."""

    menu_a: Menu
    menu_b: Menu
    pick_a: int
    pick_b: int

    def to_dict(self, ground: GroundSet) -> dict:
        return {
            "menu_a": self.menu_a.label_list(ground),
            "pick_a": ground.label(self.pick_a),
            "menu_b": self.menu_b.label_list(ground),
            "pick_b": ground.label(self.pick_b),
        }

    def to_text(self, ground: GroundSet) -> str:
        """One line: ``{a, b} -> b  |  {a, b, c} -> a``."""
        return (
            f"{self.menu_a.to_text(ground)} -> {ground.label(self.pick_a)}"
            f"  |  {self.menu_b.to_text(ground)} -> {ground.label(self.pick_b)}"
        )


@dataclass(frozen=True)
class CnsWitness:
    """Items covering every reversal, each paired with an outside partner.

    ``paired_reversals[h]`` co-selects ``items[h]`` with some alternative
    outside the witness set.
    """

    items: tuple[int, ...]
    paired_reversals: tuple[Reversal, ...]

    def to_dict(self, ground: GroundSet) -> dict:
        return {
            "items": [ground.label(e) for e in self.items],
            "paired_reversals": [r.to_dict(ground) for r in self.paired_reversals],
        }


def revealed_relation(c: ChoiceFunction) -> np.ndarray:
    """sel[p, q] is True when some menu containing q has pick p (p != q):
    ``N > 0`` off the diagonal, with N the choice's
    :attr:`ChoiceFunction.pick_counts`.

    This relation is all that the degree depends on.
    """
    sel = c.pick_counts > 0
    np.fill_diagonal(sel, False)
    return sel


def coselected_pairs(c: ChoiceFunction) -> tuple[tuple[int, int], ...]:
    """Sorted pairs (p < q) co-selected by some reversal of the choice."""
    sel = revealed_relation(c)
    p, q = np.nonzero(np.triu(sel & sel.T))
    return tuple(zip(p.tolist(), q.tolist()))


def _menus_picking(c: ChoiceFunction) -> Callable[[int, int], np.ndarray]:
    """``at(p, q)``: the canonical positions (indices into
    :func:`menu_order`) of the menus that contain q and pick p, ascending.

    One stable sort of the canonical picks gathers the menus that pick each
    alternative, and their bitmasks, for every pair at once.
    """
    order = menu_order(c.n)
    picks = c.picks_array[order]
    ends = np.cumsum(np.bincount(picks, minlength=c.n))
    positions = np.split(np.argsort(picks, kind="stable"), ends[:-1])
    masks = [order[pos] for pos in positions]
    return lambda p, q: positions[p][(masks[p] >> q) & 1 == 1]


def _reversals(c: ChoiceFunction, rows: Iterable[tuple[int, int]]) -> list[Reversal]:
    """One reversal per row (a, b) of canonical menu positions whose menus
    pick two alternatives from their intersection. The earlier menu comes
    first; menus are shared."""
    rows = [(a, b) if a < b else (b, a) for a, b in rows]
    order = menu_order(c.n)
    masks = {i: int(order[i]) for i in {i for row in rows for i in row}}
    menus = {i: Menu.from_mask(mask) for i, mask in masks.items()}
    picks = {i: int(c.picks_array[mask]) for i, mask in masks.items()}
    return [Reversal(menus[a], menus[b], picks[a], picks[b]) for a, b in rows]


def reversal_count(c: ChoiceFunction) -> int:
    """How many reversals :func:`find_reversals` would list, without listing
    them.

    With N the choice's :attr:`ChoiceFunction.pick_counts`, the pair
    {p, q} has N[p, q] * N[q, p] reversals: each menu that picks p with q
    in it, matched with each menu that picks q with p in it.
    """
    counts = c.pick_counts
    return int(np.triu(counts * counts.T, 1).sum())


def find_reversals(c: ChoiceFunction, limit: int | None = None) -> list[Reversal]:
    """The reversals, each unordered menu pair once, in canonical order: by
    the earlier menu's canonical position, then by the later one's. With a
    ``limit``, only the first ``limit`` of them are built.

    A co-selected pair {p, q} has one reversal per menu A that picks p with q
    in it and menu B that picks q with p in it. Only the first ``limit`` A
    menus and the first ``limit`` B menus can take part in the first
    ``limit`` reversals: a row whose A menu lies beyond them has ``limit``
    rows of the same pair ahead of it (its own B menu with each earlier A
    menu), and likewise for B. So each pair keeps its first ``limit`` rows,
    and one sort orders what they keep. A negative ``limit`` raises ValueError.
    """
    if limit is not None and (limit := operator.index(limit)) < 0:
        raise ValueError(f"limit must be at least 0, got {limit}")
    pairs = coselected_pairs(c)
    if not pairs:  # WARP holds: nothing to build
        return []
    size = (1 << c.n) - 1
    at = _menus_picking(c)
    keys = [np.empty(0, dtype=np.int64)]
    for p, q in pairs:
        at_p, at_q = at(p, q)[:limit], at(q, p)[:limit]
        pair_keys = np.minimum.outer(at_p, at_q) * size + np.maximum.outer(at_p, at_q)
        keys.append(np.sort(pair_keys.ravel())[:limit])
    keys = np.sort(np.concatenate(keys))[:limit]
    return _reversals(c, zip((keys // size).tolist(), (keys % size).tolist()))


def satisfies_warp(c: ChoiceFunction) -> bool:
    """True when the choice has no reversal at all."""
    return not coselected_pairs(c)


def constant_selection_witnesses(c: ChoiceFunction) -> frozenset[int] | None:
    """Alternatives picked in every reversal.

    None when WARP holds (there is nothing to witness) or when no single
    alternative covers all reversals.
    """
    pairs = coselected_pairs(c)
    if not pairs:
        return None
    common = set(pairs[0])
    for p, q in pairs[1:]:
        common &= {p, q}
        if not common:
            return None
    return frozenset(common)


def is_inconsistent(c: ChoiceFunction) -> bool:
    """True when every pair of distinct alternatives is co-selected."""
    return len(coselected_pairs(c)) == comb(c.n, 2)


def min_cover(pairs: Iterable[tuple[int, int]], n: int) -> tuple[int, ...]:
    """Lexicographically first minimum vertex cover of the graph on 0..n-1
    whose edges are ``pairs``; empty when there are no edges.

    A branching search over one neighbour bitmask per vertex (Fomin &
    Kratsch, *Exact Exponential Algorithms*, 2010): k vertices cover the
    edges among ``alive`` when a vertex v of largest degree is in the cover
    or all of its neighbours are. τ is the least k that covers the graph;
    then each vertex 0, 1, … still alive joins the cover if the rest fits in
    one fewer, and otherwise its remaining neighbours join. Taking the
    smallest vertex wherever a minimum cover allows gives the
    lexicographically first cover: the largest code when v is bit n-1-v.
    """
    nbrs = [0] * n
    for p, q in pairs:
        nbrs[p] |= 1 << q
        nbrs[q] |= 1 << p

    def fits(alive: int, k: int) -> bool:
        deg, v = max(((nbrs[u] & alive).bit_count() if alive >> u & 1 else 0, u) for u in range(n))
        if deg == 0:
            return k >= 0
        rest = alive & ~(1 << v)
        return k > 0 and (fits(rest, k - 1) or fits(rest & ~nbrs[v], k - deg))

    alive = (1 << n) - 1
    k = next(k for k in range(n) if fits(alive, k))
    cover = 0
    for v in range(n):
        if alive >> v & 1:
            alive &= ~(1 << v)
            joined = 1 << v if fits(alive, k - 1) else nbrs[v] & alive
            k -= joined.bit_count()
            alive &= ~joined
            cover |= joined
    return tuple(v for v in range(n) if cover >> v & 1)


def is_cns_witness_set(c: ChoiceFunction, items: Iterable[int]) -> bool:
    """Whether this exact item set certifies nonreciprocal selection.

    Requires: no smaller set touches every reversal, the set touches all of
    them, and each member is co-selected with an alternative outside the set.
    The last condition follows from the first two, so a witness set is
    exactly a minimum vertex cover of the co-selected pairs.
    """
    items = tuple(operator.index(x) for x in items)
    n = c.n
    j = len(items)
    if not 1 <= j <= n - 1 or len(set(items)) != j:
        return False
    if any(not 0 <= x < n for x in items):
        return False
    pairs = coselected_pairs(c)
    sset = frozenset(items)
    return j == len(min_cover(pairs, n)) and all(p in sset or q in sset for p, q in pairs)


def check_cns(c: ChoiceFunction, j: int) -> CnsWitness | None:
    """Witness that WARP fails under constant nonreciprocal selection of j items.

    Two conditions: no set of fewer than j alternatives touches every
    reversal, and some j-set touches all of them with each member co-selected
    alongside an alternative outside the set. They hold exactly when j is the
    size of a minimum cover of the co-selected pairs, and every minimum cover
    has the outside partners. The witness is the lexicographically first such
    cover, each member's partner its smallest-id neighbour outside the cover,
    so it is deterministic. Returns None when the property does not hold at j.
    """
    n = c.n
    j = operator.index(j)
    if not 1 <= j <= n - 1:
        raise InvalidJ(f"witness size {j} outside 1..{n - 1}")
    pairs = coselected_pairs(c)
    items = min_cover(pairs, n)
    if len(items) != j:
        return None
    sset = frozenset(items)
    at = _menus_picking(c)
    rows = []
    for x in items:
        y = min(p + q - x for p, q in pairs if x in (p, q) and p + q - x not in sset)
        # the earliest menu of each side in canonical order
        rows.append((int(at(x, y)[0]), int(at(y, x)[0])))
    return CnsWitness(items=items, paired_reversals=tuple(_reversals(c, rows)))
