"""The self-punishment degree: how deep the distortions must reach.

Two independent routes compute it from the revealed relation ``sel``. The
exhaustive route minimises over all base orders: an order explains every
pick within depth d exactly when its bottom n - d alternatives induce an
acyclic subgraph of ``sel`` and sit in a topological order of it. So the
degree is the size of a minimum feedback vertex set of ``sel``, a hitting set
of its 2-cycles and triangles (Gaspers & Mnich, "Feedback vertex sets in
tournaments", *J. Graph Theory*, 2013). The axiomatic route reads the
reversal structure alone: the size of a minimum cover of the co-selected
pairs. The dispatcher runs both and insists they agree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, reduce
from math import factorial
from operator import or_

import numpy as np

from . import _kernels
from ._parallel import resolve_workers
from .axioms import CnsWitness, check_cns, coselected_pairs, min_cover, revealed_relation
from .core import ChoiceFunction, GroundSet, LinearOrder
from .elicit import _ranked
from .errors import CrossCheckMismatch

#: Reports keep at most this many minimizing orders (the count stays exact).
MINIMIZING_ORDER_CAP = 100


@dataclass(frozen=True)
class SpReport:
    """Outcome of a degree computation.

    ``minimizing_orders`` (exhaustive route only) lists base orders achieving
    the degree, truncated to :data:`MINIMIZING_ORDER_CAP` with the exact
    total in ``minimizing_order_count``. ``cns_witness`` (axiomatic route,
    degree >= 1) carries the witness items and their paired reversals.
    """

    sp: int
    method: str  # "bruteforce" | "axiomatic" | "both"
    minimizing_orders: tuple[LinearOrder, ...] | None = None
    minimizing_order_count: int | None = None
    cns_witness: CnsWitness | None = None

    def to_dict(self, ground: GroundSet) -> dict:
        out: dict = {"sp": self.sp, "method": self.method}
        if self.minimizing_orders is not None:
            out["minimizing_order_count"] = self.minimizing_order_count
            out["minimizing_orders"] = [o.label_list(ground) for o in self.minimizing_orders]
        if self.cns_witness is not None:
            out["cns_witness"] = self.cns_witness.to_dict(ground)
        return out

    def to_text(self, ground: GroundSet) -> list[str]:
        lines = [f"sp: {self.sp}", f"method: {self.method}"]
        if self.minimizing_orders is not None:
            lines.append(f"minimizing orders (total {self.minimizing_order_count}):")
            lines.extend(f"  {order.to_text(ground)}" for order in self.minimizing_orders)
        if self.cns_witness is not None:
            items = ", ".join(ground.label(e) for e in self.cns_witness.items)
            lines.append(f"witness items: {items}")
            lines.extend(f"  {r.to_text(ground)}" for r in self.cns_witness.paired_reversals)
        return lines


def _members(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _minimum_hitting_sets(sel: np.ndarray) -> list[int]:
    """Every smallest set of alternatives, as a bitmask, that hits each
    2-cycle of ``sel`` and each triangle of its one-way arcs (a triangle with
    a two-way arc holds a 2-cycle).

    A branching search over the cycles' bitmasks, read off per-alternative
    successor and predecessor masks: the first cycle not yet hit is hit by
    each of its members in turn, barring those tried before it, so each set
    is met once. The budget starts at n - 1 (one alternative holds no cycle)
    and shrinks to the size of each smaller set met."""
    n = len(sel)
    one_way = sel & ~sel.T
    rels = (sel & sel.T, one_way, one_way.T)
    both, succ, pred = ((rel << np.arange(n)).sum(axis=1).tolist() for rel in rels)
    cycles = [1 << p | 1 << q for p in range(n) for q in _members(both[p] & -2 << p)]
    for p in range(n):
        above = -2 << p  # each triangle once, from its smallest member
        for q in _members(succ[p] & above):
            cycles.extend(1 << p | 1 << q | 1 << r for r in _members(succ[q] & pred[p] & above))
    found: list[int] = []

    def branch(chosen: int, barred: int, unhit: list[int]) -> None:
        size, budget = chosen.bit_count(), found[0].bit_count() if found else n - 1
        if not unhit:
            if size < budget:
                found.clear()
            found.append(chosen)
        elif size < budget:
            for v in _members(unhit[0] & ~barred):
                branch(chosen | 1 << v, barred, [h for h in unhit if not h >> v & 1])
                barred |= 1 << v

    branch(0, 0, cycles)
    return found


def _first_orders(c: ChoiceFunction, sets: list[int], free: int) -> list[LinearOrder]:
    """The lexicographically first :data:`MINIMIZING_ORDER_CAP` minimizing
    orders by a depth-first search: a prefix of the ``free`` top positions
    lies inside one of the minimum hitting ``sets`` (kept as the members not
    yet placed), and the acyclic rest has its one topological order."""
    found: list[LinearOrder] = []
    prefix: list[int] = []
    tail = cache(lambda head: _ranked(c, sorted(head)).ranking[free:])  # one per hitting set

    def walk(sets: list[int]) -> None:
        if len(prefix) == free:
            found.append(LinearOrder((*prefix, *tail(frozenset(prefix)))))
            return
        for v in _members(reduce(or_, sets)):
            if len(found) == MINIMIZING_ORDER_CAP:
                return
            prefix.append(v)
            walk([h ^ 1 << v for h in sets if h >> v & 1])
            prefix.pop()

    walk(sets)
    return found


def sp_bruteforce(c: ChoiceFunction, workers: int | None = None) -> SpReport:
    """Minimise the worst index over all base orders without listing them:
    every pair menu is observed, so a set is acyclic in ``sel`` exactly when
    it holds no 2-cycle and no directed triangle, and then it has one
    topological order. So sp is the size of a smallest set hitting them all,
    reached by sp! orders per such set. The listed orders are re-scored by
    :func:`_kernels.order_scores`, and one that misses the degree raises
    :class:`CrossCheckMismatch`. ``workers`` is checked, then ignored."""
    resolve_workers(workers)
    sel = revealed_relation(c)
    sets = _minimum_hitting_sets(sel)
    degree = sets[0].bit_count()
    orders = _first_orders(c, sets, degree)
    if (_kernels.order_scores(sel, np.array([o.ranking for o in orders])) != degree).any():
        raise CrossCheckMismatch(f"a listed order does not score the degree {degree}")
    return SpReport(
        sp=degree,
        method="bruteforce",
        minimizing_orders=tuple(orders),
        minimizing_order_count=factorial(degree) * len(sets),
    )


def sp_axiomatic(c: ChoiceFunction) -> SpReport:
    """Classify the degree from the reversal structure alone.

    The degree is the size of a minimum cover of the co-selected pairs: 0
    under WARP, otherwise the one witness size at which :func:`check_cns`
    holds.
    """
    sp_value = len(min_cover(coselected_pairs(c), c.n))
    if sp_value == 0:
        return SpReport(sp=0, method="axiomatic")
    return SpReport(sp=sp_value, method="axiomatic", cns_witness=check_cns(c, sp_value))


def sp(c: ChoiceFunction, workers: int | None = None) -> SpReport:
    """Compute the degree by both routes and insist that they agree."""
    axiomatic = sp_axiomatic(c)
    brute = sp_bruteforce(c, workers=workers)
    if brute.sp != axiomatic.sp:
        raise CrossCheckMismatch(
            f"exhaustive search found {brute.sp} but the axioms say {axiomatic.sp}"
        )
    return replace(brute, method="both", cns_witness=axiomatic.cns_witness)
