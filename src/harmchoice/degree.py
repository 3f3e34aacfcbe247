"""The self-punishment degree: how deep the distortions must reach.

Two independent routes compute it from the revealed relation ``sel``. The
exhaustive route minimises over all base orders with a subset DP (Fomin &
Kratsch, *Exact Exponential Algorithms*, 2010): an order explains every pick
within depth d exactly when its bottom n - d alternatives induce an acyclic
subgraph of ``sel`` and sit in a topological order of it. The axiomatic
route reads the reversal structure alone: the size of a minimum cover of the
co-selected pairs. The dispatcher runs both and insists they agree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import factorial

import numpy as np

from . import _kernels
from ._parallel import resolve_workers
from .axioms import CnsWitness, check_cns, coselected_pairs, min_cover, revealed_relation
from .core import ChoiceFunction, GroundSet, LinearOrder
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


def _topological_counts(pred: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """``t[S]``, the number of topological orders of the set S under ``sel``
    (0 if S holds a cycle), and the largest acyclic sets.

    ``pred[v]`` masks the p with ``sel[p, v]``. ``t[S]`` sums ``t[S - v]``
    over the v in S without a predecessor in S, one set size at a time. The
    candidates of size k are the acyclic sets of size k - 1, each with one
    alternative added above its members, so each set is built once.
    ``t[S] <= 20!`` fits in int64.
    """
    n = len(pred)
    t = np.zeros(1 << n, dtype=np.int64)
    t[0] = 1
    bits = 1 << np.arange(n)
    layer = np.zeros(1, dtype=np.int64)
    while True:
        cand = (layer[:, None] | bits)[layer[:, None] < bits]  # add v above all members
        acc = np.zeros(cand.size, dtype=np.int64)
        for v in range(n):
            source = (cand & (pred[v] | 1 << v)) == 1 << v
            acc += np.where(source, t[cand ^ (1 << v)], 0)
        keep = acc > 0
        if not keep.any():
            return t, layer
        layer = cand[keep]
        t[layer] = acc[keep]


def _first_orders(pred: list[int], largest_sets: np.ndarray, free: int) -> list[LinearOrder]:
    """The lexicographically first :data:`MINIMIZING_ORDER_CAP` minimizing
    orders, by a depth-first search that keeps only prefixes that complete:
    in the ``free`` top positions, what is left must still contain a largest
    acyclic set (``holds``, closed under supersets); below them, the next
    alternative must have no predecessor among those left."""
    n = len(pred)
    holds = np.zeros(1 << n, dtype=bool)
    holds[largest_sets] = True
    for v in range(n):
        view = holds.reshape(-1, 2, 1 << v)
        view[:, 1] |= view[:, 0]
    found: list[LinearOrder] = []
    prefix: list[int] = []

    def walk(rest: int) -> None:
        if not rest:
            found.append(LinearOrder(tuple(prefix)))
        top = len(prefix) < free
        for v in range(n):
            if len(found) == MINIMIZING_ORDER_CAP:
                return
            if rest >> v & 1 and (holds[rest ^ 1 << v] if top else not pred[v] & rest):
                prefix.append(v)
                walk(rest ^ 1 << v)
                prefix.pop()

    walk((1 << n) - 1)
    return found


def sp_bruteforce(c: ChoiceFunction, workers: int | None = None) -> SpReport:
    """Minimise the worst index over all base orders without listing them:
    sp = n - the largest acyclic set of ``sel``, reached by sp! times the
    topological orders of those sets. The listed orders are re-scored by
    :func:`_kernels.order_scores`, and one that misses the degree raises
    :class:`CrossCheckMismatch`. ``workers`` is checked, then ignored."""
    resolve_workers(workers)
    n = c.n
    sel = revealed_relation(c)
    pred = (sel.astype(np.int64) << np.arange(n)[:, None]).sum(axis=0).tolist()
    t, largest_sets = _topological_counts(pred)
    degree = n - int(largest_sets[0]).bit_count()
    orders = _first_orders(pred, largest_sets, degree)
    if (_kernels.order_scores(sel, np.array([o.ranking for o in orders])) != degree).any():
        raise CrossCheckMismatch(f"a listed order does not score the degree {degree}")
    return SpReport(
        sp=degree,
        method="bruteforce",
        minimizing_orders=tuple(orders),
        minimizing_order_count=factorial(degree) * int(t[largest_sets].sum()),
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
