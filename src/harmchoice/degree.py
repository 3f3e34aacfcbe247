"""The self-punishment degree: how deep the distortions must reach.

Two routes compute it, both from the revealed relation. The exhaustive
route scans every base order and takes the best per-order worst index. The
axiomatic route classifies the choice from its reversal structure alone: the
size of a minimum cover of the co-selected pairs, which is 0 under WARP and
n-1 for inconsistent data. The dispatcher runs both where feasible and
insists they agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from . import _kernels
from ._parallel import index_chunks, map_chunks, resolve_workers
from .axioms import CnsWitness, _selected_with, check_cns, coselected_pairs, min_cover
from .core import MAX_BRUTE_N, ChoiceFunction, GroundSet, LinearOrder
from .errors import CrossCheckMismatch, GroundSetTooLarge

#: Reports keep at most this many minimizing orders (the count stays exact).
MINIMIZING_ORDER_CAP = 100

_ORDER_CHUNK = 5040


@lru_cache(maxsize=None)
def _all_orders(n: int) -> np.ndarray:
    """All n! rankings in lexicographic order, one per row."""
    return np.array(list(permutations(range(n))), dtype=np.int64)


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

    def to_dict(self, ground: GroundSet | None = None) -> dict:
        out: dict = {"sp": self.sp, "method": self.method}
        if self.minimizing_orders is not None:
            out["minimizing_order_count"] = self.minimizing_order_count
            out["minimizing_orders"] = [
                order.label_list(ground) if ground is not None else list(order.ranking)
                for order in self.minimizing_orders
            ]
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


def sp_bruteforce(c: ChoiceFunction, workers: int | None = None) -> SpReport:
    """Scan every base order and keep the best per-order worst index.

    Orders are processed in fixed lexicographic chunks and reduced in chunk
    order, so the report does not depend on the worker count.
    """
    n = c.n
    if n > MAX_BRUTE_N:
        raise GroundSetTooLarge(
            f"exhaustive order search is capped at n <= {MAX_BRUTE_N}, got n = {n}"
        )
    orders = _all_orders(n)
    sel = _selected_with(c)

    def work(chunk: tuple[int, int]):
        start, stop = chunk
        scores = _kernels.order_scores(sel, orders[start:stop])
        local_min = int(scores.min())
        hits = np.nonzero(scores == local_min)[0]
        return local_min, int(hits.size), [start + int(h) for h in hits[:MINIMIZING_ORDER_CAP]]

    results = map_chunks(work, index_chunks(len(orders), _ORDER_CHUNK), resolve_workers(workers))
    best = min(r[0] for r in results)
    count = sum(cnt for val, cnt, _ in results if val == best)
    first = [i for val, _, idxs in results if val == best for i in idxs][:MINIMIZING_ORDER_CAP]
    minimizing = tuple(LinearOrder(tuple(int(x) for x in orders[i])) for i in first)
    return SpReport(
        sp=best,
        method="bruteforce",
        minimizing_orders=minimizing,
        minimizing_order_count=count,
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
    """Compute the degree, cross-checking both routes when n allows it."""
    axiomatic = sp_axiomatic(c)
    if c.n > MAX_BRUTE_N:
        return axiomatic
    brute = sp_bruteforce(c, workers=workers)
    if brute.sp != axiomatic.sp:
        raise CrossCheckMismatch(
            f"exhaustive search found {brute.sp} but the axioms say {axiomatic.sp}"
        )
    return SpReport(
        sp=axiomatic.sp,
        method="both",
        minimizing_orders=brute.minimizing_orders,
        minimizing_order_count=brute.minimizing_order_count,
        cns_witness=axiomatic.cns_witness,
    )
