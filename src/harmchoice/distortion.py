"""Distortions of a preference that demote its top block.

The i-th distortion of an order moves the i best alternatives below all the
others, reversing their relative order, and leaves the rest untouched. Index
0 is the order itself; indices run to n-1 only, since demoting all n items
coincides with demoting the top n-1.
"""

from __future__ import annotations

from .core import LinearOrder
from .errors import IndexOutOfRange


def harmful_distortion(order: LinearOrder, i: int) -> LinearOrder:
    """Demote the top ``i`` alternatives of ``order`` in reverse order.

    The remaining alternatives keep their relative ranking and precede the
    demoted block; within the block, previously better alternatives end up
    lower. ``i`` must lie in 0..n-1: the n-th distortion is rejected rather
    than silently aliased to the (n-1)-th, which it would equal.
    """
    n = order.n
    if not 0 <= i <= n - 1:
        raise IndexOutOfRange(f"distortion index {i} outside 0..{n - 1}")
    r = order.ranking
    return LinearOrder(r[i:] + r[:i][::-1])

