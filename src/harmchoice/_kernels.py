"""Hot numeric kernels in numpy.

Everything here works on flat encodings: a choice is a picks array indexed
by menu bitmask (entry 0 unused) or its n×n revealed relation, either as
booleans or as n row bitmasks; an order is one ranking row, and pair
coverage is a bitmask over the C(n,2) alternative pairs in lexicographic
order.

:func:`pair_masks` tests each alternative pair of a batch of picks arrays
directly: the menus holding both, one column gather per pair. The exact
census reads it; a single choice's relation comes from the pick counts
that the choice builds once and keeps,
:attr:`harmchoice.core.ChoiceFunction.pick_counts`. The sampled census
never holds picks arrays: it ORs each drawn menu into its packed rows and
tests them with :func:`count_inconsistent`.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

#: Pair bitmasks use a single int64, which caps packed-pair kernels.
MAX_PAIR_MASK_N = 11


# ---------------------------------------------------------------------------
# per-order scores for a single choice


def order_scores(sel: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """For each order: the largest over menus of the minimal distortion index
    reproducing the observed pick.

    ``sel[p, e]`` says that p was picked from some menu containing e, so the
    worst menu of an order is read off the relation alone: the score is
    ``max{pos[e] + 1 : sel[p, e], pos[e] < pos[p]}``, or 0 without such a pair.
    """
    orders = np.asarray(orders, dtype=np.int64)
    K, n = orders.shape
    pos = np.empty((K, n), np.int64)
    pos[np.arange(K)[:, None], orders] = np.arange(n)[None, :]
    picked, other = np.nonzero(sel)
    pos_p, pos_e = pos[:, picked], pos[:, other]
    return np.where(pos_e < pos_p, pos_e + 1, 0).max(axis=1, initial=0)


# ---------------------------------------------------------------------------
# pair coverage


def pair_masks(picks_mat: np.ndarray, n: int) -> np.ndarray:
    """Per choice: bitmask of the co-selected alternative pairs, bit t for
    the t-th pair in lexicographic order.

    Pair {p, q} is co-selected when some menu containing both picks p and
    some menu containing both picks q.
    """
    if n > MAX_PAIR_MASK_N:
        raise ValueError(f"packed pair masks support n <= {MAX_PAIR_MASK_N}")
    masks = np.arange(picks_mat.shape[1])
    out = np.zeros(picks_mat.shape[0], dtype=np.int64)
    for t, (p, q) in enumerate(combinations(range(n), 2)):
        both = picks_mat[:, (masks >> p) & (masks >> q) & 1 == 1]
        out |= ((both == p).any(axis=1) & (both == q).any(axis=1)).astype(np.int64) << t
    return out


def count_inconsistent(rows: np.ndarray, n: int) -> int:
    """How many of the given choices co-select every alternative pair.

    ``rows[c, p]`` is row p of choice c's revealed relation packed as a
    bitmask: bit q is set when c picks p from some menu containing q. Bit p
    itself (set by any menu that picks p) is ignored. Every pair is
    co-selected exactly when every row holds every other alternative. The
    rows are tested one column at a time, in their own dtype, and the n
    tests are ANDed into one boolean per choice, so no count × n temporary
    is made.
    """
    full = (1 << n) - 1
    every = np.ones(rows.shape[0], dtype=bool)
    for p in range(n):
        every &= (rows[:, p] | (1 << p)) == full
    return int(np.count_nonzero(every))


# ---------------------------------------------------------------------------
# mixed-radix decoding of choice-function indices


def decode_choices(
    start: int,
    stop: int,
    radices: np.ndarray,
    members_tab: np.ndarray,
    menu_masks: np.ndarray,
    n: int,
) -> np.ndarray:
    """Decode choice indices start..stop-1 into a picks matrix.

    Index 0 maps every menu to its first member; the first menu in
    ``menu_masks`` is the least significant digit.
    """
    radices = np.asarray(radices, dtype=np.int64)
    members_tab = np.asarray(members_tab, dtype=np.int16)
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.zeros((idx.size, 1 << n), np.int16)
    place = np.int64(1)
    for j in range(radices.shape[0]):
        digit = (idx // place) % radices[j]
        out[:, menu_masks[j]] = members_tab[j, digit]
        place *= radices[j]
    return out
