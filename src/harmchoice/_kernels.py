"""Hot numeric kernels in numpy.

Everything here works on flat encodings: a choice is a picks array indexed
by menu bitmask (entry 0 unused) or its n×n revealed relation, either as
booleans or as n row bitmasks; an order is one ranking row, and pair
coverage is a bitmask over the C(n,2) alternative pairs in lexicographic
order.

:func:`relation` computes the revealed relation of a batch of picks arrays
at once: row p of a choice is the OR of the masks of the menus that pick p,
one masked OR-reduce per block of choices over a broadcast view of the
masks. The degree routes, exact census, elicitation and reversal listing all
read it. The sampled census never holds picks arrays: it ORs each drawn
menu into its packed rows and tests them with :func:`count_inconsistent`.

The central quantity is the minimal distortion index of a (menu, pick, order)
triple: demoting the top block down to just past the lowest-ranked menu member
sitting above the pick is both necessary and sufficient, so the minimal index
is 1 + max(position of members above the pick), or 0 when none are above.
"""

from __future__ import annotations

import numpy as np

#: Pair bitmasks use a single int64, which caps packed-pair kernels.
MAX_PAIR_MASK_N = 11


# ---------------------------------------------------------------------------
# the revealed relation


def relation(picks_mat: np.ndarray, n: int) -> np.ndarray:
    """Revealed relation of each choice in a batch: ``sel[c, p, q]`` is True
    when choice c picks p from some menu containing q (p != q).

    ``picks_mat[c, mask]`` is the pick from the menu with that bitmask. A
    pick outside 0..n-1 (such as -1) joins no row, and entry 0, the empty
    menu, adds no member.
    """
    C, size = picks_mat.shape
    masks = np.arange(size, dtype=np.min_scalar_type((1 << n) - 1))
    rows = np.zeros((C, n), dtype=masks.dtype)
    step = max(1, (1 << 18) // size)  # choices per block: a bool temporary near 256 KiB
    for start in range(0, C, step):
        block, out = picks_mat[start : start + step], rows[start : start + step]
        view = np.broadcast_to(masks, block.shape)
        for p in range(n):
            out[:, p] = np.bitwise_or.reduce(view, axis=1, where=block == p, initial=0)
    sel = np.zeros((C, n, n), dtype=bool)
    for q in range(n):
        sel[:, :, q] = (rows >> q) & 1
    sel[:, range(n), range(n)] = False
    return sel


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
    """Per choice: bitmask of the co-selected alternative pairs.

    Pair {p, q} is co-selected when some menu containing both picks p and
    some menu containing both picks q.
    """
    if n > MAX_PAIR_MASK_N:
        raise ValueError(f"packed pair masks support n <= {MAX_PAIR_MASK_N}")
    sel = relation(picks_mat, n)
    iu, ju = np.triu_indices(n, 1)
    mutual = sel[:, iu, ju] & sel[:, ju, iu]
    return (mutual.astype(np.int64) << np.arange(iu.size)).sum(axis=1)


def count_inconsistent(rows: np.ndarray, n: int) -> int:
    """How many of the given choices co-select every alternative pair.

    ``rows[c, p]`` is row p of choice c's revealed relation packed as a
    bitmask: bit q is set when c picks p from some menu containing q. Bit p
    itself (set by any menu that picks p) is ignored. Every pair is
    co-selected exactly when every row holds every other alternative.
    """
    own = 1 << np.arange(n)
    return int(np.all((rows | own) == (1 << n) - 1, axis=1).sum())


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
