"""Hot numeric kernels in numpy.

Everything here works on flat encodings: a choice is a picks array indexed
by menu bitmask (entry 0 unused) or its n×n revealed relation, an order is
one ranking row, and pair coverage is a bitmask over the C(n,2) alternative
pairs in lexicographic order.

The central quantity is the minimal distortion index of a (menu, pick, order)
triple: demoting the top block down to just past the lowest-ranked menu member
sitting above the pick is both necessary and sufficient, so the minimal index
is 1 + max(position of members above the pick), or 0 when none are above.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: Pair bitmasks use a single int64, which caps packed-pair kernels.
MAX_PAIR_MASK_N = 11


@lru_cache(maxsize=4096)
def _members_of(mask: int) -> tuple[int, ...]:
    return tuple(e for e in range(mask.bit_length()) if (mask >> e) & 1)


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


def _sel_tensor(picks_mat, n):
    C, size = picks_mat.shape
    sel = np.zeros((C, n, n), np.bool_)
    rows = np.arange(C)
    for m in range(1, size):
        p = picks_mat[:, m]
        for e in _members_of(m):
            sel[rows, p, e] = True
    diag = np.arange(n)
    sel[:, diag, diag] = False
    return sel


def pair_masks(picks_mat: np.ndarray, n: int) -> np.ndarray:
    """Per choice: bitmask of the co-selected alternative pairs.

    Pair {p, q} is co-selected when some menu containing both picks p and
    some menu containing both picks q.
    """
    if n > MAX_PAIR_MASK_N:
        raise ValueError(f"packed pair masks support n <= {MAX_PAIR_MASK_N}")
    sel = _sel_tensor(picks_mat, n)
    acc = np.zeros(picks_mat.shape[0], np.int64)
    t = 0
    for p in range(n):
        for q in range(p + 1, n):
            acc |= (sel[:, p, q] & sel[:, q, p]).astype(np.int64) << t
            t += 1
    return acc


def count_inconsistent(picks_mat: np.ndarray, n: int) -> int:
    """How many of the given choices co-select every alternative pair."""
    sel = _sel_tensor(picks_mat, n)
    mutual = sel & sel.transpose(0, 2, 1)
    iu, ju = np.triu_indices(n, 1)
    return int(np.all(mutual[:, iu, ju], axis=1).sum())


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
