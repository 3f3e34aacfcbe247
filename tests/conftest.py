"""Shared fixtures: small hand-authored datasets and enumeration helpers."""

import itertools
import warnings
from math import factorial

import numpy as np
import pytest

from harmchoice import (
    ChoiceFunction,
    FixedIndexPolicy,
    GroundSet,
    Menu,
    StrictPartialOrder,
    UniformIndexPolicy,
    harmful_distortion,
    validate_choice,
)
from harmchoice.axioms import revealed_relation
from harmchoice.core import menu_order, move_bits
from harmchoice.elicit import _transitive_closure


def make_choice(labels, table):
    """Build (ground, choice) from {menu label tuple: pick label} rows.

    Singleton menus may be omitted; the validator fills them in silently.
    """
    ground = GroundSet(tuple(labels))
    rows = []
    for menu_labels, pick in table.items():
        menu = Menu(tuple(ground.index(lab) for lab in menu_labels))
        rows.append((menu, ground.index(pick)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        choice = validate_choice(rows, ground)
    return ground, choice


def iter_all_choices(n):
    """Every choice function on n alternatives, menu masks ascending.

    Independent of the package's census enumeration: plain product over
    member lists.
    """
    size = 1 << n
    member_lists = [
        [e for e in range(n) if (m >> e) & 1] for m in range(1, size)
    ]
    for combo in itertools.product(*member_lists):
        picks = np.empty(size, dtype=np.int16)
        picks[0] = -1
        picks[1:] = combo
        yield ChoiceFunction(n, picks)


def random_choice(rng, n):
    size = 1 << n
    picks = np.empty(size, dtype=np.int16)
    picks[0] = -1
    for m in range(1, size):
        members = [e for e in range(n) if (m >> e) & 1]
        picks[m] = members[rng.integers(0, len(members))]
    return ChoiceFunction(n, picks)


def loop_relation(picks_mat, n):
    """Oracle for the revealed relation of a batch of picks arrays: menu by
    menu, mark the pick as chosen over every member; a pick outside 0..n-1
    marks nothing."""
    C, size = picks_mat.shape
    sel = np.zeros((C, n, n), np.bool_)
    rows = np.arange(C)
    for m in range(1, size):
        p = picks_mat[:, m]
        ok = (p >= 0) & (p < n)
        members = [e for e in range(n) if (m >> e) & 1]
        sel[rows[ok, None], p[ok, None], members] = True
    diag = np.arange(n)
    sel[:, diag, diag] = False
    return sel


def max_of(menu, order):
    """Oracle for the distortion kernel: the member of the menu ranked best
    by the order."""
    return next(e for e in order.ranking if e in menu)


def closed_order(n, pairs):
    """The strict partial order generated by ``pairs``, closed under
    transitivity."""
    return StrictPartialOrder(n, _transitive_closure(n, frozenset(pairs)))


def lexsort_menu_order(n):
    """Oracle for ``menu_order``: sizes and reversed masks built one bit at
    a time, then one lexsort."""
    masks = np.arange(1, 1 << n, dtype=np.int64)
    size = np.zeros_like(masks)
    reversed_bits = np.zeros_like(masks)
    for e in range(n):
        bit = (masks >> e) & 1
        size += bit
        reversed_bits |= bit << (n - 1 - e)
    return masks[np.lexsort((-reversed_bits, size))]


def whole_distortion_picks(order, indices):
    """Oracle for ``distortion_picks``: the distortion kernel over all 2**n
    bitmasks in one pass, one index or one per bitmask."""
    n = order.n
    ranking = np.asarray(order.ranking, dtype=np.int16)
    at = move_bits(np.arange(1 << n), np.argsort(ranking))
    kept = at >> indices << indices
    pos = np.where(kept != 0, np.frexp(kept & -kept)[1], np.frexp(at)[1]) - 1
    picks = ranking[pos]
    picks[0] = -1
    return picks


def whole_generate_harmful(order, policy, seed):
    """Oracle for ``generate_harmful``'s picks: one int64 index per bitmask
    for all menus, the uniform indices drawn in one call over the canonical
    order, then :func:`whole_distortion_picks`."""
    n = order.n
    if isinstance(policy, FixedIndexPolicy):
        return whole_distortion_picks(order, policy.index)
    indices = np.zeros(1 << n, dtype=np.int64)
    if isinstance(policy, UniformIndexPolicy):
        key = np.array([seed, 0], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        indices[menu_order(n)] = rng.integers(0, policy.cap + 1, size=(1 << n) - 1)
    else:
        for mask, i in policy.assignments:
            indices[mask] = i
    return whole_distortion_picks(order, indices)


def mask_min_max_index(c, order):
    """Oracle for ``min_max_index``: each menu's position mask (bit k for a
    member at position k of the order), cut below the pick's position; the
    largest bit length over all menus."""
    pos = np.argsort(np.asarray(order.ranking))
    at = move_bits(np.arange(1, 1 << c.n), pos)
    above = at & ((1 << pos[c.picks_array[1:]]) - 1)
    return int(np.frexp(above)[1].max())


def scan_min_cover(pairs, n):
    """Oracle for ``min_cover``: one pass over all 2**n vertex subsets. A set
    is a cover exactly when every vertex outside it has all of its
    neighbours inside; vertex v is bit n-1-v of a subset's code, so among
    covers of one size the largest code is the lexicographically first."""
    bit = [1 << (n - 1 - v) for v in range(n)]
    nbrs = [0] * n
    for p, q in pairs:
        nbrs[p] |= bit[q]
        nbrs[q] |= bit[p]
    codes = np.arange(1 << n, dtype=np.int64)
    size = np.zeros(1 << n, dtype=np.int8)
    cover = np.ones(1 << n, dtype=bool)
    for v in range(n):
        inside = (codes & bit[v]) != 0
        size += inside
        if nbrs[v]:
            cover &= inside | ((codes & nbrs[v]) == nbrs[v])
    size[~cover] = n + 1
    code = int(np.flatnonzero(size == size.min())[-1])
    return tuple(v for v in range(n) if code & bit[v])


def topological_counts(pred):
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


def table_sp_bruteforce(c, cap=100):
    """Oracle for ``sp_bruteforce``: the degree, the number of minimizing
    orders and the first ``cap`` of them, from two 2**n tables.

    sp = n - the size of a largest acyclic set of ``sel``, reached by sp!
    times the topological orders of those sets (:func:`topological_counts`).
    A depth-first search keeps only prefixes that complete: in the sp top
    positions, what is left must still contain a largest acyclic set
    (``holds``, closed under supersets); below them, the next alternative
    must have no predecessor among those left.
    """
    n = c.n
    sel = revealed_relation(c)
    pred = (sel.astype(np.int64) << np.arange(n)[:, None]).sum(axis=0).tolist()
    t, largest_sets = topological_counts(pred)
    free = n - int(largest_sets[0]).bit_count()
    holds = np.zeros(1 << n, dtype=bool)
    holds[largest_sets] = True
    for v in range(n):
        view = holds.reshape(-1, 2, 1 << v)
        view[:, 1] |= view[:, 0]
    found = []
    prefix = []

    def walk(rest):
        if not rest:
            found.append(tuple(prefix))
        top = len(prefix) < free
        for v in range(n):
            if len(found) == cap:
                return
            if rest >> v & 1 and (holds[rest ^ 1 << v] if top else not pred[v] & rest):
                prefix.append(v)
                walk(rest ^ 1 << v)
                prefix.pop()

    walk((1 << n) - 1)
    return free, factorial(free) * int(t[largest_sets].sum()), found


def fill_best(picks, ranking):
    """Give every menu whose pick is still -1 its best member under
    ``ranking`` (best first), in place; the empty menu at entry 0 stays -1."""
    masks = np.arange(picks.shape[0], dtype=np.int64)
    for e in ranking:
        picks[(picks == -1) & (((masks >> e) & 1) == 1)] = e
    return picks


def loop_distortion_tables(order):
    """Oracle for ``distortion_max_tables``: tab[i, mask] is the best member
    of the menu under the i-th distortion, one masked scan per alternative
    and index; column 0 stays -1."""
    n = order.n
    tabs = np.full((n, 1 << n), -1, dtype=np.int16)
    for i in range(n):
        fill_best(tabs[i], harmful_distortion(order, i).ranking)
    return tabs


def dataset_dict(ds):
    """Oracle for ``LoadedDataset.json_fields``: the JSON dataset as a dict,
    one menu at a time in canonical order."""
    labels = ds.ground.labels
    picks = ds.choice.picks_array
    return {
        "version": 1,
        "alternatives": list(labels),
        "choices": [
            {
                "menu": [label for e, label in enumerate(labels) if (m >> e) & 1],
                "choice": labels[picks[m]],
            }
            for m in menu_order(len(labels)).tolist()
        ],
    }


@pytest.fixture
def donation_choice():
    """Money kept vs donated: the chooser keeps it all only when every
    amount is on the table."""
    return make_choice(
        ("0", "5", "20"),
        {
            ("0", "5", "20"): "0",
            ("0", "5"): "5",
            ("0", "20"): "20",
            ("5", "20"): "5",
        },
    )


@pytest.fixture
def diet_choice():
    """Tasty food wins from the full menu, lighter dishes from the rest."""
    return make_choice(
        ("l", "r", "s"),
        {
            ("l", "r", "s"): "l",
            ("l", "r"): "r",
            ("l", "s"): "s",
            ("r", "s"): "s",
        },
    )


@pytest.fixture
def projects_choice():
    """Four projects by payoff; confidence swings pick different tiers."""
    return make_choice(
        ("h", "mh", "ml", "l"),
        {
            ("h", "mh", "ml", "l"): "h",
            ("h", "mh", "ml"): "ml",
            ("h", "mh", "l"): "mh",
            ("h", "ml", "l"): "h",
            ("mh", "ml", "l"): "ml",
            ("h", "mh"): "h",
            ("h", "ml"): "ml",
            ("h", "l"): "h",
            ("mh", "ml"): "mh",
            ("mh", "l"): "l",
            ("ml", "l"): "ml",
        },
    )


@pytest.fixture
def cycle3_choice():
    """Three alternatives with a single reversal between {x,y} and the full menu."""
    return make_choice(
        ("x", "y", "z"),
        {
            ("x", "y", "z"): "x",
            ("x", "y"): "y",
            ("y", "z"): "z",
            ("x", "z"): "x",
        },
    )


@pytest.fixture
def erratic4_choice():
    """Four alternatives whose reversals co-select every pair."""
    return make_choice(
        ("w", "x", "y", "z"),
        {
            ("w", "x", "y", "z"): "w",
            ("w", "x", "y"): "x",
            ("w", "x", "z"): "z",
            ("w", "y", "z"): "y",
            ("x", "y", "z"): "x",
            ("w", "x"): "w",
            ("w", "y"): "w",
            ("w", "z"): "w",
            ("x", "y"): "y",
            ("x", "z"): "x",
            ("y", "z"): "z",
        },
    )
