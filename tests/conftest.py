"""Shared fixtures: small hand-authored datasets and enumeration helpers."""

import itertools
import warnings

import numpy as np
import pytest

from harmchoice import ChoiceFunction, GroundSet, Menu, harmful_distortion, validate_choice
from harmchoice.core import menu_order


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
