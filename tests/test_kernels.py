"""The batched revealed-relation kernel and the census kernels that read it,
against a menu-by-menu loop and the per-choice axioms."""

from itertools import combinations

import numpy as np
import pytest

from harmchoice import ChoiceFunction, _kernels, construct_inconsistent
from harmchoice.axioms import coselected_pairs, is_inconsistent
from conftest import random_choice


def loop_relation(picks_mat, n):
    """Oracle: menu by menu, mark the pick as chosen over every member; a
    pick outside 0..n-1 marks nothing."""
    C, size = picks_mat.shape
    sel = np.zeros((C, n, n), np.bool_)
    rows = np.arange(C)
    for m in range(1, size):
        p = picks_mat[:, m]
        ok = (p >= 0) & (p < n)
        for e in range(n):
            if (m >> e) & 1:
                sel[rows[ok], p[ok], e] = True
    diag = np.arange(n)
    sel[:, diag, diag] = False
    return sel


def choice_batch(n, seed):
    """Seeded random choices on n alternatives, plus an inconsistent one
    when n is even and at least 4."""
    rng = np.random.default_rng(seed)
    choices = [random_choice(rng, n) for _ in range(12)]
    if n >= 4 and n % 2 == 0:
        choices.append(construct_inconsistent(n // 2))
    return np.stack([c.picks_array for c in choices])


@pytest.mark.parametrize("n", range(2, 9))
def test_relation_matches_menu_loop(n):
    picks_mat = choice_batch(n, 100 + n)
    np.testing.assert_array_equal(_kernels.relation(picks_mat, n), loop_relation(picks_mat, n))
    # the census decoder leaves pick 0 on the empty menu at entry 0
    decoded = picks_mat.copy()
    decoded[:, 0] = 0
    np.testing.assert_array_equal(_kernels.relation(decoded, n), loop_relation(picks_mat, n))
    # menus whose pick is -1 join no row; 2**(20-n) rows span several of the
    # kernel's blocks of choices
    rng = np.random.default_rng(200 + n)
    holes = np.resize(picks_mat, ((1 << (20 - n)) + 7, picks_mat.shape[1]))
    holes[rng.random(holes.shape) < 0.3] = -1
    np.testing.assert_array_equal(_kernels.relation(holes, n), loop_relation(holes, n))


@pytest.mark.parametrize("n", range(2, 9))
def test_count_inconsistent_matches_per_choice(n):
    picks_mat = choice_batch(n, 300 + n)
    expected = sum(is_inconsistent(ChoiceFunction(n, row)) for row in picks_mat)
    # the relation's rows packed as bitmasks, as the sampled census keeps them
    rows = (_kernels.relation(picks_mat, n).astype(np.int64) << np.arange(n)).sum(axis=2)
    assert _kernels.count_inconsistent(rows.astype(np.uint16), n) == expected
    # the diagonal bit that a singleton menu sets is ignored
    assert _kernels.count_inconsistent(rows | (1 << np.arange(n)), n) == expected


@pytest.mark.parametrize("n", range(2, 9))
def test_pair_masks_match_coselected_pairs(n):
    picks_mat = choice_batch(n, 400 + n)
    bit = {pair: 1 << t for t, pair in enumerate(combinations(range(n), 2))}
    expected = [
        sum(bit[pair] for pair in coselected_pairs(ChoiceFunction(n, row))) for row in picks_mat
    ]
    assert _kernels.pair_masks(picks_mat, n).tolist() == expected
