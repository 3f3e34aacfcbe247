"""The revealed relation from pick counts, and the census kernels, against
a menu-by-menu loop and the per-choice axioms."""

from itertools import combinations

import numpy as np
import pytest

from harmchoice import ChoiceFunction, _kernels, construct_inconsistent
from harmchoice.axioms import coselected_pairs, is_inconsistent, revealed_relation
from conftest import loop_relation, random_choice


def choice_batch(n, seed):
    """Seeded random choices on n alternatives, plus an inconsistent one
    when n is even and at least 4."""
    rng = np.random.default_rng(seed)
    choices = [random_choice(rng, n) for _ in range(12)]
    if n >= 4 and n % 2 == 0:
        choices.append(construct_inconsistent(n // 2))
    return np.stack([c.picks_array for c in choices])


def loop_pick_counts(c):
    """Oracle for ``ChoiceFunction.pick_counts``: menu by menu, count the pick once for
    every member, itself included."""
    counts = np.zeros((c.n, c.n), np.int64)
    for menu, p in c.items():
        counts[p, list(menu.members)] += 1
    return counts


@pytest.mark.parametrize("n", range(1, 10))
def test_relation_matches_menu_loop(n):
    for row in choice_batch(n, 100 + n):
        c = ChoiceFunction(n, row)
        counts = c.pick_counts
        np.testing.assert_array_equal(counts, loop_pick_counts(c))
        np.testing.assert_array_equal(
            revealed_relation(c), loop_relation(c.picks_array[None, :], n)[0]
        )
        assert not counts.flags.writeable and c.pick_counts is counts


@pytest.mark.parametrize("n", range(2, 9))
def test_count_inconsistent_matches_per_choice(n):
    picks_mat = choice_batch(n, 300 + n)
    expected = sum(is_inconsistent(ChoiceFunction(n, row)) for row in picks_mat)
    # the relation's rows packed as bitmasks, as the sampled census keeps them
    rows = (loop_relation(picks_mat, n).astype(np.int64) << np.arange(n)).sum(axis=2)
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
    # the census decoder leaves pick 0 on the empty menu at entry 0
    decoded = picks_mat.copy()
    decoded[:, 0] = 0
    assert _kernels.pair_masks(decoded, n).tolist() == expected
    # menus whose pick is -1 take part in no pair
    rng = np.random.default_rng(200 + n)
    holes = np.resize(picks_mat, (500, picks_mat.shape[1]))
    holes[rng.random(holes.shape) < 0.3] = -1
    sel = loop_relation(holes, n)
    iu, ju = np.triu_indices(n, 1)
    mutual = (sel[:, iu, ju] & sel[:, ju, iu]).astype(np.int64) << np.arange(iu.size)
    assert _kernels.pair_masks(holes, n).tolist() == mutual.sum(axis=1).tolist()
