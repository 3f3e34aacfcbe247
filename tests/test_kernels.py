"""The revealed relation from pick counts, and the census kernels, against
a menu-by-menu loop and the per-choice axioms."""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from harmchoice import (
    ChoiceFunction,
    LinearOrder,
    UniformIndexPolicy,
    _kernels,
    construct_inconsistent,
    generate_harmful,
    rational_choice,
)
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
    for m in range(1, 1 << c.n):
        counts[c.picks_array[m], [e for e in range(c.n) if (m >> e) & 1]] += 1
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


def test_relation_matches_menu_loop_at_n16():
    c = generate_harmful(LinearOrder(tuple(range(15, -1, -1))), UniformIndexPolicy(12), seed=16)
    np.testing.assert_array_equal(c.pick_counts, loop_pick_counts(c))


def test_pick_counts_trace_under_2mb_at_n18():
    """Each column counts a half of the picks table, a view, so no 2**18
    int64 mask array is alive; with one and its shifted copies the peak was
    4.25 MiB."""
    c = rational_choice(LinearOrder(tuple(range(18))))
    tracemalloc.start()
    try:
        c.pick_counts
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"{peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("n", range(2, 9))
def test_count_inconsistent_matches_per_choice(n):
    picks_mat = choice_batch(n, 300 + n)
    expected = sum(is_inconsistent(ChoiceFunction(n, row)) for row in picks_mat)
    # the relation's rows packed as bitmasks, as the sampled census keeps them
    rows = (loop_relation(picks_mat, n).astype(np.int64) << np.arange(n)).sum(axis=2)
    # the sampler keeps uint8 rows at n <= 8 and uint16 rows above
    assert _kernels.count_inconsistent(rows.astype(np.uint8), n) == expected
    assert _kernels.count_inconsistent(rows.astype(np.uint16), n) == expected
    # the diagonal bit that a singleton menu sets is ignored
    assert _kernels.count_inconsistent(rows | (1 << np.arange(n)), n) == expected


def whole_count_inconsistent(rows, n):
    """Oracle: the count × n form that ``count_inconsistent`` replaced, one
    OR and one compare over the whole rows, reduced over each row."""
    own = (1 << np.arange(n)).astype(rows.dtype)
    return int(np.all((rows | own) == (1 << n) - 1, axis=1).sum())


@pytest.mark.parametrize("n", range(2, 17))
def test_count_inconsistent_matches_whole_rows(n):
    """Random rows, half of them full, in each dtype that holds n bits, with
    the own bits set and unset, and no rows at all."""
    rng = np.random.default_rng(700 + n)
    full = (1 << n) - 1
    rows = rng.integers(0, 1 << n, size=(300, n), dtype=np.int64)
    rows[::2] |= full & ~(rng.integers(0, 2, size=(150, n)) << np.arange(n))
    own = 1 << np.arange(n)
    for dtype in [np.uint8, np.uint16, np.int64][(n > 8) :]:
        for table in (rows & ~own, rows | own, rows[:0]):
            table = table.astype(dtype)
            assert _kernels.count_inconsistent(table, n) == whole_count_inconsistent(table, n)
    assert whole_count_inconsistent(rows | own, n) > 0


def test_count_inconsistent_keeps_the_rows_dtype():
    """The test makes no int64 copy of uint8 rows: 65,536 x 6 rows (0.39 MB)
    trace under 1 MB, where an int64 copy alone is 3.1 MB."""
    rows = np.random.default_rng(5).integers(0, 1 << 6, size=(65_536, 6), dtype=np.uint8)
    rows[::2] = 63  # every other choice co-selects every pair
    expected = int(np.all((rows | (1 << np.arange(6))) == 63, axis=1).sum())
    tracemalloc.start()
    try:
        assert _kernels.count_inconsistent(rows, 6) == expected
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


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
