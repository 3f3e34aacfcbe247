"""Distortion construction and its defining conditions."""

import itertools

import pytest
from hypothesis import given, strategies as st

from harmchoice import LinearOrder, harmful_distortion
from harmchoice.errors import IndexOutOfRange


def prefers(order, a, b):
    return order.ranking.index(a) < order.ranking.index(b)


def assert_distortion_conditions(base, i, result):
    """Relational oracle: demoted items flip against everything they beat,
    untouched items keep their relative order, and the result is total."""
    n = base.n
    top = set(base.ranking[:i])
    for a, b in itertools.permutations(range(n), 2):
        if prefers(base, a, b):
            if a in top:
                assert prefers(result, b, a), (base, i, a, b)
            if a not in top and b not in top:
                assert prefers(result, a, b), (base, i, a, b)
    assert sorted(result.ranking) == list(range(n))


class TestHarmfulDistortion:
    def test_projects_first_distortion(self):
        # h > mh > ml > l, demote the top one
        assert harmful_distortion(LinearOrder((0, 1, 2, 3)), 1).ranking == (1, 2, 3, 0)

    def test_projects_second_distortion(self):
        assert harmful_distortion(LinearOrder((0, 1, 2, 3)), 2).ranking == (2, 3, 1, 0)

    def test_three_dish_full_demotion(self):
        # l > r > s with the top two demoted lands soup first
        assert harmful_distortion(LinearOrder((0, 1, 2)), 2).ranking == (2, 1, 0)

    def test_index_zero_is_identity(self):
        order = LinearOrder((3, 0, 2, 1))
        assert harmful_distortion(order, 0) == order

    def test_index_n_rejected(self):
        order = LinearOrder((0, 1, 2))
        with pytest.raises(IndexOutOfRange):
            harmful_distortion(order, 3)

    def test_negative_index_rejected(self):
        with pytest.raises(IndexOutOfRange):
            harmful_distortion(LinearOrder((0, 1)), -1)

    @given(st.integers(1, 7), st.data())
    def test_defining_conditions(self, n, data):
        ranking = tuple(data.draw(st.permutations(range(n))))
        i = data.draw(st.integers(0, n - 1))
        base = LinearOrder(ranking)
        assert_distortion_conditions(base, i, harmful_distortion(base, i))

    def test_last_index_is_exact_reverse(self):
        for ranking in itertools.permutations(range(5)):
            base = LinearOrder(ranking)
            assert harmful_distortion(base, 4).ranking == ranking[::-1]

    def test_top_of_ith_distortion(self):
        base = LinearOrder((4, 2, 0, 3, 1))
        for i in range(5):
            assert harmful_distortion(base, i).ranking[0] == base.ranking[i]


class TestHarmFamily:
    """The n distortions of one base order."""

    def test_donation_family(self):
        base = LinearOrder((0, 1, 2))
        members = [harmful_distortion(base, i).ranking for i in range(3)]
        assert members == [(0, 1, 2), (1, 2, 0), (2, 1, 0)]

    def test_hand_checked_member(self):
        # base x > z > y: demoting the top two puts y first, then z, then x
        assert harmful_distortion(LinearOrder((0, 2, 1)), 2).ranking == (1, 2, 0)

    def test_members_pairwise_distinct(self):
        for ranking in itertools.permutations(range(4)):
            base = LinearOrder(ranking)
            assert len({harmful_distortion(base, i) for i in range(4)}) == 4


def test_block_structure_exhaustive_small():
    """Non-demoted block keeps base order and precedes the demoted block,
    which is internally reversed."""
    for n in range(1, 6):
        for ranking in itertools.permutations(range(n)):
            base = LinearOrder(ranking)
            for i in range(n):
                d = harmful_distortion(base, i)
                assert d.ranking[: n - i] == ranking[i:]
                assert d.ranking[n - i :] == ranking[:i][::-1]


def test_demotion_preserves_mid_rank_precedence():
    """With g items demoted, anything ranked between g+1 and the end keeps
    beating everything ranked below it."""
    for n in range(1, 7):
        for ranking in itertools.permutations(range(n)):
            base = LinearOrder(ranking)
            for g in range(n):
                d = harmful_distortion(base, g)
                for h in range(g + 1, n + 1):
                    for i in range(h + 1, n + 1):
                        assert prefers(d, ranking[h - 1], ranking[i - 1])
