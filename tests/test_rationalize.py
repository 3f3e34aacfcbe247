"""Rationalization construction, validation, and the per-order minimal bound."""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from harmchoice import (
    LinearOrder,
    Menu,
    SelfPunishmentRationalization,
    canonical_rationalization,
    harmful_distortion,
    max_of,
    min_max_index,
    rational_choice,
    validate_rationalization,
)
from harmchoice._kernels import order_scores
from harmchoice.axioms import revealed_relation
from conftest import random_choice


def indices_by_menu(n, mapping, default=0):
    """Tuple aligned to menu masks 1..2**n-1 from a {members: index} dict."""
    out = []
    for mask in range(1, 1 << n):
        members = tuple(e for e in range(n) if (mask >> e) & 1)
        out.append(mapping.get(members, default))
    return tuple(out)


class TestCanonical:
    def test_counts_global_upset(self, cycle3_choice):
        _, c = cycle3_choice
        # base x > z > y; menu {x, y} picks y, which sits below both x and z
        r = canonical_rationalization(c, LinearOrder((0, 2, 1)))
        assert r.index_for(Menu((0, 1))) == 2

    def test_top_pick_gets_zero(self):
        order = LinearOrder((1, 0, 2))
        c = rational_choice(order)
        r = canonical_rationalization(c, order)
        assert r.index_for(Menu((0, 1, 2))) == 0

    def test_not_menu_minimal(self):
        # maximizing a > b, the singleton {b} gets index 1 though 0 suffices
        order = LinearOrder((0, 1))
        r = canonical_rationalization(rational_choice(order), order)
        assert r.index_for(Menu((1,))) == 1
        assert max_of(Menu((1,)), harmful_distortion(order, 1)) == 1

    def test_always_validates_random(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            c = random_choice(rng, n)
            order = LinearOrder(tuple(int(x) for x in rng.permutation(n)))
            assert validate_rationalization(c, canonical_rationalization(c, order))


class TestValidate:
    def test_cycle3_known_indices(self, cycle3_choice):
        _, c = cycle3_choice
        base = LinearOrder((0, 2, 1))  # x > z > y
        good = SelfPunishmentRationalization(
            base, indices_by_menu(3, {(0, 1): 1})
        )
        assert validate_rationalization(c, good)

    def test_cycle3_all_zero_fails(self, cycle3_choice):
        _, c = cycle3_choice
        base = LinearOrder((0, 2, 1))
        bad = SelfPunishmentRationalization(base, indices_by_menu(3, {}))
        assert not validate_rationalization(c, bad)


class TestMinMaxIndex:
    def test_cycle3(self, cycle3_choice):
        _, c = cycle3_choice
        assert min_max_index(c, LinearOrder((0, 2, 1))) == 1

    def test_rational_is_zero(self):
        order = LinearOrder((3, 1, 0, 2))
        assert min_max_index(rational_choice(order), order) == 0

    def test_two_element_flip(self):
        c = rational_choice(LinearOrder((0, 1)))
        assert min_max_index(c, LinearOrder((1, 0))) == 1

    def test_zero_iff_maximization(self):
        rng = np.random.default_rng(32)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            c = random_choice(rng, n)
            order = LinearOrder(tuple(int(x) for x in rng.permutation(n)))
            assert (min_max_index(c, order) == 0) == (c == rational_choice(order))

    def test_bounded_by_canonical(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            c = random_choice(rng, n)
            order = LinearOrder(tuple(int(x) for x in rng.permutation(n)))
            canon = canonical_rationalization(c, order)
            assert min_max_index(c, order) <= canon.max_index

    def test_realizable_as_validating_assignment(self):
        """The bound is achieved: per menu, the smallest feasible index
        assembles into a validating assignment with that worst index."""
        rng = np.random.default_rng(34)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            c = random_choice(rng, n)
            order = LinearOrder(tuple(int(x) for x in rng.permutation(n)))
            bound = min_max_index(c, order)
            indices = []
            for mask in range(1, 1 << n):
                menu = Menu.from_mask(mask)
                feasible = [
                    i
                    for i in range(n)
                    if max_of(menu, harmful_distortion(order, i)) == c.pick(menu)
                ]
                assert feasible
                indices.append(feasible[0])
            r = SelfPunishmentRationalization(order, tuple(indices))
            assert validate_rationalization(c, r)
            assert r.max_index == bound

    @settings(max_examples=60)
    @given(st.integers(2, 6), st.data())
    def test_kernel_agrees_with_direct_evaluation(self, n, data):
        seed = data.draw(st.integers(0, 2**31))
        rng = np.random.default_rng(seed)
        c = random_choice(rng, n)
        ranking = tuple(data.draw(st.permutations(range(n))))
        order = LinearOrder(ranking)
        scores = order_scores(revealed_relation(c), np.array([ranking], dtype=np.int64))
        assert int(scores[0]) == min_max_index(c, order)


def test_kernel_agrees_exhaustively_n3():
    orders = np.array(list(itertools.permutations(range(3))), dtype=np.int64)
    rng = np.random.default_rng(35)
    for _ in range(12):
        c = random_choice(rng, 3)
        scores = order_scores(revealed_relation(c), orders)
        for k, ranking in enumerate(itertools.permutations(range(3))):
            assert int(scores[k]) == min_max_index(c, LinearOrder(ranking))
