"""Rationalization construction, validation, and the per-order minimal bound."""

import gc
import itertools
import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from harmchoice import (
    LinearOrder,
    Menu,
    SelfPunishmentRationalization,
    UniformIndexPolicy,
    canonical_rationalization,
    distortion_max_tables,
    generate_harmful,
    harmful_distortion,
    min_max_index,
    rational_choice,
    validate_rationalization,
)
from harmchoice._kernels import order_scores
from harmchoice.axioms import revealed_relation
from conftest import loop_distortion_tables, mask_min_max_index, max_of, random_choice


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
        assert r.indices[Menu((0, 1)).mask - 1] == 2

    def test_top_pick_gets_zero(self):
        order = LinearOrder((1, 0, 2))
        c = rational_choice(order)
        r = canonical_rationalization(c, order)
        assert r.indices[Menu((0, 1, 2)).mask - 1] == 0

    def test_not_menu_minimal(self):
        # maximizing a > b, the singleton {b} gets index 1 though 0 suffices
        order = LinearOrder((0, 1))
        r = canonical_rationalization(rational_choice(order), order)
        assert r.indices[Menu((1,)).mask - 1] == 1
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
            assert min_max_index(c, order) <= max(canon.indices)

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
                    if max_of(menu, harmful_distortion(order, i)) == c.picks_array[mask]
                ]
                assert feasible
                indices.append(feasible[0])
            r = SelfPunishmentRationalization(order, tuple(indices))
            assert validate_rationalization(c, r)
            assert max(r.indices) == bound

    def test_matches_distortion_tables(self):
        """The worst menu's smallest feasible index, read off the
        menu-scan tables, for random choices and orders at n = 1..10; the
        package's tables equal them."""
        rng = np.random.default_rng(36)
        for n in range(1, 11):
            for _ in range(4):
                c = random_choice(rng, n)
                order = LinearOrder(tuple(rng.permutation(n).tolist()))
                tabs = loop_distortion_tables(order)
                assert np.array_equal(distortion_max_tables(order), tabs)
                feasible = tabs[:, 1:] == c.picks_array[None, 1:]
                assert min_max_index(c, order) == int(np.argmax(feasible, axis=0).max())

    def test_matches_position_mask_oracle(self):
        """Random choices, and generated ones whose bound lies below n - 1,
        against random and base orders at n = 1..12."""
        rng = np.random.default_rng(38)
        for n in range(1, 13):
            for _ in range(4):
                base = LinearOrder(tuple(rng.permutation(n).tolist()))
                cap = int(rng.integers(0, n))
                generated = generate_harmful(base, UniformIndexPolicy(cap), seed=n)
                for c in (random_choice(rng, n), generated):
                    for order in (base, LinearOrder(tuple(rng.permutation(n).tolist()))):
                        assert min_max_index(c, order) == mask_min_max_index(c, order)

    def test_matches_position_mask_oracle_at_n16(self):
        rng = np.random.default_rng(39)
        base = LinearOrder(tuple(rng.permutation(16).tolist()))
        c = generate_harmful(base, UniformIndexPolicy(9), seed=16)
        for order in (base, LinearOrder(tuple(rng.permutation(16).tolist()))):
            assert min_max_index(c, order) == mask_min_max_index(c, order)

    def test_traces_under_4mb_at_n18(self):
        """The pick positions are int8 and read by halves, so no 2**18
        int64 position mask is alive; the mask form peaked at 8.02 MiB."""
        order = LinearOrder(tuple(range(17, -1, -1)))
        c = rational_choice(LinearOrder(tuple(range(18))))
        tracemalloc.start()
        try:
            assert min_max_index(c, order) == 17
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"{peak / 2**20:.2f} MiB"

    def test_many_orders_leave_nothing_behind(self):
        """Bounding, validating and tabulating against many base orders
        keeps no per-order tables once the results are dropped. The bound
        lies above the 1.4 KB that stays here and below the 18 MB that 40
        cached n = 14 tables would hold."""
        n = 14
        rng = np.random.default_rng(37)
        c = random_choice(rng, n)
        orders = [LinearOrder(tuple(rng.permutation(n).tolist())) for _ in range(40)]
        tracemalloc.start()
        try:
            for order in orders:
                min_max_index(c, order)
                validate_rationalization(c, canonical_rationalization(c, order))
                distortion_max_tables(order)
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 1_000_000

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
