"""Preference recovery: exact orders, partial orders, linear extensions."""

import itertools
import math
import time

import numpy as np
import pytest

from harmchoice import (
    LinearOrder,
    StrictPartialOrder,
    UniformIndexPolicy,
    all_extensions,
    check_cns,
    constant_selection_witnesses,
    construct_inconsistent,
    elicit_partial,
    elicit_weakly_harmful,
    generate_harmful,
    min_max_index,
    rational_choice,
    sp_axiomatic,
)
from harmchoice.axioms import coselected_pairs, min_cover, revealed_relation
from harmchoice.errors import (
    CycleDetected,
    GroundSetTooLarge,
    InvalidWitness,
    NotWeaklyHarmful,
)
from conftest import closed_order, loop_relation, random_choice


def masked_weakly_harmful(c):
    """Oracle: for each witness, the relation of the menus that avoid it,
    built again from a masked picks array, orders the rest."""
    witnesses = constant_selection_witnesses(c)
    if witnesses is None:
        raise NotWeaklyHarmful("no witness")
    n = c.n
    masks = np.arange(1 << n, dtype=np.int64)
    orders = []
    for star in sorted(witnesses):
        picks = np.where((masks >> star) & 1 == 1, -1, c.picks_array)
        wins = loop_relation(picks[None, :], n)[0].sum(axis=1)
        tail = sorted((e for e in range(n) if e != star), key=lambda e: (-wins[e], e))
        assert [int(wins[e]) for e in tail] == list(range(n - 2, -1, -1))
        orders.append(LinearOrder((star, *tail)))
    return orders


def closed_partial(c, witness):
    """Oracle: the witness chain, the witness above the rest, and ``sel``
    among the rest, closed by matrix powers."""
    n = c.n
    items = tuple(witness)
    others = [e for e in range(n) if e not in items]
    sel = revealed_relation(c)
    rel = set(itertools.combinations(items, 2))
    rel.update((x, y) for x in items for y in others)
    rel.update((y, z) for y in others for z in others if sel[y, z])
    return closed_order(n, rel)


def seeded_choices():
    """generate_harmful at n = 3..9, random choices at n = 3..8 and
    construct_inconsistent(k) at k = 2..4."""
    rng = np.random.default_rng(54)
    for n in range(3, 10):
        for cap in range(1, n):
            for seed in range(3):
                order = LinearOrder(tuple(int(e) for e in rng.permutation(n)))
                yield generate_harmful(order, UniformIndexPolicy(cap), seed=100 * n + 10 * cap + seed)
    for n in range(3, 9):
        for _ in range(6):
            yield random_choice(rng, n)
    for k in (2, 3, 4):
        yield construct_inconsistent(k)


def minimum_covers(c):
    """Every minimum vertex cover of the co-selected pairs."""
    pairs = coselected_pairs(c)
    size = len(min_cover(pairs, c.n))
    return [
        cover
        for cover in itertools.combinations(range(c.n), size)
        if all(p in cover or q in cover for p, q in pairs)
    ]


def extension_scan(p):
    """Oracle: every permutation that respects p, in lexicographic order."""
    return [
        ranking
        for ranking in itertools.permutations(range(p.n))
        if all(ranking.index(a) < ranking.index(b) for a, b in p.pairs)
    ]


class TestRankedOrderMatchesOracles:
    def test_weakly_harmful_equals_masked_relation(self):
        checked = 0
        for c in seeded_choices():
            if constant_selection_witnesses(c) is None:
                with pytest.raises(NotWeaklyHarmful):
                    elicit_weakly_harmful(c)
                continue
            orders = elicit_weakly_harmful(c)
            assert orders == masked_weakly_harmful(c)
            first = set(itertools.combinations(orders[0].ranking, 2))
            assert elicit_partial(c, check_cns(c, 1).items).pairs == first
            checked += 1
        assert checked >= 30

    def test_partial_equals_loop_and_closure(self):
        checked = 0
        for c in seeded_choices():
            pairs = coselected_pairs(c)
            if not pairs:
                continue
            witness = min_cover(pairs, c.n)
            for items in (witness, witness[::-1]):
                assert elicit_partial(c, items) == closed_partial(c, items)
            checked += 1
        assert checked >= 100

    def test_every_ordered_minimum_cover_pins_one_order(self):
        rng = np.random.default_rng(55)
        choices = [construct_inconsistent(k) for k in (2, 3)]
        for n in range(3, 7):
            for cap in range(1, n):
                order = LinearOrder(tuple(int(e) for e in rng.permutation(n)))
                choices.append(generate_harmful(order, UniformIndexPolicy(cap), seed=n * 7 + cap))
            choices.extend(random_choice(rng, n) for _ in range(3))
        checked = 0
        for c in choices:
            degree = sp_axiomatic(c).sp
            if degree == 0:
                continue
            for cover in minimum_covers(c):
                for items in itertools.permutations(cover):
                    p = elicit_partial(c, items)
                    assert len(p.pairs) == c.n * (c.n - 1) // 2
                    ext = all_extensions(p, 2)
                    assert ext.total == 1
                    assert ext.orders[0].ranking[: len(items)] == items
                    assert min_max_index(c, ext.orders[0]) <= degree
                    checked += 1
        assert checked >= 200


class TestElicitWeaklyHarmful:
    def test_donation_recovers_money_order(self, donation_choice):
        ground, c = donation_choice
        orders = elicit_weakly_harmful(c)
        assert [o.label_list(ground) for o in orders] == [["0", "5", "20"]]

    def test_diet_recovers_taste_order(self, diet_choice):
        ground, c = diet_choice
        orders = elicit_weakly_harmful(c)
        assert [o.label_list(ground) for o in orders] == [["l", "s", "r"]]

    def test_cycle3_two_candidates(self, cycle3_choice):
        ground, c = cycle3_choice
        orders = elicit_weakly_harmful(c)
        assert [o.label_list(ground) for o in orders] == [
            ["x", "z", "y"],
            ["y", "x", "z"],
        ]

    def test_elicited_orders_explain_with_one_demotion(
        self, donation_choice, diet_choice, cycle3_choice
    ):
        for _, c in (donation_choice, diet_choice, cycle3_choice):
            for order in elicit_weakly_harmful(c):
                assert min_max_index(c, order) <= 1

    def test_rational_rejected(self):
        with pytest.raises(NotWeaklyHarmful):
            elicit_weakly_harmful(rational_choice(LinearOrder((0, 1, 2))))

    def test_identification_sampled_n5(self):
        """Simulated shallow self-punishers on five alternatives: elicited
        orders explain within one demotion, all others need at least two."""
        from itertools import permutations

        from harmchoice import UniformIndexPolicy, generate_harmful, sp_axiomatic

        rng = np.random.default_rng(53)
        found = 0
        trial = 0
        while found < 8 and trial < 200:
            trial += 1
            order = LinearOrder(tuple(int(x) for x in rng.permutation(5)))
            c = generate_harmful(order, UniformIndexPolicy(1), seed=1000 + trial)
            if sp_axiomatic(c).sp != 1:
                continue
            found += 1
            elicited = {o.ranking for o in elicit_weakly_harmful(c)}
            for ranking in permutations(range(5)):
                value = min_max_index(c, LinearOrder(ranking))
                assert (value <= 1) == (ranking in elicited)
        assert found == 8

    def test_deeply_distorted_rejected(self, erratic4_choice):
        with pytest.raises(NotWeaklyHarmful):
            elicit_weakly_harmful(erratic4_choice[1])


class TestElicitPartial:
    def test_cycle3_chain(self, cycle3_choice):
        _, c = cycle3_choice
        p = elicit_partial(c, (0,))  # witness x
        assert p.pairs == frozenset({(0, 2), (2, 1), (0, 1)})

    def test_diet_chain(self, diet_choice):
        _, c = diet_choice
        p = elicit_partial(c, (0,))  # witness l; c(rs) = s orders the tail
        assert p.pairs == frozenset({(0, 2), (2, 1), (0, 1)})

    def test_erratic4_extensions_within_bound(self, erratic4_choice):
        _, c = erratic4_choice
        witness = check_cns(c, 3).items
        p = elicit_partial(c, witness)
        ext = all_extensions(p, cap=50)
        assert ext.total >= 1
        for order in ext.orders:
            assert min_max_index(c, order) <= 3

    def test_invalid_witness_wrong_item(self, cycle3_choice):
        _, c = cycle3_choice
        with pytest.raises(InvalidWitness):
            elicit_partial(c, (2,))  # z is in no reversal

    def test_invalid_witness_wrong_size(self, cycle3_choice):
        _, c = cycle3_choice
        with pytest.raises(InvalidWitness):
            elicit_partial(c, (0, 1))  # a single item already covers everything

    def test_float_witness_is_refused(self, erratic4_choice):
        """(0.4, 1.4, 2.4) is not read as the witness (0, 1, 2)."""
        _, c = erratic4_choice
        assert elicit_partial(c, np.array([0, 1, 2])) == elicit_partial(c, (0, 1, 2))
        with pytest.raises(TypeError):
            elicit_partial(c, (0.4, 1.4, 2.4))

    def test_invalid_witness_on_rational(self):
        with pytest.raises(InvalidWitness):
            elicit_partial(rational_choice(LinearOrder((0, 1, 2))), (0,))

    def test_output_is_strict_partial_order(self):
        rng = np.random.default_rng(51)
        checked = 0
        while checked < 15:
            c = random_choice(rng, 4)
            for j in (1, 2, 3):
                w = check_cns(c, j) if j <= c.n - 1 else None
                if w is not None:
                    p = elicit_partial(c, w.items)
                    # construction succeeded, so invariants were validated
                    assert isinstance(p, StrictPartialOrder)
                    checked += 1
                    break


class TestExtendLinear:
    """The first extension, ``all_extensions(p, 1)``: ties at each step go
    to the smallest id."""

    def test_chain_already_total(self):
        p = closed_order(3, {(0, 2), (2, 1)})
        assert all_extensions(p, 1).orders[0].ranking == (0, 2, 1)

    def test_empty_relation_uses_id_order(self):
        p = closed_order(2, set())
        assert all_extensions(p, 1).orders[0].ranking == (0, 1)

    def test_sparse_relation_tie_break(self):
        p = closed_order(3, {(0, 2)})
        assert all_extensions(p, 1).orders[0].ranking == (0, 1, 2)

    def test_extension_respects_pairs(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            pairs = set()
            base = rng.permutation(n)
            for _ in range(n):
                i, j = sorted(rng.choice(n, size=2, replace=False))
                pairs.add((int(base[i]), int(base[j])))
            p = closed_order(n, pairs)
            (order,) = all_extensions(p, 1).orders
            for a, b in p.pairs:
                assert order.ranking.index(a) < order.ranking.index(b)


class TestAllExtensions:
    def test_chain_has_one(self):
        p = closed_order(4, {(0, 1), (1, 2), (2, 3)})
        ext = all_extensions(p, cap=10)
        assert ext.total == 1
        assert ext.orders[0].ranking == (0, 1, 2, 3)

    def test_empty_relation_has_factorial(self):
        ext = all_extensions(closed_order(3, set()), cap=100)
        assert ext.total == 6
        assert [o.ranking for o in ext.orders] == sorted(
            itertools.permutations(range(3))
        )

    def test_cycle3_partial_has_single_extension(self, cycle3_choice):
        _, c = cycle3_choice
        p = elicit_partial(c, (0,))
        ext = all_extensions(p, cap=5)
        assert ext.total == 1
        assert ext.orders[0].ranking == (0, 2, 1)

    def test_cap_truncates_but_counts_exactly(self):
        ext = all_extensions(closed_order(4, set()), cap=3)
        assert ext.total == 24
        assert len(ext.orders) == 3

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            all_extensions(closed_order(2, set()), cap=0)

    def test_float_cap_is_refused(self):
        """A cap of 1.5 is never reached, so all 120 orders were listed."""
        with pytest.raises(TypeError):
            all_extensions(closed_order(5, set()), cap=1.5)

    def test_equals_permutation_scan(self):
        rng = np.random.default_rng(56)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            base = rng.permutation(n)
            pairs = set()
            for _ in range(int(rng.integers(0, 2 * n))):
                if n > 1:
                    i, j = sorted(rng.choice(n, size=2, replace=False))
                    pairs.add((int(base[i]), int(base[j])))
            p = closed_order(n, pairs)
            expected = extension_scan(p)
            cap = int(rng.integers(1, len(expected) + 3))
            ext = all_extensions(p, cap)
            assert ext.total == len(expected)
            assert [o.ranking for o in ext.orders] == expected[:cap]

    def test_empty_order_n12_counts_fast(self):
        start = time.perf_counter()
        ext = all_extensions(StrictPartialOrder(12, frozenset()), cap=5)
        assert time.perf_counter() - start < 1.0
        assert ext.total == math.factorial(12)
        assert [o.ranking for o in ext.orders] == list(
            itertools.islice(itertools.permutations(range(12)), 5)
        )

    def test_refuses_more_than_twenty_alternatives(self):
        with pytest.raises(GroundSetTooLarge):
            all_extensions(StrictPartialOrder(21, frozenset()), cap=1)


class TestStrictPartialOrder:
    def test_cycle_rejected(self):
        with pytest.raises(CycleDetected):
            closed_order(3, {(0, 1), (1, 2), (2, 0)})

    def test_self_loop_rejected(self):
        with pytest.raises(CycleDetected):
            closed_order(2, {(0, 0)})

    def test_unclosed_direct_construction_rejected(self):
        with pytest.raises(ValueError):
            StrictPartialOrder(3, frozenset({(0, 1), (1, 2)}))

    def test_float_members_are_refused(self):
        """(0.5, 1.7) is not truncated to the pair (0, 1)."""
        with pytest.raises(TypeError):
            StrictPartialOrder(3, frozenset({(0.5, 1.7)}))
        assert StrictPartialOrder(3, frozenset({(np.int64(0), True)})).pairs == {(0, 1)}

    def test_from_cover_closes(self):
        """Generating pairs closed by ``_transitive_closure`` make a valid
        order."""
        p = closed_order(3, {(0, 1), (1, 2)})
        assert (0, 2) in p.pairs
