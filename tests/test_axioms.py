"""Reversals and the behavioral axioms, against literal brute-force oracles."""

import itertools
from math import comb

import numpy as np
import pytest

from harmchoice import (
    ChoiceFunction,
    GroundSet,
    LinearOrder,
    Menu,
    Reversal,
    UniformIndexPolicy,
    check_cns,
    constant_selection_witnesses,
    construct_inconsistent,
    find_reversals,
    generate_harmful,
    is_cns_witness_set,
    is_inconsistent,
    rational_choice,
    reversal_count,
    satisfies_warp,
)
from harmchoice.axioms import coselected_pairs, min_cover
from harmchoice.cli import LoadedDataset, build_analysis
from harmchoice.errors import InvalidJ
from conftest import iter_all_choices, random_choice


def brute_reversals(c):
    """Oracle: scan every pair of distinct menus literally."""
    menus = [Menu.from_mask(m) for m in range(1, 1 << c.n)]
    found = set()
    for a, b in itertools.combinations(menus, 2):
        pa, pb = c.pick(a), c.pick(b)
        inter = a.mask & b.mask
        if pa != pb and (inter >> pa) & 1 and (inter >> pb) & 1:
            found.add(frozenset([(a.mask, pa), (b.mask, pb)]))
    return found


def reversal_key(r):
    return frozenset([(r.menu_a.mask, r.pick_a), (r.menu_b.mask, r.pick_b)])


class TestReversal:
    @pytest.mark.parametrize(
        "menu_a, menu_b, pick_a, pick_b, message",
        [
            ((0, 1), (0, 1), 0, 1, "two distinct menus"),
            ((0, 1), (0, 1, 2), 1, 1, "two distinct picks"),
            ((0, 1), (0, 1, 2), 0, 2, "intersection"),
            ((0, 2), (0, 1, 2), 0, 1, "intersection"),
            ((0, 1, 2), (1, 2), 0, 1, "intersection"),
            ((1, 2), (0, 1, 2), 1, 0, "intersection"),
            ((0, 1, 2), (0, 1), 0, 2, "intersection"),
        ],
    )
    def test_invalid_reversals_rejected(self, menu_a, menu_b, pick_a, pick_b, message):
        with pytest.raises(ValueError, match=message):
            Reversal(Menu(menu_a), Menu(menu_b), pick_a, pick_b)

    def test_valid_reversal(self):
        r = Reversal(Menu((0, 1)), Menu((0, 1, 2)), 1, 0)
        assert (r.pick_a, r.pick_b) == (1, 0)


class TestFindReversals:
    def test_matches_brute_scan_on_fixtures(
        self, donation_choice, diet_choice, projects_choice, cycle3_choice, erratic4_choice
    ):
        for _, c in (donation_choice, diet_choice, projects_choice, cycle3_choice, erratic4_choice):
            assert {reversal_key(r) for r in find_reversals(c)} == brute_reversals(c)

    def test_matches_brute_scan_random(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            c = random_choice(rng, int(rng.integers(2, 6)))
            assert {reversal_key(r) for r in find_reversals(c)} == brute_reversals(c)

    def test_cycle3_has_exactly_one(self, cycle3_choice):
        _, c = cycle3_choice
        revs = find_reversals(c)
        assert len(revs) == 1
        (r,) = revs
        assert {r.menu_a.members, r.menu_b.members} == {(0, 1), (0, 1, 2)}
        assert {r.pick_a, r.pick_b} == {0, 1}

    def test_rational_has_none(self):
        assert find_reversals(rational_choice(LinearOrder((2, 0, 1)))) == []

    def test_erratic4_coselects_every_pair(self, erratic4_choice):
        _, c = erratic4_choice
        covered = {frozenset((r.pick_a, r.pick_b)) for r in find_reversals(c)}
        assert covered == {frozenset(p) for p in itertools.combinations(range(4), 2)}

    def test_emitted_in_canonical_order(self, erratic4_choice):
        rng = np.random.default_rng(23)
        choices = [erratic4_choice[1]] + [random_choice(rng, n) for n in (6, 7, 8)]
        for c in choices:
            revs = find_reversals(c)
            keys = [(r.menu_a.sort_key, r.menu_b.sort_key) for r in revs]
            assert keys == sorted(keys)
            for r in revs:
                assert r.menu_a.sort_key < r.menu_b.sort_key


def listing_cases():
    """Seeded generated choices at n = 3..10, inconsistent ones at k = 2..4
    and a rational one."""
    cases = {"rational": rational_choice(LinearOrder((2, 0, 3, 1)))}
    for n in range(3, 11):
        for seed in (0, 1):
            cap = int(np.random.default_rng([n, seed]).integers(1, n))
            order = LinearOrder(tuple(range(n)))
            cases[f"harmful-n{n}-s{seed}"] = generate_harmful(order, UniformIndexPolicy(cap), seed=seed)
    for k in (2, 3, 4):
        cases[f"inconsistent-k{k}"] = construct_inconsistent(k)
    return cases


LISTING_CASES = listing_cases()


class TestBoundedListing:
    @pytest.mark.parametrize("name", sorted(LISTING_CASES))
    def test_count_and_prefix_match_full_list(self, name):
        c = LISTING_CASES[name]
        full = find_reversals(c)
        count = reversal_count(c)
        assert count == len(full)
        for k in (0, 1, 100, count, count + 5):
            assert find_reversals(c, limit=k) == full[:k]

    def test_count_matches_brute_scan_random(self):
        rng = np.random.default_rng(25)
        for _ in range(25):
            c = random_choice(rng, int(rng.integers(1, 6)))
            assert reversal_count(c) == len(brute_reversals(c))


def test_analysis_builds_the_pick_counts_once(monkeypatch):
    """analyze reads the relation and the reversal count from the choice's
    count matrix, which it builds once and reads again."""
    reads, builds = [], []
    read = ChoiceFunction.pick_counts.fget

    def spy(c):
        reads.append(c)
        if c._counts is None:
            builds.append(c)
        return read(c)

    monkeypatch.setattr(ChoiceFunction, "pick_counts", property(spy))
    n = 6
    for seed in (31, 32):
        ds = LoadedDataset(
            GroundSet(tuple(f"a{e}" for e in range(n))),
            generate_harmful(LinearOrder(tuple(range(n))), UniformIndexPolicy(3), seed=seed),
        )
        reads.clear()
        builds.clear()
        build_analysis(ds, workers=1)
        assert len(builds) == 1 and builds[0] is ds.choice and len(reads) >= 2


class TestWarp:
    def test_rational_satisfies(self):
        assert satisfies_warp(rational_choice(LinearOrder((0, 1, 2))))

    def test_fixtures_violate(self, donation_choice, cycle3_choice):
        assert not satisfies_warp(donation_choice[1])
        assert not satisfies_warp(cycle3_choice[1])

    def test_warp_iff_rationalizable_exhaustive_n3(self):
        orders = [LinearOrder(p) for p in itertools.permutations(range(3))]
        rational = {rational_choice(o) for o in orders}
        for c in iter_all_choices(3):
            assert satisfies_warp(c) == (c in rational)

    def test_warp_iff_rationalizable_random(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            orders = [LinearOrder(p) for p in itertools.permutations(range(n))]
            c = random_choice(rng, n)
            assert satisfies_warp(c) == any(rational_choice(o) == c for o in orders)


class TestConstantSelection:
    def test_donation_witness(self, donation_choice):
        assert constant_selection_witnesses(donation_choice[1]) == frozenset({0})

    def test_cycle3_witnesses_both_picks(self, cycle3_choice):
        assert constant_selection_witnesses(cycle3_choice[1]) == frozenset({0, 1})

    def test_rational_absent(self):
        assert constant_selection_witnesses(rational_choice(LinearOrder((0, 1, 2)))) is None

    def test_witness_sets_small_exhaustive_n3(self):
        for c in iter_all_choices(3):
            w = constant_selection_witnesses(c)
            if w is not None:
                assert 1 <= len(w) <= 2


class TestCheckCns:
    def test_cycle3_size_one_witness(self, cycle3_choice):
        _, c = cycle3_choice
        w = check_cns(c, 1)
        assert w is not None
        assert w.items in ((0,), (1,))
        (r,) = w.paired_reversals
        assert w.items[0] in (r.pick_a, r.pick_b)

    def test_cycle3_size_two_absent(self, cycle3_choice):
        assert check_cns(cycle3_choice[1], 2) is None

    def test_erratic4_size_three_witness(self, erratic4_choice):
        _, c = erratic4_choice
        w = check_cns(c, 3)
        assert w is not None
        assert len(w.items) == 3

    def test_invalid_j(self, cycle3_choice):
        _, c = cycle3_choice
        with pytest.raises(InvalidJ):
            check_cns(c, 0)
        with pytest.raises(InvalidJ):
            check_cns(c, 3)

    def test_witness_invariants(self, erratic4_choice):
        _, c = erratic4_choice
        w = check_cns(c, 3)
        witness = set(w.items)
        # every reversal selects a witness item
        for r in find_reversals(c):
            assert witness & {r.pick_a, r.pick_b}
        # each paired reversal selects its item plus an outsider
        for x, r in zip(w.items, w.paired_reversals):
            picks = {r.pick_a, r.pick_b}
            assert x in picks
            (other,) = picks - {x}
            assert other not in witness

    def test_is_cns_witness_set_matches_check(self, erratic4_choice):
        _, c = erratic4_choice
        w = check_cns(c, 3)
        assert is_cns_witness_set(c, w.items)
        assert not is_cns_witness_set(c, (0, 1))

    def test_unique_j_exhaustive_n3(self):
        for c in iter_all_choices(3):
            if satisfies_warp(c):
                continue
            hits = [j for j in (1, 2) if check_cns(c, j) is not None]
            assert len(hits) == 1

    def test_size_one_iff_constant_selection_exhaustive_n3(self):
        for c in iter_all_choices(3):
            assert (check_cns(c, 1) is not None) == (
                constant_selection_witnesses(c) is not None
            )

    def test_full_size_iff_inconsistent_exhaustive_n3(self):
        for c in iter_all_choices(3):
            assert (check_cns(c, 2) is not None) == is_inconsistent(c)

    def test_unique_j_random_n4(self):
        rng = np.random.default_rng(23)
        for _ in range(120):
            c = random_choice(rng, 4)
            if satisfies_warp(c):
                continue
            hits = [j for j in (1, 2, 3) if check_cns(c, j) is not None]
            assert len(hits) == 1
            assert (check_cns(c, 3) is not None) == is_inconsistent(c)
            assert (check_cns(c, 1) is not None) == (
                constant_selection_witnesses(c) is not None
            )

    def test_structure_exhaustive_n4(self):
        """All witness-size facts over every choice on four alternatives.

        The axioms read a choice only through its co-selected pairs, so one
        representative per distinct reversal structure covers the whole
        space of 20736 choices.
        """
        from harmchoice import ChoiceFunction, _kernels
        from harmchoice.census import _menu_layout

        masks, sizes, members = _menu_layout(4)
        picks_mat = _kernels.decode_choices(0, 20736, sizes, members, masks, 4)
        pair_masks = _kernels.pair_masks(picks_mat, 4)
        _, first = np.unique(pair_masks, return_index=True)
        for idx in first:
            c = ChoiceFunction(4, picks_mat[idx])
            hits = [j for j in (1, 2, 3) if check_cns(c, j) is not None]
            if satisfies_warp(c):
                assert hits == []
                continue
            assert len(hits) == 1
            assert (3 in hits) == is_inconsistent(c)
            assert (1 in hits) == (constant_selection_witnesses(c) is not None)
            witnesses = constant_selection_witnesses(c)
            if witnesses is not None:
                assert 1 <= len(witnesses) <= 2


def reference_cover(pairs, n):
    """Oracle: search subsets by increasing size, in lexicographic order, for
    the first that touches every pair and gives each member a partner
    outside it."""
    for j in range(n):
        for s in itertools.combinations(range(n), j):
            inside = set(s)
            touches = all(p in inside or q in inside for p, q in pairs)
            partnered = all(
                any((p == x and q not in inside) or (q == x and p not in inside) for p, q in pairs)
                for x in s
            )
            if touches and partnered:
                return s
    raise AssertionError("no cover found")


class TestMinCover:
    def test_matches_reference_on_every_graph_up_to_n5(self):
        for n in range(1, 6):
            all_pairs = list(itertools.combinations(range(n), 2))
            for edges in range(1 << len(all_pairs)):
                pairs = [pr for t, pr in enumerate(all_pairs) if (edges >> t) & 1]
                assert min_cover(pairs, n) == reference_cover(pairs, n), (n, pairs)

    def test_check_cns_only_at_cover_size_random_n6_to_n8(self):
        rng = np.random.default_rng(25)
        for trial in range(24):
            n = 6 + trial % 3
            if trial % 2:
                c = random_choice(rng, n)
            else:
                order = LinearOrder(tuple(int(x) for x in rng.permutation(n)))
                policy = UniformIndexPolicy(int(rng.integers(1, n)))
                c = generate_harmful(order, policy, seed=int(rng.integers(0, 2**31)))
            pairs = coselected_pairs(c)
            cover = min_cover(pairs, n)
            assert cover == reference_cover(pairs, n)
            for j in range(1, n):
                w = check_cns(c, j)
                if j == len(cover):
                    assert w is not None and w.items == cover
                else:
                    assert w is None


class TestInconsistent:
    def test_erratic4(self, erratic4_choice):
        assert is_inconsistent(erratic4_choice[1])

    def test_cycle3_not(self, cycle3_choice):
        # pair {x, z} is never co-selected
        assert not is_inconsistent(cycle3_choice[1])

    def test_rational_not(self):
        assert not is_inconsistent(rational_choice(LinearOrder((1, 0, 2))))

    def test_matches_pair_count_oracle(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            c = random_choice(rng, n)
            pairs = {frozenset(k) for r in brute_reversals(c) for k in [tuple(p for _, p in r)]}
            assert is_inconsistent(c) == (len(pairs) == comb(n, 2))
