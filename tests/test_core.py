"""Core primitives: ground sets, menus, orders, choice validation."""

import warnings

import numpy as np
import pytest

from harmchoice import (
    ChoiceFunction,
    GroundSet,
    LinearOrder,
    Menu,
    all_menu_masks,
    max_of,
    rational_choice,
    satisfies_warp,
    validate_choice,
)
from harmchoice.errors import (
    DatasetWarning,
    DuplicateMenu,
    GroundSetTooLarge,
    MissingMenu,
    PickNotInMenu,
)
from conftest import random_choice


class TestGroundSet:
    def test_basic(self):
        g = GroundSet(("a", "b", "c"))
        assert g.n == 3
        assert g.index("b") == 1
        assert g.label(2) == "c"

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            GroundSet(("a", "a"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GroundSet(())

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            GroundSet(("a",)).index("zzz")

    def test_menus_canonical_order(self):
        menus = list(GroundSet(("a", "b", "c")).menus())
        assert [m.members for m in menus] == [
            (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2),
        ]

    def test_menu_masks_match_literal_sort(self):
        for n in range(1, 11):
            def key(mask):
                members = tuple(e for e in range(n) if (mask >> e) & 1)
                return (len(members), members)

            assert all_menu_masks(n) == tuple(sorted(range(1, 1 << n), key=key))


class TestMenu:
    def test_canonicalized_sorted(self):
        assert Menu((2, 0, 1)).members == (0, 1, 2)

    def test_set_identity(self):
        assert Menu((2, 0)) == Menu((0, 2))
        assert hash(Menu((2, 0))) == hash(Menu((0, 2)))

    def test_mask_roundtrip(self):
        m = Menu((0, 3, 5))
        assert Menu.from_mask(m.mask) == m

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Menu(())

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Menu((1, 1))


class TestLinearOrder:
    def test_permutation_required(self):
        with pytest.raises(ValueError):
            LinearOrder((0, 0, 1))

    def test_positions(self):
        order = LinearOrder((2, 0, 1))
        assert order.top == 2
        assert order.position(1) == 2
        assert order.prefers(2, 1)
        assert not order.prefers(1, 0)


class TestMaxOf:
    def test_best_ranked_member_wins(self):
        # ground h, mh, ml, l with the obvious payoff order
        order = LinearOrder((0, 1, 2, 3))
        assert max_of(Menu((0, 1, 3)), order) == 0

    def test_singleton(self):
        assert max_of(Menu((2,)), LinearOrder((0, 1, 2))) == 2

    def test_two_elements(self):
        # order z > y > x over ids x=0, y=1, z=2
        assert max_of(Menu((0, 1)), LinearOrder((2, 1, 0))) == 1

    def test_member_always_returned(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            ranking = tuple(int(x) for x in rng.permutation(n))
            order = LinearOrder(ranking)
            mask = int(rng.integers(1, 1 << n))
            menu = Menu.from_mask(mask)
            best = max_of(menu, order)
            assert best in menu
            assert all(order.position(best) <= order.position(b) for b in menu)


class TestValidateChoice:
    def test_valid_dataset(self, cycle3_choice):
        ground, choice = cycle3_choice
        assert choice.pick(Menu((0, 1))) == 1  # c(xy) = y
        assert choice.pick(Menu((0, 1, 2))) == 0

    def test_missing_menu(self):
        g = GroundSet(("x", "y", "z"))
        rows = [
            (Menu((0, 1, 2)), 0),
            (Menu((0, 1)), 1),
            (Menu((1, 2)), 2),
            # menu {x, z} absent
        ]
        with pytest.raises(MissingMenu) as exc:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                validate_choice(rows, g)
        assert exc.value.menus[0].members == (0, 2)

    def test_pick_not_in_menu(self):
        g = GroundSet(("x", "y", "z"))
        with pytest.raises(PickNotInMenu):
            validate_choice([(Menu((0, 1)), 2)], g)

    def test_duplicate_menu(self):
        g = GroundSet(("x", "y"))
        rows = [(Menu((0, 1)), 0), (Menu((1, 0)), 1)]
        with pytest.raises(DuplicateMenu):
            validate_choice(rows, g)

    def test_row_errors_carry_positions_and_labels(self):
        g = GroundSet(("x", "y", "z"))
        with pytest.raises(DuplicateMenu) as exc:
            validate_choice([(Menu((0, 1)), 0), (Menu((1, 2)), 1), (Menu((1, 0)), 1)], g)
        assert exc.value.rows == (0, 2)
        assert str(exc.value) == "menu {x, y} appears at both row 0 and row 2"
        assert str(exc.value.at(["a", "b", "c"])) == "menu {x, y} appears at both a and c"
        with pytest.raises(PickNotInMenu) as exc:
            validate_choice([(Menu((0, 1, 2)), 0), (Menu((0, 1)), 2)], g)
        assert exc.value.rows == (1,)
        assert str(exc.value) == "row 1: pick 'z' is not a member of its menu"

    def test_missing_menu_message_uses_labels(self):
        g = GroundSet(("x", "y", "z"))
        rows = [(Menu((0, 1, 2)), 0), (Menu((0, 1)), 1), (Menu((1, 2)), 2)]
        with pytest.raises(MissingMenu) as exc:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                validate_choice(rows, g)
        assert str(exc.value) == "dataset is missing 1 menu(s): {x, z}"

    def test_singletons_filled_with_warnings(self):
        g = GroundSet(("x", "y", "z"))
        rows = [
            (Menu((0, 1, 2)), 0),
            (Menu((0, 1)), 1),
            (Menu((1, 2)), 2),
            (Menu((0, 2)), 0),
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            choice = validate_choice(rows, g)
        assert len(caught) == 3
        assert all(issubclass(w.category, DatasetWarning) for w in caught)
        assert choice.pick(Menu((1,))) == 1

    def test_round_trip_identical_picks(self, projects_choice):
        ground, choice = projects_choice
        rows = list(choice.items())
        again = validate_choice(rows, ground)
        assert again == choice


class TestChoiceFunction:
    def test_pick_outside_menu_rejected(self):
        picks = np.array([-1, 0, 1, 0], dtype=np.int16)
        picks[1] = 1  # menu {0} cannot pick 1
        with pytest.raises(ValueError):
            ChoiceFunction(2, picks)

    def test_size_cap(self):
        with pytest.raises(GroundSetTooLarge):
            ChoiceFunction(21, np.zeros(1 << 21, dtype=np.int16))

    def test_equality_and_hash(self):
        a = rational_choice(LinearOrder((0, 1, 2)))
        b = rational_choice(LinearOrder((0, 1, 2)))
        c = rational_choice(LinearOrder((2, 1, 0)))
        assert a == b and hash(a) == hash(b)
        assert a != c


def test_rational_choice_matches_max_of():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        order = LinearOrder(tuple(int(x) for x in rng.permutation(n)))
        c = rational_choice(order)
        for mask in all_menu_masks(n):
            assert c.pick_mask(mask) == max_of(Menu.from_mask(mask), order)


def test_rational_choice_satisfies_warp():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        order = LinearOrder(tuple(int(x) for x in rng.permutation(n)))
        assert satisfies_warp(rational_choice(order))


def test_random_choice_helper_is_valid():
    rng = np.random.default_rng(13)
    c = random_choice(rng, 5)
    assert c.n == 5
