"""Core primitives: ground sets, menus, orders, choice validation."""

import operator
import tracemalloc
import warnings

import numpy as np
import pytest

from harmchoice import (
    ChoiceFunction,
    GroundSet,
    LinearOrder,
    Menu,
    all_menu_masks,
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
from harmchoice import core
from harmchoice.core import MENU_BLOCK, distortion_picks, menu_order, require_enumerable
from conftest import (
    lexsort_menu_order,
    loop_distortion_tables,
    max_of,
    random_choice,
    whole_distortion_picks,
)


def rowwise_validate(rows, ground):
    """Oracle: the row-by-row loop that validate_choice replaced, which
    raises each row's error as the loop reaches it. It reads an int bitmask
    menu as Menu.from_mask would."""
    n = ground.n
    require_enumerable(n)
    size = 1 << n
    picks = np.full(size, -1, dtype=np.int16)
    row_of = {}
    for row, (menu, pick) in enumerate(rows):
        if isinstance(menu, (int, np.integer)):
            menu = Menu.from_mask(int(menu))
        elif not isinstance(menu, Menu):
            menu = Menu(tuple(menu))
        if menu.members[-1] >= n:
            raise ValueError(f"menu {menu.members} lies outside the ground set (n = {n})")
        pick = operator.index(pick)
        if pick not in menu:
            shown = ground.label(pick) if 0 <= pick < n else pick
            raise PickNotInMenu(
                (row,), lambda at: f"{at}: pick {shown!r} is not a member of its menu"
            )
        mask = menu.mask
        first = row_of.setdefault(mask, row)
        if first != row:
            labels = ", ".join(menu.label_list(ground))
            raise DuplicateMenu(
                (first, row), lambda at, again: f"menu {{{labels}}} appears at both {at} and {again}"
            )
        picks[mask] = pick
    for e in range(n):
        if picks[1 << e] == -1:
            picks[1 << e] = e
            warnings.warn(
                DatasetWarning(
                    f"singleton menu {{{ground.label(e)}}} was absent; its forced pick was filled in"
                ),
                stacklevel=2,
            )
    if (picks[1:] == -1).any():
        order = menu_order(n)
        missing = order[picks[order] == -1]
        raise MissingMenu([Menu.from_mask(int(m)) for m in missing[:8]], int(missing.size), ground)
    return ChoiceFunction(n, picks)


def outcome(validate, rows, ground):
    """What validate does with rows: ("ok", choice, warnings) or
    ("error", type, message, rows)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            choice = validate(rows, ground)
        except (ValueError, TypeError, DuplicateMenu, PickNotInMenu, MissingMenu) as exc:
            return ("error", type(exc), str(exc), getattr(exc, "rows", None))
    return ("ok", choice, [str(w.message) for w in caught])


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
        menus = [Menu.from_mask(int(m)) for m in menu_order(3)]
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
        order = LinearOrder(np.array([2, 0, 1]))
        assert order.ranking == (2, 0, 1)
        assert all(type(e) is int for e in order.ranking)

    def test_float_entries_refused(self):
        """Floats are not truncated to ids: (1.5, 0.2) is no ranking (1, 0)."""
        with pytest.raises(TypeError):
            LinearOrder((1.5, 0.2))


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
            assert all(ranking.index(best) <= ranking.index(b) for b in menu)


class TestValidateChoice:
    def test_valid_dataset(self, cycle3_choice):
        ground, choice = cycle3_choice
        assert choice.picks_array[Menu((0, 1)).mask] == 1  # c(xy) = y
        assert choice.picks_array[Menu((0, 1, 2)).mask] == 0

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

    @pytest.mark.parametrize("pick", [1.7, 0.9, "1", None])
    def test_pick_that_is_no_integer_is_refused(self, pick):
        """A pick is an alternative id: a float, a string or None is refused,
        not rounded or parsed."""
        g = GroundSet(("x", "y"))
        rows = [(Menu((0, 1)), pick), (Menu((0,)), 0), (Menu((1,)), 1)]
        with pytest.raises(TypeError):
            validate_choice(rows, g)

    @pytest.mark.parametrize("pick", [np.int64(1), np.uint8(1), True])
    def test_integer_picks_are_read(self, pick):
        g = GroundSet(("x", "y"))
        choice = validate_choice([(Menu((0, 1)), pick), (Menu((0,)), 0), (Menu((1,)), 1)], g)
        assert choice.picks_array[Menu((0, 1)).mask] == 1

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
        assert choice.picks_array[Menu((1,)).mask] == 1

    def test_int_bitmask_menus(self, cycle3_choice):
        ground, choice = cycle3_choice
        rows = [(mask, int(choice.picks_array[mask])) for mask in (7, 3, 6, 5, 1, 2, 4)]
        assert validate_choice(rows, ground) == choice
        assert validate_choice([(np.int64(m), p) for m, p in rows], ground) == choice
        with pytest.raises(ValueError, match=r"menu \(0, 3\) lies outside the ground set"):
            validate_choice([(9, 0)], ground)
        with pytest.raises(ValueError, match="bitmask must be positive"):
            validate_choice([(0, 0)], ground)
        with pytest.raises(DuplicateMenu, match="appears at both row 0 and row 2"):
            validate_choice([(3, 0), (Menu((0, 2)), 0), ((1, 0), 1)], ground)

    def test_matches_row_loop_on_faulty_rows(self):
        """validate_choice raises what the row loop raises first, or builds
        the same choice with the same warnings, on seeded random row lists
        with dropped, repeated, misplaced and malformed rows in every menu
        form."""
        rng = np.random.default_rng(21)
        kinds = ("drop", "repeat", "bad pick", "pick -1", "pick n", "outside", "empty", "twice",
                 "str pick", "none pick", "huge pick", "zero mask", "bool menu", "shuffle")
        seen = set()
        for _ in range(600):
            n = int(rng.integers(1, 7))
            ground = GroundSet(tuple("uvwxyz"[:n]))
            choice = random_choice(rng, n)
            rows = [[m, int(choice.picks_array[m])] for m in menu_order(n).tolist()]
            for _ in range(int(rng.integers(0, 4))):
                kind = kinds[int(rng.integers(len(kinds)))]
                i = int(rng.integers(len(rows))) if rows else 0
                if kind == "drop" and rows:
                    rows.pop(i)
                elif kind == "repeat" and rows:
                    rows.insert(int(rng.integers(len(rows) + 1)), list(rows[i]))
                elif kind == "bad pick" and rows:
                    rows[i][1] = int(rng.integers(n))
                elif kind == "pick -1" and rows:
                    rows[i][1] = -1
                elif kind == "pick n" and rows:
                    rows[i][1] = n
                elif kind == "outside":
                    rows.insert(i, [(0, n), 0])
                elif kind == "empty":
                    rows.insert(i, [(), 0])
                elif kind == "twice":
                    rows.insert(i, [(0, 0), 0])
                elif kind == "str pick" and rows:
                    rows[i][1] = "x"
                elif kind == "none pick" and rows:
                    rows[i][1] = None
                elif kind == "huge pick" and rows:
                    rows[i][1] = 1 << 70
                elif kind == "zero mask":
                    rows.insert(i, [0, 0])
                elif kind == "bool menu":
                    rows.insert(i, [True, 0])
                elif kind == "shuffle":
                    rng.shuffle(rows)
            forms = (lambda m: m, np.int64, Menu.from_mask, lambda m: Menu.from_mask(m).members)
            typed = [
                (forms[int(rng.integers(4))](m) if type(m) is int and m > 0 else m, p)
                for m, p in rows
            ]
            got = outcome(validate_choice, typed, ground)
            want = outcome(rowwise_validate, typed, ground)
            if got[0] == "ok":
                assert want[0] == "ok" and got[1] == want[1] and got[2] == want[2]
            else:
                assert got == want
            seen.add(got[1] if got[0] == "error" else "ok")
        assert seen == {"ok", ValueError, TypeError, DuplicateMenu, PickNotInMenu, MissingMenu}

    def test_array_rows_match_row_loop(self):
        """An integer (rows, 2) array of (bitmask, pick) rows, checked in
        bulk, gives what the row loop gives for the same rows: the same
        choice and warnings, or the same first error."""
        rng = np.random.default_rng(24)
        kinds = ("drop", "repeat", "bad pick", "pick -1", "pick n", "huge pick", "outside",
                 "zero mask", "negative mask", "shuffle")
        seen = set()
        for trial in range(300):
            n = int(rng.integers(1, 7))
            ground = GroundSet(tuple("uvwxyz"[:n]))
            choice = random_choice(rng, n)
            rows = [[m, int(choice.picks_array[m])] for m in menu_order(n).tolist()]
            for _ in range(int(rng.integers(0, 4))):
                kind = kinds[int(rng.integers(len(kinds)))]
                i = int(rng.integers(len(rows))) if rows else 0
                if kind == "drop" and rows:
                    rows.pop(i)
                elif kind == "repeat" and rows:
                    rows.insert(int(rng.integers(len(rows) + 1)), list(rows[i]))
                elif kind == "bad pick" and rows:
                    rows[i][1] = int(rng.integers(n))
                elif kind == "pick -1" and rows:
                    rows[i][1] = -1
                elif kind == "pick n" and rows:
                    rows[i][1] = n
                elif kind == "huge pick" and rows:
                    rows[i][1] = 1 << 40
                elif kind == "outside":
                    rows.insert(i, [1 << n | 1, 0])
                elif kind == "zero mask":
                    rows.insert(i, [0, 0])
                elif kind == "negative mask":
                    rows.insert(i, [-3, 0])
                elif kind == "shuffle":
                    rng.shuffle(rows)
            dtype = np.int64 if trial % 2 or any(v < 0 for row in rows for v in row) else np.uint64
            array = np.array(rows, dtype=dtype).reshape(-1, 2)
            got = outcome(validate_choice, array, ground)
            want = outcome(rowwise_validate, [tuple(row) for row in rows], ground)
            if got[0] == "ok":
                assert want[0] == "ok" and got[1] == want[1] and got[2] == want[2]
            else:
                assert got == want
            seen.add(got[1] if got[0] == "error" else "ok")
        assert seen == {"ok", ValueError, DuplicateMenu, PickNotInMenu, MissingMenu}

    def test_round_trip_identical_picks(self, projects_choice):
        ground, choice = projects_choice
        rows = [(Menu.from_mask(m), int(choice.picks_array[m])) for m in all_menu_masks(4)]
        again = validate_choice(rows, ground)
        assert again == choice


def _n16_rows():
    """A valid n = 16 dataset as a shuffled (65,535, 2) int64 array, and its
    ground set of one-letter labels."""
    rng = np.random.default_rng(25)
    order = menu_order(16)
    choice = rational_choice(LinearOrder(tuple(rng.permutation(16).tolist())))
    rows = np.column_stack((order, choice.picks_array[order]))[rng.permutation(order.size)]
    return rows, GroundSet(tuple("abcdefghijklmnop"))


def _non_member(mask):
    return next(e for e in range(16) if not (mask >> e) & 1)


class TestArrayRowsPastOneBlock:
    """A valid array is checked by filling the picks table; a faulty one is
    read again one row at a time, across MENU_BLOCK-row blocks."""

    def test_valid_array_never_reaches_the_row_scan(self, monkeypatch):
        def refuse(rows, ground):
            raise AssertionError("the row scan ran on valid rows")

        rows, ground = _n16_rows()
        expected = validate_choice(rows, ground)
        monkeypatch.setattr(core, "_scan_rows", refuse)
        assert validate_choice(rows, ground) == expected
        assert validate_choice(rows.astype(np.uint32), ground) == expected
        without_singletons = rows[np.bitwise_count(rows[:, 0]) > 1]
        with pytest.warns(DatasetWarning):
            assert validate_choice(without_singletons, ground) == expected
        with pytest.raises(MissingMenu):
            validate_choice(rows[rows[:, 0] != (1 << 16) - 1], ground)

    def test_valid_array_traces_under_8mb_at_n18(self):
        n = 18
        ground = GroundSet(tuple(f"a{i}" for i in range(n)))
        order = menu_order(n)
        choice = rational_choice(LinearOrder(tuple(range(n))))
        rows = np.column_stack((order, choice.picks_array[order]))
        tracemalloc.start()
        try:
            assert validate_choice(rows, ground) == choice
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"{peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize(
        "fault", ["duplicate last", "outside last", "second block", "uint64 last"]
    )
    def test_fault_matches_row_loop(self, fault):
        rows, ground = _n16_rows()
        assert rows.shape[0] > MENU_BLOCK
        if fault == "duplicate last":
            rows[-1] = rows[0]
        elif fault == "outside last":
            rows[-1, 1] = _non_member(int(rows[-1, 0]))
        elif fault == "second block":
            rows[MENU_BLOCK, 1] = _non_member(int(rows[MENU_BLOCK, 0]))
        else:
            rows = rows.astype(np.uint64)
            rows[-1, 0] = 2**63 + 3
        got = outcome(validate_choice, rows, ground)
        assert got[0] == "error"
        assert got == outcome(rowwise_validate, rows.tolist(), ground)


class TestChoiceFunction:
    def test_pick_outside_menu_rejected(self):
        picks = np.array([-1, 0, 1, 0], dtype=np.int16)
        picks[1] = 1  # menu {0} cannot pick 1
        with pytest.raises(ValueError):
            ChoiceFunction(2, picks)

    def test_size_cap(self):
        with pytest.raises(GroundSetTooLarge):
            ChoiceFunction(21, np.zeros(1 << 21, dtype=np.int16))

    @pytest.mark.parametrize("picks", [np.array([-1, 0, 65537, 1]), [-1, 0, 65537, 1]])
    def test_wide_pick_checked_before_narrowing(self, picks):
        """65537 is out of range; narrowed to int16 first, it would wrap to
        the member 1 (an array) or overflow (a list)."""
        with pytest.raises(ValueError, match="pick in 0..n-1"):
            ChoiceFunction(2, picks)

    def test_float_picks_refused(self):
        """0.7 is not truncated to the member 0."""
        with pytest.raises(TypeError, match="picks must be integers"):
            ChoiceFunction(2, np.array([-1, 0.7, 1, 1]))

    @pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.int32, np.uint64])
    def test_integer_and_bool_picks_pass(self, dtype):
        c = ChoiceFunction(2, np.array([0, 0, 1, 1], dtype=dtype))
        assert c.picks_array.tolist() == [-1, 0, 1, 1]
        assert c.picks_array.dtype == np.int16

    @pytest.mark.parametrize("n", range(1, 6))
    def test_membership_check_is_exact(self, n):
        """For every menu, each member is accepted as its pick and each
        non-member is refused."""
        base = rational_choice(LinearOrder(tuple(range(n)))).picks_array
        for mask in range(1, 1 << n):
            for e in range(n):
                picks = base.copy()
                picks[mask] = e
                if (mask >> e) & 1:
                    assert ChoiceFunction(n, picks).picks_array[mask] == e
                else:
                    with pytest.raises(ValueError, match="not a member of its menu"):
                        ChoiceFunction(n, picks)

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
            assert int(c.picks_array[mask]) == max_of(Menu.from_mask(mask), order)


@pytest.mark.parametrize("n", range(1, 21))
def test_menu_order_matches_lexsort(n):
    order = menu_order(n)
    assert np.array_equal(order, lexsort_menu_order(n))
    assert not order.flags.writeable


def test_distortion_picks_match_tables():
    """Every fixed index, and random indices per bitmask, against the
    menu-scan tables, over random orders at n = 1..12."""
    rng = np.random.default_rng(65)
    for n in range(1, 13):
        for _ in range(3):
            order = LinearOrder(tuple(rng.permutation(n).tolist()))
            tabs = loop_distortion_tables(order)
            for i in range(n):
                assert np.array_equal(distortion_picks(order, i), tabs[i])
            indices = rng.integers(0, n, size=1 << n)
            got = distortion_picks(order, indices)
            assert got[0] == -1
            assert np.array_equal(got[1:], tabs[indices, np.arange(1 << n)][1:])


@pytest.mark.parametrize("n", [15, 16])
def test_distortion_picks_past_one_block_match_whole_array(n):
    """At n = 15 and 16 the bitmasks span two and four blocks: every fixed
    index, and random indices per bitmask, give the one-pass kernel's
    picks."""
    assert 1 << n > MENU_BLOCK
    rng = np.random.default_rng(n)
    order = LinearOrder(tuple(rng.permutation(n).tolist()))
    for i in range(n):
        assert np.array_equal(distortion_picks(order, i), whole_distortion_picks(order, i))
    indices = rng.integers(0, n, size=1 << n)
    assert np.array_equal(distortion_picks(order, indices), whole_distortion_picks(order, indices))


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
