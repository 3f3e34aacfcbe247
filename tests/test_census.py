"""Census enumeration, sampling, and the choice generators."""

import gc
import itertools
import json
import re
import sys
import tracemalloc

import numpy as np
import pytest

from harmchoice import (
    MAX_SAMPLE_N,
    ExplicitIndexPolicy,
    FixedIndexPolicy,
    LinearOrder,
    Menu,
    UniformIndexPolicy,
    construct_inconsistent,
    enumerate_census,
    generate_harmful,
    inconsistent_ground_set,
    is_inconsistent,
    rational_choice,
    sample_census,
    sp,
    total_choice_functions,
)
from harmchoice import _kernels
from harmchoice.census import _menu_layout, _sample_chunk
from harmchoice.core import ChoiceFunction, menu_order
from harmchoice.rationalize import distortion_max_tables
from harmchoice.cli import main
from harmchoice.errors import GroundSetTooLarge, IndexOutOfRange
from conftest import iter_all_choices, loop_relation


def loop_menu_layout(n):
    """Oracle for ``_menu_layout``: one menu at a time."""
    masks = menu_order(n)
    sizes = np.array([int(m).bit_count() for m in masks], dtype=np.int64)
    members = np.zeros((len(masks), n), dtype=np.int16)
    for j, m in enumerate(masks):
        row = [e for e in range(n) if (int(m) >> e) & 1]
        members[j, : len(row)] = row
    return masks, sizes, members


def full_matrix_hits(n, samples, seed):
    """Oracle for ``sample_census``: every chunk draws every menu into a
    picks matrix, which the menu-loop relation and the all-pairs test read."""
    masks, sizes, members = loop_menu_layout(n)
    chunk_size = _sample_chunk(n)
    iu, ju = np.triu_indices(n, 1)
    hits = 0
    for start in range(0, samples, chunk_size):
        count = min(chunk_size, samples - start)
        key = np.array([seed, start // chunk_size], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        picks_mat = np.zeros((count, 1 << n), dtype=np.int16)
        for j, mask in enumerate(masks.tolist()):
            digits = rng.integers(0, sizes[j], size=count)
            picks_mat[:, mask] = members[j, digits]
        sel = loop_relation(picks_mat, n)
        hits += int(np.all(sel[:, iu, ju] & sel[:, ju, iu], axis=1).sum())
    return hits


def test_menu_layout_matches_loop():
    for n in range(1, 13):
        for got, want in zip(_menu_layout(n), loop_menu_layout(n)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


class TestTotals:
    def test_small_values(self):
        assert total_choice_functions(2) == 2
        assert total_choice_functions(3) == 24
        assert total_choice_functions(4) == 20736
        assert total_choice_functions(5) == 309_586_821_120


class TestEnumerate:
    def test_n2_all_rational(self):
        rep = enumerate_census(2)
        assert rep.total == 2
        assert rep.counts_by_sp == {0: 2, 1: 0}
        assert rep.strongly_harmful_fraction == 0.0

    def test_n3_distribution(self):
        rep = enumerate_census(3)
        assert rep.total == 24
        assert rep.counts_by_sp[0] == 6  # one rational choice per order
        # oracle: classify every choice individually
        expected = {0: 0, 1: 0, 2: 0}
        for c in iter_all_choices(3):
            expected[sp(c).sp] += 1
        assert rep.counts_by_sp == expected

    def test_n4_frozen_distribution(self):
        rep = enumerate_census(4)
        assert rep.total == 20736
        assert rep.counts_by_sp == {0: 24, 1: 2664, 2: 16464, 3: 1584}
        assert rep.strongly_harmful_fraction == 1584 / 20736

    def test_n4_spot_check_against_dispatcher(self):
        # the census classification path, checked per choice against sp()
        from harmchoice import ChoiceFunction, _kernels
        from harmchoice.census import _menu_layout, _sp_table

        rng = np.random.default_rng(61)
        masks, sizes, members = _menu_layout(4)
        table = _sp_table(4)
        for idx in sorted(set(int(x) for x in rng.integers(0, 20736, size=40))):
            picks_mat = _kernels.decode_choices(idx, idx + 1, sizes, members, masks, 4)
            pm = _kernels.pair_masks(picks_mat, 4)
            assert int(table[pm[0]]) == sp(ChoiceFunction(4, picks_mat[0])).sp

    def test_bounds(self):
        with pytest.raises(ValueError):
            enumerate_census(1)
        with pytest.raises(GroundSetTooLarge):
            enumerate_census(5)

    def test_worker_count_never_changes_counts(self):
        reports = [enumerate_census(4, workers=w).to_dict() for w in (1, 2, 8)]
        assert reports[0] == reports[1] == reports[2]


class TestSample:
    def test_deterministic_same_seed(self):
        a = sample_census(4, 5000, seed=99)
        b = sample_census(4, 5000, seed=99)
        assert a.to_dict() == b.to_dict()

    def test_deterministic_across_workers(self):
        reports = [sample_census(4, 20000, seed=7, workers=w).to_dict() for w in (1, 2, 8)]
        assert reports[0] == reports[1] == reports[2]

    def test_estimate_brackets_exact_n4(self):
        exact = enumerate_census(4).strongly_harmful_fraction
        est = sample_census(4, 100_000, seed=7)
        assert abs(est.strongly_harmful_fraction - exact) <= est.half_width

    def test_fraction_and_width_ranges(self):
        rep = sample_census(5, 2000, seed=3)
        assert 0.0 <= rep.strongly_harmful_fraction <= 1.0
        assert rep.half_width >= 0.0
        assert rep.samples == 2000 and rep.seed == 3

    @pytest.mark.parametrize("n", [MAX_SAMPLE_N + 1, 20, 21])
    def test_cap_refuses_before_allocating(self, monkeypatch, n):
        def refuse(*args, **kwargs):
            raise AssertionError("a sampling chunk was allocated")

        monkeypatch.setattr(np, "zeros", refuse)
        with pytest.raises(GroundSetTooLarge, match=f"capped at n <= {MAX_SAMPLE_N}, got n = {n}"):
            sample_census(n, 1, seed=0)

    def test_cap_allows_n_at_cap(self):
        rep = sample_census(MAX_SAMPLE_N, 2, seed=0)
        assert rep.n == MAX_SAMPLE_N and rep.samples == 2

    def test_chunk_holds_no_menu_wide_array(self, monkeypatch):
        """At the cap a chunk allocates count x n relation rows, nothing
        with 2**n entries along any axis."""
        shapes = []
        zeros = np.zeros

        def spy(shape, *args, **kwargs):
            shapes.append(np.atleast_1d(shape).tolist())
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", spy)
        sample_census(MAX_SAMPLE_N, 3, seed=0)
        assert [3, MAX_SAMPLE_N] in shapes
        assert not any(1 << MAX_SAMPLE_N in shape for shape in shapes)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_full_matrix_sampler(self, n):
        two_chunks = _sample_chunk(n) + 37  # the second one partial
        for seed, samples in ((3, two_chunks), (1729, two_chunks), ((1 << 64) - 1, 100)):
            hits = full_matrix_hits(n, samples, seed)
            for workers in (1, 2, 8):
                rep = sample_census(n, samples, seed=seed, workers=workers)
                assert rep.counts_by_sp == {n - 1: hits}

    def _count_tests(self, monkeypatch):
        calls = []
        count = _kernels.count_inconsistent

        def spy(rows, n):
            calls.append(rows.shape)
            return count(rows, n)

        monkeypatch.setattr(_kernels, "count_inconsistent", spy)
        return calls

    def test_chunk_stops_once_every_sample_qualifies(self, monkeypatch):
        calls = self._count_tests(monkeypatch)
        n = 12
        rep = sample_census(n, _sample_chunk(n), seed=5, workers=1)
        assert rep.counts_by_sp == {n - 1: _sample_chunk(n)}
        assert 1 <= len(calls) < n - 1  # size classes 2..n
        assert set(calls) == {(_sample_chunk(n), n)}

    def test_chunk_runs_every_class_while_some_sample_falls_short(self, monkeypatch):
        calls = self._count_tests(monkeypatch)
        n = 6
        rep = sample_census(n, 65_536, seed=5, workers=1)
        assert _sample_chunk(n) == 65_536 and rep.counts_by_sp[n - 1] < 65_536
        assert calls == [(65_536, n)] * (n - 1)

    def test_cli_cap_is_exit_1(self, monkeypatch, capsys):
        monkeypatch.setattr(np, "zeros", lambda *a, **k: pytest.fail("allocated"))
        assert main(["sample-census", "--n", str(MAX_SAMPLE_N + 1), "--samples", "1"]) == 1
        assert f"sampled census is capped at n <= {MAX_SAMPLE_N}" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [13, 16])
    def test_cli_prints_exact_total_past_str_digit_limit(self, capsys, n):
        """The total has 6,503 digits at n = 13 and 58,194 at n = 16; the
        process-wide limit (4,300 by default) stays as it was."""
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            digits = str(total_choice_functions(n))
        finally:
            sys.set_int_max_str_digits(limit)
        argv = ["sample-census", "--n", str(n), "--samples", "3", "--seed", "2"]
        assert main([*argv, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_int=str)
        assert payload["total"] == digits
        assert payload["n"] == str(n) and payload["samples"] == "3"
        assert main([*argv, "--format", "text"]) == 0
        assert f"\ntotal: {digits}\n" in capsys.readouterr().out
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("n", range(2, 13))
    def test_cli_matches_json_dumps_below_digit_limit(self, capsys, n):
        argv = ["sample-census", "--n", str(n), "--samples", "50", "--seed", "4"]
        rep = sample_census(n, 50, seed=4)
        assert main([*argv, "--format", "json"]) == 0
        assert capsys.readouterr().out == json.dumps(rep.to_dict(), indent=2) + "\n"
        assert main([*argv, "--format", "text"]) == 0
        text = capsys.readouterr().out
        assert re.search(r"^total: (\d+)$", text, re.M).group(1) == str(rep.total)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            sample_census(1, 10, seed=0)
        with pytest.raises(ValueError):
            sample_census(3, 0, seed=0)


class TestGenerate:
    def test_fixed_zero_is_maximization(self):
        order = LinearOrder((2, 0, 1))
        assert generate_harmful(order, FixedIndexPolicy(0)) == rational_choice(order)

    def test_projects_table_from_explicit_map(self, projects_choice):
        ground, expected = projects_choice
        lab = lambda *ls: Menu(tuple(ground.index(x) for x in ls))
        mapping = {
            lab("h", "mh", "ml", "l"): 0,
            lab("h", "ml", "l"): 0,
            lab("h", "mh"): 0,
            lab("h", "l"): 0,
            lab("ml", "l"): 0,
            lab("h", "mh", "l"): 1,
            lab("h", "ml"): 1,
            lab("mh", "ml"): 1,
            lab("h", "mh", "ml"): 2,
            lab("mh", "ml", "l"): 2,
            lab("mh", "l"): 2,
        }
        got = generate_harmful(
            LinearOrder((0, 1, 2, 3)), ExplicitIndexPolicy.from_menus(mapping)
        )
        assert got == expected

    def test_donation_table_from_explicit_map(self, donation_choice):
        ground, expected = donation_choice
        mapping = {menu: 1 for menu, _ in expected.items()}
        mapping[Menu((0, 1, 2))] = 0
        got = generate_harmful(
            LinearOrder((0, 1, 2)), ExplicitIndexPolicy.from_menus(mapping)
        )
        assert got == expected

    def test_uniform_respects_cap(self):
        rng = np.random.default_rng(62)
        for trial in range(25):
            n = int(rng.integers(2, 6))
            order = LinearOrder(tuple(int(x) for x in rng.permutation(n)))
            cap = int(rng.integers(0, n))
            c = generate_harmful(order, UniformIndexPolicy(cap), seed=trial)
            assert sp(c).sp <= cap

    def test_uniform_deterministic(self):
        order = LinearOrder((0, 1, 2, 3))
        a = generate_harmful(order, UniformIndexPolicy(3), seed=8)
        b = generate_harmful(order, UniformIndexPolicy(3), seed=8)
        assert a == b

    def test_index_out_of_range(self):
        order = LinearOrder((0, 1, 2))
        with pytest.raises(IndexOutOfRange):
            generate_harmful(order, FixedIndexPolicy(3))
        with pytest.raises(IndexOutOfRange):
            generate_harmful(order, UniformIndexPolicy(-1))
        # the first bad index in canonical menu order is the one reported
        policy = ExplicitIndexPolicy.from_menus({Menu((0, 1)): 7, Menu((2,)): 5})
        with pytest.raises(IndexOutOfRange, match="policy index 5 outside 0..2"):
            generate_harmful(order, policy)

    def test_matches_menu_loop(self):
        """One gather over the distortion tables equals filling the picks
        menu by menu."""
        rng = np.random.default_rng(63)
        for n in range(1, 9):
            order = LinearOrder(tuple(int(x) for x in rng.permutation(n)))
            masks = menu_order(n).tolist()
            explicit = {m: int(rng.integers(0, n)) for m in masks if rng.random() < 0.5}
            policies = [
                (FixedIndexPolicy(n - 1), [n - 1] * len(masks)),
                (UniformIndexPolicy(n - 1), None),
                (ExplicitIndexPolicy(tuple(sorted(explicit.items()))),
                 [explicit.get(m, 0) for m in masks]),
            ]
            for policy, indices in policies:
                if indices is None:  # the uniform draw, in canonical menu order
                    key = np.array([11, 0], dtype=np.uint64)
                    draw = np.random.Generator(np.random.Philox(key=key))
                    indices = draw.integers(0, n, size=len(masks)).tolist()
                tabs = distortion_max_tables(order)
                picks = np.full(1 << n, -1, dtype=np.int16)
                for mask, i in zip(masks, indices):
                    picks[mask] = tabs[i, mask]
                assert generate_harmful(order, policy, seed=11) == ChoiceFunction(n, picks)

    def test_explicit_foreign_menu_rejected(self):
        order = LinearOrder((0, 1))
        policy = ExplicitIndexPolicy.from_menus({Menu((0, 2)): 0})
        with pytest.raises(ValueError):
            generate_harmful(order, policy)

    def test_generated_choices_leave_nothing_behind(self):
        """Generating and analysing many choices holds no tables or choices
        once the results are dropped. The bound lies above the 0.14 MB that
        stays here and below what a cache would keep: 1.6 MB of per-choice
        relations, or 20 MB of per-order distortion tables."""
        n = 14
        rng = np.random.default_rng(7)
        orders = [LinearOrder(tuple(rng.permutation(n).tolist())) for _ in range(40)]
        tracemalloc.start()
        try:
            for k, order in enumerate(orders):
                report = sp(generate_harmful(order, UniformIndexPolicy(2), seed=k), workers=1)
            del report
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 1_000_000


class TestConstructInconsistent:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_passes_inconsistency_oracle(self, k):
        c = construct_inconsistent(k)
        assert c.n == 2 * k
        assert is_inconsistent(c)

    def test_k2_strongly_harmful(self):
        assert sp(construct_inconsistent(2)).sp == 3

    def test_ground_set_labels(self):
        g = inconsistent_ground_set(2)
        assert g.labels == ("x*", "x1", "x2", "x3")

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            construct_inconsistent(1)
        with pytest.raises(ValueError):
            inconsistent_ground_set(1)


def test_fixture_equivalent_inconsistency(erratic4_choice):
    # an independent four-element table with the same full-coverage property
    assert is_inconsistent(erratic4_choice[1])


def test_make_choice_and_census_agree_on_rational_count():
    # sanity link between the test helper and the census: 3! rational choices
    orders = [LinearOrder(p) for p in itertools.permutations(range(3))]
    rationals = {rational_choice(o) for o in orders}
    assert len(rationals) == enumerate_census(3).counts_by_sp[0]
