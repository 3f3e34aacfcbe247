"""Census enumeration, sampling, and the choice generators."""

import gc
import itertools
import json
import re
import sys
import tracemalloc
from fractions import Fraction
from math import comb, prod

import numpy as np
import pytest

from harmchoice import (
    MAX_SAMPLE_DRAWS,
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
from harmchoice import _kernels, census
from harmchoice.census import MAX_SEED, _menu_layout, _sample_chunk
from harmchoice.core import MENU_BLOCK, ChoiceFunction, menu_order
from harmchoice.cli import main
from harmchoice.errors import GroundSetTooLarge, IndexOutOfRange
from conftest import (
    iter_all_choices,
    loop_distortion_tables,
    loop_relation,
    whole_generate_harmful,
)


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
    for n in range(1, 17):
        for got, want in zip(_menu_layout(n), loop_menu_layout(n)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


def test_menu_layout_traces_under_8mb_at_n16():
    """The member table is filled one bit at a time, so little but the
    2 MB table itself is alive at once."""
    menu_order(16)  # the cached canonical order stays out of the peak
    tracemalloc.start()
    try:
        _menu_layout(16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_menu_order_traces_under_3x_its_result_at_n18():
    """The order is built one size class at a time, so its temporaries stay
    under twice the 2 MiB result; a 2**18-wide int64 sort key and its
    argsort reached 10 MiB."""
    tracemalloc.start()
    try:
        order = menu_order.__wrapped__(18)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert order.size == (1 << 18) - 1  # int64, so 2 MiB
    assert peak < 3 * order.nbytes, f"{peak / 2**20:.2f} MiB"


def test_generate_harmful_traces_under_2mb_at_n16():
    """Indices are drawn and picks worked out one block of menus at a time,
    so no 2**16-wide int64 array is alive; whole-array indices and kernel
    temporaries reached 2.9 MiB."""
    order = LinearOrder(tuple(range(16)))
    generate_harmful(order, UniformIndexPolicy(12), seed=5)  # the cached order stays out
    tracemalloc.start()
    try:
        generate_harmful(order, UniformIndexPolicy(12), seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"{peak / 2**20:.2f} MiB"


@pytest.mark.parametrize(
    "n, block", [(6, 4), (10, 100), (13, 999), (16, 1000), (16, MENU_BLOCK), (20, MENU_BLOCK)]
)
def test_blockwise_draws_equal_one_draw(n, block):
    """``generate_harmful``'s bytes rest on this: Philox keeps its unused
    32-bit words in the generator, so draws taken block by block, in blocks
    that do not divide the 2**n - 1 menus, are the one draw over all of
    them, for every cap."""
    total = (1 << n) - 1
    assert total % block != 0
    for cap in range(n):
        whole = census._philox(5, 0).integers(0, cap + 1, size=total)
        rng = census._philox(5, 0)
        parts = [rng.integers(0, cap + 1, size=min(block, total - lo)) for lo in range(0, total, block)]
        assert np.array_equal(np.concatenate(parts), whole)


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


def strongly_harmful_bracket(n):
    """Exact bounds on the fraction of choice functions on n alternatives
    that co-select every pair.

    A uniform choice draws each menu's pick independently, so a given pair
    {p, q} fails to be co-selected with probability
    pi_n = 2 * prod over s = 2..n of ((s - 1) / s) ** C(n - 2, s - 2): the
    menus that hold both must all avoid one of the two, and the menu {p, q}
    itself picks one of them. One pair and the union bound over all C(n, 2)
    pairs give [max(0, 1 - C(n, 2) * pi_n), 1 - pi_n].
    """
    pi = 2 * prod(Fraction(s - 1, s) ** comb(n - 2, s - 2) for s in range(2, n + 1))
    return max(Fraction(0), 1 - comb(n, 2) * pi), 1 - pi


#: Exact strongly harmful fractions: n = 5 from its degree counts, n = 6 to
#: ten digits from the signed sum over relations.
EXACT_FRACTIONS = {5: Fraction(113_300_802_720, 309_586_821_120), 6: Fraction("0.8419944718")}


def test_bracket_values():
    assert strongly_harmful_bracket(2) == (0, 0)
    assert strongly_harmful_bracket(3) == (0, Fraction(1, 3))
    assert strongly_harmful_bracket(4) == (0, Fraction(2, 3))
    assert strongly_harmful_bracket(6) == (Fraction(41, 50), Fraction(247, 250))
    exact = {n: Fraction(enumerate_census(n).counts_by_sp.get(n - 1, 0), total_choice_functions(n))
             for n in (2, 3, 4)}
    for n, fraction in {**exact, **EXACT_FRACTIONS}.items():
        lo, hi = strongly_harmful_bracket(n)
        assert lo <= fraction <= hi


class TestSample:
    def test_deterministic_same_seed(self):
        a = sample_census(4, 5000, seed=99)
        b = sample_census(4, 5000, seed=99)
        assert a.to_dict() == b.to_dict()

    def test_deterministic_across_workers(self):
        reports = [sample_census(4, 20000, seed=7, workers=w).to_dict() for w in (1, 2, 8)]
        assert reports[0] == reports[1] == reports[2]

    # counts_by_sp of two full chunks, recorded with the thread-pool sampler.
    # At n >= 9 every sample qualifies, so those rows pin the early stop and
    # the chunking; n = 6..8 pin the draws themselves.
    PINNED = {
        (6, 4242): 110_312, (6, 90001): 110_340,
        (7, 4242): 65_177, (7, 90001): 65_146,
        (8, 4242): 32_767, (8, 90001): 32_768,
        (10, 4242): 8_192, (10, 90001): 8_192,
        (12, 4242): 2_048, (12, 90001): 2_048,
        (16, 4242): 2_048, (16, 90001): 2_048,
    }

    @pytest.mark.parametrize("n, seed", sorted(PINNED))
    def test_two_chunks_match_pinned_counts(self, n, seed):
        samples = 2 * _sample_chunk(n)
        for workers in (1, 2):
            rep = sample_census(n, samples, seed=seed, workers=workers)
            assert rep.counts_by_sp == {n - 1: self.PINNED[n, seed]}

    def test_chunks_hold_one_chunk_of_temporaries(self):
        """Two chunks at n = 6 (65,536 samples each) trace under 3 MB at
        --workers 2: one chunk's uint8 rows and draws at a time, where two
        threads' chunks with int64 copies of their rows reached 10.6 MB."""
        n = 6
        sample_census(n, 100, workers=1)  # first-call caches stay out of the peak
        tracemalloc.start()
        try:
            sample_census(n, 2 * _sample_chunk(n), workers=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000

    def test_estimate_brackets_exact_n4(self):
        exact = enumerate_census(4).strongly_harmful_fraction
        est = sample_census(4, 100_000, seed=7)
        assert abs(est.strongly_harmful_fraction - exact) <= est.half_width

    @pytest.mark.parametrize("n", range(5, MAX_SAMPLE_N + 1))
    def test_estimate_within_certified_bracket(self, n):
        """The sampled fraction lies within three half-widths of the exact
        bracket, and of the exact fraction where it is known. A run in which
        every sample qualifies has half-width 0 and counts as 1 / samples."""
        samples = 100_000 if n <= 7 else 20_000 if n == 8 else 2_048
        rep = sample_census(n, samples, seed=4099 + n)
        fraction = Fraction(rep.strongly_harmful_fraction)
        slack = 3 * (Fraction(rep.half_width) or Fraction(1, samples))
        lo, hi = strongly_harmful_bracket(n)
        assert lo - slack <= fraction <= hi + slack
        if n in EXACT_FRACTIONS:
            assert abs(fraction - EXACT_FRACTIONS[n]) <= slack

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

    @pytest.mark.parametrize("n", [2, 8, MAX_SAMPLE_N])
    def test_draw_cap_refuses_before_chunking(self, monkeypatch, n):
        """samples x (2**n - 1) picks up to the cap go on to be chunked;
        one sample more is refused before any chunk is built."""

        def stop(*args):
            raise InterruptedError("chunking reached")

        monkeypatch.setattr(census, "index_chunks", stop)
        at_cap = MAX_SAMPLE_DRAWS // ((1 << n) - 1)
        with pytest.raises(InterruptedError):
            sample_census(n, at_cap, seed=0)
        draws = (at_cap + 1) * ((1 << n) - 1)
        with pytest.raises(ValueError, match=f"draw {draws} menu picks, past its cap of {MAX_SAMPLE_DRAWS}$"):
            sample_census(n, at_cap + 1, seed=0)

    def test_draw_cap_counts_numpy_integers_exactly(self, monkeypatch):
        """numpy integers are taken as Python ints before the draw count is
        worked out: 2**62 int64 samples at n = 16 would wrap the product
        below the cap and go on to list 2**52 chunks."""

        def stop(*args):
            raise InterruptedError("chunking reached")

        monkeypatch.setattr(census, "index_chunks", stop)
        draws = 2**62 * ((1 << 16) - 1)
        with pytest.raises(ValueError, match=f"draw {draws} menu picks, past its cap"):
            sample_census(np.int64(16), np.int64(2**62), seed=0)

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

    @pytest.mark.parametrize("seed", [-1, MAX_SEED + 1, MAX_SEED + 2, -MAX_SEED])
    def test_seed_outside_64_bits_rejected(self, seed):
        """Such a seed once keyed the generator modulo 2**64, so seeds 1,
        2**64 + 1 and -(2**64 - 1) drew the same samples."""
        with pytest.raises(ValueError, match=r"seed must lie in 0\.\.18446744073709551615"):
            sample_census(6, 10, seed=seed)


class TestGenerate:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_matches_whole_array_oracle(self, n):
        """Every policy kind, at seeds 0, 5 and 2**64 - 1, gives the picks
        of one pass over all menus; from n = 15 the menus span blocks."""
        rng = np.random.default_rng(100 + n)
        order = LinearOrder(tuple(rng.permutation(n).tolist()))
        masks = menu_order(n)
        chosen = masks[rng.random(masks.size) < 0.3].tolist()
        explicit = ExplicitIndexPolicy(tuple((m, int(rng.integers(0, n))) for m in sorted(chosen)))
        policies = [FixedIndexPolicy(int(rng.integers(0, n))), UniformIndexPolicy(min(12, n - 1)), explicit]
        for seed in (0, 5, MAX_SEED):
            for policy in policies:
                got = generate_harmful(order, policy, seed=seed).picks_array
                assert np.array_equal(got, whole_generate_harmful(order, policy, seed)), (policy, seed)

    def test_matches_whole_array_oracle_at_n20(self):
        """One run of each policy kind at the largest n, 64 blocks of menus."""
        n = 20
        order = LinearOrder(tuple(np.random.default_rng(20).permutation(n).tolist()))
        explicit = ExplicitIndexPolicy(tuple((m, m % n) for m in range(3, 1 << n, 97)))
        for policy, seed in ((FixedIndexPolicy(7), 0), (UniformIndexPolicy(12), 5), (explicit, MAX_SEED)):
            got = generate_harmful(order, policy, seed=seed).picks_array
            assert np.array_equal(got, whole_generate_harmful(order, policy, seed)), policy

    @pytest.mark.parametrize("policy", [FixedIndexPolicy(0), UniformIndexPolicy(2)])
    @pytest.mark.parametrize("seed", [-1, MAX_SEED + 1, -MAX_SEED])
    def test_seed_outside_64_bits_rejected(self, policy, seed):
        with pytest.raises(ValueError, match=r"seed must lie in 0\.\.18446744073709551615"):
            generate_harmful(LinearOrder((0, 1, 2)), policy, seed=seed)

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
        mapping = {Menu.from_mask(m): 1 for m in range(1, 8)}
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

    def test_from_menus_refuses_a_float_index(self):
        """1.7 is not truncated to the index 1."""
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            ExplicitIndexPolicy.from_menus({Menu((0, 1)): 1.7})

    @pytest.mark.parametrize(
        "policy",
        [
            ExplicitIndexPolicy(((3, 1.5),)),
            ExplicitIndexPolicy(((3.0, 1),)),
            UniformIndexPolicy(2.5),
            FixedIndexPolicy(1.5),
        ],
        ids=["explicit", "explicit mask", "uniform", "fixed"],
    )
    def test_float_index_is_refused(self, policy):
        """A float index is neither narrowed by the int8 table nor passed
        on to numpy, whose own TypeError names a ufunc; a float menu
        bitmask is refused before the canonical sort reads it."""
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            generate_harmful(LinearOrder((0, 1, 2, 3)), policy)

    @pytest.mark.parametrize("assignments", [((3, 0), (3, 1)), ((3, 1), (3, 0)), ((3, 1), (3, 1))])
    def test_menu_listed_twice_is_refused(self, assignments):
        """A hand-built policy that repeats a menu keeps neither index."""
        with pytest.raises(ValueError, match="policy lists the menu of bitmask 3 twice"):
            generate_harmful(LinearOrder((0, 1, 2)), ExplicitIndexPolicy(assignments))

    def test_integer_indices_are_read(self):
        order = LinearOrder((0, 1, 2))
        explicit = ExplicitIndexPolicy.from_menus({Menu((0, 1)): np.int64(1), Menu((1, 2)): True})
        assert explicit.assignments == ((3, 1), (6, 1))
        assert generate_harmful(order, FixedIndexPolicy(np.uint8(1))) == generate_harmful(
            order, FixedIndexPolicy(1)
        )
        assert generate_harmful(order, UniformIndexPolicy(np.int32(2)), seed=3) == generate_harmful(
            order, UniformIndexPolicy(2), seed=3
        )

    def test_matches_distortion_tables(self):
        """Each menu's pick, worked out from its own index, is the table's
        pick of that distortion: every fixed index and random per-menu
        indices, over random orders at n = 1..12."""
        rng = np.random.default_rng(64)
        for n in range(1, 13):
            masks = menu_order(n)
            for trial in range(3):
                order = LinearOrder(tuple(rng.permutation(n).tolist()))
                tabs = loop_distortion_tables(order)
                for i in range(n):
                    got = generate_harmful(order, FixedIndexPolicy(i)).picks_array
                    assert np.array_equal(got, tabs[i])
                key = np.array([trial, 0], dtype=np.uint64)
                indices = np.random.Generator(np.random.Philox(key=key)).integers(
                    0, n, size=len(masks)
                )
                got = generate_harmful(order, UniformIndexPolicy(n - 1), seed=trial)
                assert np.array_equal(got.picks_array[masks], tabs[indices, masks])

    def test_matches_menu_loop(self):
        """Filling the picks menu by menu from the distortion tables gives
        the same choice, for each kind of policy."""
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
                tabs = loop_distortion_tables(order)
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
