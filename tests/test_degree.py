"""Degree computation: exhaustive route, axiomatic route, dispatcher."""

import json
import threading
import tracemalloc
from itertools import permutations
from math import factorial

import numpy as np
import pytest

from harmchoice import (
    ChoiceFunction,
    FixedIndexPolicy,
    LinearOrder,
    UniformIndexPolicy,
    construct_inconsistent,
    elicit_weakly_harmful,
    generate_harmful,
    min_max_index,
    rational_choice,
    satisfies_warp,
    sp,
    sp_axiomatic,
    sp_bruteforce,
)
from harmchoice._kernels import order_scores
from harmchoice.axioms import coselected_pairs, revealed_relation
from harmchoice.cli import main
from harmchoice.degree import _minimum_hitting_sets
from conftest import iter_all_choices, random_choice, table_sp_bruteforce


def scan(c):
    """The n! oracle: score every base order in lexicographic order and keep
    the best score, how many orders reach it and the first 100 of them."""
    orders = np.array(list(permutations(range(c.n))), dtype=np.int64)
    scores = order_scores(revealed_relation(c), orders)
    best = int(scores.min())
    hits = np.flatnonzero(scores == best)
    return best, int(hits.size), [tuple(orders[i].tolist()) for i in hits[:100]]


def minimum_covers(c):
    """Size and number of the minimum vertex covers of the co-selection
    graph, by a scan of every set of alternatives."""
    sets = np.arange(1 << c.n)
    covers = np.ones(sets.size, dtype=bool)
    for p, q in coselected_pairs(c):
        covers &= ((sets >> p) | (sets >> q)) & 1 == 1
    sizes = np.bitwise_count(sets)
    tau = int(sizes[covers].min())
    return tau, int((covers & (sizes == tau)).sum())


def seeded_choices(seed, sizes, per_size):
    """Seeded choices at each n: `uniform:k` for a random k, `uniform:1` and
    uniformly random picks, in turn."""
    rng = np.random.default_rng(seed)
    for n in sizes:
        for i in range(per_size):
            order = LinearOrder(tuple(int(e) for e in rng.permutation(n)))
            draw = int(rng.integers(1 << 30))
            if i % 3 == 0:
                yield generate_harmful(order, UniformIndexPolicy(int(rng.integers(0, n))), seed=draw)
            elif i % 3 == 1:
                yield generate_harmful(order, UniformIndexPolicy(1), seed=draw)
            else:
                yield random_choice(rng, n)


def matching_choice(n):
    """The order 0, 1, …, n-1, except that each pair menu {2i, 2i+1} picks
    its worse member: the co-selected pairs form a matching, with
    2**(n//2 - 1) minimum covers at even n (n - 2 beats n - 1 only in their
    pair menu, so that pair is not co-selected)."""
    picks = rational_choice(LinearOrder(tuple(range(n)))).picks_array.copy()
    for i in range(n // 2):
        picks[3 << 2 * i] = 2 * i + 1
    return ChoiceFunction(n, picks)


def table_cases():
    """The inputs on which the exhaustive route must match the table oracle."""
    for n in (1, 2, 3):
        yield from iter_all_choices(n)
    yield from seeded_choices(54, range(4, 13), 6)
    for n in (16, 20):
        order = LinearOrder(tuple(int(e) for e in np.random.default_rng(n).permutation(n)))
        yield generate_harmful(order, FixedIndexPolicy(0), seed=55)
        for cap in (1, n // 2, n - 1):
            yield generate_harmful(order, UniformIndexPolicy(cap), seed=55 + cap)
    for k in range(2, 11):
        yield construct_inconsistent(k)
    for n in (12, 16, 20):
        yield matching_choice(n)


def semicomplete(n, arcs):
    """``sel`` on 0..n-1 with the given arcs, and q → p for every other
    pair p < q."""
    sel = np.zeros((n, n), dtype=bool)
    sel[np.tril_indices(n, -1)] = True
    for p, q in arcs:
        sel[p, q] = True
        sel[q, p] = (q, p) in arcs
    return sel


class TestBruteforce:
    def test_cycle3(self, cycle3_choice):
        assert sp_bruteforce(cycle3_choice[1]).sp == 1

    def test_erratic4(self, erratic4_choice):
        assert sp_bruteforce(erratic4_choice[1]).sp == 3

    def test_rational(self):
        order = LinearOrder((2, 0, 1))
        rep = sp_bruteforce(rational_choice(order))
        assert rep.sp == 0
        # only the generating order explains everything undistorted
        assert rep.minimizing_order_count == 1
        assert rep.minimizing_orders == (order,)

    def test_single_alternative(self):
        rep = sp_bruteforce(rational_choice(LinearOrder((0,))))
        assert (rep.sp, rep.minimizing_order_count) == (0, 1)
        assert rep.minimizing_orders == (LinearOrder((0,)),)

    def test_minimizers_achieve_the_value(self, projects_choice):
        _, c = projects_choice
        rep = sp_bruteforce(c)
        for order in rep.minimizing_orders:
            assert min_max_index(c, order) == rep.sp

    def test_size_cap(self, tmp_path, capsys):
        """n = 9 lies beyond the old n! scan and agrees with the axiomatic
        route; a 21-alternative dataset is refused with exit 1."""
        c = random_choice(np.random.default_rng(41), 9)
        rep = sp_bruteforce(c)
        assert rep.sp == sp_axiomatic(c).sp
        for order in rep.minimizing_orders:
            assert min_max_index(c, order) == rep.sp
        path = tmp_path / "n21.json"
        labels = [f"a{i}" for i in range(21)]
        path.write_text(
            json.dumps({"alternatives": labels, "choices": [{"menu": labels, "choice": "a0"}]}),
            encoding="utf-8",
        )
        assert main(["sp", "--brute", str(path)]) == 1
        assert "capped at n <= 20, got n = 21" in capsys.readouterr().err

    def test_minimizers_truncated_with_exact_count(self):
        # a fully inconsistent choice is explained equally badly by every
        # base order, so all 6! of them minimize
        rep = sp_bruteforce(construct_inconsistent(3))
        assert rep.sp == 5
        assert rep.minimizing_order_count == 720
        assert len(rep.minimizing_orders) == 100

    def test_worker_count_never_changes_report(self, projects_choice):
        ground, c = projects_choice
        dicts = [
            json.dumps(sp_bruteforce(c, workers=w).to_dict(ground)) for w in (1, 2, 8)
        ]
        assert dicts[0] == dicts[1] == dicts[2]

    def test_matches_order_scan(self):
        """Degree, exact count and first 100 orders equal the n! scan's."""
        for c in seeded_choices(51, range(3, 9), 12):
            rep = sp_bruteforce(c)
            got = (rep.sp, rep.minimizing_order_count, [o.ranking for o in rep.minimizing_orders])
            assert got == scan(c), c.n

    def test_matches_table_oracle(self):
        """Degree, exact count and first 100 orders equal those of the 2**n
        subset tables."""
        for c in table_cases():
            rep = sp_bruteforce(c)
            got = (rep.sp, rep.minimizing_order_count, [o.ranking for o in rep.minimizing_orders])
            assert got == table_sp_bruteforce(c), c.n

    @pytest.mark.parametrize("policy, degree", [(FixedIndexPolicy(0), 0), (UniformIndexPolicy(1), 1)])
    def test_traces_under_1mb_at_n18(self, policy, degree):
        """A few cycle bitmasks and the listed orders; the 2**n tables
        traced 11.05 MiB on fixed:0 and 6.55 MiB on uniform:1."""
        c = generate_harmful(LinearOrder(tuple(range(18))), policy, seed=5)
        c.pick_counts
        tracemalloc.start()
        try:
            rep = sp_bruteforce(c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.sp == degree and peak < 2**20, f"{peak / 2**20:.2f} MiB"

    def test_first_orders_skip_dead_prefixes(self):
        """The largest acyclic set is the 8 smallest ids, so a lexicographic
        search meets prefixes that cannot complete first. Pruned, it never
        enters one; without pruning this search runs for hours."""
        c = generate_harmful(LinearOrder(tuple(range(15, -1, -1))), UniformIndexPolicy(8), seed=1)
        done = []
        worker = threading.Thread(target=lambda: done.append(sp_bruteforce(c)), daemon=True)
        worker.start()
        worker.join(timeout=30)
        assert done, "the search for the first orders did not finish"
        assert done[0].minimizing_order_count == factorial(8)
        assert done[0].minimizing_orders[0].ranking == tuple(range(8, 16)) + tuple(range(7, -1, -1))

    def test_inconsistent_n20_count_is_exact(self):
        rep = sp_bruteforce(construct_inconsistent(10))
        assert rep.sp == 19
        assert rep.minimizing_order_count == factorial(20)
        assert rep.minimizing_orders[0] == LinearOrder(tuple(range(20)))
        assert len(rep.minimizing_orders) == 100


class TestHittingSets:
    """No choice function has a triangle of one-way arcs, so these hand-built
    semicomplete relations are the only way to reach the triangle branch."""

    def test_three_cycle(self):
        sel = semicomplete(3, {(0, 1), (1, 2), (2, 0)})
        assert sorted(_minimum_hitting_sets(sel)) == [0b001, 0b010, 0b100]

    def test_three_cycle_and_disjoint_two_cycle(self):
        sel = semicomplete(5, {(0, 1), (1, 2), (2, 0), (3, 4), (4, 3)})
        expected = sorted(1 << p | 1 << q for p in (0, 1, 2) for q in (3, 4))
        assert sorted(_minimum_hitting_sets(sel)) == expected


class TestCoverLemma:
    """``sel`` is semicomplete, so a set of alternatives is acyclic exactly
    when no co-selected pair lies in it, and then it has one topological
    order. The exhaustive route must show what follows from that, though it
    reads the 2-cycles of ``sel`` itself, hits its triangles as well, and
    never calls the axiomatic route's cover."""

    @staticmethod
    def check(c):
        rep = sp_bruteforce(c)
        tau, covers = minimum_covers(c)
        assert rep.sp == tau == sp_axiomatic(c).sp
        assert rep.minimizing_order_count == factorial(tau) * covers
        if rep.sp == 1:
            expected = sorted(o.ranking for o in elicit_weakly_harmful(c))
            assert sorted(o.ranking for o in rep.minimizing_orders) == expected

    def test_small_ground_sets(self):
        for c in seeded_choices(52, range(2, 9), 15):
            self.check(c)

    @pytest.mark.parametrize("n", [12, 14, 16])
    def test_generated_large_ground_sets(self, n):
        order = LinearOrder(tuple(int(e) for e in np.random.default_rng(n).permutation(n)))
        for cap in (1, n // 2, n - 1):
            self.check(generate_harmful(order, UniformIndexPolicy(cap), seed=53 + cap))

    @pytest.mark.parametrize("k", [6, 7, 8])
    def test_inconsistent_large_ground_sets(self, k):
        self.check(construct_inconsistent(k))


class TestAxiomatic:
    def test_donation(self, donation_choice):
        rep = sp_axiomatic(donation_choice[1])
        assert rep.sp == 1
        assert rep.cns_witness.items == (0,)

    def test_diet(self, diet_choice):
        rep = sp_axiomatic(diet_choice[1])
        assert rep.sp == 1
        assert rep.cns_witness.items == (0,)  # lasagna

    def test_erratic4_fast_path(self, erratic4_choice):
        rep = sp_axiomatic(erratic4_choice[1])
        assert rep.sp == 3
        assert rep.cns_witness is not None and len(rep.cns_witness.items) == 3

    def test_rational(self):
        rep = sp_axiomatic(rational_choice(LinearOrder((0, 1))))
        assert rep.sp == 0
        assert rep.cns_witness is None

    def test_single_alternative(self):
        rep = sp_axiomatic(rational_choice(LinearOrder((0,))))
        assert rep.sp == 0


class TestDispatcher:
    def test_cycle3_runs_both(self, cycle3_choice):
        rep = sp(cycle3_choice[1])
        assert rep.sp == 1 and rep.method == "both"
        assert rep.minimizing_orders is not None
        assert rep.cns_witness is not None

    def test_erratic4_runs_both(self, erratic4_choice):
        rep = sp(erratic4_choice[1])
        assert rep.sp == 3 and rep.method == "both"

    def test_large_ground_set_runs_both(self):
        rng = np.random.default_rng(42)
        rep = sp(random_choice(rng, 10))
        assert rep.method == "both"
        assert 1 <= len(rep.minimizing_orders) <= min(rep.minimizing_order_count, 100)

    def test_zero_iff_warp_exhaustive_n3(self):
        for c in iter_all_choices(3):
            assert (sp(c).sp == 0) == satisfies_warp(c)


def test_report_ranges():
    rng = np.random.default_rng(43)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        c = random_choice(rng, n)
        rep = sp(c)
        assert 0 <= rep.sp <= max(n - 1, 0)


def test_routes_agree_beyond_exhaustive_sizes():
    # the n = 3, 4 spaces are swept in the acceptance suite; sample larger ones
    rng = np.random.default_rng(44)
    for n in (5, 6):
        for _ in range(30):
            c = random_choice(rng, n)
            assert sp_bruteforce(c).sp == sp_axiomatic(c).sp


def test_report_serialization(donation_choice):
    ground, c = donation_choice
    d = sp(c).to_dict(ground)
    assert d["sp"] == 1
    assert json.loads(json.dumps(d)) == d
