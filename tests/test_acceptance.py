"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run `pytest tests/test_acceptance.py -v -s` to see the lines. The two
exhaustive surveys (every choice function on three and on four
alternatives, each classified by both routes) are computed once per
session and shared by the criteria that need them.
"""

import itertools
import json
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from harmchoice import (
    ChoiceFunction,
    LinearOrder,
    UniformIndexPolicy,
    all_extensions,
    canonical_rationalization,
    check_cns,
    constant_selection_witnesses,
    construct_inconsistent,
    distortion_max_tables,
    elicit_partial,
    elicit_weakly_harmful,
    enumerate_census,
    generate_harmful,
    harmful_distortion,
    is_inconsistent,
    min_max_index,
    sample_census,
    satisfies_warp,
    sp,
    sp_axiomatic,
    sp_bruteforce,
    validate_rationalization,
)
from harmchoice.cli import build_analysis, LoadedDataset
from conftest import iter_all_choices, random_choice

SEED = 20250809


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module", autouse=True)
def _warm_kernels():
    """Compile/warm every hot path before anything is timed."""
    rng = np.random.default_rng(0)
    c = random_choice(rng, 3)
    sp(c)
    enumerate_census(2)
    sample_census(2, 64, seed=0)


def _survey(n: int) -> SimpleNamespace:
    total = 0
    picks, sp_b, sp_a, warp, def6, incons = [], [], [], [], [], []
    start = time.perf_counter()
    for c in iter_all_choices(n):
        picks.append(c.picks_array)
        sp_b.append(sp_bruteforce(c).sp)
        sp_a.append(sp_axiomatic(c).sp)
        warp.append(satisfies_warp(c))
        def6.append(constant_selection_witnesses(c) is not None)
        incons.append(is_inconsistent(c))
        total += 1
    return SimpleNamespace(
        n=n,
        total=total,
        picks=np.array(picks, dtype=np.int16),
        sp_brute=np.array(sp_b, dtype=np.int64),
        sp_axiomatic=np.array(sp_a, dtype=np.int64),
        warp=np.array(warp, dtype=bool),
        def6=np.array(def6, dtype=bool),
        inconsistent=np.array(incons, dtype=bool),
        elapsed=time.perf_counter() - start,
    )


@pytest.fixture(scope="module")
def survey3():
    return _survey(3)


@pytest.fixture(scope="module")
def survey4():
    return _survey(4)


def test_criterion_1_walkthrough_fixtures(
    donation_choice, diet_choice, projects_choice, cycle3_choice, erratic4_choice
):
    start = time.perf_counter()
    r4 = sp(cycle3_choice[1])
    r5 = sp(erratic4_choice[1])
    r1 = sp_axiomatic(donation_choice[1])
    r2 = sp_axiomatic(diet_choice[1])
    b3 = sp_bruteforce(projects_choice[1])
    a3 = sp_axiomatic(projects_choice[1])
    elapsed = time.perf_counter() - start
    ok = (
        r4.sp == 1
        and r5.sp == 3
        and r1.sp == 1
        and r1.cns_witness is not None
        and r2.sp == 1
        and r2.cns_witness is not None
        and b3.sp == a3.sp
        and b3.sp <= 2
        and elapsed < 1.0
    )
    _report(
        1,
        ok,
        f"fixture degrees 1/3/1/1 and projects {b3.sp} <= 2 in {elapsed:.3f}s",
    )


def test_criterion_2_route_equivalence(survey3, survey4):
    mism3 = int((survey3.sp_brute != survey3.sp_axiomatic).sum())
    mism4 = int((survey4.sp_brute != survey4.sp_axiomatic).sum())
    elapsed = survey3.elapsed + survey4.elapsed
    ok = (
        mism3 == 0
        and mism4 == 0
        and survey3.total == 24
        and survey4.total == 20736
        and elapsed < 300.0
    )
    _report(
        2,
        ok,
        f"exhaustive == axiomatic on 24 + 20736 choices, "
        f"{mism3 + mism4} mismatches, {elapsed:.1f}s",
    )


def test_criterion_3_biconditionals(survey3, survey4):
    bad = 0
    for data in (survey3, survey4):
        n = data.n
        bad += int(((data.sp_axiomatic == 1) != data.def6).sum())
        bad += int(((data.sp_axiomatic == n - 1) != data.inconsistent).sum())
        bad += int(((data.sp_axiomatic == 0) != data.warp).sum())
    _report(3, bad == 0, f"degree 1 / n-1 / 0 biconditionals, {bad} counterexamples")


def test_criterion_4_minimal_identification(survey3, survey4):
    bad = 0
    checked = 0
    for data in (survey3, survey4):
        n = data.n
        orders = [LinearOrder(p) for p in itertools.permutations(range(n))]
        for i in np.nonzero(data.sp_axiomatic == 1)[0]:
            c = ChoiceFunction(n, data.picks[i])
            witnesses = constant_selection_witnesses(c)
            if witnesses is None or not 1 <= len(witnesses) <= 2:
                bad += 1
                continue
            elicited = {o.ranking for o in elicit_weakly_harmful(c)}
            for order in orders:
                value = min_max_index(c, order)
                if order.ranking in elicited:
                    bad += value > 1
                else:
                    bad += value < 2
            checked += 1
    _report(
        4,
        bad == 0,
        f"{checked} minimally distorted choices identified, {bad} counterexamples",
    )


def test_criterion_5_partial_identification(survey4):
    bad = 0
    needs_zero = 0
    checked = 0
    n = 4
    for i in np.nonzero(survey4.sp_axiomatic > 0)[0]:
        c = ChoiceFunction(n, survey4.picks[i])
        j = int(survey4.sp_axiomatic[i])
        witness = check_cns(c, j)
        if witness is None:
            bad += 1
            continue
        explaining = set()
        for ordering in itertools.permutations(witness.items):
            partial = elicit_partial(c, ordering)
            ext = all_extensions(partial, cap=200)
            if len(ext.orders) != ext.total:
                bad += 1
                continue
            for order in ext.orders:
                if min_max_index(c, order) > j:
                    bad += 1
                explaining.add(order.ranking)
        if len(explaining) < math.factorial(j):
            bad += 1
        # how often the zero-index (undistorted) member is genuinely needed
        order = all_extensions(elicit_partial(c, witness.items), cap=1).orders[0]
        tabs = distortion_max_tables(order)
        feasible = tabs[1 : j + 1, 1:] == c.picks_array[None, 1:]
        if not feasible.any(axis=0).all():
            needs_zero += 1
        checked += 1
    _report(
        5,
        bad == 0,
        f"{checked} witnessed choices, every extension within its degree and "
        f"at least j! per choice, {bad} counterexamples "
        f"({needs_zero} required the undistorted member)",
    )


def test_criterion_6_canonical_always_validates():
    rng = np.random.default_rng(SEED)
    failures = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 7))
        c = random_choice(rng, n)
        order = LinearOrder(tuple(int(x) for x in rng.permutation(n)))
        if not validate_rationalization(c, canonical_rationalization(c, order)):
            failures += 1
    _report(6, failures == 0, f"10000 random canonical assignments, {failures} failures")


def test_criterion_7_distortion_precedence():
    failures = 0
    checked = 0
    for n in range(1, 7):
        for ranking in itertools.permutations(range(n)):
            base = LinearOrder(ranking)
            for g in range(n):
                d = harmful_distortion(base, g)
                pos = {e: k for k, e in enumerate(d.ranking)}
                for h in range(g + 1, n + 1):
                    for i in range(h + 1, n + 1):
                        checked += 1
                        if not pos[ranking[h - 1]] < pos[ranking[i - 1]]:
                            failures += 1
    _report(
        7,
        failures == 0,
        f"precedence below the demoted block, {checked} triples, {failures} failures",
    )


def test_criterion_8_prevalence_trend():
    start = time.perf_counter()
    exact = {n: enumerate_census(n).strongly_harmful_fraction for n in (2, 3, 4)}
    estimate = sample_census(5, 1_000_000, seed=SEED, workers=8)
    elapsed = time.perf_counter() - start
    monotone = exact[2] <= exact[3] <= exact[4]
    margin = estimate.strongly_harmful_fraction - exact[4]
    ok = monotone and margin > estimate.half_width and elapsed < 600.0
    _report(
        8,
        ok,
        f"fractions {exact[2]:.4f} <= {exact[3]:.4f} <= {exact[4]:.4f}, "
        f"n=5 estimate {estimate.strongly_harmful_fraction:.4f} "
        f"(+{margin:.4f} > {estimate.half_width:.4f}), {elapsed:.1f}s",
    )


def test_criterion_9_generator_soundness():
    construction_ok = all(is_inconsistent(construct_inconsistent(k)) for k in (2, 3, 4))
    rng = np.random.default_rng(SEED)
    violations = 0
    for trial in range(1000):
        n = int(rng.integers(2, 6))
        order = LinearOrder(tuple(int(x) for x in rng.permutation(n)))
        cap = int(rng.integers(0, n))
        c = generate_harmful(order, UniformIndexPolicy(cap), seed=trial)
        if sp(c).sp > cap:
            violations += 1
    ok = construction_ok and violations == 0
    _report(
        9,
        ok,
        f"inconsistent construction at k=2,3,4 and 1000 capped simulations, "
        f"{violations} cap violations",
    )


def test_criterion_10_worker_determinism(projects_choice, erratic4_choice):
    worker_counts = (1, 2, 8)
    blobs = []
    for w in worker_counts:
        analysis = build_analysis(
            LoadedDataset(erratic4_choice[0], erratic4_choice[1], ()), workers=w
        )
        blobs.append(
            json.dumps(
                {
                    "sp": sp_bruteforce(projects_choice[1], workers=w).to_dict(projects_choice[0]),
                    "census": enumerate_census(4, workers=w).to_dict(),
                    "sample": sample_census(5, 100_000, seed=SEED, workers=w).to_dict(),
                    "analysis": analysis.to_dict(),
                }
            )
        )
    ok = blobs[0] == blobs[1] == blobs[2]
    _report(10, ok, f"byte-identical reports at workers {worker_counts}")
