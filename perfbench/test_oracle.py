"""The output oracle accepts the program's reports and rejects tampered ones."""

import copy
import itertools
import json

import numpy as np
import pytest

import harmchoice as hc
from harmchoice import cli
from oracle import (
    REFERENCE_FRACTION,
    REFERENCE_STDERR,
    Expect,
    OracleError,
    check_analyze,
    check_exact_census,
    check_generated,
    check_sampled_census,
    check_sp,
    check_warp,
    estimate_fraction,
    order_depth,
    parse_dataset,
)
from workloads import _random_picks, write_dataset


def run_cli(capsys, *args):
    assert cli.main(list(args)) == 0
    return json.loads(capsys.readouterr().out)


def brute_reversals(picks, n):
    """Count menu pairs whose distinct picks both lie in the intersection."""
    count = 0
    for a, b in itertools.combinations(range(1, 1 << n), 2):
        pa, pb = int(picks[a]), int(picks[b])
        inter = a & b
        if pa != pb and (inter >> pa) & 1 and (inter >> pb) & 1:
            count += 1
    return count


@pytest.fixture
def harmful(tmp_path):
    """A uniform:2 dataset at n = 6 with reversals, as a file."""
    order = hc.LinearOrder((3, 1, 4, 0, 5, 2))
    choice = hc.generate_harmful(order, hc.UniformIndexPolicy(2), seed=7)
    path = tmp_path / "harmful.json"
    write_dataset(path, [f"a{i}" for i in range(6)], choice.picks_array, "json")
    return path


@pytest.mark.parametrize("n", [3, 4, 5])
def test_reversal_formula_matches_enumeration(tmp_path, n):
    rng = np.random.default_rng(n)
    for trial in range(5):
        picks = _random_picks(rng, n)
        path = tmp_path / f"r{trial}.txt"
        write_dataset(path, [f"x{i}" for i in range(n)], picks, "text")
        ds = parse_dataset(path.read_bytes())
        assert np.array_equal(ds.picks, picks)
        assert ds.reversal_count() == brute_reversals(picks, n)


def test_order_depth_is_zero_exactly_for_the_rationalizing_order():
    order = hc.LinearOrder((2, 0, 3, 1))
    choice = hc.rational_choice(order)
    ds = parse_dataset(_text(choice, 4))
    assert order_depth(ds, [2, 0, 3, 1]) == 0
    assert order_depth(ds, [0, 1, 2, 3]) > 0


def _text(choice, n):
    lines = ["alternatives: " + ",".join(f"a{i}" for i in range(n))]
    for mask in range(1, 1 << n):
        members = ",".join(f"a{e}" for e in range(n) if (mask >> e) & 1)
        lines.append(f"{members} -> a{choice.picks_array[mask]}")
    return "\n".join(lines).encode()


def test_analyze_report_accepted_and_tampering_rejected(capsys, harmful):
    ds = parse_dataset(harmful.read_bytes())
    report = run_cli(capsys, "analyze", "--format", "json", "--workers", "1", str(harmful))
    expect = Expect("cap", 2)
    check_analyze(report, ds, expect)
    assert report["reversals"] and report["sp"]["sp"] >= 1

    def rejected(mutate):
        bad = copy.deepcopy(report)
        mutate(bad)
        with pytest.raises(OracleError):
            check_analyze(bad, ds, expect)

    rejected(lambda r: r["reversals"].pop())
    rejected(lambda r: r["reversals"].append(r["reversals"][0]))
    rejected(lambda r: r.update(reversal_count=len(r["reversals"]) + 1))
    rejected(lambda r: r.update(warp=not r["warp"]))
    rejected(lambda r: r["sp"].update(sp=r["sp"]["sp"] + 1))
    rejected(lambda r: r["sp"].update(method="axiomatic"))
    rejected(lambda r: r["sp"]["cns_witness"]["items"].pop())
    rejected(lambda r: r["reversals"][0].update(pick_a=r["reversals"][0]["pick_b"]))
    rejected(lambda r: r["sp"]["minimizing_orders"].__setitem__(0, sorted(r["dataset"]["alternatives"])))


def test_sp_and_warp_reports_on_the_inconsistent_family(capsys, tmp_path):
    path = tmp_path / "inc.txt"
    write_dataset(path, list(hc.inconsistent_ground_set(3).labels), hc.construct_inconsistent(3).picks_array, "text")
    ds = parse_dataset(path.read_bytes())
    report = run_cli(capsys, "sp", "--format", "json", "--workers", "1", str(path))
    check_sp(report, ds, Expect("inconsistent"))
    bad = copy.deepcopy(report)
    bad["sp"]["sp"] -= 1
    with pytest.raises(OracleError):
        check_sp(bad, ds, Expect("inconsistent"))
    warp = run_cli(capsys, "warp", "--format", "json", str(path))
    check_warp(warp, ds)
    with pytest.raises(OracleError):
        check_warp({**warp, "warp": True}, ds)


def test_rational_data_must_have_degree_zero(capsys, tmp_path):
    path = tmp_path / "rational.json"
    write_dataset(path, ["a", "b", "c", "d"], hc.rational_choice(hc.LinearOrder((1, 3, 0, 2))).picks_array, "json")
    ds = parse_dataset(path.read_bytes())
    report = run_cli(capsys, "analyze", "--format", "json", str(path))
    check_analyze(report, ds, Expect("rational"))
    with pytest.raises(OracleError):
        check_analyze(report, ds, Expect("inconsistent"))


def test_generated_files_need_every_menu_once(capsys):
    assert cli.main(["generate", "--order", "a,b,c,d", "--policy", "uniform:2", "--format", "text"]) == 0
    text = capsys.readouterr().out
    labels = ("a", "b", "c", "d")
    check_generated(text.encode(), labels)
    lines = text.splitlines()
    for bad in (
        lines[:-1],  # a menu missing
        lines + [lines[-1]],  # a menu twice
        lines[:-1] + ["b,c -> a"],  # a pick outside its menu
    ):
        with pytest.raises(OracleError):
            check_generated("\n".join(bad).encode(), labels)
    with pytest.raises(OracleError):
        check_generated(text.encode(), ("a", "b", "c", "e"))


def test_exact_census_report(capsys):
    report = run_cli(capsys, "census", "--n", "4", "--format", "json", "--workers", "1")
    check_exact_census(report, 4)
    bad = copy.deepcopy(report)
    bad["counts_by_sp"]["1"] += 1
    bad["counts_by_sp"]["2"] -= 1
    with pytest.raises(OracleError):
        check_exact_census(bad, 4)


def test_sampled_census_report(capsys):
    samples, seed = 65536, 99
    report = run_cli(
        capsys, "sample-census", "--n", "6", "--samples", str(samples), "--seed", str(seed), "--format", "json",
        "--workers", "1",
    )
    check_sampled_census(report, 6, samples, seed)
    shifted = copy.deepcopy(report)
    shifted["strongly_harmful_fraction"] += 10 * report["half_width"]
    shifted["counts_by_sp"]["5"] = round(shifted["strongly_harmful_fraction"] * samples)
    shifted["strongly_harmful_fraction"] = shifted["counts_by_sp"]["5"] / samples
    for bad in (shifted, {**report, "seed": seed + 1}, {**report, "counts_by_sp": {"5": 1}}):
        with pytest.raises(OracleError):
            check_sampled_census(bad, 6, samples, seed)


def test_reference_fraction_reproduces():
    samples = 1 << 17
    estimate = estimate_fraction(6, samples, seed=5)
    ref = REFERENCE_FRACTION[6]
    stderr = np.sqrt(ref * (1 - ref) / samples + REFERENCE_STDERR[6] ** 2)
    assert abs(estimate - ref) < 4 * stderr
