"""The benchmark's workloads: their inputs, CLI invocations and output checks.

Each workload function writes its inputs with the package's own generators
(timed as set-up) and returns the invocations of one pass. Every input and
every argument derives from the run's seed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from functools import cache
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

WARM_UP = ["distort", "--order", "a,b,c", "--index", "1"]


@dataclass(frozen=True)
class Invocation:
    """One ``python -m harmchoice.cli`` call and how to judge its stdout.

    ``menus`` is the sum of 2^n - 1 over the choice functions the call reads,
    writes or classifies; ``choices`` counts those choice functions.
    """

    name: str
    args: list[str]
    check: Callable[[bytes], None]
    menus: int
    choices: int = 1

    def with_workers(self, workers: int) -> "Invocation":
        args = list(self.args)
        args[args.index("--workers") + 1] = str(workers)
        return replace(self, args=args)


@dataclass
class Context:
    seed: int
    workers: int
    work: Path
    generate_s: float = 0.0  # time inside the package's generators

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def sub_seed(self, i: int) -> int:
        return int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])

    def generate(self, func, *args, **kwargs):
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            self.generate_s += time.perf_counter() - start


def write_dataset(path: Path, labels: list[str], picks: np.ndarray, fmt: str) -> None:
    n = len(labels)
    rows = []
    for mask in range(1, 1 << n):
        rows.append(([labels[e] for e in range(n) if (mask >> e) & 1], labels[int(picks[mask])]))
    if fmt == "json":
        payload = {
            "version": 1,
            "alternatives": labels,
            "choices": [{"menu": menu, "choice": pick} for menu, pick in rows],
        }
        text = json.dumps(payload, separators=(",", ":"))
    else:
        lines = ["alternatives: " + ",".join(labels)]
        lines.extend(f"{','.join(menu)} -> {pick}" for menu, pick in rows)
        text = "\n".join(lines) + "\n"
    path.write_text(text, encoding="utf-8")


def _dataset_file(path: Path) -> Callable[[], oracle.Dataset]:
    return cache(lambda: oracle.parse_dataset(path.read_bytes()))


def _labels(n: int) -> list[str]:
    return [f"a{i}" for i in range(n)]


def _random_picks(rng: np.random.Generator, n: int) -> np.ndarray:
    picks = np.full(1 << n, -1, dtype=np.int16)
    for mask in range(1, 1 << n):
        members = [e for e in range(n) if (mask >> e) & 1]
        picks[mask] = members[rng.integers(len(members))]
    return picks


# ---------------------------------------------------------------------------
# analyze-ladder


#: (n, cap) of the uniform:cap self-punishing datasets
LADDER = [(4, 3), (5, 1), (6, 2), (7, 3), (8, 3), (9, 2), (10, 3)]


def analyze_ladder(ctx: Context) -> list[Invocation]:
    """`analyze` on n = 4..10 plus `sp` on two n = 8 datasets."""
    import harmchoice as hc

    rng = ctx.rng()
    datasets = []  # (name, labels, picks, expectation)
    for i, (n, cap) in enumerate(LADDER):
        order = hc.LinearOrder(tuple(int(e) for e in rng.permutation(n)))
        choice = ctx.generate(hc.generate_harmful, order, hc.UniformIndexPolicy(cap), seed=ctx.sub_seed(i))
        datasets.append((f"harmful-n{n}-cap{cap}", _labels(n), choice.picks_array, oracle.Expect("cap", cap)))
    for k in (2, 3, 4):
        choice = ctx.generate(hc.construct_inconsistent, k)
        labels = list(hc.inconsistent_ground_set(k).labels)
        datasets.append((f"inconsistent-k{k}", labels, choice.picks_array, oracle.Expect("inconsistent")))
    order = hc.LinearOrder(tuple(int(e) for e in rng.permutation(8)))
    choice = ctx.generate(hc.generate_harmful, order, hc.FixedIndexPolicy(0))
    datasets.append(("rational-n8", _labels(8), choice.picks_array, oracle.Expect("rational")))
    datasets.append(("random-n8", _labels(8), _random_picks(rng, 8), oracle.Expect("any")))

    invocations = []
    facts = {}
    for i, (name, labels, picks, expect) in enumerate(datasets):
        path = ctx.work / f"{name}.{'json' if i % 2 == 0 else 'txt'}"
        write_dataset(path, labels, picks, "json" if i % 2 == 0 else "text")
        facts[name] = (_dataset_file(path), expect, path)
        invocations.append(
            Invocation(
                f"analyze {name}",
                ["analyze", "--format", "json", "--workers", str(ctx.workers), str(path)],
                _checker(oracle.check_analyze, facts[name]),
                menus=(1 << len(labels)) - 1,
            )
        )
    for name in ("random-n8", "inconsistent-k4"):
        invocations.append(
            Invocation(
                f"sp {name}",
                ["sp", "--format", "json", "--workers", str(ctx.workers), str(facts[name][2])],
                _checker(oracle.check_sp, facts[name]),
                menus=255,
            )
        )
    return invocations


def _checker(check, fact) -> Callable[[bytes], None]:
    load, expect, _ = fact
    return lambda out: check(json.loads(out), load(), expect)


# ---------------------------------------------------------------------------
# dataset-large

LARGE_N = 16
LARGE_CAP = 12
LARGE_K = 8


def dataset_large(ctx: Context) -> list[Invocation]:
    """Write and read n = 16 datasets (65,535 menus) in both formats."""
    import harmchoice as hc

    rng = ctx.rng()
    labels = _labels(LARGE_N)
    menus = (1 << LARGE_N) - 1
    order = hc.LinearOrder(tuple(int(e) for e in rng.permutation(LARGE_N)))
    harmful = ctx.generate(hc.generate_harmful, order, hc.UniformIndexPolicy(LARGE_CAP), seed=ctx.sub_seed(0))
    inconsistent = ctx.generate(hc.construct_inconsistent, LARGE_K)
    harmful_path = ctx.work / "harmful-n16.json"
    inconsistent_path = ctx.work / "inconsistent-k8.txt"
    write_dataset(harmful_path, labels, harmful.picks_array, "json")
    write_dataset(inconsistent_path, list(hc.inconsistent_ground_set(LARGE_K).labels), inconsistent.picks_array, "text")
    harmful_fact = (_dataset_file(harmful_path), oracle.Expect("cap", LARGE_CAP), harmful_path)
    inconsistent_fact = (_dataset_file(inconsistent_path), oracle.Expect("inconsistent"), inconsistent_path)

    def generated(out: bytes) -> None:
        oracle.check_generated(out, tuple(labels))

    invocations = [
        Invocation(
            f"generate {fmt}",
            ["generate", "--order", ",".join(labels), "--policy", f"uniform:{LARGE_CAP}",
             "--seed", str(ctx.sub_seed(1 + i)), "--format", fmt],
            generated,
            menus=menus,
        )
        for i, fmt in enumerate(("json", "text"))
    ]
    for fact in (harmful_fact, inconsistent_fact):
        load, _, path = fact
        invocations.append(
            Invocation(
                f"warp {path.name}",
                ["warp", "--format", "json", str(path)],
                lambda out, load=load: oracle.check_warp(json.loads(out), load()),
                menus=menus,
            )
        )
    for fact in (harmful_fact, inconsistent_fact):
        invocations.append(
            Invocation(
                f"sp {fact[2].name}",
                ["sp", "--format", "json", "--workers", str(ctx.workers), str(fact[2])],
                _checker(oracle.check_sp, fact),
                menus=menus,
            )
        )
    return invocations


# ---------------------------------------------------------------------------
# census

#: sampled census sizes
SAMPLED_N = (6, 10, 12)


def sample_chunk(n: int) -> int:
    """The package's fixed sampling chunk for n (a whole chunk per draw batch)."""
    return max(1024, 1 << max(0, 22 - n))


def census(ctx: Context) -> list[Invocation]:
    """Exact census at n = 4 and sampled censuses at n = 6, 10, 12."""
    workers = str(ctx.workers)
    exact_total = oracle.total_choice_functions(4)
    invocations = [
        Invocation(
            "census n4",
            ["census", "--n", "4", "--format", "json", "--workers", workers],
            lambda out: oracle.check_exact_census(json.loads(out), 4),
            menus=exact_total * 15,
            choices=exact_total,
        )
    ]
    for i, n in enumerate(SAMPLED_N):
        samples = sample_chunk(n) * ctx.workers
        seed = ctx.sub_seed(i)
        invocations.append(
            Invocation(
                f"sample-census n{n}",
                ["sample-census", "--n", str(n), "--samples", str(samples), "--seed", str(seed),
                 "--format", "json", "--workers", workers],
                lambda out, n=n, samples=samples, seed=seed: oracle.check_sampled_census(
                    json.loads(out), n, samples, seed
                ),
                menus=samples * ((1 << n) - 1),
                choices=samples,
            )
        )
    return invocations


WORKLOADS = {
    "analyze-ladder": analyze_ladder,
    "dataset-large": dataset_large,
    "census": census,
}

#: span names a traced pass of each workload must record; a missing one means
#: the tracer no longer reaches that layer, not that the layer got free
TRACED_SPANS = {
    "analyze-ladder": (
        "cli.load", "core.validate", "axioms.coselected", "axioms.reversals", "axioms.check_cns",
        "degree.sp_axiomatic", "degree.sp_bruteforce", "kernels.order_scores", "elicit.partial",
        "elicit.weakly_harmful", "elicit.extensions",
    ),
    "dataset-large": (
        "cli.load", "core.validate", "axioms.coselected", "axioms.check_cns", "degree.sp_axiomatic",
        "census.generate",
    ),
    "census": (
        "census.enumerate", "census.sample", "parallel.map_chunks", "kernels.decode_choices",
        "kernels.pair_masks", "kernels.count_inconsistent",
    ),
}
