"""Checks of harmchoice CLI output that do not trust the program's answer.

Every expectation is recomputed here from the dataset file itself, with a
parser and numpy arithmetic of the benchmark's own:

- the reversal count is the sum over mutually selected pairs (p, q) of
  (#menus picking p that contain q) x (#menus picking q that contain p);
- WARP holds exactly when that sum is 0, and the degree is 0 exactly then;
- a witness must be a vertex cover of the co-selection graph of size sp;
- a listed minimizing order must explain every pick within depth sp.

A failed check raises :class:`OracleError`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Exact census by degree at n = 4 (the paper's table).
CENSUS_N4 = {0: 24, 1: 2664, 2: 16464, 3: 1584}

#: Probability that a uniformly random choice function co-selects every
#: pair, per n. n = 6 was estimated with :func:`estimate_fraction` from
#: 4,194,304 draws (seed 20260101), standard error 1.8e-4. For n >= 10 a
#: pair {p, q} fails only if none of the 2^(n-2) menus holding both picks p,
#: or none picks q; a union bound puts the miss rate below 1e-9, so the
#: fraction is 1 to within every sample size used here.
REFERENCE_FRACTION = {6: 0.84195, 10: 1.0, 12: 1.0}
REFERENCE_STDERR = {6: 1.8e-4, 10: 0.0, 12: 0.0}

#: A sampled fraction may sit this many half-widths from the reference.
HALF_WIDTHS = 4.0


class OracleError(Exception):
    """An output disagrees with the benchmark's own computation."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise OracleError(msg)


# ---------------------------------------------------------------------------
# datasets


@dataclass(frozen=True)
class Dataset:
    """A total choice function read from a file, plus its revealed relation.

    ``with_counts[p, q]`` counts the menus that pick p and contain q.
    """

    labels: tuple[str, ...]
    picks: np.ndarray  # indexed by menu bitmask; entry 0 is -1
    with_counts: np.ndarray

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def mutual(self) -> np.ndarray:
        c = self.with_counts
        return (c > 0) & (c.T > 0)

    def coselected_pairs(self) -> list[tuple[int, int]]:
        p, q = np.nonzero(np.triu(self.mutual, 1))
        return list(zip(p.tolist(), q.tolist()))

    def reversal_count(self) -> int:
        c = self.with_counts.astype(object)
        return int(np.triu(c * c.T, 1).sum())

    def is_inconsistent(self) -> bool:
        return len(self.coselected_pairs()) == self.n * (self.n - 1) // 2

    @cached_property
    def index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def mask_of(self, labels: list[str]) -> int:
        return sum(1 << self.index[lab] for lab in labels)


def with_counts(picks: np.ndarray, n: int) -> np.ndarray:
    masks = np.arange(1, 1 << n, dtype=np.int64)
    chosen = picks[1:].astype(np.int64)
    counts = np.zeros((n, n), dtype=np.int64)
    for q in range(n):
        has_q = ((masks >> q) & 1) == 1
        counts[:, q] = np.bincount(chosen[has_q], minlength=n)
    np.fill_diagonal(counts, 0)
    return counts


def parse_dataset(data: bytes) -> Dataset:
    """Read a JSON or text dataset; every menu must appear exactly once."""
    text = data.decode("utf-8")
    if text.lstrip().startswith("{"):
        obj = json.loads(text)
        labels = tuple(str(lab) for lab in obj["alternatives"])
        rows = [(entry["menu"], entry["choice"]) for entry in obj["choices"]]
    else:
        lines = [ln.strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln and not ln.startswith("#")]
        require(bool(lines), "dataset has no rows")
        head = lines[0]
        require(head.lower().startswith("alternatives:"), "text dataset lacks its header")
        labels = tuple(s.strip() for s in head.split(":", 1)[1].split(","))
        rows = []
        for ln in lines[1:]:
            left, sep, right = ln.partition("->")
            require(bool(sep), f"malformed row {ln!r}")
            rows.append(([s.strip() for s in left.split(",")], right.strip()))
    n = len(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    require(len(index) == n, "duplicate alternative labels")
    picks = np.full(1 << n, -1, dtype=np.int16)
    for menu, pick in rows:
        ids = [index[lab] for lab in menu]
        mask = sum(1 << i for i in ids)
        require(len(set(ids)) == len(ids) and mask > 0, f"bad menu {menu!r}")
        p = index[pick]
        require((mask >> p) & 1 == 1, f"pick {pick!r} is outside menu {menu!r}")
        require(picks[mask] == -1, f"menu {menu!r} appears twice")
        picks[mask] = p
    missing = int((picks[1:] == -1).sum())
    require(missing == 0, f"{missing} of {(1 << n) - 1} menus are missing")
    return Dataset(labels, picks, with_counts(picks, n))


def order_depth(ds: Dataset, ranking: list[int]) -> int:
    """Smallest distortion depth with which this base order explains every pick.

    A pick needs the top block demoted down to just past the lowest-ranked menu
    member above it: 1 + that member's position, or 0 when none is above.
    """
    n = ds.n
    pos = np.empty(n, dtype=np.int64)
    pos[np.asarray(ranking)] = np.arange(n)
    masks = np.arange(1, 1 << n, dtype=np.int64)
    pick_pos = pos[ds.picks[1:].astype(np.int64)]
    need = np.zeros(masks.size, dtype=np.int64)
    for e in range(n):
        above = (((masks >> e) & 1) == 1) & (pos[e] < pick_pos)
        need = np.where(above, np.maximum(need, pos[e] + 1), need)
    return int(need.max())


# ---------------------------------------------------------------------------
# degree and analysis reports


@dataclass(frozen=True)
class Expect:
    """What the construction of a dataset implies about its degree.

    ``kind`` is "rational" (sp = 0), "inconsistent" (sp = n - 1), "cap"
    (sp <= cap, for ``uniform:cap`` data) or "any".
    """

    kind: str
    cap: int | None = None


def check_sp_report(sp: dict, ds: Dataset, expect: Expect) -> None:
    n = ds.n
    degree = sp["sp"]
    require(isinstance(degree, int) and 0 <= degree <= n - 1, f"sp {degree!r} outside 0..{n - 1}")
    require((degree == 0) == (ds.reversal_count() == 0), "sp is 0 exactly when WARP holds")
    if expect.kind == "rational":
        require(degree == 0, f"rational data has sp {degree}")
    elif expect.kind == "inconsistent":
        require(degree == n - 1, f"inconsistent data has sp {degree}, not {n - 1}")
    elif expect.kind == "cap":
        require(degree <= expect.cap, f"uniform:{expect.cap} data has sp {degree}")
    if n <= 8:
        require(sp["method"] == "both", f"method {sp['method']!r} at n = {n}")
    witness = sp.get("cns_witness")
    if degree == 0:
        require(witness is None, "WARP data carries a witness")
    else:
        require(witness is not None, "no witness for a positive degree")
        items = {ds.index[lab] for lab in witness["items"]}
        require(len(items) == len(witness["items"]) == degree, "witness size differs from sp")
        uncovered = [pq for pq in ds.coselected_pairs() if not items & set(pq)]
        require(not uncovered, f"witness misses co-selected pairs {uncovered[:3]}")
    if "minimizing_orders" in sp:
        orders = sp["minimizing_orders"]
        require(1 <= len(orders) <= sp["minimizing_order_count"], "bad minimizing order count")
        for labels in orders[:3]:
            depth = order_depth(ds, [ds.index[lab] for lab in labels])
            require(depth == degree, f"a minimizing order needs depth {depth}, not {degree}")


def check_analyze(report: dict, ds: Dataset, expect: Expect) -> None:
    require(report["dataset"]["n"] == ds.n, "wrong n")
    require(tuple(report["dataset"]["alternatives"]) == ds.labels, "wrong alternatives")
    expected = ds.reversal_count()
    require(report["warp"] == (expected == 0), "warp flag disagrees with the reversal count")
    require(report["inconsistent"] == ds.is_inconsistent(), "inconsistent flag is wrong")
    listed = report["reversals"]
    count = report.get("reversal_count", len(listed))
    require(count == expected, f"{count} reversals reported, {expected} expected")
    seen = set()
    for r in listed:
        a, b = ds.mask_of(r["menu_a"]), ds.mask_of(r["menu_b"])
        pa, pb = ds.index[r["pick_a"]], ds.index[r["pick_b"]]
        inter = a & b
        require(
            ds.picks[a] == pa and ds.picks[b] == pb and pa != pb
            and (inter >> pa) & 1 and (inter >> pb) & 1,
            f"listed reversal {r} is not a reversal",
        )
        seen.add((a, b) if a < b else (b, a))
    require(len(seen) == len(listed), "a reversal is listed twice")
    check_sp_report(report["sp"], ds, expect)


def check_sp(report: dict, ds: Dataset, expect: Expect) -> None:
    require(report["n"] == ds.n, "wrong n")
    check_sp_report(report["sp"], ds, expect)


def check_warp(report: dict, ds: Dataset) -> None:
    require(report["n"] == ds.n, "wrong n")
    require(report["warp"] == (ds.reversal_count() == 0), "warp flag disagrees with the reversal count")


def check_generated(data: bytes, labels: tuple[str, ...]) -> None:
    require(parse_dataset(data).labels == labels, "generated file has the wrong alternatives")


# ---------------------------------------------------------------------------
# census reports


def total_choice_functions(n: int) -> int:
    return math.prod(size ** math.comb(n, size) for size in range(1, n + 1))


def check_exact_census(report: dict, n: int) -> None:
    require(report["mode"] == "exact" and report["n"] == n, "not an exact census report")
    require(report["total"] == total_choice_functions(n), "wrong total")
    counts = {int(k): v for k, v in report["counts_by_sp"].items()}
    if n == 4:
        require(counts == CENSUS_N4, f"census counts {counts} differ from {CENSUS_N4}")
    require(sum(counts.values()) == report["total"], "counts do not sum to the total")


def check_sampled_census(report: dict, n: int, samples: int, seed: int) -> None:
    require(report["mode"] == "sampled" and report["n"] == n, "not a sampled census report")
    require(report["samples"] == samples and report["seed"] == seed, "samples or seed not echoed")
    hits = report["counts_by_sp"][str(n - 1)]
    fraction = report["strongly_harmful_fraction"]
    require(math.isclose(hits / samples, fraction, rel_tol=1e-12), "fraction is not hits / samples")
    ref = REFERENCE_FRACTION[n]
    ref_half_width = 1.96 * math.sqrt(ref * (1 - ref) / samples + REFERENCE_STDERR[n] ** 2)
    tol = HALF_WIDTHS * max(report["half_width"], ref_half_width) + 1e-12
    require(abs(fraction - ref) <= tol, f"fraction {fraction} is not within {tol} of {ref}")


def estimate_fraction(n: int, samples: int, seed: int, chunk: int = 1 << 16) -> float:
    """Monte Carlo share of uniformly random choices co-selecting every pair."""
    rng = np.random.default_rng(seed)
    masks = np.arange(1, 1 << n)
    members = [np.flatnonzero((m >> np.arange(n)) & 1) for m in masks]
    iu, ju = np.triu_indices(n, 1)
    hits = 0
    for start in range(0, samples, chunk):
        count = min(chunk, samples - start)
        sel = np.zeros((count, n, n), dtype=bool)
        rows = np.arange(count)
        for mem in members:
            pick = mem[rng.integers(0, mem.size, size=count)]
            for e in mem:
                sel[rows, pick, e] = True
        sel[:, np.arange(n), np.arange(n)] = False
        mutual = sel & sel.transpose(0, 2, 1)
        hits += int(mutual[:, iu, ju].all(axis=1).sum())
    return hits / samples
