"""Surveys of choice space and generators of self-punishing choices.

The exact census classifies every choice function on a small ground set by
its degree, all of them in one batch; the sampled census estimates how
common the maximal degree is on larger ground sets, in fixed chunks that
run one after another on one thread; each chunk keys its own random stream,
so the worker count, checked but not used, never changes a report.
Generators run the model forward: simulated choosers applying distortion
policies, and an explicit family whose reversals touch every alternative
pair.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Mapping

import numpy as np

from . import _kernels
from ._parallel import index_chunks, map_chunks, resolve_workers
from .axioms import min_cover
from .core import (
    MENU_BLOCK,
    ChoiceFunction,
    GroundSet,
    LinearOrder,
    Menu,
    distortion_picks,
    menu_order,
    require_enumerable,
)
from .errors import GroundSetTooLarge, IndexOutOfRange

#: Exact enumeration of all choice functions is gated at this size.
MAX_EXACT_CENSUS_N = 4

#: The sampled census is gated at this size, which bounds its time: a chunk
#: draws up to 2**n - 1 menu picks per sample, though it holds only
#: ``_sample_chunk(n)`` x n relation-row bitmasks.
MAX_SAMPLE_N = 16

#: The sampled census draws at most this many menu picks, samples x (2**n - 1).
MAX_SAMPLE_DRAWS = 1 << 30

#: Seed used by randomized operations when none is given.
DEFAULT_SEED = 1729

#: Seeds lie in 0..MAX_SEED, the range of the generators' 64-bit key word.
MAX_SEED = (1 << 64) - 1

_Z95 = 1.96


def _check_seed(seed: int) -> None:
    if not 0 <= operator.index(seed) <= MAX_SEED:
        raise ValueError(f"seed must lie in 0..{MAX_SEED}, got {seed}")


def _philox(seed: int, stream: int) -> np.random.Generator:
    """The counter-based generator keyed by (seed, stream)."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


@dataclass(frozen=True)
class CensusReport:
    """Exact counts or a sampled estimate of choice-space composition.

    Exact mode fills ``counts_by_sp`` for every degree; sampled mode counts
    only the maximal degree (via the inconsistency test) and carries a 95%
    normal-approximation half-width for the fraction.
    """

    n: int
    total: int
    mode: str  # "exact" | "sampled"
    counts_by_sp: Mapping[int, int]
    strongly_harmful_fraction: float
    half_width: float | None = None
    seed: int | None = None
    samples: int | None = None

    def to_dict(self) -> dict:
        out: dict = {
            "n": self.n,
            "mode": self.mode,
            "total": self.total,
            "counts_by_sp": {str(k): int(v) for k, v in sorted(self.counts_by_sp.items())},
            "strongly_harmful_fraction": self.strongly_harmful_fraction,
        }
        if self.mode == "sampled":
            out["half_width"] = self.half_width
            out["seed"] = self.seed
            out["samples"] = self.samples
        return out

    def to_text(self) -> list[str]:
        lines = [f"n: {self.n}", f"mode: {self.mode}", f"total: {int_text(self.total)}"]
        lines.extend(f"sp {k}: {v}" for k, v in sorted(self.counts_by_sp.items()))
        lines.append(f"strongly harmful fraction: {self.strongly_harmful_fraction}")
        if self.mode == "sampled":
            lines.append(f"95% half-width: {self.half_width}")
            lines.append(f"seed: {self.seed}")
            lines.append(f"samples: {self.samples}")
        return lines


def int_text(value: int) -> str:
    """``str(value)``, also past the interpreter's int-to-str digit limit
    (the exact total has 6,503 digits at n = 13), which stays as it is for
    every other caller in the process."""
    try:
        return str(value)
    except ValueError:
        from decimal import Decimal  # converts from the binary digits, unlimited

        return str(Decimal(value))


def total_choice_functions(n: int) -> int:
    """Exact number of choice functions: the product over menus of |A|."""
    require_enumerable(n)
    return math.prod(pow(s, math.comb(n, s)) for s in range(1, n + 1))


def _menu_layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical menu masks, their sizes, and a padded member table."""
    masks = menu_order(n)
    sizes = np.bitwise_count(masks).astype(np.int64)
    members = np.zeros((len(masks), n), dtype=np.int16)
    placed = np.zeros(len(masks), dtype=np.int64)
    for e in range(n):  # members ascend within each menu
        has = np.flatnonzero((masks >> e) & 1)
        members[has, placed[has]] = e
        placed[has] += 1
    return masks, sizes, members


@lru_cache(maxsize=None)
def _sp_table(n: int) -> np.ndarray:
    """Degree for every possible co-selected-pair bitmask."""
    pair_list = list(combinations(range(n), 2))
    tab = np.empty(1 << len(pair_list), dtype=np.int8)
    for pm in range(tab.shape[0]):
        pairs = tuple(pair for t, pair in enumerate(pair_list) if (pm >> t) & 1)
        tab[pm] = len(min_cover(pairs, n))
    return tab


def enumerate_census(n: int, workers: int | None = None) -> CensusReport:
    """Classify every choice function on n alternatives by its degree, all
    of them (at most 20,736) in one batch. ``workers`` is checked, then
    ignored."""
    if n < 2:
        raise ValueError("the census needs at least two alternatives")
    if n > MAX_EXACT_CENSUS_N:
        raise GroundSetTooLarge(
            f"exact census is capped at n <= {MAX_EXACT_CENSUS_N}, got n = {n}"
        )
    resolve_workers(workers)
    masks, sizes, members = _menu_layout(n)
    total = total_choice_functions(n)
    picks_mat = _kernels.decode_choices(0, total, sizes, members, masks, n)
    counts = np.bincount(_sp_table(n)[_kernels.pair_masks(picks_mat, n)], minlength=n)
    counts_by_sp = {i: int(counts[i]) for i in range(n)}
    assert sum(counts_by_sp.values()) == total
    return CensusReport(
        n=n,
        total=total,
        mode="exact",
        counts_by_sp=counts_by_sp,
        strongly_harmful_fraction=counts_by_sp[n - 1] / total,
    )


def _sample_chunk(n: int) -> int:
    # fixed per n so chunk boundaries (and the per-chunk RNG keys) never move
    return max(1024, 1 << max(0, 22 - n))


def sample_census(
    n: int, samples: int, seed: int = DEFAULT_SEED, workers: int | None = None
) -> CensusReport:
    """Estimate the strongly harmful fraction from uniform random choices.

    Drawing each menu's pick uniformly over its members, independently
    across menus, is exactly a uniform draw over whole choice functions.
    Each fixed-size chunk gets its own counter-based generator keyed by
    (seed, chunk index), so identical (n, samples, seed) reproduce identical
    estimates; ``workers`` is checked, then ignored.

    A chunk never stores the picks: each draw ORs its menu's mask into the
    picked alternative's revealed-relation row. Menus come in canonical order,
    and after each size class of menus with two or more members the chunk
    counts the samples that co-select every pair. Once all of them do, it
    stops drawing. That is exact: a relation only gains edges as menus are
    added, so a sample that co-selects every pair keeps doing so, and the
    skipped draws are the tail of this chunk's own stream, which no other
    chunk reads.
    """
    n, samples = operator.index(n), operator.index(samples)
    if n > MAX_SAMPLE_N:
        raise GroundSetTooLarge(f"sampled census is capped at n <= {MAX_SAMPLE_N}, got n = {n}")
    require_enumerable(n)
    if n < 2:
        raise ValueError("sampling needs at least two alternatives")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    _check_seed(seed)
    draws = samples * ((1 << n) - 1)
    if draws > MAX_SAMPLE_DRAWS:
        raise ValueError(
            f"sampled census would draw {draws} menu picks, past its cap of {MAX_SAMPLE_DRAWS}"
        )
    masks, sizes, members = _menu_layout(n)
    masks = masks.astype(np.min_scalar_type(masks[-1]))
    # canonical order runs by size: each size class starts where the size steps up
    bounds = np.flatnonzero(np.diff(sizes, prepend=0, append=n + 1)).tolist()
    chunk_size = _sample_chunk(n)

    def work(chunk: tuple[int, int]) -> int:
        start, stop = chunk
        count = stop - start
        rng = _philox(seed, start // chunk_size)
        rows = np.zeros((count, n), dtype=masks.dtype)
        flat, row_starts = rows.reshape(-1), np.arange(0, count * n, n)
        for lo, hi in zip(bounds, bounds[1:]):
            for j in range(lo, hi):
                digits = rng.integers(0, sizes[j], size=count)
                flat[row_starts + members[j][digits]] |= masks[j]
            if sizes[lo] >= 2:
                hits = _kernels.count_inconsistent(rows, n)
                if hits == count:
                    break
        return hits

    chunks = index_chunks(samples, chunk_size)
    hits = sum(map_chunks(work, chunks, resolve_workers(workers)))
    fraction = hits / samples
    half_width = _Z95 * math.sqrt(fraction * (1.0 - fraction) / samples)
    return CensusReport(
        n=n,
        total=total_choice_functions(n),
        mode="sampled",
        counts_by_sp={n - 1: hits},
        strongly_harmful_fraction=fraction,
        half_width=half_width,
        seed=seed,
        samples=samples,
    )


# ---------------------------------------------------------------------------
# generators


@dataclass(frozen=True)
class FixedIndexPolicy:
    """Every menu uses the same distortion index."""

    index: int


@dataclass(frozen=True)
class UniformIndexPolicy:
    """Each menu draws its index uniformly from 0..cap, independently."""

    cap: int


@dataclass(frozen=True)
class ExplicitIndexPolicy:
    """Explicit per-menu indices: unlisted menus take index 0; a menu listed twice is refused."""

    assignments: tuple[tuple[int, int], ...]  # (menu mask, index), sorted

    @classmethod
    def from_menus(cls, mapping: Mapping[Menu, int]) -> "ExplicitIndexPolicy":
        pairs = sorted((menu.mask, operator.index(i)) for menu, i in mapping.items())
        return cls(assignments=tuple(pairs))

    def lookup(self) -> dict[int, int]:
        found: dict[int, int] = {}
        for mask, i in self.assignments:
            if (mask := operator.index(mask)) in found:  # a float bitmask raises TypeError
                raise ValueError(f"policy lists the menu of bitmask {mask} twice")
            found[mask] = i
        return found


IndexPolicy = FixedIndexPolicy | UniformIndexPolicy | ExplicitIndexPolicy


def generate_harmful(
    order: LinearOrder,
    policy: IndexPolicy,
    seed: int = DEFAULT_SEED,
) -> ChoiceFunction:
    """Simulate a self-punishing chooser over every menu.

    Each menu's pick maximizes the policy's distortion of the base order, so
    the output's degree never exceeds the largest index the policy can emit.
    """
    n = order.n
    require_enumerable(n)
    _check_seed(seed)

    def check(i: int) -> int:
        i = operator.index(i)  # a float raises TypeError rather than truncating
        if not 0 <= i <= n - 1:
            raise IndexOutOfRange(f"policy index {i} outside 0..{n - 1}")
        return i

    if isinstance(policy, FixedIndexPolicy):
        indices = check(policy.index)
    elif isinstance(policy, UniformIndexPolicy):
        cap = check(policy.cap)
        rng = _philox(seed, 0)
        masks = menu_order(n)
        indices = np.zeros(1 << n, dtype=np.int8)
        # the generator keeps its unused words between calls, so drawing block
        # by block gives the same indices as one draw over all menus
        for lo in range(0, masks.size, MENU_BLOCK):
            block = masks[lo : lo + MENU_BLOCK]
            indices[block] = rng.integers(0, cap + 1, size=block.size)
    elif isinstance(policy, ExplicitIndexPolicy):
        lookup = policy.lookup()
        if any(not 0 < mask < 1 << n for mask in lookup):
            raise ValueError("policy assigns an index to a menu outside the ground set")
        indices = np.zeros(1 << n, dtype=np.int8)
        for mask in sorted(lookup, key=lambda m: Menu.from_mask(m).sort_key):
            indices[mask] = check(lookup[mask])
    else:
        raise TypeError(f"unsupported policy {policy!r}")
    return ChoiceFunction(n, distortion_picks(order, indices))


def inconsistent_ground_set(k: int) -> GroundSet:
    """Labels for the explicit inconsistent family on 2k alternatives."""
    if k < 2:
        raise ValueError("the construction needs k >= 2")
    return GroundSet(("x*",) + tuple(f"x{i}" for i in range(1, 2 * k)))


def construct_inconsistent(k: int) -> ChoiceFunction:
    """A choice on 2k alternatives whose reversals touch every pair.

    Alternative 0 plays a pivot role: it is picked from the full menu, while
    the menus missing exactly one alternative and the pivot-free menus
    missing two select the indexed alternatives cyclically. Everything left
    unconstrained falls back to smallest-id maximization.
    """
    if k < 2:
        raise ValueError("the construction needs k >= 2")
    n = 2 * k
    require_enumerable(n)
    full = (1 << n) - 1

    def wrap(j: int) -> int:
        # cycle over 1..2k-1
        return (j - 1) % (n - 1) + 1

    picks = distortion_picks(LinearOrder(tuple(range(n))), 0)
    picks[full] = 0
    for e in range(1, n):
        picks[full ^ (1 << e)] = wrap(e - 1)
    tail = full ^ 1
    for e in range(1, n):
        picks[tail ^ (1 << e)] = wrap(e + 1)
    return ChoiceFunction(n, picks)
