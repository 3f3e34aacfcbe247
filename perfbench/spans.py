"""Span records from traced invocations and the per-layer arithmetic on them.

A span is one timed call into a harmchoice function, recorded by
``traced_cli.py`` in the child process. Its parent is the innermost open
span on the same thread; work a thread pool runs for ``map_chunks`` is
parented to that ``parallel.map_chunks`` span through a ``parallel.chunk``
span per chunk. A span's self time is its duration minus the union of its
children's intervals, so children running at once on two threads are not
subtracted twice.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

KERNELS = (
    "kernels.order_scores",
    "kernels.decode_choices",
    "kernels.pair_masks",
    "kernels.count_inconsistent",
)
ELICIT = ("elicit.partial", "elicit.weakly_harmful", "elicit.extensions")


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    data: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @classmethod
    def from_record(cls, rec: list) -> "Span":
        return cls(*rec)


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans: list[Span]) -> dict[int | None, list[Span]]:
    out: dict[int | None, list[Span]] = defaultdict(list)
    for s in spans:
        out[s.parent].append(s)
    return out


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    kids = children_of(spans)
    out = {}
    for s in spans:
        clipped = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in kids.get(s.id, ())
            if c.end > s.start and c.start < s.end
        ]
        out[s.id] = s.duration - union_length(clipped)
    return out


def subtree(root: Span, kids: dict[int | None, list[Span]]) -> list[Span]:
    """The root and every span below it."""
    out, todo = [], [root]
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(kids.get(s.id, ()))
    return out


def layer_metrics(invocations: list[list[Span]]) -> dict[str, float]:
    """Per-layer totals over a pass; one span list per invocation.

    Times are seconds summed over invocations (and over threads for work a
    pool runs); a layer that did not run reads 0.
    """
    m: dict[str, float] = defaultdict(float)
    busy = capacity = 0.0
    for spans in invocations:
        kids = children_of(spans)
        own = self_times(spans)
        first_pairs = None
        for s in spans:
            name, d = s.name, s.data
            m[f"{name}_s"] += s.duration
            if name == "cli.main":
                m["cli.render_s"] += own[s.id]
            elif name == "cli.load":
                m["cli.parse_s"] += own[s.id]
                m["cli.input_mb"] += d.get("bytes", 0) / 1e6
            elif name == "axioms.coselected" and first_pairs is None:
                first_pairs = d.get("pairs", 0)
            elif name == "axioms.reversals":
                m["axioms.reversals"] += d.get("count", 0)
            elif name == "axioms.check_cns":
                m["axioms.check_cns_calls"] += 1
                m["_check_cns_hits"] += d.get("hit", 0)
            elif name == "degree.sp_bruteforce":
                m["_minimizing"] += d.get("minimizing", 0)
            elif name == "kernels.order_scores":
                m["degree.orders_scanned"] += d.get("orders", 0)
            elif name in ELICIT:
                m["elicit.s"] += s.duration
                m["elicit.orders"] += d.get("orders", 0)
            elif name in ("census.enumerate", "census.sample"):
                m["census.choices"] += d.get("choices", 0)
                if name == "census.sample":
                    m["census.sample_self_s"] += sum(
                        own[t.id] for t in subtree(s, kids) if t.name not in KERNELS
                    )
            elif name == "parallel.map_chunks":
                chunks = d.get("chunks", 0)
                m["parallel.chunks"] += chunks
                workers = max(1, min(d.get("workers", 1), chunks))
                capacity += s.duration * workers
                busy += sum(t.duration for t in subtree(s, kids) if t.name in KERNELS)
        m["axioms.coselected_pairs"] += first_pairs or 0
    hits, calls = m.pop("_check_cns_hits", 0), m["axioms.check_cns_calls"]
    m["axioms.check_cns_hit_ratio"] = hits / calls if calls else 0.0
    minimizing, scanned = m.pop("_minimizing", 0), m["degree.orders_scanned"]
    m["degree.minimizing_ratio"] = minimizing / scanned if scanned else 0.0
    m["parallel.busy_frac"] = busy / capacity if capacity else 0.0
    return dict(m)


def self_time_by_name(invocations: list[list[Span]]) -> dict[str, float]:
    """Self time per span name, summed over invocations and threads."""
    out: dict[str, float] = defaultdict(float)
    for spans in invocations:
        own = self_times(spans)
        for s in spans:
            out[s.name] += own[s.id]
    return dict(out)
