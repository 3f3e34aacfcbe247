"""Command-line interface: dataset ingestion, dispatch, and reports.

Datasets come in two formats. JSON: an object with "alternatives" (label
list, defining id order) and "choices" (list of {"menu": [labels],
"choice": label}), optional "version": 1. Text: one `a,b,c -> a` line per
menu, optionally preceded by `alternatives: a,b,c` to pin the label order
(otherwise the sorted union of mentioned labels is used). Singleton menus
may be omitted; their forced picks are filled in with a warning.

Both readers work in bulk: they turn the rows into one menu bitmask and one
pick id each, and a faulty dataset reports the error that a row-by-row
reader would meet first, naming the row as `choices[i]` or `line N`.

JSON holds any label. The text writer refuses a label that its reader would
read back differently: one containing `,`, `->` or a line break, starting
with `#`, or with leading or trailing whitespace.

Each report renders only the format that `--format` asks for. JSON is
written as `json.dumps(..., indent=2)` would write it, but the rows of a
written dataset are rendered from per-label fragments and written as they
are made.

`analyze`, `sp` and `elicit` check `--workers` but ignore its value: their
degree route runs on one thread.

Exit codes: 0 on success, 1 on dataset or analysis errors and (silently)
when the reader closes stdout early, as `| head` does, 2 on usage errors.

:func:`main` pauses the cyclic garbage collector while a command runs and
restores the caller's setting when it returns: a command frees its data by
reference counting, and the collector would only re-walk the many small
objects a large dataset parses into. :func:`run`, the entry point of
``python -m harmchoice.cli`` and of the ``harmchoice`` script, calls
:func:`main`, flushes stdout and stderr and ends the process with
``os._exit``, skipping interpreter teardown, so ``atexit`` handlers do not
run. Called in-process, :func:`main` returns its exit code as before.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import warnings
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from ._parallel import ENV_WORKERS
from .axioms import (
    REVERSAL_CAP,
    Reversal,
    find_reversals,
    is_inconsistent,
    reversal_count,
    satisfies_warp,
)
from .census import (
    DEFAULT_SEED,
    MAX_EXACT_CENSUS_N,
    ExplicitIndexPolicy,
    FixedIndexPolicy,
    UniformIndexPolicy,
    construct_inconsistent,
    enumerate_census,
    generate_harmful,
    inconsistent_ground_set,
    int_text,
    sample_census,
)
from .core import (
    ChoiceFunction,
    GroundSet,
    LinearOrder,
    Menu,
    menu_order,
    require_enumerable,
    validate_choice,
)
from .degree import SpReport, sp, sp_axiomatic, sp_bruteforce
from .distortion import harmful_distortion
from .elicit import all_extensions, elicit_partial, elicit_weakly_harmful
from .errors import HarmchoiceError, ParseError, RowError

#: Reports keep at most this many elicited orders (the count stays exact).
ELICITED_ORDER_CAP = 100

DATASET_VERSION = 1


@dataclass(frozen=True)
class LoadedDataset:
    """A dataset: ground set, validated choice, and the loader's warnings.

    ``to_dict`` and ``to_text`` write the two formats that
    :func:`load_dataset` reads; the warnings are not part of either.
    ``json_fields`` are the fields of ``to_dict`` with the rows as
    :class:`_Rows`, which :func:`_json_chunks` writes as ``json.dumps(...,
    indent=2)`` would.
    """

    ground: GroundSet
    choice: ChoiceFunction
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        labels = self.ground.labels
        members = _member_labels(labels)
        picks = self.choice.picks_array.tolist()
        return {
            "version": DATASET_VERSION,
            "alternatives": list(labels),
            "choices": [
                {"menu": members[m], "choice": labels[picks[m]]}
                for m in menu_order(len(labels)).tolist()
            ],
        }

    def json_fields(self) -> dict:
        labels = self.ground.labels
        quoted = [json.dumps(label) for label in labels]
        members = _member_labels(quoted)
        picks = self.choice.picks_array.tolist()
        sep = ",\n        "
        rows = (
            f'{{\n      "menu": [\n        {sep.join(members[m])}\n      ],'
            f'\n      "choice": {quoted[picks[m]]}\n    }}'
            for m in menu_order(len(labels)).tolist()
        )
        return {"version": DATASET_VERSION, "alternatives": list(labels), "choices": _Rows(rows)}

    def to_text(self) -> list[str]:
        labels = self.ground.labels
        for label in labels:
            if (
                "," in label
                or "->" in label
                or label.splitlines() != [label]
                or label.startswith("#")
                or label.strip() != label
            ):
                raise ValueError(
                    f"label {label!r} cannot be written as text: a text label may not contain"
                    " ',', '->' or a line break, start with '#', or have outer whitespace"
                    " (use --format json)"
                )
        members = _member_labels(labels)
        picks = self.choice.picks_array.tolist()
        lines = [f"alternatives: {', '.join(labels)}"]
        lines.extend(
            f"{','.join(members[m])} -> {labels[picks[m]]}" for m in menu_order(len(labels)).tolist()
        )
        return lines


def _member_labels(labels: Iterable[str]) -> list[list[str]]:
    """The member labels of every menu, indexed by bitmask (entry 0 is the
    empty menu): the menus with highest bit e are those below 2**e plus
    label e."""
    table: list[list[str]] = [[]]
    for label in labels:
        table += [members + [label] for members in table]
    return table


# ---------------------------------------------------------------------------
# JSON in pieces


@dataclass(frozen=True)
class _Rows:
    """A JSON list field whose items come already rendered: each is
    ``json.dumps(item, indent=2)`` with its inner lines indented four more
    spaces, as it reads inside a list field of the top-level object."""

    items: Iterable[str]


def _json_chunks(fields: dict) -> Iterator[str]:
    """``json.dumps(fields, indent=2)`` in pieces, one per field and one per
    item of a :class:`_Rows` field. An int field is written by
    :func:`int_text`, which has no digit limit; every other value goes
    through ``json.dumps``, whose output holds no raw line break inside a
    string."""
    head = "{"
    for key, value in fields.items():
        yield f"{head}\n  {json.dumps(key)}: "
        head = ","
        if isinstance(value, _Rows):
            sep = "["
            for item in value.items:
                yield f"{sep}\n    {item}"
                sep = ","
            yield "[]" if sep == "[" else "\n  ]"
        elif type(value) is int:
            yield int_text(value)
        else:
            yield json.dumps(value, indent=2).replace("\n", "\n  ")
    yield "{}" if head == "{" else "\n}"


@dataclass(frozen=True)
class Elicitation:
    """Base orders that explain a choice within its degree.

    ``orders`` is truncated to :data:`ELICITED_ORDER_CAP` with the exact
    total in ``count``. For degree >= 1, ``partial_pairs`` holds the strict
    partial order (better, worse) that the degree report's witness, in its
    order, identifies. It is total: at degree >= 2 its one ranking is the
    one elicited order, at degree 1 it is the first elicited order.
    """

    orders: tuple[LinearOrder, ...] = ()
    count: int = 0
    partial_pairs: tuple[tuple[int, int], ...] | None = None

    def to_dict(self, ground: GroundSet) -> dict:
        return {
            "elicited_orders": [o.label_list(ground) for o in self.orders],
            "elicited_order_count": self.count,
            "partial_order": (
                None
                if self.partial_pairs is None
                else [[ground.label(a), ground.label(b)] for a, b in self.partial_pairs]
            ),
        }

    def to_text(self, ground: GroundSet) -> list[str]:
        lines = []
        if self.orders:
            lines.append(f"elicited orders (total {self.count}):")
            lines.extend(f"  {o.to_text(ground)}" for o in self.orders)
        if self.partial_pairs is not None:
            pairs = ", ".join(f"{ground.label(a)} > {ground.label(b)}" for a, b in self.partial_pairs)
            lines.append(f"partial order: {pairs}")
        return lines


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the analyzer derives from one dataset.

    ``reversals`` holds the canonical first :data:`REVERSAL_CAP` reversals,
    with the exact total in ``reversal_count``.
    """

    ground: GroundSet
    warnings: tuple[str, ...]
    warp: bool
    inconsistent: bool
    reversal_count: int
    reversals: tuple[Reversal, ...]
    sp_report: SpReport
    elicitation: Elicitation

    def to_dict(self) -> dict:
        g = self.ground
        return {
            "dataset": {
                "n": g.n,
                "alternatives": list(g.labels),
                "menu_count": (1 << g.n) - 1,
            },
            "warnings": list(self.warnings),
            "warp": self.warp,
            "inconsistent": self.inconsistent,
            "reversal_count": self.reversal_count,
            "reversals": [r.to_dict(g) for r in self.reversals],
            "sp": self.sp_report.to_dict(g),
            **self.elicitation.to_dict(g),
        }

    def to_text(self) -> list[str]:
        g = self.ground
        lines = [
            f"n: {g.n}",
            f"alternatives: {', '.join(g.labels)}",
            f"menus: {(1 << g.n) - 1}",
            *_warning_lines(self.warnings),
            _warp_text(self.warp),
        ]
        if self.inconsistent:
            lines.append("inconsistent: every alternative pair is co-selected by a reversal")
        lines.extend(_reversals_text(self.reversals, g, self.reversal_count))
        lines.extend(self.sp_report.to_text(g))
        lines.extend(self.elicitation.to_text(g))
        return lines


def _warning_lines(messages: tuple[str, ...]) -> list[str]:
    return [f"warning: {m}" for m in messages]


def _warp_text(ok: bool) -> str:
    return f"warp: {'satisfied' if ok else 'violated'}"


def _reversals_text(reversals, ground: GroundSet, count: int) -> list[str]:
    head = f"reversals: {count}"
    if count > len(reversals):
        head += f" (first {len(reversals)} listed)"
    return [head, *(f"  {r.to_text(ground)}" for r in reversals)]


# ---------------------------------------------------------------------------
# dataset loading


def load_dataset(path: str) -> LoadedDataset:
    """Read, parse, and validate a dataset file ('-' reads stdin)."""
    if path == "-":
        text = sys.stdin.read()
    else:
        text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        ground, masks, picks, name = _parse_json_dataset(text)
    else:
        ground, masks, picks, name = _parse_text_dataset(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            choice = validate_choice(np.column_stack((masks, picks)), ground)
        except RowError as exc:
            raise exc.at({row: name(row) for row in exc.rows}) from None
    return LoadedDataset(ground, choice, tuple(str(w.message) for w in caught))


#: A parsed dataset: ground set, one menu bitmask and one pick id per row,
#: and the name of row i in messages.
_Parsed = tuple[GroundSet, np.ndarray, np.ndarray, Callable[[int], str]]


def _parse_json_dataset(text: str) -> _Parsed:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError("dataset must be a JSON object")
    version = obj.get("version", DATASET_VERSION)
    if version != DATASET_VERSION:
        raise ParseError(f"unsupported dataset version {version!r}")
    labels = obj.get("alternatives")
    if not isinstance(labels, list) or not labels:
        raise ParseError('dataset needs a nonempty "alternatives" list')
    try:
        ground = GroundSet(tuple(str(lab) for lab in labels))
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    choices = obj.get("choices")
    if not isinstance(choices, list):
        raise ParseError('dataset needs a "choices" list')
    require_enumerable(ground.n)
    name = "choices[{}]".format
    # a malformed entry counts as an empty menu, which flags its row
    shaped = [
        isinstance(e, dict) and "menu" in e and "choice" in e and isinstance(e["menu"], list)
        for e in choices
    ]
    menus = [e["menu"] if ok else [] for e, ok in zip(choices, shaped)]
    pick_labels = [e["choice"] if ok else None for e, ok in zip(choices, shaped)]
    lengths = np.fromiter(map(len, menus), np.int64, len(menus))
    flat = list(chain.from_iterable(menus))
    masks, picks, flagged = _label_rows(ground, flat, lengths, pick_labels)
    if flagged.any():
        i = int(flagged.argmax())
        _check_json_row(ground, choices[i], name(i))
    return ground, masks, picks, name


def _check_json_row(ground: GroundSet, entry: object, ref: str) -> None:
    """Raise the parse error of one JSON ``choices`` entry, if it has one."""
    if not isinstance(entry, dict) or "menu" not in entry or "choice" not in entry:
        raise ParseError(f'{ref}: expected an object with "menu" and "choice"')
    menu_labels = entry["menu"]
    if not isinstance(menu_labels, list) or not menu_labels:
        raise ParseError(f"{ref}: menu must be a nonempty label list")
    _menu_from_labels(ground, menu_labels, ref)
    _alt(ground, entry["choice"], ref)


def _parse_text_dataset(text: str) -> _Parsed:
    lines = [
        (lineno, line)
        for lineno, line in enumerate(map(str.strip, text.splitlines()), 1)
        if line and not line.startswith("#")
    ]
    header: list[str] | None = None
    if lines and lines[0][1].lower().startswith("alternatives:"):
        header = [s.strip() for s in lines.pop(0)[1].split(":", 1)[1].split(",")]
    if not lines:
        raise ParseError("dataset contains no choice rows")
    linenos = [lineno for lineno, _ in lines]

    def name(i: int) -> str:
        return f"line {linenos[i]}"

    split = [line.partition("->") for _, line in lines]
    arrows = [bool(sep) for _, sep, _ in split]
    lefts = [left for left, _, _ in split]
    pick_labels = [right.strip() for _, _, right in split]
    del lines, split  # free the row text before the labels are split out
    lengths = np.fromiter((left.count(",") + 1 for left in lefts), np.int64, len(lefts))
    ends = np.cumsum(lengths)
    flat = list(map(str.strip, ",".join(lefts).split(",")))
    del lefts
    # the first row without "->", with an empty pick, or with an empty menu label
    malformed = [not arrow or not pick for arrow, pick in zip(arrows, pick_labels)]
    first = malformed.index(True) if True in malformed else len(linenos)
    if "" in flat:
        first = min(first, int(np.searchsorted(ends, flat.index(""), side="right")))
    if first < len(linenos):
        if not arrows[first]:
            raise ParseError(f"{name(first)}: expected 'a,b,c -> a'")
        raise ParseError(f"{name(first)}: empty label")
    if header is not None:
        labels = tuple(header)
    else:
        labels = tuple(sorted(set(flat).union(pick_labels)))
    try:
        ground = GroundSet(labels)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    require_enumerable(ground.n)
    masks, picks, flagged = _label_rows(ground, flat, lengths, pick_labels)
    if flagged.any():
        i = int(flagged.argmax())
        _menu_from_labels(ground, flat[ends[i] - lengths[i] : ends[i]], name(i))
        _alt(ground, pick_labels[i], name(i))
    return ground, masks, picks, name


def _label_rows(
    ground: GroundSet, flat: list, lengths: np.ndarray, pick_labels: list
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Menu bitmasks and pick ids of label rows, in bulk, and a flag for each
    row that :func:`_menu_from_labels` or :func:`_alt` would refuse: an
    empty menu, an unknown label or pick, or a label that its menu repeats.

    ``flat`` chains the rows' menu labels, ``lengths[i]`` of them for row i.
    The ground set must satisfy n <= MAX_ENUM_N, so that masks fit in int64.
    """
    ids = {label: e for e, label in enumerate(ground.labels)}
    flat_ids = _label_ids(ids, flat)
    picks = _label_ids(ids, pick_labels)
    # an unknown label adds no bit; the trailing 0 keeps every start in range
    bits = np.zeros(flat_ids.size + 1, dtype=np.int64)
    np.left_shift(1, flat_ids, out=bits[:-1], where=flat_ids >= 0)
    masks = np.bitwise_or.reduceat(bits, np.cumsum(lengths) - lengths)
    flagged = (lengths == 0) | (np.bitwise_count(masks) != lengths) | (picks < 0)
    return masks, picks, flagged


def _label_ids(ids: dict[str, int], labels: list) -> np.ndarray:
    """The id of each label, matched by ``str(label)`` as in :func:`_alt`;
    -1 for an unknown one."""
    count = len(labels)
    try:
        found = np.fromiter(map(ids.get, labels, repeat(-1)), np.int64, count)
    except TypeError:  # an unhashable JSON value, such as a list
        found = np.full(count, -1, dtype=np.int64)
    # a JSON value that is not a string can still match as text
    for i in np.flatnonzero(found < 0).tolist():
        found[i] = ids.get(str(labels[i]), -1)
    return found


def _alt(ground: GroundSet, label: object, ref: str) -> int:
    try:
        return ground.index(str(label))
    except KeyError:
        raise ParseError(f"{ref}: unknown alternative {label!r}") from None


def _menu_from_labels(ground: GroundSet, labels: list, ref: str) -> Menu:
    ids = [_alt(ground, lab, ref) for lab in labels]
    if len(set(ids)) != len(ids):
        raise ParseError(f"{ref}: menu repeats an alternative")
    return Menu(tuple(ids))


# ---------------------------------------------------------------------------
# report assembly and output


def build_elicitation(choice: ChoiceFunction, report: SpReport) -> Elicitation:
    """The base orders behind ``choice``, given its degree report."""
    if report.sp == 0 or report.cns_witness is None:
        return Elicitation()
    partial = elicit_partial(choice, report.cns_witness.items)
    if report.sp == 1:
        orders = tuple(elicit_weakly_harmful(choice))
        count = len(orders)
    else:
        ext = all_extensions(partial, ELICITED_ORDER_CAP)
        orders, count = ext.orders, ext.total
    return Elicitation(orders, count, tuple(partial.sorted_pairs()))


def build_analysis(ds: LoadedDataset, workers: int | None = None) -> AnalysisReport:
    choice = ds.choice
    report = sp(choice, workers=workers)
    return AnalysisReport(
        ground=ds.ground,
        warnings=ds.warnings,
        warp=satisfies_warp(choice),
        inconsistent=is_inconsistent(choice),
        reversal_count=reversal_count(choice),
        reversals=tuple(find_reversals(choice, REVERSAL_CAP)),
        sp_report=report,
        elicitation=build_elicitation(choice, report),
    )


def _emit(
    args: argparse.Namespace, to_dict: Callable[[], dict], to_text: Callable[[], list[str]]
) -> int:
    """Build and print only the rendering that --format asks for. The JSON
    fields may hold :class:`_Rows`, which are written as they are made."""
    if args.format == "json":
        sys.stdout.writelines(_json_chunks(to_dict()))
        sys.stdout.write("\n")
    else:
        print("\n".join(to_text()))
    return 0


def _emit_for(
    args: argparse.Namespace,
    ds: LoadedDataset,
    to_dict: Callable[[], dict],
    to_text: Callable[[], list[str]],
) -> int:
    """:func:`_emit` under the dataset's shared n/warnings header."""
    return _emit(
        args,
        lambda: {"n": ds.ground.n, "warnings": list(ds.warnings), **to_dict()},
        lambda: _warning_lines(ds.warnings) + to_text(),
    )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_analyze(args: argparse.Namespace) -> int:
    rep = build_analysis(load_dataset(args.dataset), workers=args.workers)
    return _emit(args, rep.to_dict, rep.to_text)


def _cmd_warp(args: argparse.Namespace) -> int:
    ds = load_dataset(args.dataset)
    ok = satisfies_warp(ds.choice)
    return _emit_for(args, ds, lambda: {"warp": ok}, lambda: [_warp_text(ok)])


def _cmd_reversals(args: argparse.Namespace) -> int:
    ds = load_dataset(args.dataset)
    revs = find_reversals(ds.choice)
    return _emit_for(
        args,
        ds,
        lambda: {"count": len(revs), "reversals": [r.to_dict(ds.ground) for r in revs]},
        lambda: _reversals_text(revs, ds.ground, len(revs)),
    )


def _cmd_sp(args: argparse.Namespace) -> int:
    ds = load_dataset(args.dataset)
    if args.brute:
        report = sp_bruteforce(ds.choice, workers=args.workers)
    elif args.axiomatic:
        report = sp_axiomatic(ds.choice)
    else:
        report = sp(ds.choice, workers=args.workers)
    return _emit_for(
        args, ds, lambda: {"sp": report.to_dict(ds.ground)}, lambda: report.to_text(ds.ground)
    )


def _cmd_elicit(args: argparse.Namespace) -> int:
    ds = load_dataset(args.dataset)
    report = sp(ds.choice, workers=args.workers)
    found = build_elicitation(ds.choice, report)
    return _emit_for(
        args,
        ds,
        lambda: {"sp": report.sp, **found.to_dict(ds.ground)},
        lambda: [f"sp: {report.sp}"]
        + (found.to_text(ds.ground) or ["elicited orders: none (choice is rationalizable)"]),
    )


def _cmd_distort(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    ground, order = _parse_order_spec(args.order, parser)
    if not 0 <= args.index <= ground.n - 1:
        parser.error(f"--index must lie in 0..{ground.n - 1}")
    result = harmful_distortion(order, args.index)
    return _emit(
        args,
        lambda: {
            "order": order.label_list(ground),
            "index": args.index,
            "distorted": result.label_list(ground),
        },
        lambda: [",".join(result.label_list(ground))],
    )


def _cmd_census(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if not 2 <= args.n <= MAX_EXACT_CENSUS_N:
        parser.error(f"--n must lie in 2..{MAX_EXACT_CENSUS_N} for the exact census")
    report = enumerate_census(args.n, workers=args.workers)
    return _emit(args, report.to_dict, report.to_text)


def _cmd_sample_census(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.n < 2:
        parser.error("--n must be at least 2")
    if args.samples < 1:
        parser.error("--samples must be at least 1")
    report = sample_census(args.n, args.samples, seed=args.seed, workers=args.workers)
    return _emit(args, report.to_dict, report.to_text)


def _cmd_generate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    ground, order = _parse_order_spec(args.order, parser)
    policy = _parse_policy_spec(args.policy, ground, parser)
    ds = LoadedDataset(ground, generate_harmful(order, policy, seed=args.seed))
    return _emit(args, ds.json_fields, ds.to_text)


def _cmd_construct_inconsistent(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.k < 2:
        parser.error("--k must be at least 2")
    ds = LoadedDataset(inconsistent_ground_set(args.k), construct_inconsistent(args.k))
    return _emit(args, ds.json_fields, ds.to_text)


def _parse_order_spec(
    spec: str, parser: argparse.ArgumentParser
) -> tuple[GroundSet, LinearOrder]:
    if not isinstance(spec, str):  # argparse hands over [] for the value "--"
        spec = ""
    labels = [s.strip() for s in spec.split(",")]
    if not all(labels) or len(set(labels)) != len(labels):
        parser.error("--order must be a comma-separated list of distinct labels (best first)")
    ground = GroundSet(tuple(labels))
    return ground, LinearOrder(tuple(range(ground.n)))


def _parse_policy_spec(
    spec: str, ground: GroundSet, parser: argparse.ArgumentParser
):
    kind, sep, rest = spec.partition(":")
    if kind == "fixed" and sep:
        try:
            return FixedIndexPolicy(int(rest))
        except ValueError:
            parser.error("fixed policy needs an integer index, e.g. fixed:1")
    if kind == "uniform" and sep:
        try:
            return UniformIndexPolicy(int(rest))
        except ValueError:
            parser.error("uniform policy needs an integer cap, e.g. uniform:2")
    if kind == "map" and sep:
        try:
            obj = json.loads(Path(rest).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid policy map JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise ParseError("policy map must be a JSON object of 'a,b,c' -> index")
        mapping = {}
        for key, value in obj.items():
            menu = _menu_from_labels(ground, [s.strip() for s in key.split(",")], f"policy key {key!r}")
            mapping[menu] = int(value)
        return ExplicitIndexPolicy.from_menus(mapping)
    parser.error("--policy must be fixed:<i>, uniform:<cap>, or map:<file.json>")


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmchoice",
        description="Analyze finite choice datasets for self-punishing behavior.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "text"), default="text", help="output format"
    )
    pool = argparse.ArgumentParser(add_help=False)
    pool.add_argument(
        "--workers",
        type=int,
        default=None,
        help=f"worker threads (default: available cpus; {ENV_WORKERS} overrides)",
    )

    p = sub.add_parser("analyze", parents=[common, pool], help="full report for a dataset")
    p.add_argument("dataset", help="dataset file, or - for stdin")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("warp", parents=[common], help="check the weak axiom")
    p.add_argument("dataset")
    p.set_defaults(func=_cmd_warp)

    p = sub.add_parser("reversals", parents=[common], help="list every reversal")
    p.add_argument("dataset")
    p.set_defaults(func=_cmd_reversals)

    p = sub.add_parser("sp", parents=[common, pool], help="degree of self-punishment")
    p.add_argument("dataset")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--brute", action="store_true", help="exhaustive route (subset DP) only")
    group.add_argument("--axiomatic", action="store_true", help="axiomatic classification only")
    p.set_defaults(func=_cmd_sp)

    p = sub.add_parser("elicit", parents=[common, pool], help="recover candidate preferences")
    p.add_argument("dataset")
    p.set_defaults(func=_cmd_elicit)

    p = sub.add_parser("distort", parents=[common], help="apply one distortion to an order")
    p.add_argument("--order", required=True, help="comma-separated labels, best first")
    p.add_argument("--index", required=True, type=int, help="how many top items to demote")
    p.set_defaults(func=_cmd_distort, needs_parser=True)

    p = sub.add_parser("census", parents=[common, pool], help="exact census of choice space")
    p.add_argument("--n", required=True, type=int, help="ground-set size (2..4)")
    p.set_defaults(func=_cmd_census, needs_parser=True)

    p = sub.add_parser(
        "sample-census", parents=[common, pool], help="sampled census of choice space"
    )
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--samples", required=True, type=int)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_sample_census, needs_parser=True)

    p = sub.add_parser("generate", parents=[common], help="simulate a self-punishing chooser")
    p.add_argument("--order", required=True, help="comma-separated labels, best first")
    p.add_argument("--policy", required=True, help="fixed:<i> | uniform:<cap> | map:<file.json>")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_generate, needs_parser=True)

    p = sub.add_parser(
        "construct-inconsistent",
        parents=[common],
        help="explicit choice whose reversals touch every pair",
    )
    p.add_argument("--k", required=True, type=int, help="half the ground-set size (>= 2)")
    p.set_defaults(func=_cmd_construct_inconsistent, needs_parser=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        code = args.func(args, parser) if getattr(args, "needs_parser", False) else args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the exit flush
        return code
    except BrokenPipeError:  # the reader left: what stays buffered goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (HarmchoiceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


def run() -> None:
    """Run :func:`main` on the command line and end the process without
    interpreter teardown, once stdout and stderr are flushed."""
    try:
        code = main()
    except SystemExit as exc:  # argparse: 2 on a usage error, 0 after --help
        code = exc.code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:  # the interpreter's own exit reports a flush that fails
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
