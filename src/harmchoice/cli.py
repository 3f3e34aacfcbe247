"""Command-line interface: dataset ingestion, dispatch, and reports.

Datasets come in two formats. JSON: an object with "alternatives" (label
list, defining id order) and "choices" (list of {"menu": [labels],
"choice": label}), optional "version": 1. Text: one `a,b,c -> a` line per
menu, optionally preceded by `alternatives: a,b,c` to pin the label order
(otherwise the sorted union of mentioned labels is used). Singleton menus
may be omitted; their forced picks are filled in with a warning.

JSON holds any label. The text writer refuses a label that its reader would
read back differently: one containing `,`, `->` or a line break, starting
with `#`, or with leading or trailing whitespace.

Each report renders only the format that `--format` asks for.

Exit codes: 0 on success, 1 on dataset or analysis errors, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ._parallel import ENV_WORKERS
from .axioms import Reversal, find_reversals, is_inconsistent, satisfies_warp
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
    sample_census,
)
from .core import ChoiceFunction, GroundSet, LinearOrder, Menu, validate_choice
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
    """

    ground: GroundSet
    choice: ChoiceFunction
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        g = self.ground
        return {
            "version": DATASET_VERSION,
            "alternatives": list(g.labels),
            "choices": [
                {"menu": menu.label_list(g), "choice": g.label(pick)}
                for menu, pick in self.choice.items()
            ],
        }

    def to_text(self) -> list[str]:
        g = self.ground
        for label in g.labels:
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
        lines = [f"alternatives: {', '.join(g.labels)}"]
        lines.extend(
            f"{','.join(menu.label_list(g))} -> {g.label(pick)}"
            for menu, pick in self.choice.items()
        )
        return lines


@dataclass(frozen=True)
class Elicitation:
    """Base orders that explain a choice within its degree.

    ``orders`` is truncated to :data:`ELICITED_ORDER_CAP` with the exact
    total in ``count``. For degree >= 1, ``partial_pairs`` holds the strict
    partial order (better, worse) that every elicited order extends.
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
    """Everything the analyzer derives from one dataset."""

    ground: GroundSet
    warnings: tuple[str, ...]
    warp: bool
    inconsistent: bool
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
        lines.extend(_reversals_text(self.reversals, g))
        lines.extend(self.sp_report.to_text(g))
        lines.extend(self.elicitation.to_text(g))
        return lines


def _warning_lines(messages: tuple[str, ...]) -> list[str]:
    return [f"warning: {m}" for m in messages]


def _warp_text(ok: bool) -> str:
    return f"warp: {'satisfied' if ok else 'violated'}"


def _reversals_text(reversals, ground: GroundSet) -> list[str]:
    return [f"reversals: {len(reversals)}", *(f"  {r.to_text(ground)}" for r in reversals)]


# ---------------------------------------------------------------------------
# dataset loading


def load_dataset(path: str) -> LoadedDataset:
    """Read, parse, and validate a dataset file ('-' reads stdin)."""
    if path == "-":
        text = sys.stdin.read()
    else:
        text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        ground, rows, refs = _parse_json_dataset(text)
    else:
        ground, rows, refs = _parse_text_dataset(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            choice = validate_choice(rows, ground)
        except RowError as exc:
            raise exc.at(refs) from None
    return LoadedDataset(ground, choice, tuple(str(w.message) for w in caught))


def _parse_json_dataset(text: str) -> tuple[GroundSet, list[tuple[Menu, int]], list[str]]:
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
    rows, refs = [], []
    for i, entry in enumerate(choices):
        ref = f"choices[{i}]"
        if not isinstance(entry, dict) or "menu" not in entry or "choice" not in entry:
            raise ParseError(f'{ref}: expected an object with "menu" and "choice"')
        menu_labels = entry["menu"]
        if not isinstance(menu_labels, list) or not menu_labels:
            raise ParseError(f"{ref}: menu must be a nonempty label list")
        rows.append((_menu_from_labels(ground, menu_labels, ref), _alt(ground, entry["choice"], ref)))
        refs.append(ref)
    return ground, rows, refs


def _parse_text_dataset(text: str) -> tuple[GroundSet, list[tuple[Menu, int]], list[str]]:
    header: list[str] | None = None
    body: list[tuple[str, list[str], str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None and not body and line.lower().startswith("alternatives:"):
            header = [s.strip() for s in line.split(":", 1)[1].split(",")]
            continue
        ref = f"line {lineno}"
        left, sep, right = line.partition("->")
        if not sep:
            raise ParseError(f"{ref}: expected 'a,b,c -> a'")
        menu_labels = [s.strip() for s in left.split(",")]
        pick_label = right.strip()
        if not all(menu_labels) or not pick_label:
            raise ParseError(f"{ref}: empty label")
        body.append((ref, menu_labels, pick_label))
    if not body:
        raise ParseError("dataset contains no choice rows")
    if header is not None:
        labels = tuple(header)
    else:
        labels = tuple(sorted({lab for _, menu, pick in body for lab in menu + [pick]}))
    try:
        ground = GroundSet(labels)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    rows = [
        (_menu_from_labels(ground, menu_labels, ref), _alt(ground, pick_label, ref))
        for ref, menu_labels, pick_label in body
    ]
    return ground, rows, [ref for ref, _, _ in body]


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
        reversals=tuple(find_reversals(choice)),
        sp_report=report,
        elicitation=build_elicitation(choice, report),
    )


def _emit(
    args: argparse.Namespace, to_dict: Callable[[], dict], to_text: Callable[[], list[str]]
) -> int:
    """Build and print only the rendering that --format asks for."""
    if args.format == "json":
        print(json.dumps(to_dict(), indent=2))
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
        lambda: _reversals_text(revs, ds.ground),
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
    return _emit(args, ds.to_dict, ds.to_text)


def _cmd_construct_inconsistent(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.k < 2:
        parser.error("--k must be at least 2")
    ds = LoadedDataset(inconsistent_ground_set(args.k), construct_inconsistent(args.k))
    return _emit(args, ds.to_dict, ds.to_text)


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
    group.add_argument("--brute", action="store_true", help="exhaustive order search only")
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
    try:
        if getattr(args, "needs_parser", False):
            return args.func(args, parser)
        return args.func(args)
    except (HarmchoiceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
