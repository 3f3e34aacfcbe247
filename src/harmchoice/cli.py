"""Command-line interface: dataset ingestion, dispatch, and reports.

Datasets come in two formats. JSON: an object with "alternatives" (label
list, defining id order) and "choices" (list of {"menu": [labels],
"choice": label}), optional "version": 1. Text: one `a,b,c -> a` line per
menu, optionally preceded by `alternatives: a,b,c` to pin the label order
(otherwise the sorted union of mentioned labels is used). A dataset is
JSON exactly when its first non-whitespace character is `{`; any other
file, a JSON array among them, is read as text. Singleton menus may be
omitted; their forced picks are filled in with a warning.

Both readers keep only one menu bitmask and one pick id per row (and, for
text, its line number), not the rows' labels. One row packer turns the
labels of every row, in both formats, into bits. The text reader splits
about 64 K characters into lines at a time and packs each line as it is
read. The JSON reader packs each entry that is exactly {"menu": [distinct
strings], "choice": string} as the decoder builds it, so no object per
entry is kept. Without a header to give them, label bits are given in
order of first appearance and moved to the final label order at the end.
A JSON file with any other entry, with a label outside "alternatives" or
with such an object outside "choices" is decoded again, with one interned
string per distinct label, and its entries are packed one at a time over
the header's bits: only this reader reads number labels and malformed
entries. A faulty dataset reports the error that a row-by-row reader would
meet first, naming the row as `choices[i]` or `line N`. A key repeated in
one JSON object, in a dataset or a ``map:`` policy file, is an error, and
so is an integer literal longer than Python reads.

Files and stdin are read as bytes and decoded as UTF-8 without a leading
byte-order mark. JSON holds any label. The text writer refuses a label that
its reader would read back differently: one containing `,`, `->` or a line
break, starting with `#`, or with leading or trailing whitespace.

Each report renders only the format that `--format` asks for. JSON is
written as `json.dumps(..., indent=2)` would write it, but the rows of a
written dataset are rendered from per-label fragments and written as they
are made.

`analyze`, `sp`, `elicit`, `census` and `sample-census` check `--workers`
but ignore its value: every command runs on one thread.

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

Importing this module sets ``OPENBLAS_NUM_THREADS`` to ``1`` unless it is
already set, before numpy loads; a value the user set is kept. No command
calls BLAS, but OpenBLAS otherwise starts a worker thread when numpy loads,
and that thread busy-waits for about 0.1 s of CPU in every process. The
package's ``__init__`` imports no submodule, so the default is in place
before numpy loads both for ``python -m harmchoice.cli`` and for the
``harmchoice`` script. A program that imports only other parts of the
package keeps its BLAS threads; one that loaded numpy before this module
keeps them too, and only its child processes see the default.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import warnings
from array import array
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator

# read once, when numpy loads OpenBLAS; see the module docstring
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

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
    MAX_SEED,
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
    MAX_ENUM_N,
    MENU_BLOCK,
    ChoiceFunction,
    GroundSet,
    LinearOrder,
    Menu,
    menu_order,
    move_bits,
    require_enumerable,
    validate_choice,
)
from .degree import SpReport, sp, sp_axiomatic, sp_bruteforce
from .distortion import harmful_distortion
from .elicit import all_extensions, elicit_partial, elicit_weakly_harmful
from .errors import HarmchoiceError, ParseError, ReportTooLarge, RowError, _shown

#: ``reversals`` refuses a dataset with more reversals than this (about 7 MB
#: of text); ``analyze`` still reports their exact count.
MAX_REVERSAL_ROWS = 100_000

DATASET_VERSION = 1


@dataclass(frozen=True)
class LoadedDataset:
    """A dataset: ground set, validated choice, and the loader's warnings.

    ``json_fields`` and ``to_text`` write the two formats that
    :func:`load_dataset` reads; the warnings are not part of either.
    ``json_fields`` holds the rows as :class:`_Rows`, which
    :func:`_json_chunks` writes as ``json.dumps(..., indent=2)`` would.
    """

    ground: GroundSet
    choice: ChoiceFunction
    warnings: tuple[str, ...] = ()

    def json_fields(self) -> dict:
        labels = self.ground.labels
        quoted = [json.dumps(label) for label in labels]
        rows = (
            f'{{\n      "menu": [\n        {members}\n      ],'
            f'\n      "choice": {quoted[pick]}\n    }}'
            for members, pick in _menu_rows(quoted, ",\n        ", self.choice)
        )
        return {"version": DATASET_VERSION, "alternatives": list(labels), "choices": _Rows(rows)}

    def to_text(self) -> Iterator[str]:
        """The text lines, made as they are read; a label that the text
        reader would read back differently raises at the call."""
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
                    f"label {_shown(repr(label))} cannot be written as text: a text label may"
                    " not contain ',', '->' or a line break, start with '#', or have outer"
                    " whitespace (use --format json)"
                )
        rows = (
            f"{members} -> {labels[pick]}" for members, pick in _menu_rows(labels, ",", self.choice)
        )
        return chain((f"alternatives: {', '.join(labels)}",), rows)


def _menu_rows(
    labels: Iterable[str], sep: str, choice: ChoiceFunction
) -> Iterator[tuple[str, int]]:
    """``sep.join`` of the member labels, and the pick id, of each menu in
    canonical order, taken :data:`MENU_BLOCK` menus at a time into lists.

    The members are looked up in one table for the low and one for the high
    10 bits of a mask (below 2**20), each of at most 1,024 entries, in which
    every label is led by ``sep``; the first ``sep`` of each menu is then
    dropped.
    """
    low: list[str] = [""]
    high: list[str] = [""]
    for e, label in enumerate(labels):
        table = low if e < 10 else high
        table += [text + sep + label for text in table]
    cut = len(sep)
    order = menu_order(choice.n)
    for lo in range(0, order.size, MENU_BLOCK):
        block = order[lo : lo + MENU_BLOCK]
        for m, pick in zip(block.tolist(), choice.picks_array[block].tolist()):
            yield (low[m & 1023] + high[m >> 10])[cut:], pick


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

    For degree >= 1, ``partial_pairs`` holds the strict partial order
    (better, worse) that the degree report's witness, in its order,
    identifies. It is total, and ``orders`` lists every elicited order: at
    degree >= 2 its one ranking, at degree 1 one per constantly selected
    item (at most two), the first of which is its ranking.
    """

    orders: tuple[LinearOrder, ...] = ()
    partial_pairs: tuple[tuple[int, int], ...] | None = None

    def to_dict(self, ground: GroundSet) -> dict:
        return {
            "elicited_orders": [o.label_list(ground) for o in self.orders],
            "elicited_order_count": len(self.orders),
            "partial_order": (
                None
                if self.partial_pairs is None
                else [[ground.label(a), ground.label(b)] for a, b in self.partial_pairs]
            ),
        }

    def to_text(self, ground: GroundSet) -> list[str]:
        lines = []
        if self.orders:
            lines.append(f"elicited orders (total {len(self.orders)}):")
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


#: Characters of dataset text that the text reader splits into lines at a
#: time. Only the menu bitmasks, picks and line numbers of its rows outlive
#: a block.
_TEXT_BLOCK = 1 << 16


def load_dataset(path: str) -> LoadedDataset:
    """Read, parse, and validate a dataset file ('-' reads stdin)."""
    text = (sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()).decode("utf-8-sig")
    if next((ch for ch in text if not ch.isspace()), "") != "{":  # lstrip() would copy the text
        parsed = _parse_text_dataset(text)
    elif (parsed := _parse_packed_json(text)) is None:  # a file only the entry reader reads
        obj, text = _decode_json(text), None  # the entries share one string per distinct label
        parsed = _parse_json_dataset(obj)
        del obj
    del text
    ground, masks, picks, name = parsed
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


class _RowPacker(dict):
    """Label rows packed one at a time into a menu bitmask and a pick bit
    each, kept in row order in the ``array('q')`` buffers ``masks`` and
    ``picks``.

    The packer maps each label to its bit. Built from ``labels`` (a header),
    it gives the first :data:`MAX_ENUM_N` of them their bits in order and
    no other label a bit, and it matches a label that is not a string by
    ``str(label)``, as :func:`_alt` does. Built from nothing, it gives a
    string label the next bit when the label is first met (provisional
    bits) and any other value no bit; once MAX_ENUM_N labels have bits, a
    further string label is kept with bit 0, so that ``len(packer)`` still
    counts every label met. The empty string, which no ground set holds,
    never has a bit.
    """

    __slots__ = ("grows", "masks", "picks")

    def __init__(self, labels: Iterable[str] | None = None) -> None:
        super().__init__(
            (label, 1 << e) for e, label in enumerate(islice(labels or (), MAX_ENUM_N)) if label
        )
        self.grows = labels is None
        self.masks = array("q")
        self.picks = array("q")

    def __missing__(self, label: object) -> int:
        if type(label) is not str:
            return 0 if self.grows else self[str(label)]
        if not self.grows or not label:
            return 0
        bit = self[label] = 1 << len(self) if len(self) < MAX_ENUM_N else 0
        return bit

    def add(self, labels: list, pick: object) -> bool:
        """Pack one row of menu labels and a pick; False, packing nothing,
        if a label or the pick has no bit or if a label is repeated."""
        try:
            # as bits are summed, a repeated one carries, so fewer bits are set
            mask = sum(map(self.__getitem__, labels))
            pick_bit = self[pick]
        except TypeError:  # a JSON list or object, which only a header's packer matches
            return not self.grows and self.add(list(map(str, labels)), str(pick))
        if not pick_bit or mask.bit_count() != len(labels):
            return False
        self.masks.append(mask)
        self.picks.append(pick_bit)
        return True

    def rows(self, labels: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
        """The packed masks and pick ids with each label's bit moved to its
        position in ``labels``; KeyError if a label with a bit is not there."""
        rank = {label: e for e, label in enumerate(labels)}
        to = np.fromiter(map(rank.__getitem__, self), np.int64, len(self))
        masks = move_bits(np.frombuffer(self.masks, np.int64), to)
        return masks, to[np.bitwise_count(np.frombuffer(self.picks, np.int64) - 1)]


#: What :func:`_decode_json` returns in place of an entry that it packed.
_PACKED = object()


def _decode_json(text: str, what: str = "JSON", packer: _RowPacker | None = None) -> object:
    """``json.loads(text)``, except that a key repeated in one object raises
    a ParseError naming ``what`` and the first key met twice, and that the
    string labels of each entry's ``menu`` list and its string ``choice``
    are interned: the strings decoded for an entry die as it is built.

    With ``packer``, an object whose keys are exactly ``menu`` and
    ``choice``, whose menu is a nonempty list and which ``packer`` packs
    decodes as :data:`_PACKED`."""

    def entry(pairs: list[tuple[str, object]]) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen: set[str] = set()
            for key, _ in pairs:
                if key in seen:
                    shown = _shown(repr(key))
                    raise ParseError(f"invalid {what}: key {shown} appears twice in one object")
                seen.add(key)
        menu = obj.get("menu")
        if type(menu) is list:
            try:
                obj["menu"] = list(map(sys.intern, menu))
            except TypeError:  # a number or list among the labels
                pass
        pick = obj.get("choice")
        if type(pick) is str:
            obj["choice"] = sys.intern(pick)
        return obj

    hook = entry
    if packer is not None:

        def hook(pairs: list[tuple[str, object]]) -> object:
            if len(pairs) == 2:
                (key, menu), (other, pick) = pairs
                if key == "choice":
                    key, menu, other, pick = other, pick, key, menu
                if key == "menu" and other == "choice" and type(menu) is list and menu:
                    if packer.add(menu, pick):
                        return _PACKED
            return entry(pairs)

    try:
        return json.loads(text, object_pairs_hook=hook)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deep
        raise ParseError(f"invalid {what}: {exc}") from None
    except ValueError:  # an integer literal longer than int() reads
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"invalid {what}: an integer has more than {limit} digits") from None


def _parse_packed_json(text: str) -> _Parsed | None:
    """Parse a JSON dataset whose entries all pack, or return None for a
    file that :func:`_parse_json_dataset` has to read: one with an entry
    left unpacked, a packed object outside ``choices``, or a label outside
    ``alternatives``. The header is checked as that reader checks it; the
    provisional label bits are then moved to the header's order."""
    packer = _RowPacker()
    obj = _decode_json(text, packer=packer)
    choices = obj.get("choices") if isinstance(obj, dict) else None  # else: the file packed whole
    if (
        not isinstance(choices, list)
        or len(choices) != len(packer.masks)
        or choices.count(_PACKED) != len(choices)  # so no packed object lies elsewhere
    ):
        return None
    ground, _ = _json_header(obj)
    try:
        masks, picks = packer.rows(ground.labels)
    except KeyError:  # a label outside "alternatives"
        return None
    return ground, masks, picks, "choices[{}]".format


def _json_header(obj: dict) -> tuple[GroundSet, list]:
    """The ground set and the ``choices`` list of a decoded JSON dataset,
    after the checks of its version, its alternatives and its size."""
    version = obj.get("version", DATASET_VERSION)
    if type(version) is not int or version != DATASET_VERSION:  # not true or 1.0
        raise ParseError(f"unsupported dataset version {_shown(repr(version))}")
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
    return ground, choices


def _parse_json_dataset(obj: dict) -> _Parsed:
    """Pack the ``choices`` entries one at a time over the header's label
    bits; the first malformed or refused entry raises its error."""
    ground, choices = _json_header(obj)
    name = "choices[{}]".format
    packer = _RowPacker(ground.labels)
    for i, entry in enumerate(choices):
        try:
            menu, pick = entry["menu"], entry["choice"]
        except (KeyError, TypeError):  # an entry that is not an object or lacks a key
            menu = pick = None
        if type(menu) is not list or not menu or not packer.add(menu, pick):
            _check_json_row(ground, entry, name(i))
    return ground, *packer.rows(ground.labels), name


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
    """Parse a text dataset one line at a time.

    The first syntax error is raised when its line is read, since it comes
    before every other error. Rows are packed over the header's label bits
    or, without a header, over provisional bits, which are moved to the
    sorted labels at the end. The first row that the packer refuses is
    kept; its error is raised once the whole ground set has passed its
    checks.
    """
    packer: _RowPacker | None = None  # made at the first content line
    header: tuple[str, ...] | None = None
    fault: tuple[int, list[str], str] | None = None  # line, menu and pick of a refused row
    linenos = array("q")  # of the packed rows
    seen = 0  # lines in the blocks before this one
    for block in _text_blocks(text):
        raw = block.splitlines()
        for lineno, line in enumerate(map(str.strip, raw), seen + 1):
            if not line or line[0] == "#":
                continue
            if packer is None:
                if line.lower().startswith("alternatives:"):
                    header = tuple(s.strip() for s in line.split(":", 1)[1].split(","))
                    packer = _RowPacker(header)
                    continue
                packer = _RowPacker()
            left, arrow, pick = line.partition("->")
            if not arrow:
                raise ParseError(f"line {lineno}: expected 'a,b,c -> a'")
            left = left.rstrip()
            labels = left.split(",")
            if " " in left or not left.isprintable():  # whitespace is " " or unprintable
                labels = list(map(str.strip, labels))
            pick = pick.strip()
            if packer.add(labels, pick):
                linenos.append(lineno)
            elif not pick or "" in labels:  # the packer gives "" no bit
                raise ParseError(f"line {lineno}: empty label")
            elif fault is None:
                fault = (lineno, labels, pick)
        seen += len(raw)
    if not linenos and fault is None:
        raise ParseError("dataset contains no choice rows")
    try:
        ground = GroundSet(header if header is not None else tuple(sorted(packer)))
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    require_enumerable(ground.n)
    if fault is not None:
        lineno, menu_labels, pick_label = fault
        _menu_from_labels(ground, menu_labels, f"line {lineno}")
        _alt(ground, pick_label, f"line {lineno}")
    masks, picks = packer.rows(ground.labels)

    def name(i: int) -> str:
        return f"line {linenos[i]}"

    return ground, masks, picks, name


def _text_blocks(text: str) -> Iterator[str]:
    """``text`` in slices of about :data:`_TEXT_BLOCK` characters, each cut
    just after a ``\\n``: the lines of the slices are the lines of ``text``."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _TEXT_BLOCK) + 1 or len(text)
        yield text[start:end]
        start = end


def _alt(ground: GroundSet, label: object, ref: str) -> int:
    try:
        return ground.index(str(label))
    except KeyError:
        raise ParseError(f"{ref}: unknown alternative {_shown(repr(label))}") from None


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
    else:  # the partial order is total: its one extension
        orders = all_extensions(partial, 1).orders
    return Elicitation(orders, tuple(partial.sorted_pairs()))


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
    args: argparse.Namespace, to_dict: Callable[[], dict], to_text: Callable[[], Iterable[str]]
) -> int:
    """Build and print only the rendering that --format asks for. The JSON
    fields may hold :class:`_Rows`, and the text lines may be a generator:
    both are written as they are made."""
    if args.format == "json":
        _write(chain(_json_chunks(to_dict()), ("\n",)))
    else:  # print("\n".join(lines)), which writes "\n" for no lines too
        lines = iter(to_text())
        first = (next(lines, ""),)
        _write(f"{line}\n" for line in chain(first, lines))
    return 0


#: Pieces of output joined into one write, so that an unbuffered stdout
#: (``python -u``) makes one system call per group, not per line.
_PIECES_PER_WRITE = 1024


def _write(pieces: Iterable[str]) -> None:
    pieces = iter(pieces)
    while group := list(islice(pieces, _PIECES_PER_WRITE)):
        sys.stdout.write("".join(group))


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


def _cmd_analyze(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    rep = build_analysis(load_dataset(args.dataset), workers=args.workers)
    return _emit(args, rep.to_dict, rep.to_text)


def _cmd_warp(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    ds = load_dataset(args.dataset)
    ok = satisfies_warp(ds.choice)
    return _emit_for(args, ds, lambda: {"warp": ok}, lambda: [_warp_text(ok)])


def _cmd_reversals(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    ds = load_dataset(args.dataset)
    count = reversal_count(ds.choice)
    if count > MAX_REVERSAL_ROWS:
        raise ReportTooLarge(
            f"the dataset has {count} reversals, more than the {MAX_REVERSAL_ROWS} that"
            f" `reversals` lists; `analyze` reports the exact count and lists the first {REVERSAL_CAP}"
        )
    revs = find_reversals(ds.choice)
    return _emit_for(
        args,
        ds,
        lambda: {"count": len(revs), "reversals": [r.to_dict(ds.ground) for r in revs]},
        lambda: _reversals_text(revs, ds.ground, len(revs)),
    )


def _cmd_sp(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
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


def _cmd_elicit(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
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
    report = enumerate_census(args.n, workers=args.workers)
    return _emit(args, report.to_dict, report.to_text)


def _cmd_sample_census(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    report = sample_census(args.n, args.samples, seed=args.seed, workers=args.workers)
    return _emit(args, report.to_dict, report.to_text)


def _cmd_generate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    ground, order = _parse_order_spec(args.order, parser)
    policy = _parse_policy_spec(args.policy, ground, parser)
    ds = LoadedDataset(ground, generate_harmful(order, policy, seed=args.seed))
    return _emit(args, ds.json_fields, ds.to_text)


def _cmd_construct_inconsistent(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
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
        obj = _decode_json(Path(rest).read_bytes().decode("utf-8-sig"), "policy map JSON")
        if not isinstance(obj, dict):
            raise ParseError("policy map must be a JSON object of 'a,b,c' -> index")
        named: dict[Menu, str] = {}  # the key that names each menu
        for key, value in obj.items():
            shown = _shown(repr(key))
            ref = f"policy key {shown}"
            menu = _menu_from_labels(ground, [s.strip() for s in key.split(",")], ref)
            if type(value) is not int:
                got = _shown(json.dumps(value))
                raise ParseError(f"{ref}: index must be a JSON integer, got {got}")
            if menu in named:
                first = _shown(repr(named[menu]))
                raise ParseError(f"policy keys {first} and {shown} name the same menu")
            named[menu] = key
        return ExplicitIndexPolicy.from_menus({menu: obj[key] for menu, key in named.items()})
    parser.error("--policy must be fixed:<i>, uniform:<cap>, or map:<file.json>")


# ---------------------------------------------------------------------------
# parser


def _int_option(lo: int, hi: int | None = None):
    """An argparse type: an integer of at least ``lo`` (and at most ``hi``),
    else a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if hi is not None and not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"must lie in {lo}..{hi}, got {value}")
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    return parse


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
        type=_int_option(1),
        default=None,
        help="worker count, checked but not used: every command runs on one thread",
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
    p.set_defaults(func=_cmd_distort)

    p = sub.add_parser("census", parents=[common, pool], help="exact census of choice space")
    p.add_argument(
        "--n",
        required=True,
        type=_int_option(2, MAX_EXACT_CENSUS_N),
        help=f"ground-set size (2..{MAX_EXACT_CENSUS_N})",
    )
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser(
        "sample-census", parents=[common, pool], help="sampled census of choice space"
    )
    p.add_argument("--n", required=True, type=_int_option(2))
    p.add_argument("--samples", required=True, type=_int_option(1))
    p.add_argument("--seed", type=_int_option(0, MAX_SEED), default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_sample_census)

    p = sub.add_parser("generate", parents=[common], help="simulate a self-punishing chooser")
    p.add_argument("--order", required=True, help="comma-separated labels, best first")
    p.add_argument("--policy", required=True, help="fixed:<i> | uniform:<cap> | map:<file.json>")
    p.add_argument("--seed", type=_int_option(0, MAX_SEED), default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser(
        "construct-inconsistent",
        parents=[common],
        help="explicit choice whose reversals touch every pair",
    )
    p.add_argument(
        "--k", required=True, type=_int_option(2), help="half the ground-set size (>= 2)"
    )
    p.set_defaults(func=_cmd_construct_inconsistent)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        code = args.func(args, parser)
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
