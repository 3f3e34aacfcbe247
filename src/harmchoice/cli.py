"""Command-line interface: dataset ingestion, dispatch, and reports.

Datasets come in two formats. JSON: an object with "alternatives" (label
list, defining id order) and "choices" (list of {"menu": [labels],
"choice": label}), optional "version": 1. Text: one `a,b,c -> a` line per
menu, optionally preceded by `alternatives: a,b,c` to pin the label order
(otherwise the sorted union of mentioned labels is used). Singleton menus
may be omitted; their forced picks are filled in with a warning.

Both readers keep only one menu bitmask and one pick id per row (and, for
text, its line number), not the rows' labels. The text reader parses about
64 K characters of lines at a time. The JSON reader packs each entry that
is exactly {"menu": [distinct strings], "choice": string} into a mask and
a pick as the decoder builds it, so no object per entry is kept; label ids
are given in order of first appearance and moved to the header's order at
the end. A file with any other entry, with a label outside "alternatives"
or with such an object outside "choices" is decoded again, with one
interned string per distinct label, and its entries are turned into masks
4,096 at a time: only this reader reads number labels and malformed
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

`analyze`, `sp`, `elicit` and `census` check `--workers` but ignore its
value: they run on one thread.

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
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator

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
        picks = self.choice.picks_array.tolist()
        order = menu_order(len(labels)).tolist()
        rows = (
            f'{{\n      "menu": [\n        {members}\n      ],'
            f'\n      "choice": {quoted[picks[m]]}\n    }}'
            for m, members in zip(order, _member_texts(quoted, ",\n        ", order))
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
        picks = self.choice.picks_array.tolist()
        order = menu_order(len(labels)).tolist()
        rows = (
            f"{members} -> {labels[picks[m]]}"
            for m, members in zip(order, _member_texts(labels, ",", order))
        )
        return chain((f"alternatives: {', '.join(labels)}",), rows)


def _member_texts(labels: Iterable[str], sep: str, masks: Iterable[int]) -> Iterator[str]:
    """``sep.join`` of the member labels of each menu bitmask in ``masks``.

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
    for m in masks:
        yield (low[m & 1023] + high[m >> 10])[cut:]


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


#: Characters of dataset text that the text reader parses at a time. Only
#: the menu bitmasks, picks and line numbers of its rows outlive a block.
_TEXT_BLOCK = 1 << 16

#: ``choices`` entries of a JSON dataset turned into masks at a time.
_JSON_BLOCK = 1 << 12

_NO_ROWS = np.zeros(0, dtype=np.int64)


def load_dataset(path: str) -> LoadedDataset:
    """Read, parse, and validate a dataset file ('-' reads stdin)."""
    text = (sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()).decode("utf-8-sig")
    if not text.lstrip().startswith("{"):
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


class _PackedEntries:
    """The ``choices`` entries that :func:`_decode_json` packed, in file
    order: each one's menu bitmask and the bit of its pick, over provisional
    label bits given in order of first appearance."""

    def __init__(self) -> None:
        self.bits: dict[str, int] = {}  # label -> its provisional bit
        self.masks = array("q")
        self.picks = array("q")


#: What :func:`_decode_json` returns in place of an entry that it packed.
_PACKED = object()


def _decode_json(text: str, what: str = "JSON", packed: _PackedEntries | None = None) -> object:
    """``json.loads(text)``, except that a key repeated in one object raises
    a ParseError naming ``what`` and the first key met twice, and that the
    string labels of each entry's ``menu`` list and its string ``choice``
    are interned: the strings decoded for an entry die as it is built.

    With ``packed``, an object whose keys are exactly ``menu`` and
    ``choice``, whose menu is a nonempty list of distinct strings and whose
    pick is a string, is added to ``packed`` and decodes as
    :data:`_PACKED`; once :data:`MAX_ENUM_N` labels have bits, an object
    with a further label stays a dict."""

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
    if packed is not None:
        bits, masks, picks = packed.bits, packed.masks, packed.picks
        bit_of = bits.get

        def new_bit(label: object) -> int:
            """The bit of a label met for the first time; 0 for a value that
            is not a string, or once MAX_ENUM_N labels have bits."""
            if type(label) is not str or len(bits) == MAX_ENUM_N:
                return 0
            bit = bits[label] = 1 << len(bits)
            return bit

        def hook(pairs: list[tuple[str, object]]) -> object:
            if len(pairs) == 2:
                (key, menu), (other, pick) = pairs
                if key == "choice":
                    key, menu, other, pick = other, pick, key, menu
                if key == "menu" and other == "choice" and type(menu) is list and menu and type(pick) is str:
                    mask = 0
                    try:
                        for label in menu:
                            mask |= bit_of(label) or new_bit(label)
                    except TypeError:  # an unhashable label
                        mask = 0
                    pick_bit = bit_of(pick) or new_bit(pick)
                    if pick_bit and mask.bit_count() == len(menu):  # every label a distinct bit
                        masks.append(mask)
                        picks.append(pick_bit)
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
    packed = _PackedEntries()
    obj = _decode_json(text, packed=packed)
    choices = obj.get("choices") if isinstance(obj, dict) else None
    if (
        not isinstance(choices, list)
        or len(choices) != len(packed.masks)
        or choices.count(_PACKED) != len(choices)  # so no packed object lies elsewhere
    ):
        return None
    ground, _ = _json_header(obj)
    rank = {label: e for e, label in enumerate(ground.labels)}
    final = np.fromiter(map(rank.get, packed.bits, repeat(-1)), np.int64, len(packed.bits))
    if (final < 0).any():
        return None
    masks = move_bits(np.frombuffer(packed.masks, np.int64), final)
    picks = final[np.bitwise_count(np.frombuffer(packed.picks, np.int64) - 1)]
    return ground, masks, picks, "choices[{}]".format


def _json_header(obj: object) -> tuple[GroundSet, list]:
    """The ground set and the ``choices`` list of a decoded JSON dataset,
    after the checks of its version, its alternatives and its size."""
    if not isinstance(obj, dict):
        raise ParseError("dataset must be a JSON object")
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


def _parse_json_dataset(obj: object) -> _Parsed:
    ground, choices = _json_header(obj)
    name = "choices[{}]".format
    mask_blocks, pick_blocks = [_NO_ROWS], [_NO_ROWS]
    for start in range(0, len(choices), _JSON_BLOCK):
        block = choices[start : start + _JSON_BLOCK]
        try:
            menus = [e["menu"] for e in block]
            pick_labels = [e["choice"] for e in block]
            shaped = {list}.issuperset(map(type, menus))
        except (KeyError, TypeError):  # an entry that is not an object or lacks a key
            shaped = False
        if not shaped:  # some entry is malformed: raise the block's first error
            for i, entry in enumerate(block, start):
                _check_json_row(ground, entry, name(i))
        lengths = np.fromiter(map(len, menus), np.int64, len(menus))
        flat = list(chain.from_iterable(menus))
        masks, picks, flagged = _label_rows(ground, flat, lengths, pick_labels)
        if flagged.any():
            i = start + int(flagged.argmax())
            _check_json_row(ground, choices[i], name(i))
        mask_blocks.append(masks)
        pick_blocks.append(picks)
    return ground, np.concatenate(mask_blocks), np.concatenate(pick_blocks), name


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
    """Parse a text dataset one block of lines at a time.

    The first syntax error is raised when its block is read, since it comes
    before every other error. Masks are built per block from the header's
    labels or, without a header, from provisional ids in order of first
    appearance, which are remapped to the sorted labels at the end. The
    first row that :func:`_label_rows` flags stops the mask building; its
    error is raised once the whole ground set has passed its checks.
    """
    header: tuple[str, ...] | None = None
    seen_labels: dict[str, None] = {}  # without a header: labels in provisional id order
    ground: GroundSet | None = None  # the labels the masks are built from
    fault: tuple[int, list[str], str] | None = None  # line, menu and pick of a flagged row
    mask_blocks, pick_blocks, lineno_blocks = [_NO_ROWS], [_NO_ROWS], [_NO_ROWS]
    rows = seen = 0  # choice rows so far, lines in the blocks before this one
    for block in _text_blocks(text):
        raw = block.splitlines()
        lines = [
            (lineno, line)
            for lineno, line in enumerate(map(str.strip, raw), seen + 1)
            if line and not line.startswith("#")
        ]
        seen += len(raw)
        if lines and header is None and not rows:  # the first content line
            if lines[0][1].lower().startswith("alternatives:"):
                header = tuple(s.strip() for s in lines.pop(0)[1].split(":", 1)[1].split(","))
                ground = _mask_ground(header)
        if not lines:
            continue
        linenos, flat, lengths, pick_labels = _split_rows(lines)
        rows += len(linenos)
        if header is None:
            new = set(flat).union(pick_labels).difference(seen_labels)
            if new:
                seen_labels.update(dict.fromkeys(sorted(new)))
                ground = _mask_ground(seen_labels)
        if ground is None or fault is not None:
            continue  # only syntax errors can still be met
        masks, picks, flagged = _label_rows(ground, flat, lengths, pick_labels)
        if flagged.any():
            i = int(flagged.argmax())
            end = int(lengths[: i + 1].sum())
            fault = (linenos[i], flat[end - int(lengths[i]) : end], pick_labels[i])
            continue
        mask_blocks.append(masks)
        pick_blocks.append(picks)
        lineno_blocks.append(np.array(linenos, dtype=np.int64))
    if not rows:
        raise ParseError("dataset contains no choice rows")
    try:
        ground = GroundSet(header if header is not None else tuple(sorted(seen_labels)))
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    require_enumerable(ground.n)
    if fault is not None:
        lineno, menu_labels, pick_label = fault
        _menu_from_labels(ground, menu_labels, f"line {lineno}")
        _alt(ground, pick_label, f"line {lineno}")
    masks, picks = np.concatenate(mask_blocks), np.concatenate(pick_blocks)
    linenos = np.concatenate(lineno_blocks)
    if header is None:  # provisional ids to sorted ones
        rank = {label: e for e, label in enumerate(ground.labels)}
        final = np.fromiter(map(rank.__getitem__, seen_labels), np.int64, ground.n)
        masks, picks = move_bits(masks, final), final[picks]

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


def _split_rows(lines: list[tuple[int, str]]) -> tuple[list[int], list[str], np.ndarray, list[str]]:
    """Line numbers, chained menu labels, menu sizes and pick labels of
    ``(line number, stripped line)`` rows; raises the syntax error of the
    first row without "->", with an empty pick or with an empty menu label."""
    linenos = [lineno for lineno, _ in lines]
    split = [line.partition("->") for _, line in lines]
    arrows = [bool(sep) for _, sep, _ in split]
    lefts = [left for left, _, _ in split]
    pick_labels = [right.strip() for _, _, right in split]
    lengths = np.fromiter((left.count(",") + 1 for left in lefts), np.int64, len(lefts))
    flat = list(map(str.strip, ",".join(lefts).split(",")))
    malformed = [not arrow or not pick for arrow, pick in zip(arrows, pick_labels)]
    first = malformed.index(True) if True in malformed else len(linenos)
    if "" in flat:
        first = min(first, int(np.searchsorted(np.cumsum(lengths), flat.index(""), side="right")))
    if first < len(linenos):
        if not arrows[first]:
            raise ParseError(f"line {linenos[first]}: expected 'a,b,c -> a'")
        raise ParseError(f"line {linenos[first]}: empty label")
    return linenos, flat, lengths, pick_labels


def _mask_ground(labels: Collection[str]) -> GroundSet | None:
    """The ground set that masks are built from, or None if ``labels`` is
    not one or is too large for int64 masks."""
    if len(labels) > MAX_ENUM_N:
        return None
    try:
        return GroundSet(tuple(labels))
    except ValueError:
        return None


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
        help="worker threads (default: available cpus)",
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
    p.add_argument("--n", required=True, type=int, help=f"ground-set size (2..{MAX_EXACT_CENSUS_N})")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser(
        "sample-census", parents=[common, pool], help="sampled census of choice space"
    )
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--samples", required=True, type=int)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_sample_census)

    p = sub.add_parser("generate", parents=[common], help="simulate a self-punishing chooser")
    p.add_argument("--order", required=True, help="comma-separated labels, best first")
    p.add_argument("--policy", required=True, help="fixed:<i> | uniform:<cap> | map:<file.json>")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser(
        "construct-inconsistent",
        parents=[common],
        help="explicit choice whose reversals touch every pair",
    )
    p.add_argument("--k", required=True, type=int, help="half the ground-set size (>= 2)")
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
