"""Command-line interface: dataset ingestion, dispatch, and reports.

Datasets come in two formats. JSON: an object with "alternatives" (label
list, defining id order) and "choices" (list of {"menu": [labels],
"choice": label}), optional "version": 1. Text: one `a,b,c -> a` line per
menu, optionally preceded by `alternatives: a,b,c` to pin the label order
(otherwise the sorted union of mentioned labels is used). A dataset is
JSON exactly when its first non-whitespace character is `{`; any other
file, a JSON array among them, is read as text. Singleton menus may be
omitted; their forced picks are filled in with a warning.

A file is read through one text stream, about 64 K characters at a time,
so no step holds the whole file or its decoded text. Both readers keep
only one (menu bitmask, pick id) pair per row, not the rows' labels; the
text reader also keeps the first line number of each run of rows on
consecutive lines. One row packer turns the labels of every row, in both
formats, into bits, matching a label that is not a string by its ``str``.
The text reader cuts each block after its last line break and packs each
line as it is read. The JSON reader walks the top-level object and decodes
"choices" in runs of entries, each cut after an entry's closing brace; an
entry that is an object with a nonempty "menu" list and a "choice" is
packed as the decoder builds it, so no object per entry is kept. A run
that does not pack whole is undone and its entries decoded again one at a
time. Without a header to give them, label bits are given in order of
first appearance (JSON labels in "alternatives" read before "choices"
first) and moved to the final label order at the end.

Both readers first try one row kernel on each block of text rows (the rest
of the first block after its header too) and on each run of JSON entries:
it finds the separators with numpy, matches each label to one the packer
already holds by its UTF-8 bytes and packs the whole block in bulk. It
takes a block only if each text line is `a,b,c -> a` with ASCII labels, no
control character, no leading `#` and no space but one on each side of
`->`, or each JSON entry is `{"menu": [...], "choice": ...}` in that order
with a nonempty menu, string labels without an escape or whitespace
inside, and JSON whitespace anywhere between the tokens; each label must
have a bit, be 1 to 8 bytes long and appear once per menu. Any other block
or run, with a comment, a blank line, a new label or a faulty row, is read
row by row as before, so every error and every row name are the row-by-row
reader's. A faulty JSON file is read again whole, with one interned string
per distinct label, only to name its fault. A faulty dataset reports the
error that a row-by-row reader would meet first, naming the row as
`choices[i]` or `line N`. A key repeated in one JSON object, in a dataset
or a ``map:`` policy file, is an error, and so is an integer literal
longer than Python reads.

Files and stdin are decoded as UTF-8 without a leading byte-order mark;
stdin, and a path that cannot seek such as a pipe, is read whole as bytes
first, so that it can be read twice. An
invalid byte anywhere in a file is reported before any parse error, with
its position counted from the start of the file. JSON holds any label. The
text writer refuses a label that its reader would read back differently:
one containing `,`, `->` or a line break, starting with `#`, or with
leading or trailing whitespace.

Each report renders only the format that `--format` asks for. JSON is
written as `json.dumps(..., indent=2)` would write it, but the rows of a
written dataset are rendered from per-label fragments, one write group of
rows at a time, and written as they are made.

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
import io
import json
import os
import re
import sys
import warnings
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, NoReturn

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
from .errors import (
    CrossCheckMismatch,
    HarmchoiceError,
    ParseError,
    ReportTooLarge,
    RowError,
    _shown,
)

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
    canonical order, taken :data:`_PIECES_PER_WRITE` menus at a time into
    lists, so that only one write group of rows and their ints is alive.

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
    for lo in range(0, order.size, _PIECES_PER_WRITE):
        block = order[lo : lo + _PIECES_PER_WRITE]
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


#: Characters of dataset text read at a time. Only the menu bitmasks and
#: picks of the rows read, and a text file's line numbers per run of rows,
#: outlive a block; a faulty JSON file is read again whole to name its fault.
_TEXT_BLOCK = 1 << 16


def load_dataset(path: str) -> LoadedDataset:
    """Read, parse, and validate a dataset file ('-' reads stdin)."""
    if path == "-":
        raw: BinaryIO = io.BytesIO(sys.stdin.buffer.read())
    else:
        raw = open(path, "rb")
        if not raw.seekable():  # a pipe: read whole, so that it can be read twice
            with raw:
                raw = io.BytesIO(raw.read())
    with raw:
        ground, table, name = _parse_dataset(raw)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            choice = validate_choice(table, ground)
        except RowError as exc:
            raise exc.at({row: name(row) for row in exc.rows}) from None
    return LoadedDataset(ground, choice, tuple(str(w.message) for w in caught))


#: A parsed dataset: ground set, one (menu bitmask, pick id) row per dataset
#: row, and the name of row i in messages.
_Parsed = tuple[GroundSet, np.ndarray, Callable[[int], str]]


def _parse_dataset(raw: BinaryIO) -> _Parsed:
    """Parse the UTF-8 text of ``raw``, a byte stream that can seek, read in
    blocks.

    An invalid byte anywhere in the file is reported before any parse error,
    as the whole read reports it, with its position counted from the start
    of the file: the stream's own error counts from the start of a block,
    and a parse error met mid-stream waits until the rest of the file has
    been decoded.
    """
    stream = io.TextIOWrapper(raw, encoding="utf-8-sig", newline="")
    chunks = iter(partial(stream.read, max(_TEXT_BLOCK, 1)), "")
    try:
        lead = []  # the chunks up to the first that is not all whitespace
        for chunk in chunks:
            lead.append(chunk)
            if not chunk.isspace():
                break
        if not lead or lead[-1].lstrip()[:1] != "{":
            try:
                return _parse_text_dataset(chain(lead, chunks))
            except HarmchoiceError:
                for _ in chunks:  # decode the rest, keeping nothing
                    pass
                raise
        parsed = _parse_streamed_json(chain(lead, chunks))
    except UnicodeDecodeError:
        _whole_text(raw)  # raises the whole read's error
        raise
    finally:
        stream.detach()  # leaves ``raw`` open to be read again
    if parsed is None:  # a fault: the whole text names it
        _raise_json_fault(_decode_json(_whole_text(raw)))
    return parsed


def _whole_text(raw: BinaryIO) -> str:
    """The file read again from its start and decoded whole."""
    raw.seek(0)
    return raw.read().decode("utf-8-sig")


class _RowPacker(dict):
    """Label rows packed one at a time into a menu bitmask and a pick bit
    each, kept in row order as pairs in the ``array('q')`` buffer
    ``pairs``.

    The packer maps each label to its bit, and matches a label that is not
    a string by ``str(label)``, as :func:`_alt` does. Built from ``labels``
    (a header), it gives the first :data:`MAX_ENUM_N` of them their bits in
    order and no other label a bit. Built from nothing, it gives a label the
    next bit when the label is first met (provisional bits); once
    MAX_ENUM_N labels have bits, a further label is kept with bit 0, so
    that ``len(packer)`` still counts every label met. The empty string,
    which no ground set holds, never has a bit.
    """

    __slots__ = ("grows", "pairs")

    def __init__(self, labels: Iterable[str] | None = None) -> None:
        super().__init__(
            (label, 1 << e) for e, label in enumerate(islice(labels or (), MAX_ENUM_N)) if label
        )
        self.grows = labels is None
        self.pairs = array("q")

    def __missing__(self, label: object) -> int:
        if type(label) is not str:
            return self[str(label)]
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
        except TypeError:  # a JSON list or object, which cannot be a key
            return self.add(list(map(str, labels)), str(pick))
        if not pick_bit or mask.bit_count() != len(labels):
            return False
        self.pairs.append(mask)
        self.pairs.append(pick_bit)
        return True

    def add_row(self, menu: object, pick: object) -> bool:
        """:meth:`add` the ``menu`` and ``choice`` of a JSON entry; False if
        the menu is not a nonempty list. A refused row leaves no label
        behind: an object refused inside a valid entry has no bearing on
        the bits of its file's labels."""
        if type(menu) is not list or not menu:
            return False
        labels = len(self)
        if self.add(menu, pick):
            return True
        self.undo(len(self.pairs) >> 1, labels)
        return False

    def add_entry(self, entry: object) -> bool:
        """:meth:`add_row` the ``menu`` and ``choice`` of a JSON
        ``choices`` entry, an object."""
        return type(entry) is dict and "choice" in entry and self.add_row(entry.get("menu"), entry["choice"])

    def words(self) -> tuple[np.uint64, np.ndarray, np.ndarray]:
        """The labels with a bit in a hash table of their words: a label of 1
        to 8 bytes of UTF-8 (lone surrogates passed through) without a NUL
        byte is the little-endian ``uint64`` of its bytes, which no other
        such label shares. Returns a multiplier, and by slot
        ``(word * multiplier) >> 54`` the word of the label there (0 if
        none) and its bit; a label whose slot another takes is left out."""
        table = {}
        for label, bit in islice(self.items(), MAX_ENUM_N):  # the labels with a bit come first
            spelled = label.encode("utf-8", "surrogatepass")
            if bit and 0 < len(spelled) <= 8 and b"\0" not in spelled:
                table[int.from_bytes(spelled, "little")] = bit
        for odd in range(1, 128, 2):  # Fibonacci hashing, then other odd multiples
            multiplier = _PHI * odd % (1 << 64)
            slots = {word * multiplier % (1 << 64) >> 54 for word in table}
            if len(slots) == len(table):
                break
        keys, bits = np.zeros(1024, np.uint64), np.zeros(1024, np.int64)
        for word, bit in table.items():
            slot = word * multiplier % (1 << 64) >> 54
            if not keys[slot]:
                keys[slot], bits[slot] = word, bit
        return np.uint64(multiplier), keys, bits

    def undo(self, rows: int, labels: int) -> None:
        """Drop the rows and the labels met since there were ``rows`` rows
        and ``labels`` labels."""
        del self.pairs[2 * rows :]
        for label in list(islice(self, labels, None)):
            del self[label]

    def rows(self, labels: tuple[str, ...]) -> np.ndarray:
        """The packed (mask, pick id) rows, a view of ``pairs``, with each
        label's bit moved to its position in ``labels``; KeyError if a label
        with a bit is not there."""
        rank = {label: e for e, label in enumerate(labels)}
        to = np.fromiter(map(rank.__getitem__, self), np.int64, len(self))
        table = np.frombuffer(self.pairs, np.int64).reshape(-1, 2)
        table[:, 0] = move_bits(table[:, 0], to)
        table[:, 1] = to[np.bitwise_count(table[:, 1] - 1)]
        return table


#: 2**64 over the golden ratio, odd: the multiplier of Fibonacci hashing.
_PHI = 0x9E3779B97F4A7C15

#: What the packing decoder returns in place of an entry that it packed.
_PACKED = object()


def _json_object(pairs: list[tuple[str, object]], what: str = "JSON") -> dict:
    """``dict(pairs)``; a key met twice raises a ParseError naming ``what``
    and the first such key."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                shown = _shown(repr(key))
                raise ParseError(f"invalid {what}: key {shown} appears twice in one object")
            seen.add(key)
    return obj


def _json_decoder(packer: _RowPacker | None = None) -> json.JSONDecoder:
    """A decoder like ``json.JSONDecoder()``, except that a key repeated in
    one object raises a ParseError.

    With ``packer``, an object that :meth:`_RowPacker.add_entry` packs
    decodes as :data:`_PACKED`; an object whose keys are exactly ``menu``
    and ``choice`` is tested before a dict is built for it."""
    if packer is None:
        return json.JSONDecoder(object_pairs_hook=_json_object)

    def hook(pairs: list[tuple[str, object]]) -> object:
        if len(pairs) == 2:
            (key, menu), (other, pick) = pairs
            if key == "choice":
                key, menu, other, pick = other, pick, key, menu
            if key == "menu" and other == "choice":
                return _PACKED if packer.add_row(menu, pick) else _json_object(pairs)
        obj = _json_object(pairs)
        return _PACKED if packer.add_entry(obj) else obj

    return json.JSONDecoder(object_pairs_hook=hook)


def _decode_json(text: str, what: str = "JSON") -> object:
    """``json.loads(text)``, except that a key repeated in one object raises
    a ParseError naming ``what``, and that the string labels of each
    entry's ``menu`` list and its string ``choice`` are interned: the
    strings decoded for an entry die as it is built."""

    def entry(pairs: list[tuple[str, object]]) -> dict:
        obj = _json_object(pairs, what)
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

    try:
        return json.JSONDecoder(object_pairs_hook=entry).decode(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deep
        raise ParseError(f"invalid {what}: {exc}") from None
    except ValueError:  # an integer literal longer than int() reads
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"invalid {what}: an integer has more than {limit} digits") from None


#: The whitespace that JSON allows between tokens.
_JSON_SPACE = re.compile(r"[ \t\n\r]*")

#: How far before the end of a text cut inside a token a decode error, or
#: the end of the value decoded, can lie: the length of "-Infinit".
_JSON_CUT = 8


class _JsonText:
    """The text of a JSON file read in blocks: ``buf[pos:]`` is what has
    been read and not yet parsed, and ``buf[0]`` lies ``base`` characters
    into the text; ``ended`` once the text has been read to its end."""

    __slots__ = ("chunks", "buf", "pos", "base", "ended")

    def __init__(self, chunks: Iterator[str]) -> None:
        self.chunks = chunks
        self.buf = ""
        self.pos = self.base = 0
        self.ended = False

    def ahead(self, size: int | None = None) -> bool:
        """Read until more than ``size`` characters (a block) lie unparsed;
        False if the text ends first. The blocks read are joined behind the
        unparsed text once, so that reading far ahead copies it once."""
        size = _TEXT_BLOCK if size is None else size
        have = len(self.buf) - self.pos
        if have > size or self.ended:
            return have > size
        parts = [self.buf[self.pos :]]
        while have <= size and (chunk := next(self.chunks, "")):
            parts.append(chunk)
            have += len(chunk)
        self.ended = have <= size
        self.base += self.pos
        self.buf, self.pos = "".join(parts), 0
        return not self.ended

    def token(self) -> str:
        """The next character that is not JSON whitespace; "" at the end."""
        while (pos := _JSON_SPACE.match(self.buf, self.pos).end()) == len(self.buf):
            self.pos = pos
            if not self.ahead(0):
                return ""
        self.pos = pos
        return self.buf[pos]

    def take(self, char: str) -> bool:
        """Step over the next token if it is ``char``."""
        if self.token() != char:
            return False
        self.pos += 1
        return True

    def value(self, decoder: json.JSONDecoder) -> object:
        """Decode the next value, with a block read ahead. A value that
        could be cut off by the end of the read text (a string left open, or
        a decode error or a value's end within :data:`_JSON_CUT` of that
        end, as ``-1.5`` read as ``-1.`` ends at ``-1``) is decoded again
        once the unparsed text has doubled, until the text ends: a value of
        any length is read in time linear in its length. Any other decode
        error is raised at once."""
        self.token()
        self.ahead()
        while True:
            try:
                obj, end = decoder.raw_decode(self.buf, self.pos)
            except json.JSONDecodeError as exc:
                cut = exc.pos >= len(self.buf) - _JSON_CUT or exc.msg.startswith("Unterminated string")
                if self.ended or not cut:
                    raise
            else:
                if end < len(self.buf) - _JSON_CUT or self.ended:
                    self.pos = end
                    return obj
            self.ahead(2 * (len(self.buf) - self.pos))

    def run_end(self) -> int:
        """The index just past the last ``}`` of the unparsed text that JSON
        whitespace and a ``,`` follow, or 0."""
        buf, end = self.buf, len(self.buf)
        while (i := buf.rfind("}", self.pos, end)) >= 0:
            after = _JSON_SPACE.match(buf, i + 1).end()
            if buf[after : after + 1] == ",":
                return i + 1
            end = i
        return 0


def _parse_streamed_json(chunks: Iterator[str]) -> _Parsed | None:
    """Parse a JSON dataset from its text in blocks, or return None for a
    faulty file: one with a syntax error, a repeated top-level key, an entry
    that does not pack or a label outside ``alternatives``.

    The top-level values but ``choices`` are decoded whole, and the header
    is checked by :func:`_json_header`. Labels get provisional bits, which
    are moved to the header's order at the end.
    """
    text = _JsonText(chunks)
    plain, packer = _json_decoder(), _RowPacker()
    fields: dict[str, object] = {}
    try:
        if not text.take("{"):
            return None
        while True:
            if text.token() != '"':
                return None
            key = text.value(plain)
            if key in fields or not text.take(":"):
                return None
            if key != "choices":
                fields[key] = text.value(plain)
            elif text.take("["):
                if type(fields.get("alternatives")) is list:  # their labels take bits first
                    for label in islice(fields["alternatives"], MAX_ENUM_N):
                        packer[str(label)]
                if not _pack_entries(text, plain, packer):
                    return None
                fields[key] = []  # its entries are packed
            else:
                return None
            if not text.take(","):
                break
        if not text.take("}") or text.token():
            return None
    except (ValueError, RecursionError, HarmchoiceError):
        return None
    ground, _ = _json_header(fields)
    try:
        table = packer.rows(ground.labels)
    except KeyError:  # a label outside "alternatives"
        return None
    return ground, table, "choices[{}]".format


def _pack_entries(text: _JsonText, plain: json.JSONDecoder, packer: _RowPacker) -> bool:
    """Pack the entries of the list whose ``[`` was just read, through its
    ``]``; False if one does not pack.

    The entries are decoded in runs of about a block, each cut after the
    last ``}`` that a ``,`` follows and decoded as one list by the packing
    decoder. A run packs whole when it decodes to one :data:`_PACKED` per
    entry and one row each. Otherwise (a cut inside a string, or a packable
    object nested in an entry) its rows and new labels are undone, and its
    entries up to the cut are decoded again one at a time by ``plain`` and
    packed, as a lone entry always is: each run is decoded at most twice.
    """
    if text.take("]"):
        return True
    packing = _json_decoder(packer=packer)
    while True:
        text.ahead()
        cut = text.run_end()
        if cut and _pack_json_run(packer, text.buf[text.pos : cut]):
            text.pos = text.buf.index(",", cut) + 1
            continue
        if cut:
            rows, labels = len(packer.pairs) >> 1, len(packer)
            try:
                items = packing.decode("[" + text.buf[text.pos : cut] + "]")
                whole = items.count(_PACKED) == len(items) == (len(packer.pairs) >> 1) - rows
            except (ValueError, RecursionError, HarmchoiceError):
                whole = False
            if whole:
                text.pos = text.buf.index(",", cut) + 1
                continue
            packer.undo(rows, labels)
        end = text.base + cut  # in the text, as ``ahead`` moves ``buf``; no cut: one entry
        while True:
            if not packer.add_entry(text.value(plain)):
                return False
            if not text.take(","):
                return text.take("]")
            if text.base + text.pos >= end:
                break


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


def _raise_json_fault(obj: dict) -> NoReturn:
    """Raise the error of a whole decoded JSON dataset that
    :func:`_parse_streamed_json` refused: the header's, else that of the
    first faulty ``choices`` entry."""
    ground, choices = _json_header(obj)
    packer = _RowPacker(ground.labels)  # passes the entries that pack, quickly
    for i, entry in enumerate(choices):
        if packer.add_entry(entry):
            continue
        ref = f"choices[{i}]"
        if not isinstance(entry, dict) or "menu" not in entry or "choice" not in entry:
            raise ParseError(f'{ref}: expected an object with "menu" and "choice"')
        menu_labels = entry["menu"]
        if not isinstance(menu_labels, list) or not menu_labels:
            raise ParseError(f"{ref}: menu must be a nonempty label list")
        _menu_from_labels(ground, menu_labels, ref)
        _alt(ground, entry["choice"], ref)
    raise CrossCheckMismatch("the JSON reader refused a dataset in which no fault was found")


def _parse_text_dataset(chunks: Iterable[str]) -> _Parsed:
    """Parse a text dataset, given in chunks, one line at a time.

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
    # the first row and its line of each run of packed rows on consecutive lines
    starts, firsts = array("q"), array("q")
    follows = 0  # the line that would continue the last run
    seen = 0  # lines in the blocks before this one

    def packed(lineno: int, count: int) -> None:
        """Note ``count`` rows just packed from the lines from ``lineno`` on."""
        nonlocal follows
        if lineno != follows:  # not the line after the last packed row
            starts.append((len(packer.pairs) >> 1) - count)
            firsts.append(lineno)
        follows = lineno + count

    for block in _text_blocks(chunks):
        if packer is not None and (count := _pack_text_rows(packer, block)):
            packed(seen + 1, count)
            seen += count
            continue
        raw = block.splitlines(keepends=True)
        for lineno, line in enumerate(map(str.strip, raw), seen + 1):
            if not line or line[0] == "#":
                continue
            if packer is None:
                if line.lower().startswith("alternatives:"):
                    header = tuple(s.strip() for s in line.split(":", 1)[1].split(","))
                    packer = _RowPacker(header)
                    if count := _pack_text_rows(packer, "".join(raw[lineno - seen :])):  # the lines after it
                        packed(lineno + 1, count)
                        break
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
                packed(lineno, 1)
            elif not pick or "" in labels:  # the packer gives "" no bit
                raise ParseError(f"line {lineno}: empty label")
            elif fault is None:
                fault = (lineno, labels, pick)
        seen += len(raw)
        del raw  # not kept alive while later blocks are packed in bulk
    if not starts and fault is None:
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
    table = packer.rows(ground.labels)

    def name(i: int) -> str:
        run = bisect_right(starts, i) - 1
        return f"line {firsts[run] + i - starts[run]}"

    return ground, table, name


def _text_blocks(chunks: Iterable[str]) -> Iterator[str]:
    """The text of ``chunks`` cut just after the last ``\\n`` of each chunk,
    the rest carried to the next: the lines of the blocks are the lines of
    the text, and a ``\\r\\n`` pair is never split."""
    rest = ""
    for chunk in chunks:
        cut = chunk.rfind("\n") + 1
        if cut:
            yield rest + chunk[:cut]
            rest = chunk[cut:]
        else:
            rest += chunk
    if rest:
        yield rest


# ---------------------------------------------------------------------------
# rows packed in bulk

#: ``_LOW[k]`` keeps the low k bytes of a word.
_LOW = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)

#: The words of the gaps between the strings of packable ``choices``
#: entries, once JSON whitespace is taken out of them, and of their keys.
_OPEN, _MENU, _SEP, _CLOSE, _COLON, _NEXT, _END, _MENU_KEY, _CHOICE_KEY = (
    int.from_bytes(gap, "little")
    for gap in (b"{", b":[", b",", b"],", b":", b"},{", b"}", b"menu", b"choice")
)


def _words_at(data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """The bytes ``data[s:e]`` of each token, read as a little-endian word;
    None if a token is empty or longer than 8 bytes. ``data`` is ``uint8``
    and ends in 8 zero bytes that no token reaches."""
    lens = ends - starts
    if lens.min() < 1 or lens.max() > 8:
        return None
    words = np.ndarray(data.size - 7, "<u8", data, strides=(1,))[starts]  # a word at each byte
    words &= _LOW[lens]
    return words


def _pack_words(packer: _RowPacker, words: np.ndarray, picks: np.ndarray) -> bool:
    """Pack rows given as the words of their labels, each row's menu labels
    followed by its pick, ``picks`` indexing the picks: the rows that
    :meth:`_RowPacker.add` would pack one at a time. False, packing nothing,
    if a word is not that of a label with a bit or a row repeats a label."""
    multiplier, keys, bits = packer.words()
    slots = (words * multiplier) >> np.uint64(54)
    if not np.array_equal(np.take(keys, slots), words):
        return False
    firsts = np.concatenate(([0], picks[:-1] + 1))
    # the sums of each menu's bits and of each pick's, laid out as ``pairs``
    pairs = np.add.reduceat(np.take(bits, slots), np.column_stack((firsts, picks)).ravel())
    if not np.array_equal(np.bitwise_count(pairs[0::2]), picks - firsts):  # a repeat carried
        return False
    packer.pairs.frombytes(pairs.view(np.uint8))
    return True


def _pack_text_rows(packer: _RowPacker, text: str) -> int:
    """Pack every line of ``text`` in bulk, if each is a row ``a,b,c -> a``
    of ASCII labels with a bit, without a control character, a leading
    ``#``, another ``->`` or a space other than one on each side of its
    ``->``: such a line reads in the row loop as it reads here. The number
    of lines packed, or 0 if a line is not such a row or does not pack."""
    arrows = text.count(" -> ")
    if not text.isascii() or text.count(" ") != 2 * arrows or text.count("->") != arrows:
        return 0
    body = text.encode()
    data = np.frombuffer(body + (b"" if body.endswith(b"\n") else b"\n") + bytes(8), np.uint8)
    body = data[:-8]
    lines = np.flatnonzero(body == 10)
    if np.count_nonzero(body < 32) != lines.size or data[0] == 35 or (body[lines[:-1] + 1] == 35).any():
        return 0
    kind = (body == 44).view(np.int8)  # 1 at a ",", 2 at a " -> ", 3 at a line break
    kind[np.flatnonzero(body == 32)[0::2]] = 2
    kind[lines] = 3
    cuts = np.flatnonzero(kind)
    kind = kind[cuts]
    arrow, line = kind == 2, kind == 3
    if line[0] or not np.array_equal(arrow[:-1], line[1:]):  # a line is not labels, " -> ", a label
        return 0
    words = _words_at(data, np.concatenate(([0], cuts[:-1] + 1 + 3 * arrow[:-1])), cuts)
    if words is None or not _pack_words(packer, words, np.flatnonzero(line)):
        return 0
    return lines.size


def _pack_json_run(packer: _RowPacker, run: str) -> bool:
    """Pack a run of ``choices`` entries in bulk, if each is an object
    ``{"menu": [...], "choice": ...}`` with a nonempty menu, these two keys
    in this order, string labels with a bit and no escape, and JSON
    whitespace as the only layout: the rows that the packing decoder packs.
    False, packing nothing, otherwise."""
    if "\\" in run:
        return False
    body = run.encode("utf-8", "surrogatepass")
    dense = body.translate(None, b" \t\n\r")  # the text without JSON whitespace
    data = np.frombuffer(dense + bytes(8), np.uint8)
    raw = data[:-8]
    quotes = np.flatnonzero(raw == 34)
    if not quotes.size or quotes.size % 2 or raw.min() < 32:  # a control character
        return False
    if len(dense) < len(body):  # the strings must have lost none of it
        spaced = np.flatnonzero(np.frombuffer(body, np.uint8) == 34)
        if spaced.size != quotes.size or not np.array_equal(np.diff(spaced)[0::2], np.diff(quotes)[0::2]):
            return False
    opens, closes = quotes[0::2], quotes[1::2]
    gaps = _words_at(data, np.concatenate(([0], closes + 1)), np.append(opens, raw.size))
    strings = _words_at(data, opens + 1, closes)
    if gaps is None or strings is None or gaps[0] != _OPEN or gaps[-1] != _END:
        return False
    before, after = gaps[:-1], gaps[1:]  # the gaps around each string
    label = (before == _MENU) | (before == _SEP)
    pick = before == _COLON
    fits = (
        ((before == _OPEN) | (before == _NEXT)) & (strings == _MENU_KEY) & (after == _MENU)
        | label & ((after == _SEP) | (after == _CLOSE))
        | (before == _CLOSE) & (strings == _CHOICE_KEY) & (after == _COLON)
        | pick & ((after == _NEXT) | (after == _END))
    )
    tokens = label | pick
    return bool(fits.all()) and _pack_words(packer, strings[tokens], np.flatnonzero(pick[tokens]))


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
#: (``python -u``) makes one system call per group, not per line; the
#: dataset writers also render their rows this many at a time.
_PIECES_PER_WRITE = 256


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
