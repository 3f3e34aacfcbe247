"""End-to-end CLI behavior: commands, formats, exit codes."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import harmchoice
from harmchoice import GroundSet, LinearOrder, UniformIndexPolicy, generate_harmful, rational_choice
from harmchoice.cli import LoadedDataset, _alt, _menu_from_labels, load_dataset, main
from harmchoice.core import menu_order
from harmchoice.errors import GroundSetTooLarge, HarmchoiceError, ParseError, RowError
from conftest import random_choice
from test_core import rowwise_validate

CYCLE3 = {
    "alternatives": ["x", "y", "z"],
    "choices": [
        {"menu": ["x", "y", "z"], "choice": "x"},
        {"menu": ["x", "y"], "choice": "y"},
        {"menu": ["y", "z"], "choice": "z"},
        {"menu": ["x", "z"], "choice": "x"},
    ],
}

ERRATIC4 = {
    "alternatives": ["w", "x", "y", "z"],
    "choices": [
        {"menu": ["w", "x", "y", "z"], "choice": "w"},
        {"menu": ["w", "x", "y"], "choice": "x"},
        {"menu": ["w", "x", "z"], "choice": "z"},
        {"menu": ["w", "y", "z"], "choice": "y"},
        {"menu": ["x", "y", "z"], "choice": "x"},
        {"menu": ["w", "x"], "choice": "w"},
        {"menu": ["w", "y"], "choice": "w"},
        {"menu": ["w", "z"], "choice": "w"},
        {"menu": ["x", "y"], "choice": "y"},
        {"menu": ["x", "z"], "choice": "x"},
        {"menu": ["y", "z"], "choice": "z"},
    ],
}


@pytest.fixture
def cycle3_file(tmp_path):
    path = tmp_path / "cycle3.json"
    path.write_text(json.dumps(CYCLE3))
    return str(path)


@pytest.fixture
def erratic4_file(tmp_path):
    path = tmp_path / "erratic4.json"
    path.write_text(json.dumps(ERRATIC4))
    return str(path)


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestAnalysis:
    def test_sp_cycle3(self, capsys, cycle3_file):
        code, payload = run_json(capsys, ["sp", cycle3_file])
        assert code == 0
        assert payload["sp"]["sp"] == 1
        assert payload["sp"]["method"] == "both"

    def test_sp_flags(self, capsys, cycle3_file):
        code, payload = run_json(capsys, ["sp", cycle3_file, "--brute"])
        assert code == 0 and payload["sp"]["method"] == "bruteforce"
        code, payload = run_json(capsys, ["sp", cycle3_file, "--axiomatic"])
        assert code == 0 and payload["sp"]["method"] == "axiomatic"

    def test_analyze_erratic4(self, capsys, erratic4_file):
        code, payload = run_json(capsys, ["analyze", erratic4_file])
        assert code == 0
        assert payload["sp"]["sp"] == 3
        assert payload["warp"] is False
        assert payload["inconsistent"] is True
        # every pair shows up among the reversal picks
        pairs = {
            frozenset((r["pick_a"], r["pick_b"])) for r in payload["reversals"]
        }
        assert len(pairs) == 6

    def test_analyze_reports_singleton_warnings(self, capsys, cycle3_file):
        code, payload = run_json(capsys, ["analyze", cycle3_file])
        assert code == 0
        assert len(payload["warnings"]) == 3

    def test_analyze_byte_identical_reruns(self, capsys, cycle3_file):
        main(["analyze", cycle3_file, "--format", "json"])
        first = capsys.readouterr().out
        main(["analyze", cycle3_file, "--format", "json"])
        second = capsys.readouterr().out
        assert first == second

    def test_analyze_worker_count_invariant(self, capsys, erratic4_file):
        outputs = []
        for w in ("1", "2", "8"):
            main(["analyze", erratic4_file, "--format", "json", "--workers", w])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_elicit_cycle3(self, capsys, cycle3_file):
        code, payload = run_json(capsys, ["elicit", cycle3_file])
        assert code == 0
        assert payload["elicited_orders"] == [["x", "z", "y"], ["y", "x", "z"]]
        assert payload["partial_order"] == [["x", "y"], ["x", "z"], ["z", "y"]]

    def test_warp_and_reversals(self, capsys, cycle3_file):
        code, payload = run_json(capsys, ["warp", cycle3_file])
        assert code == 0 and payload["warp"] is False
        code, payload = run_json(capsys, ["reversals", cycle3_file])
        assert code == 0 and payload["count"] == 1

    def test_report_round_trips(self, capsys, cycle3_file):
        _, payload = run_json(capsys, ["analyze", cycle3_file])
        assert json.loads(json.dumps(payload)) == payload


class TestGenerators:
    def test_distort(self, capsys):
        code, payload = run_json(
            capsys, ["distort", "--order", "h,mh,ml,l", "--index", "2"]
        )
        assert code == 0
        assert payload["distorted"] == ["ml", "l", "mh", "h"]

    def test_distort_text(self, capsys):
        code = main(["distort", "--order", "h,mh,ml,l", "--index", "2"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "ml,l,mh,h"

    def test_census(self, capsys):
        code, payload = run_json(capsys, ["census", "--n", "3"])
        assert code == 0
        assert payload["total"] == 24
        assert payload["counts_by_sp"] == {"0": 6, "1": 18, "2": 0}

    def test_sample_census_deterministic(self, capsys):
        outputs = []
        for _ in range(2):
            main(
                ["sample-census", "--n", "4", "--samples", "3000", "--seed", "11",
                 "--format", "json"]
            )
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_generate_pipes_into_sp_within_cap(self, capsys, tmp_path):
        code = main(
            ["generate", "--order", "a,b,c,d", "--policy", "uniform:2",
             "--seed", "5", "--format", "json"]
        )
        assert code == 0
        dataset = capsys.readouterr().out
        path = tmp_path / "generated.json"
        path.write_text(dataset)
        code, payload = run_json(capsys, ["sp", str(path)])
        assert code == 0
        assert payload["sp"]["sp"] <= 2

    def test_generate_map_policy(self, capsys, tmp_path):
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"0,5": 1, "0,20": 1, "5,20": 1}))
        code = main(
            ["generate", "--order", "0,5,20", "--policy", f"map:{policy}",
             "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        rows = {tuple(c["menu"]): c["choice"] for c in payload["choices"]}
        assert rows[("0", "5")] == "5"
        assert rows[("0", "5", "20")] == "0"

    def test_construct_inconsistent_pipes(self, capsys, tmp_path):
        code = main(["construct-inconsistent", "--k", "2", "--format", "json"])
        assert code == 0
        path = tmp_path / "inconsistent.json"
        path.write_text(capsys.readouterr().out)
        code, payload = run_json(capsys, ["analyze", str(path)])
        assert code == 0
        assert payload["sp"]["sp"] == 3

    @pytest.mark.parametrize(
        "argv, lines_read",
        [
            # far more output than a pipe holds: the write in the command fails
            (["generate", "--order", ",".join(f"a{i}" for i in range(14)),
              "--policy", "uniform:3", "--format", "json"], 1),
            # output that stays buffered until the command is done
            (["distort", "--order", "a,b,c", "--index", "1"], 0),
        ],
    )
    def test_closed_pipe_is_silent_exit_1(self, argv, lines_read):
        """A reader that closes early, as `| head -1` does, ends the run with
        exit 1 and nothing on stderr."""
        env = dict(os.environ, PYTHONPATH=str(Path(harmchoice.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "harmchoice.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        for _ in range(lines_read):
            proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
        assert proc.stderr.read() == b""
        proc.stderr.close()


class TestDatasetHandling:
    def test_text_format(self, capsys, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("x,y,z -> x\nx,y -> y\ny,z -> z\nx,z -> x\n")
        code, payload = run_json(capsys, ["sp", str(path)])
        assert code == 0 and payload["sp"]["sp"] == 1

    def test_text_format_header_pins_order(self, capsys, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("alternatives: z, y, x\nx,y,z -> x\nx,y -> y\ny,z -> z\nx,z -> x\n")
        code, payload = run_json(capsys, ["analyze", str(path)])
        assert code == 0
        assert payload["dataset"]["alternatives"] == ["z", "y", "x"]

    def test_missing_file_is_exit_1(self, capsys, tmp_path):
        code = main(["sp", str(tmp_path / "nope.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_duplicate_menu_reports_both_rows(self, capsys, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("a,b -> a\na,b -> b\n")
        code = main(["warp", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "line 2" in err

    def test_pick_outside_menu_is_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "alternatives": ["x", "y", "z"],
            "choices": [{"menu": ["x", "y"], "choice": "z"}],
        }))
        assert main(["warp", str(path)]) == 1

    def test_missing_menu_is_exit_1(self, capsys, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({
            "alternatives": ["x", "y", "z"],
            "choices": [{"menu": ["x", "y", "z"], "choice": "x"}],
        }))
        code = main(["warp", str(path)])
        assert code == 1
        assert "missing" in capsys.readouterr().err

    def test_usage_errors_are_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["census", "--n", "9"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["nonsense"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--order=--", "--policy", "fixed:0"],
            ["distort", "--order=--", "--index", "0"],
            ["generate", "--order=a,,b", "--policy", "fixed:0"],
        ],
    )
    def test_malformed_order_is_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--order must be a comma-separated list" in capsys.readouterr().err

    def test_workers_env_overrides_flag(self, capsys, monkeypatch, cycle3_file):
        monkeypatch.setenv("HARMCHOICE_WORKERS", "2")
        code, payload = run_json(capsys, ["sp", cycle3_file, "--workers", "1"])
        assert code == 0 and payload["sp"]["sp"] == 1

    def test_bad_workers_env_is_exit_1(self, capsys, monkeypatch, cycle3_file):
        monkeypatch.setenv("HARMCHOICE_WORKERS", "many")
        assert main(["sp", cycle3_file]) == 1
        assert "HARMCHOICE_WORKERS" in capsys.readouterr().err


def text_writable(label):
    """Labels that the text reader reads back unchanged."""
    return (
        "," not in label
        and "->" not in label
        and label.splitlines() == [label]
        and not label.startswith("#")
        and label.strip() == label
    )


LABEL_CHARS = st.one_of(
    st.sampled_from(list("ab-># :{}\"'\\\t\u00a0")),
    st.characters(blacklist_categories=("Cs",)),
)


class TestTextLabels:
    @pytest.mark.parametrize("label", ["a->b", "#a", "a\nb", "a\rb", "a\u2028b"])
    def test_text_writer_refuses_label(self, capsys, label):
        argv = ["generate", "--order", f"{label},c,d", "--policy", "fixed:1"]
        assert main(argv + ["--format", "text"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"label {label!r} cannot be written as text" in captured.err
        assert main(argv + ["--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["alternatives"] == [label, "c", "d"]

    @pytest.mark.parametrize("label", ["a,b", " a", "a\t", "\u00a0a"])
    def test_text_writer_refuses_label_outside_order_syntax(self, label):
        ds = LoadedDataset(GroundSet((label, "c")), rational_choice(LinearOrder((0, 1))))
        with pytest.raises(ValueError, match="cannot be written as text"):
            ds.to_text()
        assert ds.to_dict()["alternatives"] == [label, "c"]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.text(LABEL_CHARS, min_size=1, max_size=5).filter(text_writable),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_json_text_json_round_trip(self, tmp_path_factory, labels, seed):
        n = len(labels)
        choice = generate_harmful(LinearOrder(tuple(range(n))), UniformIndexPolicy(n - 1), seed=seed)
        written = json.dumps(LoadedDataset(GroundSet(tuple(labels)), choice).to_dict(), indent=2)
        tmp = tmp_path_factory.mktemp("labels")
        path = tmp / "out.json"
        path.write_text(written, encoding="utf-8")
        first = load_dataset(str(path))
        assert first.ground.labels == tuple(labels) and first.choice == choice
        path = tmp / "out.txt"
        path.write_text("\n".join(first.to_text()) + "\n", encoding="utf-8")
        second = load_dataset(str(path))
        assert second.ground == first.ground and second.choice == choice
        assert json.dumps(second.to_dict(), indent=2) == written


# ---------------------------------------------------------------------------
# the row-by-row loader that load_dataset replaced, kept as its oracle


def rowwise_load(path):
    """Oracle: parse one row at a time into Menu rows, then validate them
    with the row loop; returns what load_dataset returns."""
    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        ground, rows, refs = rowwise_parse_json(text)
    else:
        ground, rows, refs = rowwise_parse_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            choice = rowwise_validate(rows, ground)
        except RowError as exc:
            raise exc.at(refs) from None
    return LoadedDataset(ground, choice, tuple(str(w.message) for w in caught))


def rowwise_parse_json(text):
    obj = json.loads(text)
    labels = obj.get("alternatives")
    try:
        ground = GroundSet(tuple(str(lab) for lab in labels))
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    rows, refs = [], []
    for i, entry in enumerate(obj.get("choices")):
        ref = f"choices[{i}]"
        if not isinstance(entry, dict) or "menu" not in entry or "choice" not in entry:
            raise ParseError(f'{ref}: expected an object with "menu" and "choice"')
        menu_labels = entry["menu"]
        if not isinstance(menu_labels, list) or not menu_labels:
            raise ParseError(f"{ref}: menu must be a nonempty label list")
        rows.append((_menu_from_labels(ground, menu_labels, ref), _alt(ground, entry["choice"], ref)))
        refs.append(ref)
    return ground, rows, refs


def rowwise_parse_text(text):
    header = None
    body = []
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


def load_outcome(load, path):
    """("ok", ground, choice, warnings) or ("error", type, message)."""
    try:
        ds = load(str(path))
    except (HarmchoiceError, ValueError) as exc:
        return ("error", type(exc), str(exc))
    return ("ok", ds.ground, ds.choice, ds.warnings)


def json_rows(rows, alternatives=("x", "y", "z")):
    """A JSON dataset: a (menu, pick) tuple is a row, anything else is
    written as the entry itself."""
    return json.dumps({
        "alternatives": list(alternatives),
        "choices": [{"menu": r[0], "choice": r[1]} if isinstance(r, tuple) else r for r in rows],
    })


def text_rows(lines, header="x, y, z"):
    return "\n".join(([f"alternatives: {header}"] if header else []) + lines) + "\n"


#: a complete CYCLE3-like row set, then variations with one or two faults
GOOD = [(["x", "y", "z"], "x"), (["x", "y"], "y"), (["y", "z"], "z"), (["x", "z"], "x")]
GOOD_TEXT = ["x,y,z -> x", "x,y -> y", "y,z -> z", "x,z -> x"]

JSON_CASES = {
    "valid": json_rows(GOOD),
    "unknown menu label": json_rows([GOOD[0], (["x", "q"], "x"), *GOOD[2:]]),
    "unknown pick": json_rows([GOOD[0], (["x", "y"], "q"), *GOOD[2:]]),
    "repeated label": json_rows([GOOD[0], (["x", "x"], "x"), *GOOD[2:]]),
    "empty menu": json_rows([GOOD[0], ([], "x"), *GOOD[2:]]),
    "empty menu last": json_rows([*GOOD, ([], "x")]),
    "empty menu before unknown label": json_rows([GOOD[0], ([], "x"), (["q", "z"], "z"), GOOD[3]]),
    "string entry": json_rows([GOOD[0], "x,y -> x", *GOOD[2:]]),
    "list entry": json_rows([GOOD[0], ["x", "y"], *GOOD[2:]]),
    "string menu": json_rows([GOOD[0], {"menu": "xy", "choice": "x"}, *GOOD[2:]]),
    "missing menu key": json_rows([GOOD[0], {"choice": "x"}, *GOOD[2:]]),
    "missing choice key": json_rows([GOOD[0], {"menu": ["x", "y"]}, *GOOD[2:]]),
    "pick outside menu": json_rows([GOOD[0], (["x", "y"], "z"), *GOOD[2:]]),
    "duplicate menu": json_rows([*GOOD, (["y", "x"], "x")]),
    "duplicate first in file": json_rows([(["z", "x"], "z"), *GOOD]),
    "two faults, parse first": json_rows([GOOD[0], (["x", "q"], "x"), (["y", "z"], "q"), GOOD[3]]),
    "two faults, shape first": json_rows([GOOD[0], {"menu": []}, (["x", "q"], "x"), GOOD[3]]),
    "pick fault before parse fault": json_rows([GOOD[0], (["x", "y"], "z"), (["y", "q"], "y"), GOOD[3]]),
    "duplicate before pick fault": json_rows([*GOOD, (["x", "y"], "x"), (["y", "z"], "x")]),
    "missing menus": json_rows([GOOD[0]]),
    "no rows": json_rows([]),
    "absent singleton": json_rows([*GOOD, (["y"], "y")]),
    "number labels": json.dumps({
        "alternatives": ["1", "2"],
        "choices": [{"menu": [1, "2"], "choice": 1}, {"menu": ["1"], "choice": "1"}],
    }),
    "number label unknown": json.dumps({
        "alternatives": ["1", "2"],
        "choices": [{"menu": [1.0, "2"], "choice": 1}],
    }),
    "unhashable label": json.dumps({
        "alternatives": ["x", "y"],
        "choices": [{"menu": ["x", ["y"]], "choice": "x"}],
    }),
    "oversized ground set": json.dumps({
        "alternatives": [f"a{i}" for i in range(21)],
        "choices": [{"menu": ["a0", "a1"], "choice": "a0"}],
    }),
}

TEXT_CASES = {
    "valid": text_rows(GOOD_TEXT, header=None),
    "valid with header, comments and blanks": "# c\n\nalternatives: z, y, x\n" + "\n# c\n".join(GOOD_TEXT),
    "spaced labels": text_rows([" x , y ,z->  x", "x,y -> y", "y,z -> z", "x,z -> x"], header=None),
    "unknown menu label": text_rows([GOOD_TEXT[0], "x,q -> x", *GOOD_TEXT[2:]]),
    "unknown pick": text_rows([GOOD_TEXT[0], "x,y -> q", *GOOD_TEXT[2:]]),
    "repeated label": text_rows([GOOD_TEXT[0], "x,x -> x", *GOOD_TEXT[2:]]),
    "empty label": text_rows([GOOD_TEXT[0], "x,,y -> x", *GOOD_TEXT[2:]]),
    "empty menu": text_rows([GOOD_TEXT[0], " -> x", *GOOD_TEXT[2:]]),
    "empty pick": text_rows([GOOD_TEXT[0], "x,y ->", *GOOD_TEXT[2:]]),
    "no arrow": text_rows([GOOD_TEXT[0], "x,y", *GOOD_TEXT[2:]]),
    "pick outside menu": text_rows([GOOD_TEXT[0], "x,y -> z", *GOOD_TEXT[2:]]),
    "duplicate menu": text_rows([*GOOD_TEXT, "y,x -> x"]),
    "two faults, label first": text_rows([GOOD_TEXT[0], "x,q -> x", "y,z -> q", GOOD_TEXT[3]]),
    "syntax fault after label fault": text_rows([GOOD_TEXT[0], "x,q -> x", "y,z", GOOD_TEXT[3]]),
    "empty label after no arrow": text_rows([GOOD_TEXT[0], "x,y", "y,,z -> z", GOOD_TEXT[3]]),
    "no arrow after empty label": text_rows([GOOD_TEXT[0], "x,,y -> x", "y,z", GOOD_TEXT[3]]),
    "pick fault before label fault": text_rows([GOOD_TEXT[0], "x,y -> z", "y,q -> y", GOOD_TEXT[3]]),
    "missing menus": text_rows(GOOD_TEXT[:1]),
    "absent singleton": text_rows([*GOOD_TEXT, "y -> y"]),
    "second header is a row": text_rows([*GOOD_TEXT, "alternatives: x, y"]),
    "only a header": "alternatives: x, y\n",
    "duplicate header label": text_rows(GOOD_TEXT, header="x, y, x"),
}


def assert_same_outcome(path):
    got = load_outcome(load_dataset, path)
    want = load_outcome(rowwise_load, path)
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        assert got[1] == want[1] and got[2] == want[2] and got[3] == want[3]
    else:
        assert got == want


class TestLoaderMatchesRowLoop:
    """load_dataset raises the same error, or builds the same choice with the
    same warnings, as the row-by-row loader it replaced."""

    @pytest.mark.parametrize("case", sorted(JSON_CASES))
    def test_json(self, tmp_path, case):
        path = tmp_path / "data.json"
        path.write_text(JSON_CASES[case], encoding="utf-8")
        assert_same_outcome(path)

    @pytest.mark.parametrize("case", sorted(TEXT_CASES))
    def test_text(self, tmp_path, case):
        path = tmp_path / "data.txt"
        path.write_text(TEXT_CASES[case], encoding="utf-8")
        assert_same_outcome(path)

    def test_cases_cover_each_outcome(self, tmp_path):
        messages = []
        for cases, suffix in ((JSON_CASES, "json"), (TEXT_CASES, "txt")):
            for case, text in cases.items():
                path = tmp_path / f"{len(messages)}.{suffix}"
                path.write_text(text, encoding="utf-8")
                got = load_outcome(load_dataset, path)
                messages.append(got[2] if got[0] == "error" else " ".join(got[3]) or "ok")
        for expected in (
            "choices[1]: unknown alternative 'q'",
            "choices[1]: menu repeats an alternative",
            "choices[1]: menu must be a nonempty label list",
            'choices[1]: expected an object with "menu" and "choice"',
            "choices[1]: pick 'z' is not a member of its menu",
            "menu {x, z} appears at both choices[0] and choices[4]",
            "menu {x, y} appears at both choices[1] and choices[4]",
            "dataset is missing",
            "singleton menu {x} was absent",
            "choices[0]: unknown alternative 1.0",
            "choices[0]: unknown alternative ['y']",
            "capped at n <= 20",
            "line 3: unknown alternative 'q'",
            "line 3: empty label",
            "line 3: expected 'a,b,c -> a'",
            "line 4: expected 'a,b,c -> a'",
            "menu {x, y} appears at both line 3 and line 6",
        ):
            assert any(expected in m for m in messages), expected

    def test_size_cap_comes_before_rows(self, tmp_path):
        """Deliberate difference: the n <= MAX_ENUM_N cap is checked before
        any row is read, so an oversized ground set is refused even when a
        row is also faulty (the row loop reported the row)."""
        text = json.dumps({
            "alternatives": [f"a{i}" for i in range(21)],
            "choices": [{"menu": ["a0", "q"], "choice": "a0"}],
        })
        path = tmp_path / "big.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(GroundSetTooLarge, match="capped at n <= 20, got n = 21"):
            load_dataset(str(path))
        with pytest.raises(ParseError, match="unknown alternative 'q'"):
            rowwise_load(str(path))

    def test_seeded_random_faults(self, tmp_path):
        """Mutated datasets at n = 2..4 in both formats: dropped, repeated,
        reordered and corrupted rows."""
        rng = np.random.default_rng(5)
        labels = ("w", "x", "y", "z")
        for trial in range(150):
            n = int(rng.integers(2, 5))
            choice = random_choice(rng, n)
            rows = []
            for mask in menu_order(n).tolist():
                members = [labels[e] for e in range(n) if (mask >> e) & 1]
                rows.append([list(rng.permutation(members)), labels[choice.pick_mask(mask)]])
            for _ in range(int(rng.integers(0, 3))):
                i = int(rng.integers(len(rows)))
                kind = int(rng.integers(7))
                if kind == 0:
                    rows.pop(i)
                elif kind == 1:
                    rows.insert(int(rng.integers(len(rows))), [list(rows[i][0]), rows[i][1]])
                elif kind == 2:
                    rows[i][1] = labels[int(rng.integers(n))]
                elif kind == 3:
                    rows[i][0] = rows[i][0] + ["q"]
                elif kind == 4:
                    rows[i][0] = rows[i][0] + rows[i][0][:1]
                elif kind == 5:
                    rows[i][1] = "q"
                elif kind == 6 and len(rows) > 1:
                    rows[i], rows[-1] = rows[-1], rows[i]
                if not rows:
                    rows.append([["w"], "w"])
            json_path = tmp_path / f"{trial}.json"
            json_path.write_text(json_rows([tuple(row) for row in rows], labels[:n]), encoding="utf-8")
            assert_same_outcome(json_path)
            text_path = tmp_path / f"{trial}.txt"
            header = ", ".join(labels[:n]) if trial % 2 else None
            text_path.write_text(
                text_rows([f"{','.join(m)} -> {p}" for m, p in rows], header), encoding="utf-8"
            )
            assert_same_outcome(text_path)


def items_writer(ds):
    """Oracle: the dataset writers as they were, one Menu per row."""
    g = ds.ground
    rows = list(ds.choice.items())
    as_dict = {
        "version": 1,
        "alternatives": list(g.labels),
        "choices": [{"menu": m.label_list(g), "choice": g.label(p)} for m, p in rows],
    }
    lines = [f"alternatives: {', '.join(g.labels)}"]
    lines.extend(f"{','.join(m.label_list(g))} -> {g.label(p)}" for m, p in rows)
    return as_dict, lines


def test_generate_load_write_round_trip_n12(capsys, tmp_path):
    """generate -> load -> write at n = 12 gives the same choice and the same
    bytes in both formats, and the writers match the one-Menu-per-row ones."""
    order = ",".join(f"a{i}" for i in range(12))
    written = {}
    for fmt in ("json", "text"):
        argv = ["generate", "--order", order, "--policy", "uniform:5", "--seed", "11", "--format", fmt]
        assert main(argv) == 0
        written[fmt] = capsys.readouterr().out
    loaded = {}
    for fmt, suffix in (("json", "json"), ("text", "txt")):
        path = tmp_path / f"gen.{suffix}"
        path.write_text(written[fmt], encoding="utf-8")
        loaded[fmt] = load_dataset(str(path))
        assert loaded[fmt].warnings == ()
    ds = loaded["json"]
    assert ds.ground == loaded["text"].ground and ds.choice == loaded["text"].choice
    assert ds.choice == generate_harmful(
        LinearOrder(tuple(range(12))), UniformIndexPolicy(5), seed=11
    )
    for fmt in ("json", "text"):
        again = loaded[fmt]
        assert json.dumps(again.to_dict(), indent=2) + "\n" == written["json"]
        assert "\n".join(again.to_text()) + "\n" == written["text"]
    as_dict, lines = items_writer(ds)
    assert ds.to_dict() == as_dict and ds.to_text() == lines
