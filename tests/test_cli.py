"""End-to-end CLI behavior: commands, formats, exit codes."""

import argparse
import codecs
import gc
import io
import itertools
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import harmchoice
from harmchoice import (
    FixedIndexPolicy,
    GroundSet,
    LinearOrder,
    Menu,
    UniformIndexPolicy,
    generate_harmful,
    rational_choice,
    sp,
)
from harmchoice import census, cli
from harmchoice.census import _sample_chunk
from harmchoice.cli import LoadedDataset, _alt, _menu_from_labels, load_dataset, main
from harmchoice.core import menu_order, move_bits
from harmchoice.errors import GroundSetTooLarge, HarmchoiceError, ParseError, RowError
from conftest import dataset_dict, random_choice
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


def _stdin(data: bytes, **text_settings) -> io.TextIOWrapper:
    """A stand-in for ``sys.stdin`` whose text layer reads ``data``."""
    return io.TextIOWrapper(io.BytesIO(data), **text_settings)


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

    @pytest.mark.parametrize("n", range(2, 8))
    def test_elicitation_lists_every_order(self, n):
        """At degree 1 there is one order per constantly selected item, at
        most two; at degree >= 2 the partial order is total, so exactly one.
        The reported count is the length of the list."""
        order = LinearOrder(tuple(range(n)))
        ground = GroundSet(tuple(map(str, range(n))))
        for policy in [FixedIndexPolicy(k) for k in range(n)] + [UniformIndexPolicy(k) for k in range(n)]:
            for seed in range(4):
                choice = generate_harmful(order, policy, seed=seed)
                report = sp(choice)
                found = cli.build_elicitation(choice, report)
                if report.sp == 0:
                    assert found.orders == ()
                elif report.sp == 1:
                    assert 1 <= len(found.orders) <= 2
                else:
                    (only,) = found.orders
                    assert set(found.partial_pairs) == set(itertools.combinations(only.ranking, 2))
                assert found.to_dict(ground)["elicited_order_count"] == len(found.orders)

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

    def test_census_help_names_the_cap(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["census", "--help"])
        assert exc.value.code == 0
        assert f"ground-set size (2..{cli.MAX_EXACT_CENSUS_N})" in capsys.readouterr().out

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

    @pytest.mark.parametrize("value", [None, 1.7, True, "1", [1]])
    def test_generate_map_policy_rejects_non_integer_index(self, capsys, tmp_path, value):
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"0,5": 1, "5,20": value}))
        code = main(["generate", "--order", "0,5,20", "--policy", f"map:{policy}"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "policy key '5,20': index must be a JSON integer" in captured.err
        assert "Traceback" not in captured.err

    def test_generate_map_policy_byte_order_mark(self, capsys, tmp_path):
        plain, marked = tmp_path / "policy.json", tmp_path / "bom-policy.json"
        text = json.dumps({"0,5": 1, "0,5,20": 2})
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        outputs = []
        for path in (plain, marked):
            assert main(["generate", "--order", "0,5,20", "--policy", f"map:{path}"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("keys", [("a,b", "b,a"), ("b,a", " a , b ")])
    def test_generate_map_policy_rejects_a_menu_named_twice(self, capsys, tmp_path, keys):
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({keys[0]: 1, "a,c": 0, keys[1]: 0}))
        assert main(["generate", "--order", "a,b,c", "--policy", f"map:{policy}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: policy keys {keys[0]!r} and {keys[1]!r} name the same menu\n"

    def test_sample_census_draw_cap_is_exit_1(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("chunks were built")

        monkeypatch.setattr(census, "index_chunks", refuse)
        assert main(["sample-census", "--n", "16", "--samples", str(10**12)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: sampled census would draw {10**12 * 65535} menu picks,"
            f" past its cap of {census.MAX_SAMPLE_DRAWS}\n"
        )

    def test_generate_map_policy_nested_too_deep_is_exit_1(self, capsys, tmp_path):
        policy = tmp_path / "policy.json"
        policy.write_text('{"0,5":' + "[" * 200_000)
        code = main(["generate", "--order", "0,5,20", "--policy", f"map:{policy}"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: invalid policy map JSON: maximum recursion depth")

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


#: entries that the packed JSON reader reads, with a label that no header lists
FAULTY_ROWS = [{"menu": ["x", "q"], "choice": "q"}]


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

    def test_json_nested_too_deep_is_exit_1(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"alternatives": ["a", "b"], "choices": ' + "[" * 200_000)
        assert main(["sp", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: invalid JSON: maximum recursion depth")

    @pytest.mark.parametrize(
        "name, text",
        [
            ("cycle3.json", json.dumps(CYCLE3)),
            ("cycle3.txt", "x,y,z -> x\nx,y -> y\ny,z -> z\nx,z -> x\n"),
        ],
        ids=["json", "text"],
    )
    def test_byte_order_mark_is_dropped(self, monkeypatch, tmp_path, name, text):
        """A leading UTF-8 byte-order mark, as some editors write, is not
        part of the dataset, in a file or on stdin."""
        plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        expected = load_dataset(str(plain))
        assert load_dataset(str(marked)) == expected
        monkeypatch.setattr(sys, "stdin", _stdin(marked.read_bytes()))
        assert load_dataset("-") == expected

    def test_usage_errors_are_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["census", "--n", "9"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["nonsense"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("workers", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "DATASET"],
            ["sp", "DATASET"],
            ["elicit", "DATASET"],
            ["census", "--n", "3"],
            ["sample-census", "--n", "3", "--samples", "10"],
        ],
    )
    def test_workers_below_1_is_exit_2(self, capsys, cycle3_file, argv, workers):
        argv = [cycle3_file if arg == "DATASET" else arg for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--workers", workers])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: harmchoice")
        assert f"argument --workers: must be at least 1, got {workers}" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["census", "--n", "1"], "argument --n: must lie in 2..4, got 1"),
            (["census", "--n", "5"], "argument --n: must lie in 2..4, got 5"),
            (["census", "--n", "x"], "argument --n: invalid int value: 'x'"),
            (["sample-census", "--n", "1", "--samples", "10"],
             "argument --n: must be at least 2, got 1"),
            (["sample-census", "--n", "3", "--samples", "0"],
             "argument --samples: must be at least 1, got 0"),
            (["sample-census", "--n", "3", "--samples", "1.5"],
             "argument --samples: invalid int value: '1.5'"),
            (["construct-inconsistent", "--k", "1"], "argument --k: must be at least 2, got 1"),
            (["construct-inconsistent", "--k", "-2"], "argument --k: must be at least 2, got -2"),
        ],
    )
    def test_integer_option_out_of_range_is_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: harmchoice")
        assert message in err

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 1), str(-(2**64 - 1))])
    @pytest.mark.parametrize(
        "argv",
        [
            ["sample-census", "--n", "6", "--samples", "20"],
            ["generate", "--order", "a,b,c", "--policy", "uniform:2"],
        ],
    )
    def test_seed_outside_64_bits_is_exit_2(self, capsys, argv, seed):
        """Such a seed once keyed the generator modulo 2**64, so it drew
        what a seed in range drew while the report echoed it unchanged."""
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--seed={seed}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: harmchoice")
        assert f"argument --seed: must lie in 0..18446744073709551615, got {seed}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample-census", "--n", "6", "--samples", "20"],
            ["generate", "--order", "a,b,c", "--policy", "uniform:2"],
        ],
    )
    def test_seed_range_ends_are_accepted(self, capsys, argv):
        outs = []
        for seed in ("0", str(2**64 - 1)):
            assert main([*argv, "--seed", seed]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] != outs[1]

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

    def test_stdin_is_read_as_utf8(self, monkeypatch, tmp_path):
        """stdin is decoded from its bytes as UTF-8, whatever encoding its
        text layer was set up with, so it loads as the same file does."""
        path = tmp_path / "accents.txt"
        path.write_text("b,\u00e9 -> \u00e9\n", encoding="utf-8")
        expected = load_dataset(str(path))
        assert expected.ground.labels == ("b", "\u00e9")
        monkeypatch.setattr(sys, "stdin", _stdin(path.read_bytes(), encoding="latin-1"))
        assert load_dataset("-") == expected

    @pytest.mark.parametrize("name", ["bad.txt", "bad.json"])
    def test_invalid_utf8_on_stdin_is_the_file_error(self, capsys, monkeypatch, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(
            b"a,b -> \xff\n" if name.endswith(".txt")
            else b'{"alternatives": ["a", "b"], "choices": [{"menu": ["a", "b"], "choice": "\xff"}]}'
        )
        assert main(["warp", str(path)]) == 1
        from_file = capsys.readouterr()
        assert from_file.out == ""
        assert from_file.err.startswith("error: 'utf-8' codec can't decode byte 0xff")
        # a stdin in the C locale turns the byte into a lone surrogate
        monkeypatch.setattr(sys, "stdin", _stdin(path.read_bytes(), errors="surrogateescape"))
        assert main(["warp", "-"]) == 1
        assert capsys.readouterr() == from_file

    @pytest.mark.parametrize("version", ["true", "1.0", '"1"', "2"])
    def test_version_must_be_the_integer_1(self, capsys, tmp_path, version):
        path = tmp_path / "data.json"
        path.write_text(json.dumps(CYCLE3)[:-1] + f', "version": {version}}}')
        assert main(["warp", str(path)]) == 1
        shown = repr(json.loads(version))
        assert capsys.readouterr().err == f"error: unsupported dataset version {shown}\n"

    @pytest.mark.parametrize("where", ["pick", "version", "policy value", "policy key"])
    def test_echoed_values_are_cut_short(self, capsys, tmp_path, where):
        """An error message shows about 80 characters of a huge input value,
        not megabytes."""
        big = list(range(300_000))
        path = tmp_path / "input.json"
        if where.startswith("policy"):
            policy = {"a,b": big} if where == "policy value" else {",".join(map(str, big)): 0}
            path.write_text(json.dumps(policy))
            argv = ["generate", "--order", "a,b", "--policy", f"map:{path}"]
        else:
            entry = {"menu": ["a", "b"], "choice": big if where == "pick" else "a"}
            data = {"alternatives": ["a", "b"], "choices": [entry]}
            if where == "version":
                data["version"] = big
            path.write_text(json.dumps(data))
            argv = ["warp", str(path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert len(captured.err.encode()) < 1024 and "..." in captured.err

    @pytest.mark.parametrize("where", ["pick", "duplicate menu", "missing menus", "text writer"])
    def test_long_labels_are_cut_short(self, capsys, tmp_path, where):
        """An error message that names a menu or a pick shows about 80
        characters of a huge label, not the whole label."""
        label = "x" * 300_000
        rows = {
            "pick": [(["b"], label)],
            "duplicate menu": [([label, "b"], label), (["b", label], "b")],
            "missing menus": [(["b", "c"], "b"), ([label, "b", "c"], "b")],
        }
        if where == "text writer":
            argv = ["generate", "--order", f"#{label[:99_999]},b", "--policy", "fixed:0"]
        else:
            alternatives = [label, "b", "c"] if where == "missing menus" else [label, "b"]
            path = tmp_path / "data.json"
            path.write_text(json_rows(rows[where], alternatives))
            argv = ["warp", str(path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        expected = {
            "pick": "error: choices[0]: pick 'xxx",
            "duplicate menu": "error: menu {xxx",
            "missing menus": "error: dataset is missing 2 menu(s): {xxx",
            "text writer": "error: label '#xxx",
        }[where]
        assert captured.err.startswith(expected) and captured.err.count("\n") == 1
        assert len(captured.err.encode()) < 1024 and "..." in captured.err

    @pytest.mark.parametrize("where", ["choices", "choice", "policy map"])
    def test_repeated_key_is_exit_1(self, capsys, tmp_path, where):
        """A key repeated in one JSON object is refused, not read as its
        last value."""
        path = tmp_path / "input.json"
        if where == "policy map":
            path.write_text('{"a,b": 1, "a,b": 0}')
            argv = ["generate", "--order", "a,b", "--policy", f"map:{path}"]
            expected = "error: invalid policy map JSON: key 'a,b' appears twice in one object\n"
        else:
            text = json.dumps(CYCLE3)
            if where == "choices":
                text = '{"choices": [], ' + text[1:]
            else:
                text = text.replace('"choice": "y"', '"choice": "x", "choice": "y"', 1)
            path.write_text(text)
            argv = ["warp", str(path)]
            expected = f"error: invalid JSON: key {where!r} appears twice in one object\n"
        assert main(argv) == 1
        assert capsys.readouterr() == ("", expected)

    @pytest.mark.parametrize("data, expected", [
        ({"menu": ["x"], "choice": "x"}, 'dataset needs a nonempty "alternatives" list'),
        ({"version": 2, "alternatives": ["x"], "choices": FAULTY_ROWS}, "unsupported dataset version 2"),
        ({"choices": FAULTY_ROWS}, 'dataset needs a nonempty "alternatives" list'),
        ({"alternatives": ["x", "x"], "choices": FAULTY_ROWS}, "labels must be pairwise distinct"),
        ({"alternatives": ["x"], "choices": FAULTY_ROWS[0]}, 'dataset needs a "choices" list'),
        ({"alternatives": [f"a{i}" for i in range(21)], "choices": FAULTY_ROWS}, "capped at n <= 20, got n = 21"),
    ])
    def test_header_faults_come_before_rows(self, capsys, tmp_path, data, expected):
        """Header faults are raised in their order, before any row is read,
        also when every entry is one that the packed reader reads."""
        path = tmp_path / "data.json"
        path.write_text(json.dumps(data))
        assert main(["warp", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert expected in captured.err

    @pytest.mark.parametrize("where", ["choice", "policy map"])
    def test_integer_past_the_digit_limit_is_invalid_json(self, capsys, tmp_path, where):
        """A 5,000-digit integer literal is refused as invalid JSON, without
        the interpreter's advice to raise its digit limit."""
        digits = "9" * 5_000
        path = tmp_path / "input.json"
        if where == "policy map":
            path.write_text('{"a,b": ' + digits + "}")
            argv = ["generate", "--order", "a,b", "--policy", f"map:{path}"]
            what = "invalid policy map JSON"
        else:
            path.write_text(json.dumps(CYCLE3).replace('"choice": "y"', '"choice": ' + digits, 1))
            argv = ["warp", str(path)]
            what = "invalid JSON"
        assert main(argv) == 1
        limit = sys.get_int_max_str_digits()
        expected = f"error: {what}: an integer has more than {limit} digits\n"
        assert capsys.readouterr() == ("", expected)


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
        assert ds.json_fields()["alternatives"] == [label, "c"]

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
        written = json.dumps(dataset_dict(LoadedDataset(GroundSet(tuple(labels)), choice)), indent=2)
        tmp = tmp_path_factory.mktemp("labels")
        path = tmp / "out.json"
        path.write_text(written, encoding="utf-8")
        first = load_dataset(str(path))
        assert first.ground.labels == tuple(labels) and first.choice == choice
        path = tmp / "out.txt"
        path.write_text("\n".join(first.to_text()) + "\n", encoding="utf-8")
        second = load_dataset(str(path))
        assert second.ground == first.ground and second.choice == choice
        assert json.dumps(dataset_dict(second), indent=2) == written


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


def refuse_repeated_keys(pairs):
    """Oracle hook: the object of ``pairs``, or the error for the first key
    that appears a second time."""
    for i, (key, _) in enumerate(pairs):
        if key in [k for k, _ in pairs[:i]]:
            raise ParseError(f"invalid JSON: key {key!r} appears twice in one object")
    return dict(pairs)


def rowwise_parse_json(text):
    obj = json.loads(text, object_pairs_hook=refuse_repeated_keys)
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


def every_menu_rows(labels, alternatives=None, **extra):
    """A valid JSON dataset with one entry per menu of ``labels``, each
    picking its first member and holding the keys of ``extra`` besides."""
    menus = [m for k in range(len(labels), 0, -1) for m in itertools.combinations(labels, k)]
    return json.dumps({
        "alternatives": list(labels if alternatives is None else alternatives),
        "choices": [{"menu": list(m), "choice": m[0], **extra} for m in menus],
    })


def object_label_rows(obj):
    """GOOD with ``obj``, a packable entry, in place of the label z, and
    ``str(obj)`` as the alternative that it names."""
    def swap(label):
        return obj if label == "z" else label

    return json_rows([([swap(x) for x in m], swap(p)) for m, p in GOOD], ["x", "y", str(obj)])


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
    "choices before alternatives": json.dumps({
        "choices": [{"menu": m, "choice": p} for m, p in GOOD],
        "alternatives": ["x", "y", "z"],
    }),
    "number and string labels": json.dumps({
        "alternatives": ["1", "x"],
        "choices": [{"menu": [1, "x"], "choice": 1}, {"menu": ["x"], "choice": "x"}, {"menu": [1], "choice": "1"}],
    }),
    "number labels equal as numbers": json.dumps({
        "alternatives": ["1", "2"],
        "choices": [{"menu": [1, "2"], "choice": 1}, {"menu": [1.0], "choice": "1"}],
    }),
    "list pick": json_rows([GOOD[0], (["x", "y"], ["x"]), *GOOD[2:]]),
    "object label": json_rows([GOOD[0], (["x", {"menu": ["y"], "choice": "y"}], "x"), *GOOD[2:]]),
    "duplicate keys": (
        '{"alternatives": ["q"], "alternatives": ["x", "y"], "choices": ['
        '{"menu": ["x"], "menu": ["x", "y"], "choice": "y", "choice": "x"}, {"menu": ["y"], "choice": "y"}]}'
    ),
    # the edges of the packed reader, which reads only {"menu": [str, ...], "choice": str}
    "choice before menu": json.dumps({
        "alternatives": ["x", "y", "z"],
        "choices": [{"choice": p, "menu": m} for m, p in GOOD],
    }),
    "choice before menu, pick outside menu": json.dumps({
        "alternatives": ["x", "y", "z"],
        "choices": [{"choice": p, "menu": m} for m, p in [GOOD[0], (["x", "y"], "z"), *GOOD[2:]]],
    }),
    "entry with a third key": json_rows([GOOD[0], {"menu": ["x", "y"], "choice": "y", "note": 1}, *GOOD[2:]]),
    "packable object as the pick": json_rows([GOOD[0], (["x", "y"], {"menu": ["x"], "choice": "x"}), *GOOD[2:]]),
    "packable object as an extra field": json.dumps({
        "alternatives": ["x", "y", "z"],
        "extra": {"menu": ["x", "y"], "choice": "x"},
        "choices": [{"menu": m, "choice": p} for m, p in GOOD],
    }),
    "packable object as an extra field, an entry with a third key": json.dumps({
        "alternatives": ["x", "y", "z"],
        "extra": {"menu": ["x", "y"], "choice": "x"},
        "choices": [{"menu": m, "choice": p} for m, p in GOOD[:1]]
        + [{"menu": ["x", "y"], "choice": "y", "note": 1}]
        + [{"menu": m, "choice": p} for m, p in GOOD[2:]],
    }),
    "packable object among the alternatives": json.dumps({
        "alternatives": ["x", "y", {"menu": ["x"], "choice": "x"}],
        "choices": [{"menu": m, "choice": p} for m, p in GOOD],
    }),
    "numeric alternatives, string labels": json.dumps({
        "alternatives": [1, 2],
        "choices": [{"menu": ["1", "2"], "choice": "2"}, {"menu": ["1"], "choice": "1"}, {"menu": ["2"], "choice": "2"}],
    }),
    "numeric labels only": json.dumps({
        "alternatives": [1, 2],
        "choices": [{"menu": [1, 2], "choice": 2}, {"menu": [1], "choice": 1}, {"menu": [2], "choice": 2}],
    }),
    "21 labels under a 20-label header": json_rows(
        [([f"a{i}", f"a{i + 1}"], f"a{i}") for i in range(20)], [f"a{i}" for i in range(20)]
    ),
    "a 21st label as a pick under a 20-label header": json_rows(
        [([f"a{i}", f"a{i + 1}"], f"a{i}") for i in range(19)] + [(["a0", "a2"], "a20")],
        [f"a{i}" for i in range(20)],
    ),
    "70 labels in one menu under a 20-label header": json_rows(
        [([f"a{i}" for i in range(70)], "a0")], [f"a{i}" for i in range(20)]
    ),
    "22 labels under a 20-label header, a malformed entry last": json_rows(
        [([f"a{i}", f"a{i + 1}"], f"a{i + 1}") for i in range(21)] + [{"menu": []}],
        [f"a{i}" for i in range(20)],
    ),
    "unknown label before a malformed entry": json_rows([GOOD[0], (["x", "q"], "x"), {"menu": "xy"}, GOOD[3]]),
    "unknown label after a malformed entry": json_rows([GOOD[0], {"menu": "xy"}, (["x", "q"], "x"), GOOD[3]]),
    "empty string label": json_rows([GOOD[0], (["x", ""], "x"), *GOOD[2:]]),
    "list labels that match an alternative as text": json.dumps({
        "alternatives": ["x", "['y']"],
        "choices": [
            {"menu": ["x", ["y"]], "choice": ["y"]},
            {"menu": ["x"], "choice": "x"},
            {"menu": [["y"]], "choice": "['y']"},
        ],
    }),
    "blank lines before the object": "\n\r\n \t\n" + json_rows(GOOD),
    # the edges of the block walker, which reads every valid file
    "a packable object as a label that names an alternative": object_label_rows(
        {"menu": ["x"], "choice": "x"}
    ),
    "a packable object as a label that names an alternative, with q inside": object_label_rows(
        {"menu": ["q"], "choice": "q"}
    ),
    "a packable object in an entry's third key": json_rows(
        [GOOD[0], {"menu": ["x", "y"], "choice": "y", "note": {"menu": ["z"], "choice": "z"}}, *GOOD[2:]]
    ),
    "a refused object in an entry's third key": json_rows(
        [GOOD[0], {"menu": ["x", "y"], "choice": "y", "note": {"menu": ["q", "q"], "choice": "q"}}, *GOOD[2:]]
    ),
    "an object with an empty choice in an entry's third key": json_rows(
        [GOOD[0], {"menu": ["x", "y"], "choice": "y", "note": {"menu": ["q"], "choice": ""}}, *GOOD[2:]]
    ),
    "a refused object in a third key under 20 labels": json_rows(
        [{"menu": ["a0", "a1"], "choice": "a0", "note": {"menu": ["q", "q"], "choice": "q"}}]
        + [([f"a{i}", f"a{i + 1}"], f"a{i}") for i in range(1, 19)],
        [f"a{i}" for i in range(20)],
    ),
    "every entry with a third key": every_menu_rows(["x", "y", "z", "w"], id=7),
    "number labels over many entries": every_menu_rows([1, 2, 3, 4, 5], ["1", "2", "3", "4", "5"]),
    "a multi-digit top-level extra number": json.dumps({
        "alternatives": ["x", "y", "z"],
        "extra": int("1234567890" * 10),
        "choices": [{"menu": m, "choice": p} for m, p in GOOD],
    }),
    "literals and escapes in a top-level extra value": json.dumps({
        "alternatives": ["x", "y", "z"],
        "extra": [True, False, None, -1.5e300, float("-inf"), float("nan"), "\u00e9\U0001f600"],
        "choices": [{"menu": m, "choice": p} for m, p in GOOD],
    }),
    "every label holding '}, {'": every_menu_rows(["a}, {b", "c}, {d", "e}, {f", "g}, {h"]),
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
    "syntax fault blocks after a label fault": text_rows(
        [GOOD_TEXT[0], "x,q -> x", *GOOD_TEXT[2:], "# filler", "", "x,y -> y", "", "y,z"]
    ),
    "no header, a later alternatives line is a row": text_rows([*GOOD_TEXT, "alternatives: x, y"], header=None),
    "no header, new label on the last line": text_rows(["y -> y", "x,y -> x"], header=None),
    "no header, new label on the last line, missing menus": text_rows(
        ["z -> z", "y,z -> y", "y -> y", "x,y,z -> x"], header=None
    ),
    "no header, labels first seen in reverse": text_rows(
        ["z -> z", "y,z -> y", "y -> y", "x,z -> z", "x,y -> x", "x,y,z -> y", "x -> x"], header=None
    ),
    "no header, 21 labels then a syntax fault": text_rows(
        [f"a{i},a{i + 1} -> a{i}" for i in range(20)] + ["a0 -> a0", "a0,a1"], header=None
    ),
    "no header, 22 labels": text_rows([f"a{i} -> a{i}" for i in range(22)], header=None),
    "comments and blanks before the header": "# a\n\n#b\n  \n# c\n" + text_rows(GOOD_TEXT),
    "line breaks other than \\n": (
        "alternatives: x, y, z\r\nx,y,z -> x\x0cx,y -> y\u2028y,z -> z\rx,z -> x\r\n"
    ),
    "line breaks other than \\n, then a syntax fault": (
        "alternatives: x, y, z\r\nx,y,z -> x\x0cx,y -> y\u2028\x0b\ny,z\rx,z -> x\n"
    ),
    # a dataset is JSON exactly when its first non-whitespace character is "{"
    "a JSON array": '[{"menu": ["x"], "choice": "x"}]',
    # the edges of the row packer: its 20-bit cap and a label outside the header
    "a 21-label header": text_rows(
        [f"a{i},a{i + 1} -> a{i}" for i in range(20)], header=", ".join(f"a{i}" for i in range(21))
    ),
    "no header, the 21st label only as a pick": text_rows(
        [f"a{i},a{i + 1} -> a{i}" for i in range(19)] + ["a0,a2 -> a20"], header=None
    ),
    "header, a label outside it on the last line": text_rows([*GOOD_TEXT[:3], "x,q -> x"]),
    "no header, empty label": text_rows(["x,y -> x", "x,,y -> y"], header=None),
    "no header, empty pick": text_rows(["x,y -> x", "y -> "], header=None),
    "empty header label, then an empty label": text_rows([GOOD_TEXT[0], "x,,y -> x"], header="x, , y, z"),
}


def assert_same_outcome(path, monkeypatch=None, oracle_path=None):
    """load_dataset and the row loop agree on ``path`` (the row loop reads
    ``oracle_path`` if given); with ``monkeypatch``, load_dataset reads the
    file's bytes from stdin."""
    if monkeypatch is not None:
        monkeypatch.setattr(sys, "stdin", _stdin(Path(path).read_bytes()))
    got = load_outcome(load_dataset, "-" if monkeypatch is not None else path)
    want = load_outcome(rowwise_load, oracle_path or path)
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

    @pytest.mark.parametrize("case", sorted(JSON_CASES))
    def test_json_from_stdin(self, tmp_path, monkeypatch, case):
        path = tmp_path / "data.json"
        path.write_text(JSON_CASES[case], encoding="utf-8")
        assert_same_outcome(path, monkeypatch)

    @pytest.mark.parametrize("case", sorted(TEXT_CASES))
    def test_text(self, tmp_path, case):
        path = tmp_path / "data.txt"
        path.write_text(TEXT_CASES[case], encoding="utf-8")
        assert_same_outcome(path)

    @pytest.mark.parametrize("stdin", [False, True])
    def test_em_space_before_the_object_is_json(self, tmp_path, monkeypatch, stdin):
        """The format is told by the first character that str.strip() keeps,
        so a file opening with an em space (U+2003) takes the JSON path, as
        in the row loop, and fails there: JSON allows no such space. The row
        loop raises the decoder's error bare."""
        path = tmp_path / "data.json"
        path.write_text("\u2003" + json_rows(GOOD), encoding="utf-8")
        want = load_outcome(rowwise_load, path)
        if stdin:
            monkeypatch.setattr(sys, "stdin", _stdin(path.read_bytes()))
        got = load_outcome(load_dataset, "-" if stdin else path)
        assert want[:2] == ("error", json.JSONDecodeError)
        assert got == ("error", ParseError, f"invalid JSON: {want[2]}")

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

    @pytest.mark.parametrize("text_block", [cli._TEXT_BLOCK, 5, 0])
    def test_size_cap_comes_before_rows_in_text(self, tmp_path, monkeypatch, text_block):
        """The same difference in a text file without a header: a label met
        after a refused row (here, one that repeats a label) still counts
        towards n, whatever the block size."""
        monkeypatch.setattr(cli, "_TEXT_BLOCK", text_block)
        lines = [f"a{i},a{i + 1} -> a{i}" for i in range(20)]
        lines.insert(10, "a0,a0 -> a0")
        path = tmp_path / "big.txt"
        path.write_text(text_rows(lines, header=None), encoding="utf-8")
        with pytest.raises(GroundSetTooLarge, match="capped at n <= 20, got n = 21"):
            load_dataset(str(path))
        with pytest.raises(ParseError, match="line 11: menu repeats an alternative"):
            rowwise_load(str(path))

    def test_seeded_random_faults(self, tmp_path):
        check_seeded_random_faults(tmp_path)


def check_seeded_random_faults(tmp_path):
    """Mutated datasets at n = 2..4 in both formats, each loaded by
    load_dataset and by the row loop: dropped, repeated, reordered and
    corrupted rows."""
    rng = np.random.default_rng(5)
    gaps = np.random.default_rng(6)  # blank and comment lines between text rows
    labels = ("w", "x", "y", "z")
    for trial in range(150):
        n = int(rng.integers(2, 5))
        choice = random_choice(rng, n)
        rows = []
        for mask in menu_order(n).tolist():
            members = [labels[e] for e in range(n) if (mask >> e) & 1]
            rows.append([list(rng.permutation(members)), labels[choice.picks_array[mask]]])
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
        lines = []
        for m, p in rows:
            if gaps.integers(4) == 0:
                lines.append(("", "# between rows")[int(gaps.integers(2))])
            lines.append(f"{','.join(m)} -> {p}")
        text_path.write_text(text_rows(lines, header), encoding="utf-8")
        assert_same_outcome(text_path)


def cut_label_dataset(label):
    """A compact JSON dataset on ``label``, "c" and "d", each menu picking
    its last member."""
    labels = [label, "c", "d"]
    menus = [m for k in (3, 2, 1) for m in itertools.combinations(labels, k)]
    return json.dumps(
        {"alternatives": labels, "choices": [{"menu": list(m), "choice": m[-1]} for m in menus]},
        separators=(",", ":"),
    )


#: Inputs, as bytes, at the seams of the block readers. A text stream
#: decodes 8 KiB of bytes at a time, so an invalid byte lies 20 KB or more
#: into its file, where a parse error has already been met.
SEAM_CASES = {
    "an invalid byte after a text syntax error": (
        text_rows([GOOD_TEXT[0], "x,y", *GOOD_TEXT[2:]] + ["# filler"] * 2000).encode() + b"# \xff\n"
    ),
    "an invalid byte after a JSON syntax error": (
        json_rows(GOOD * 500).replace('"choice": "y"', '"choice" "y"', 1).encode()[:-2]
        + b', {"menu": ["x"], "choice": "\xff"}]}'
    ),
    "an invalid byte late in a JSON file": (
        json_rows(GOOD * 500).encode()[:-2] + b', {"menu": ["x"], "choice": "\xff"}]}'
    ),
    "a label holding '}, {' that falls on a run cut": cut_label_dataset("a}, {b").encode(),
    "a byte-order mark on JSON": codecs.BOM_UTF8 + json_rows(GOOD).encode(),
    "a byte-order mark on text": codecs.BOM_UTF8 + text_rows(GOOD_TEXT).encode(),
    "a first block of whitespace before JSON": (" " * 90 + "\n" * 3 + json_rows(GOOD)).encode(),
    "a first block of whitespace before text": (
        ("\n" * 30 + " " * 90 + "\n" + text_rows([*GOOD_TEXT[:3], "x,z"])).encode()
    ),
    "choices before alternatives, many entries": json.dumps({
        "choices": [{"menu": m, "choice": p} for m, p in GOOD] + [{"menu": ["x"], "choice": "x"}] * 9,
        "alternatives": ["x", "y", "z"],
    }).encode(),
    "CRLF line ends across block edges": text_rows([*GOOD_TEXT, "x,y -> y"]).replace("\n", "\r\n").encode(),
    "CRLF line ends across block edges, a syntax error": (
        text_rows(["# a comment"] * 7 + [*GOOD_TEXT[:3], "x,z"]).replace("\n", "\r\n").encode()
    ),
    "the CLI's indented JSON": "".join(
        cli._json_chunks(LoadedDataset(GroundSet(("x", "y", "z")), rational_choice(LinearOrder((2, 0, 1)))).json_fields())
    ).encode(),
}


#: _TEXT_BLOCK settings that put block edges between rows: 5 characters
#: read at a time; 0, read as one character at a time, so that each text
#: block is one line; and 80, so that a JSON run holds one or two entries
#: (at 5 and 0 every JSON entry is longer than a block)
SMALL_BLOCKS = {"few bytes": 5, "one line": 0, "a few entries": 80}


@pytest.fixture(params=sorted(SMALL_BLOCKS))
def small_blocks(request, monkeypatch):
    monkeypatch.setattr(cli, "_TEXT_BLOCK", SMALL_BLOCKS[request.param])


class TestLoaderBlocks:
    """With block edges between any two rows, the readers still raise the
    row loop's error or build its choice."""

    @pytest.mark.parametrize("case", sorted(JSON_CASES))
    def test_json(self, tmp_path, small_blocks, case):
        path = tmp_path / "data.json"
        path.write_text(JSON_CASES[case], encoding="utf-8")
        assert_same_outcome(path)

    @pytest.mark.parametrize("case", sorted(JSON_CASES))
    def test_json_from_stdin(self, tmp_path, monkeypatch, small_blocks, case):
        path = tmp_path / "data.json"
        path.write_text(JSON_CASES[case], encoding="utf-8")
        assert_same_outcome(path, monkeypatch)

    @pytest.mark.parametrize("case", sorted(TEXT_CASES))
    def test_text(self, tmp_path, small_blocks, case):
        path = tmp_path / "data.txt"
        path.write_text(TEXT_CASES[case], encoding="utf-8")
        assert_same_outcome(path)

    def test_seeded_random_faults(self, tmp_path, small_blocks):
        check_seeded_random_faults(tmp_path)

    @pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
    @pytest.mark.parametrize("case", sorted(SEAM_CASES))
    def test_seams(self, tmp_path, monkeypatch, small_blocks, case, stdin):
        """Each seam input loads as the row loop loads it, from a file and
        from stdin. The row loop reads a byte-order mark as text, so it
        reads the same bytes without the mark."""
        path, plain = tmp_path / "data", tmp_path / "plain"
        path.write_bytes(SEAM_CASES[case])
        plain.write_bytes(SEAM_CASES[case].removeprefix(codecs.BOM_UTF8))
        assert_same_outcome(path, monkeypatch if stdin else None, plain)

    @pytest.mark.parametrize("case", ["valid", "number labels", "unknown menu label"])
    def test_named_pipe_is_read_whole(self, tmp_path, case):
        """A path that cannot seek, such as a shell's ``<(...)``, is read
        whole first, so that a faulty file, here one with an unknown menu
        label, can be read again whole to name its fault; a second open of
        the pipe would wait for a writer that never comes."""
        fifo, plain = tmp_path / "fifo", tmp_path / "plain.json"
        plain.write_text(JSON_CASES[case], encoding="utf-8")
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(plain.read_bytes(),), daemon=True)
        writer.start()
        argv = [sys.executable, "-m", "harmchoice.cli", "sp", "--format", "json"]
        got = subprocess.run([*argv, str(fifo)], env=_cli_env(), capture_output=True, timeout=60)
        want = subprocess.run([*argv, str(plain)], env=_cli_env(), capture_output=True, timeout=60)
        code = 1 if case == "unknown menu label" else 0
        assert want.returncode == code
        assert (got.returncode, got.stdout, got.stderr) == (code, want.stdout, want.stderr)

    def test_label_holding_a_run_cut_falls_back(self, tmp_path, monkeypatch):
        """At 80-character blocks one run of this file is cut after the
        ``}`` in ``a}, {b``: the run fails to decode as a list, its rows are
        undone and its entries fall back to being decoded one at a time.
        The same file with ``a}; {b`` packs in whole runs. Both stream."""
        monkeypatch.setattr(cli, "_TEXT_BLOCK", 80)
        undo = cli._RowPacker.undo
        undone = []

        def counted(packer, rows, labels):
            undone.append(rows)
            undo(packer, rows, labels)

        monkeypatch.setattr(cli._RowPacker, "undo", counted)
        for label, falls_back in (("a}, {b", True), ("a}; {b", False)):
            undone.clear()
            text = cut_label_dataset(label)
            blocks = iter([text[i : i + 80] for i in range(0, len(text), 80)])
            assert cli._parse_streamed_json(blocks) is not None
            assert bool(undone) == falls_back
            path = tmp_path / "data.json"
            path.write_text(text, encoding="utf-8")
            assert_same_outcome(path)
            assert load_dataset(str(path)).ground.labels == (label, "c", "d")

    @pytest.mark.parametrize("block", ["default", *sorted(SMALL_BLOCKS)])
    def test_walker_refuses_only_what_the_row_loop_refuses(self, tmp_path, monkeypatch, block):
        """The block walker reads every JSON case and seam input that the
        row loop parses, and returns None (a fault to name) for every other:
        the row loop's ParseError or decode error. A header fault that the
        walker raises itself counts as read."""
        if block != "default":
            monkeypatch.setattr(cli, "_TEXT_BLOCK", SMALL_BLOCKS[block])
        size = max(cli._TEXT_BLOCK, 1)
        cases = dict(JSON_CASES)
        for case, data in SEAM_CASES.items():
            try:
                cases[case] = data.decode("utf-8")
            except UnicodeDecodeError:
                pass
        path = tmp_path / "data.json"
        for case, text in cases.items():
            if not text.lstrip().startswith("{"):
                continue
            path.write_text(text, encoding="utf-8")
            want = load_outcome(rowwise_load, path)
            refused = want[0] == "error" and issubclass(want[1], (ParseError, json.JSONDecodeError))
            blocks = iter([text[i : i + size] for i in range(0, len(text), size)])
            try:
                got = cli._parse_streamed_json(blocks)
            except HarmchoiceError:
                got = "raised"
            assert (got is None) == refused, case

    def test_early_syntax_error_stops_the_walker(self, monkeypatch):
        """A missing colon in the first entry: the walker gives the file up
        after a few blocks, as more text cannot mend the error, and leaves
        the rest of the text unread."""
        monkeypatch.setattr(cli, "_TEXT_BLOCK", 80)
        text = json_rows(GOOD * 1000).replace('"choice":', '"choice"', 1)
        blocks = iter([text[i : i + 80] for i in range(0, len(text), 80)])
        assert cli._parse_streamed_json(blocks) is None
        assert len(list(blocks)) > len(text) // 80 - 10

    def test_value_cut_inside_a_token_is_read_on(self, monkeypatch):
        """Each value with the read text cut after each of its characters:
        the decode error that the cut gives is read past, not raised."""
        monkeypatch.setattr(cli, "_TEXT_BLOCK", 0)
        for value in ["-Infinity", "NaN", "true", "null", "-1.5e+300", '"\\u00e9\\ud83d\\ude00"', '[1, {"a": false}]']:
            for cut in range(1, len(value)):
                text = cli._JsonText(iter([value[:cut], value[cut:], " ,"]))
                assert json.dumps(text.value(cli._json_decoder())) == json.dumps(json.loads(value)), (value, cut)

    def test_long_value_is_read_in_linear_time(self, tmp_path, monkeypatch):
        """A label of 4 Mi characters read 80 characters at a time. Joining
        each block behind the unparsed text on its own copies that text once
        per block, about 10**11 characters here, which took minutes; joining
        once per doubling of the unparsed text takes well under a second."""
        monkeypatch.setattr(cli, "_TEXT_BLOCK", 80)
        label = "x" * (4 << 20)
        path = tmp_path / "data.json"
        path.write_text(json_rows([([label], label)], [label]), encoding="utf-8")
        start = time.perf_counter()
        ds = load_dataset(str(path))
        assert time.perf_counter() - start < 10
        assert ds.ground.labels == (label,)

    @pytest.mark.parametrize("blocks", ["default", "small"])
    def test_no_header_labels_past_ten_bits(self, tmp_path, monkeypatch, blocks):
        """Without a header, 12 labels first seen in an order unlike their
        sorted one: the remap moves bits in both 10-bit tables."""
        if blocks == "small":
            monkeypatch.setattr(cli, "_TEXT_BLOCK", 300)
        rng = np.random.default_rng(8)
        labels = [f"L{i:02d}" for i in rng.permutation(12)]
        choice = random_choice(rng, 12)
        rows = []
        for mask in rng.permutation(np.arange(1, 1 << 12)).tolist():
            members = [labels[e] for e in rng.permutation(12).tolist() if (mask >> e) & 1]
            rows.append(f"{','.join(members)} -> {labels[choice.picks_array[mask]]}")
        path = tmp_path / "data.txt"
        path.write_text(text_rows(rows, header=None), encoding="utf-8")
        assert_same_outcome(path)
        ds = load_dataset(str(path))
        assert ds.ground.labels == tuple(sorted(labels))

    def test_move_bits_matches_bit_loop(self):
        rng = np.random.default_rng(3)
        to = rng.permutation(20)
        masks = rng.integers(0, 1 << 20, size=500)
        want = [sum(1 << int(to[b]) for b in range(20) if (m >> b) & 1) for m in masks.tolist()]
        assert move_bits(masks, to).tolist() == want


# ---------------------------------------------------------------------------
# the bulk row kernel: a block or run that it packs reads as the row loop
# reads it, and any other goes to the row-by-row readers


def seeded_dataset(n, labels=None):
    """A seeded random dataset of every menu on ``labels`` (a0, a1, ...)."""
    labels = labels or tuple(f"a{i}" for i in range(n))
    return LoadedDataset(GroundSet(labels), random_choice(np.random.default_rng(100 + n), n))


def dataset_texts(ds, ensure_ascii=True):
    """``ds`` as text, as compact JSON and as the CLI's indented JSON."""
    return {
        "text": "\n".join(ds.to_text()) + "\n",
        "compact json": json.dumps(dataset_dict(ds), separators=(",", ":"), ensure_ascii=ensure_ascii),
        "indented json": json.dumps(dataset_dict(ds), indent=2, ensure_ascii=ensure_ascii),
    }


#: The row of the n = 6 file that a single-row edit changes.
EDITED_ROW = 30


def edit_text_row(edit):
    """The n = 6 text file with row ``EDITED_ROW`` (a line after the header)
    passed through ``edit``, which returns the line or lines in its place."""
    lines = dataset_texts(seeded_dataset(6))["text"].splitlines()
    return "\n".join(lines[:EDITED_ROW] + [edit(lines[EDITED_ROW])] + lines[EDITED_ROW + 1 :]) + "\n"


def relabeled_texts(labels, ensure_ascii=True):
    """The n = 6 dataset on ``labels`` in the three layouts."""
    return dataset_texts(seeded_dataset(6, tuple(labels)), ensure_ascii)


def edit_json_entry(edit):
    """The n = 6 JSON dataset with entry ``EDITED_ROW`` passed through
    ``edit``, compact and indented."""
    fields = dataset_dict(seeded_dataset(6))
    fields["choices"][EDITED_ROW] = edit(dict(fields["choices"][EDITED_ROW]))
    return {
        "compact json": json.dumps(fields, separators=(",", ":")),
        "indented json": json.dumps(fields, indent=2),
    }


def edit_json_label(spelled):
    """The n = 6 JSON dataset with the first menu label of entry
    ``EDITED_ROW``, ``a{i}``, spelled as ``spelled`` formatted with ``i``."""
    label = dataset_dict(seeded_dataset(6))["choices"][EDITED_ROW]["menu"][0]
    texts = {}
    for fmt, text in edit_json_entry(lambda e: {**e, "menu": ["@", *e["menu"][1:]]}).items():
        assert text.count('"@"') == 1
        texts[fmt] = text.replace('"@"', spelled.format(label[1:]))
    return texts


TEXT_KERNEL_CASES = {
    "a comment line": edit_text_row(lambda line: f"# a comment\n{line}"),
    "a blank line": edit_text_row(lambda line: f"\n{line}"),
    "a line that starts with '#' and names a header label": (
        edit_text_row(lambda line: line).replace("a0", "#a0")
    ),
    "a tab before '->'": edit_text_row(lambda line: line.replace(" -> ", "\t-> ")),
    "a tab after '->'": edit_text_row(lambda line: line.replace(" -> ", " ->\t")),
    "two spaces before '->'": edit_text_row(lambda line: line.replace(" -> ", "  -> ")),
    "two spaces after '->'": edit_text_row(lambda line: line.replace(" -> ", " ->  ")),
    "CRLF line ends": edit_text_row(lambda line: line).replace("\n", "\r\n"),
    "a header label that holds ' -> '": edit_text_row(lambda line: line).replace("a1", "a1 -> b"),
    "an empty label": edit_text_row(lambda line: f",{line}"),
    "a repeated label": edit_text_row(lambda line: f"{line.split(',')[0].split(' ')[0]},{line}"),
    "an unknown label": edit_text_row(lambda line: f"q,{line}"),
    "an unknown pick": edit_text_row(lambda line: line.split(" -> ")[0] + " -> q"),
    "a line without '->'": edit_text_row(lambda line: line.split(" -> ")[0]),
    "a control character in a label": edit_text_row(lambda line: f"a9\x01,{line}"),
    "labels x1 and x10": relabeled_texts(["x1", "x10", "x100", "x2", "x20", "x"])["text"],
    "non-ASCII labels": relabeled_texts(["é", "éé", "日本", "a b", "b", "\U0001f600"])["text"],
    "labels of 8 and 9 bytes": relabeled_texts(["abcdefgh", "abcdefghi", "abcdefg", "a", "ab", "hgfedcba"])["text"],
    "labels named 'alternatives:'": relabeled_texts(["alternatives:a", "b", "c", "d", "e", "f"])["text"],
    "no header": edit_text_row(lambda line: line).split("\n", 1)[1],
    "no header, a label first met late": "\n".join(
        ["a0 -> a0", "a1 -> a1", *edit_text_row(lambda line: line).splitlines()[1:], "a0,a9 -> a9"]
    ) + "\n",
}

JSON_KERNEL_CASES = {
    **{f"an escaped label, {fmt}": text for fmt, text in edit_json_label('"a\\u003{}"').items()},
    **{f"an escape that names no label, {fmt}": text for fmt, text in edit_json_label('"a\\u0039"').items()},
    **{f"a control character in a label, {fmt}": text for fmt, text in edit_json_label('"a\x01{}"').items()},
    **{f"a tab in a label, {fmt}": text for fmt, text in edit_json_label('"a\t{}"').items()},
    **{f"a line break in a label, {fmt}": text for fmt, text in edit_json_label('"a\n{}"').items()},
    **{f"a space in a label, {fmt}": text for fmt, text in edit_json_label('"a {}"').items()},
    **{f"an unknown label, {fmt}": text for fmt, text in edit_json_label('"q"').items()},
    **{f"an empty label, {fmt}": text for fmt, text in edit_json_label('""').items()},
    **{f"a number label, {fmt}": text for fmt, text in edit_json_label("{}").items()},
    **{f"an extra key, {fmt}": text for fmt, text in edit_json_entry(lambda e: {**e, "note": 1}).items()},
    **{
        f"choice before menu, {fmt}": text
        for fmt, text in edit_json_entry(lambda e: {"choice": e["choice"], "menu": e["menu"]}).items()
    },
    **{f"an empty menu, {fmt}": text for fmt, text in edit_json_entry(lambda e: {**e, "menu": []}).items()},
    **{f"a menu key repeated, {fmt}": text for fmt, text in edit_json_label('"a{0}"],"menu":["a{0}"').items()},
    **{
        f"a lone-surrogate label in alternatives, {fmt}": text
        for fmt, text in relabeled_texts(["a0", "\ud800", "a2", "a3", "a4", "a5"]).items()
        if fmt != "text"
    },
    **{
        f"non-ASCII labels written unescaped, {fmt}": text
        for fmt, text in relabeled_texts(["é", "éé", "日本", "b", "c", "\U0001f600"], False).items()
        if fmt != "text"
    },
    **{
        f"labels of 8 and 9 bytes, {fmt}": text
        for fmt, text in relabeled_texts(["abcdefgh", "abcdefghi", "abcdefg", "a", "ab", "hgfedcba"]).items()
        if fmt != "text"
    },
    **{
        f"labels named as the keys, {fmt}": text
        for fmt, text in relabeled_texts(["menu", "choice", "c", "d", "e", "f"]).items()
        if fmt != "text"
    },
    "choices before alternatives": json.dumps(
        {"choices": dataset_dict(seeded_dataset(6))["choices"], "alternatives": [f"a{i}" for i in range(6)]}
    ),
}


#: Every setting of ``_TEXT_BLOCK`` that the kernel tests run at.
ALL_BLOCKS = ["default", *sorted(SMALL_BLOCKS)]


@pytest.fixture(params=ALL_BLOCKS)
def any_blocks(request, monkeypatch):
    if request.param != "default":
        monkeypatch.setattr(cli, "_TEXT_BLOCK", SMALL_BLOCKS[request.param])


def assert_loads_as_rowwise(path, monkeypatch, stdin):
    """:func:`assert_same_outcome`, where the row loop's JSON decode error
    is the loader's ``invalid JSON`` ParseError."""
    want = load_outcome(rowwise_load, path)
    if want[0] == "error" and want[1] is json.JSONDecodeError:
        if stdin:
            monkeypatch.setattr(sys, "stdin", _stdin(Path(path).read_bytes()))
        got = load_outcome(load_dataset, "-" if stdin else path)
        assert got == ("error", ParseError, f"invalid JSON: {want[2]}")
    else:
        assert_same_outcome(path, monkeypatch if stdin else None)


class TestRowKernel:
    """Every file loads as the row loop loads it, whether the kernel packs
    its blocks or refuses them, at every block setting, from a file and
    from stdin."""

    @pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
    @pytest.mark.parametrize("fmt", ["text", "compact json", "indented json"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_seeded_files(self, tmp_path, monkeypatch, any_blocks, n, fmt, stdin):
        path = tmp_path / "data"
        path.write_text(dataset_texts(seeded_dataset(n))[fmt], encoding="utf-8")
        assert_loads_as_rowwise(path, monkeypatch, stdin)

    @pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
    @pytest.mark.parametrize("case", sorted(TEXT_KERNEL_CASES))
    def test_text_edits(self, tmp_path, monkeypatch, any_blocks, case, stdin):
        path = tmp_path / "data.txt"
        path.write_text(TEXT_KERNEL_CASES[case], encoding="utf-8", newline="")
        assert_loads_as_rowwise(path, monkeypatch, stdin)

    @pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
    @pytest.mark.parametrize("case", sorted(JSON_KERNEL_CASES))
    def test_json_edits(self, tmp_path, monkeypatch, any_blocks, case, stdin):
        path = tmp_path / "data.json"
        path.write_bytes(JSON_KERNEL_CASES[case].encode("utf-8", "surrogatepass"))
        assert_loads_as_rowwise(path, monkeypatch, stdin)

    def test_edits_change_one_row(self):
        """Each single-row edit changes the file it edits: a case that left
        it as it was would test only the plain file."""
        plain = dataset_texts(seeded_dataset(6))
        for case, text in TEXT_KERNEL_CASES.items():
            assert text != plain["text"], case
        for case, text in JSON_KERNEL_CASES.items():
            assert text not in plain.values(), case

    @pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
    @pytest.mark.parametrize("fmt", [
        "text", "json", "indented json", "headerless text", "non-ASCII text", "non-ASCII json",
    ])
    def test_n16_files(self, n16_files, monkeypatch, fmt, stdin):
        """The n = 16 files at the default block, against the row loop."""
        assert_loads_as_rowwise(n16_files[fmt], monkeypatch, stdin)

    @pytest.mark.parametrize("fmt", ["text", "json", "benchmark text", "benchmark json", "headerless text"])
    def test_rows_take_the_kernel(self, n16_files, tmp_path, monkeypatch, fmt):
        """Loading an n = 16 file in the CLI's layouts, or in the compact
        layout of the benchmark's files (``alternatives: a0,a1,...``),
        packs at most one block's worth of rows one at a time (with a
        header, none but a JSON file's last entry; without one, the first
        block): the rest take the kernel."""
        if fmt.startswith("benchmark"):
            ds = load_dataset(n16_files["text"])
            path = tmp_path / "data"
            if fmt == "benchmark text":
                rows = list(islice(ds.to_text(), 1, None))
                path.write_text("\n".join(["alternatives: " + ",".join(ds.ground.labels), *rows]) + "\n")
            else:
                path.write_text(json.dumps({"version": 1, **dataset_dict(ds)}, separators=(",", ":")))
            path = str(path)
        else:
            path = n16_files[fmt]
        add = cli._RowPacker.add
        calls = []

        def counted(packer, labels, pick):
            calls.append(1)
            return add(packer, labels, pick)

        monkeypatch.setattr(cli._RowPacker, "add", counted)
        assert len(load_dataset(path).choice.picks_array) == 1 << 16
        first_block = Path(path).read_text(encoding="utf-8")[: cli._TEXT_BLOCK]
        assert len(calls) <= first_block.count("\n" if "text" in fmt else '"choice"')
        if "headerless" not in fmt:  # JSON: the last entry, which no "," follows, is read alone
            assert len(calls) <= ("json" in fmt)


@pytest.fixture(scope="module")
def n16_files(tmp_path_factory):
    """An n = 16 `uniform:12` dataset on the labels a0..a15 as text, as
    compact JSON and as JSON in the CLI's indented layout; and as compact
    JSON with an "id" key in every entry, with the labels as the numbers
    0..15, and with every label holding "}, {"; as text without its
    header; and on the labels é0..é15 as text and as compact JSON that
    writes them unescaped."""
    tmp = tmp_path_factory.mktemp("n16")
    choice = generate_harmful(LinearOrder(tuple(range(16))), UniformIndexPolicy(12), seed=7)
    ds = LoadedDataset(GroundSet(tuple(f"a{i}" for i in range(16))), choice)
    accented = LoadedDataset(GroundSet(tuple(f"\u00e9{i}" for i in range(16))), choice)
    fields = dataset_dict(ds)

    def relabeled(new):
        return {
            "alternatives": list(map(new, fields["alternatives"])),
            "choices": [{"menu": list(map(new, e["menu"])), "choice": new(e["choice"])} for e in fields["choices"]],
        }

    texts = {
        "text": "\n".join(ds.to_text()) + "\n",
        "json": fields,
        "indented json": "".join(cli._json_chunks(ds.json_fields())),
        "third-key json": {**fields, "choices": [{**e, "id": i} for i, e in enumerate(fields["choices"])]},
        "number-label json": relabeled(lambda label: int(label[1:])),
        "cut-label json": relabeled(lambda label: label + "}, {b"),
        "headerless text": "\n".join(islice(ds.to_text(), 1, None)) + "\n",
        "non-ASCII text": "\n".join(accented.to_text()) + "\n",
        "non-ASCII json": json.dumps(dataset_dict(accented), separators=(",", ":"), ensure_ascii=False),
    }
    paths = {}
    for i, (fmt, text) in enumerate(texts.items()):
        paths[fmt] = tmp / f"n16-{i}"
        if not isinstance(text, str):
            text = json.dumps(text, separators=(",", ":"))
        paths[fmt].write_text(text, encoding="utf-8")
    return {fmt: str(path) for fmt, path in paths.items()}


class TestReaderMemory:
    @pytest.mark.parametrize("fmt, bound_mb", [
        ("text", 3),
        ("json", 4),
        ("indented json", 4),
        ("third-key json", 4),
        ("number-label json", 4),
        ("cut-label json", 4),
        ("headerless text", 3),
        ("non-ASCII text", 3),
        ("non-ASCII json", 4),
    ])
    def test_load_peak_is_bounded(self, n16_files, fmt, bound_mb):
        """The traced peak of one n = 16 load (65,535 rows; 2.2 MB of text,
        4.5 MB of compact and 11.4 MB of indented JSON): the readers hold
        about one block of the file's text, the packed (mask, pick) pairs
        and one string per distinct label, and keep no object per entry.
        Reading the file whole traced 5.2 MiB (text), 8.5 MiB (compact JSON)
        and 21.7 MiB (indented JSON); reading it in blocks traces about 2.7
        MiB for each of these files. A text reader that kept one line
        number per row traced 3.2 MiB; a JSON reader that read the third-key,
        number-label and cut-label files whole traced 24 to 28 MiB."""
        gc.collect()
        tracemalloc.start()
        try:
            ds = load_dataset(n16_files[fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.ground.n == 16 and len(ds.choice.picks_array) == 1 << 16
        assert peak < bound_mb * 2**20, f"{peak / 2**20:.1f} MB"

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_leading_newline_costs_no_copy(self, tmp_path, fmt):
        """Telling JSON from text reads up to the first non-whitespace
        character; stripping the text copied all of it. One label outside
        the Basic Multilingual Plane makes the decoded text four bytes per
        character, so the copy outgrew the decode's bytes and text: an n = 16
        file with a leading newline traced 7.8 MiB more (JSON) and 3.5 MiB
        more (text) than the same file without it. With an ASCII file the
        decode holds as much as the copy did."""
        labels = tuple(f"a{i}" for i in range(15)) + ("\U0001f34e",)
        order = LinearOrder(tuple(range(16)))
        ds = LoadedDataset(GroundSet(labels), generate_harmful(order, UniformIndexPolicy(12), seed=7))
        if fmt == "json":
            body = json.dumps(dataset_dict(ds), separators=(",", ":"), ensure_ascii=False)
        else:
            body = "\n".join(ds.to_text()) + "\n"
        peaks = []
        for lead in ("", "\n"):
            path = tmp_path / f"data{len(lead)}.{fmt}"
            path.write_text(lead + body, encoding="utf-8")
            gc.collect()
            tracemalloc.start()
            try:
                assert load_dataset(str(path)).choice == ds.choice
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 2**20, [f"{p / 2**20:.2f} MiB" for p in peaks]

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_write_peak_is_bounded(self, monkeypatch, fmt):
        """The traced peak of one n = 16 dataset write (65,535 rows): the
        menu order and the picks become lists one block at a time, not
        whole, which took 3.8 MiB for JSON and 3.4 MiB for text."""

        class Sink:
            def write(self, s):
                return len(s)

        order = LinearOrder(tuple(range(16)))
        ds = LoadedDataset(
            GroundSet(tuple(f"a{i}" for i in range(16))),
            generate_harmful(order, UniformIndexPolicy(12), seed=5),
        )
        monkeypatch.setattr(sys, "stdout", Sink())
        gc.collect()
        tracemalloc.start()
        try:
            assert cli._emit(argparse.Namespace(format=fmt), ds.json_fields, ds.to_text) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20, f"{peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("case, packs", [
        ("valid", True),
        ("choice before menu", True),
        ("numeric alternatives, string labels", True),
        ("choice before menu, pick outside menu", True),  # validate_choice refuses it
        ("entry with a third key", True),
        ("packable object as an extra field", True),
        ("unknown menu label", False),
        ("number labels", True),
    ])
    def test_packed_reader_takes_only_its_entries(self, case, packs):
        """The streamed reader packs the entries of every file whose rows
        all name alternatives, with or without extra keys or number labels,
        and leaves a file with an unknown label to be read whole."""
        assert (cli._parse_streamed_json(iter([JSON_CASES[case]])) is not None) == packs

    def test_json_entries_share_label_strings(self):
        """A faulty file, here with a label outside its alternatives, is
        decoded whole to name its fault, with one string per distinct
        label."""
        fresh = [{"menu": ["x" * 9 + "1", "y" * 9], "choice": "x" * 9 + "1", "note": i} for i in range(3)]
        text = json.dumps({"alternatives": ["x" * 9 + "1"], "choices": fresh})
        assert cli._parse_streamed_json(iter([text])) is None
        decoded = cli._decode_json(text)
        first = decoded["choices"][0]
        for entry, want in zip(decoded["choices"], fresh, strict=True):
            assert entry == want
            assert entry["menu"][0] is first["menu"][0] and entry["choice"] is first["menu"][0]
            assert entry["menu"][1] is first["menu"][1]


class TestReversalsCap:
    def test_count_above_cap_exits_1_with_exact_count(self, capsys, monkeypatch, erratic4_file):
        count = harmchoice.reversal_count(load_dataset(erratic4_file).choice)
        monkeypatch.setattr(cli, "MAX_REVERSAL_ROWS", count)
        assert main(["reversals", erratic4_file]) == 0
        assert f"\nreversals: {count}\n" in capsys.readouterr().out
        monkeypatch.setattr(cli, "MAX_REVERSAL_ROWS", count - 1)
        for fmt in ("text", "json"):
            assert main(["reversals", erratic4_file, "--format", fmt]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"the dataset has {count} reversals, more than the {count - 1}" in captured.err
            assert "`analyze` reports the exact count" in captured.err

    def test_n16_file_exits_1_without_listing(self, capsys, monkeypatch, n16_files):
        """424 million reversals: the count refuses the file before any
        Reversal is built."""

        def listing(*args, **kwargs):
            raise AssertionError("find_reversals called")

        monkeypatch.setattr(cli, "find_reversals", listing)
        start = time.perf_counter()
        assert main(["reversals", n16_files["text"]]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        count = harmchoice.reversal_count(load_dataset(n16_files["text"]).choice)
        assert count > 400_000_000 and f"has {count} reversals" in err


class TestStreamedText:
    def test_lines_are_written_in_groups(self, monkeypatch):
        written = []

        class Recorder(io.StringIO):
            def write(self, s):
                written.append(s)
                return super().write(s)

        out = Recorder()
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(cli, "_PIECES_PER_WRITE", 5)
        argv = ["generate", "--order", "a,b,c,d", "--policy", "uniform:2", "--seed", "4"]
        for fmt in ("text", "json"):
            written.clear()
            out.seek(0)
            out.truncate()
            assert main(argv + ["--format", fmt]) == 0
            assert len(written) > 1 and "".join(written) == out.getvalue()
            if fmt == "text":  # 16 lines: the header and 15 menus, five to a write
                assert [w.count("\n") for w in written] == [5, 5, 5, 1]
        assert json.loads(out.getvalue()) == dataset_dict(LoadedDataset(
            GroundSet(tuple("abcd")), generate_harmful(LinearOrder((0, 1, 2, 3)), UniformIndexPolicy(2), seed=4)
        ))

    def test_empty_report_prints_one_line_break(self, capsys):
        args = argparse.Namespace(format="text")
        assert cli._emit(args, dict, list) == 0
        assert capsys.readouterr().out == "\n"
        assert cli._emit(args, dict, lambda: iter(["a", "b"])) == 0
        assert capsys.readouterr().out == "a\nb\n"


def items_writer(ds):
    """Oracle: the dataset writers as they were, one Menu per row."""
    g = ds.ground
    picks = ds.choice.picks_array
    rows = [(Menu.from_mask(m), int(picks[m])) for m in menu_order(g.n).tolist()]
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
        assert "".join(cli._json_chunks(again.json_fields())) + "\n" == written["json"]
        assert "\n".join(again.to_text()) + "\n" == written["text"]
    as_dict, lines = items_writer(ds)
    assert json.loads(written["json"]) == as_dict and list(ds.to_text()) == lines


def _cli_env():
    """The environment of a CLI subprocess; its stdout is block-buffered, so
    output that nothing flushes before the process ends is lost."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return dict(env, PYTHONPATH=str(Path(harmchoice.__file__).parents[1]))


def _fresh_python(code, *args, env=None, **kwargs):
    """Run ``code`` in a new interpreter that imports this package."""
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env or _cli_env(), timeout=300, **kwargs
    )


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """JSON datasets from `generate` at n = 6, 12 and 16, by size."""
    tmp = tmp_path_factory.mktemp("generated")
    paths = {}
    for n in (6, 12, 16):
        order = ",".join(f"a{i}" for i in range(n))
        argv = ["generate", "--order", order, "--policy", f"uniform:{n // 2}", "--seed", "3", "--format", "json"]
        paths[n] = str(tmp / f"gen{n}.json")
        with open(paths[n], "w", encoding="utf-8") as fh:
            subprocess.run(
                [sys.executable, "-m", "harmchoice.cli", *argv], stdout=fh, env=_cli_env(), timeout=300, check=True
            )
    return paths


class TestProcessLifecycle:
    """`main` pauses the cyclic collector only while its command runs;
    `python -m harmchoice.cli` ends through `run`, skipping teardown."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["census", "--n", "3"], 0),
            (["sp", "missing.json"], 1),
            (["census", "--n", "9"], SystemExit),  # refused by parse_args
            (["generate", "--order=--", "--policy", "fixed:0"], SystemExit),  # by the command
        ],
    )
    def test_main_restores_collector_setting(self, capsys, argv, code, enabled):
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            if code is SystemExit:
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                assert exc.value.code == 2
            else:
                assert main(argv) == code
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()
        capsys.readouterr()

    def test_command_runs_with_collector_paused(self, capsys, monkeypatch):
        seen = []
        census = cli.enumerate_census

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return census(*args, **kwargs)

        monkeypatch.setattr(cli, "enumerate_census", spy)
        assert gc.isenabled()
        assert main(["census", "--n", "3"]) == 0
        assert seen == [False] and gc.isenabled()
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, code",
        [(["census", "--n", "3"], 0), (["census", "--n", "9"], 2), (["--help"], 0)],
    )
    def test_run_exits_with_main_code(self, capsys, monkeypatch, argv, code):
        class Exited(Exception):
            pass

        def fake_exit(status):
            raise Exited(status)

        monkeypatch.setattr(sys, "argv", ["harmchoice", *argv])
        monkeypatch.setattr(os, "_exit", fake_exit)
        with pytest.raises(Exited) as exc:
            cli.run()
        assert exc.value.args == (code,)
        capsys.readouterr()

    def test_module_run_skips_teardown(self):
        """`python -m harmchoice.cli` and the console script end through
        `run`: an atexit handler registered before the command never runs."""
        proc = _fresh_python(
            "import atexit, runpy, sys\n"
            "atexit.register(print, 'teardown ran', file=sys.stderr)\n"
            "sys.argv = ['harmchoice', 'census', '--n', '3']\n"
            "runpy.run_module('harmchoice.cli', run_name='__main__')\n",
            capture_output=True, text=True,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.startswith("n: 3\n")
        pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        assert 'harmchoice = "harmchoice.cli:run"' in pyproject

    def test_module_run_writes_files_like_main(self, capsys, monkeypatch, tmp_path, generated):
        """stdout and stderr redirected to files, not pipes: nothing that
        teardown would have flushed is lost."""

        def module_run(*argv):
            out, err = tmp_path / "out", tmp_path / "err"
            with open(out, "wb") as fo, open(err, "wb") as fe:
                proc = subprocess.run(
                    [sys.executable, "-m", "harmchoice.cli", *argv],
                    stdout=fo, stderr=fe, env=_cli_env(), timeout=300,
                )
            return proc.returncode, out.read_bytes(), err.read_bytes()

        order = ",".join(f"a{i}" for i in range(12))
        for argv in (
            ["generate", "--order", order, "--policy", "uniform:5", "--seed", "11", "--format", "json"],
            ["analyze", generated[12], "--format", "text"],
        ):
            assert main(argv) == 0
            expected = capsys.readouterr()
            code, out, err = module_run(*argv)
            assert code == 0 and len(out) > 1000
            assert out == expected.out.encode() and err == expected.err.encode() == b""

        code, out, err = module_run("sp", str(tmp_path / "nope.json"))
        assert code == 1 and out == b""
        assert err.decode().startswith("error: ") and err.count(b"\n") == 1

        code, out, err = module_run("sp", generated[6], "--bogus")
        assert code == 2 and out == b""
        assert b"unrecognized arguments: --bogus" in err

        monkeypatch.setenv("COLUMNS", "80")  # the same help layout on both sides
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert module_run("--help") == (0, capsys.readouterr().out.encode(), b"")


class TestBoundsAndImports:
    @pytest.mark.parametrize(
        "command, n",
        [(c, n) for c in ("analyze", "sp", "elicit") for n in (6, 12)] + [("warp", 16)],
    )
    def test_paused_collector_keeps_no_dataset_sized_garbage(self, generated, command, n):
        """What a command leaves for the collector is the parser's few hundred
        objects, whatever 2**n is."""
        code = (
            "import contextlib, gc, io, sys\n"
            "from harmchoice.cli import main\n"
            "gc.collect(); gc.disable()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(sys.argv[1:])\n"
            "print(code, gc.collect())\n"
        )
        for fmt in ("json", "text"):
            proc = _fresh_python(code, command, generated[n], "--format", fmt, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            exit_code, found = map(int, proc.stdout.split())
            assert exit_code == 0 and found < 2000

    def test_import_leaves_thread_pool_out(self):
        proc = _fresh_python(
            "import sys, harmchoice.cli\n"
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))",
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_package_import_leaves_numpy_out(self):
        proc = _fresh_python(
            "import sys, harmchoice\n"
            "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('harmchoice.')))",
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("preset", [None, "2"])
    def test_cli_import_defaults_blas_to_one_thread(self, preset):
        """Importing the CLI sets OPENBLAS_NUM_THREADS to 1 before numpy
        loads, so no BLAS worker thread starts; a value already set is kept."""
        env = {k: v for k, v in _cli_env().items() if k != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        proc = _fresh_python(
            "import os, harmchoice.cli\n"
            "status = '/proc/self/status'\n"
            "lines = open(status).read().splitlines() if os.path.exists(status) else []\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
            "print(next((l.split()[1] for l in lines if l.startswith('Threads:')), ''))",
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        value, threads = proc.stdout.split("\n")[:2]
        assert value == (preset or "1")
        if preset is None and sys.platform == "linux":
            assert threads == "1"

    def test_sample_census_starts_no_thread(self, capsys, monkeypatch):
        """Chunks run on the calling thread at any --workers value, with the
        same stdout."""
        started = []
        start = threading.Thread.start

        def spy(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(threading.Thread, "start", spy)
        argv = ["sample-census", "--n", "10", "--samples", str(4 * _sample_chunk(10)), "--seed", "7"]
        outputs = []
        for workers in ("1", "2", "8"):
            assert main([*argv, "--workers", workers]) == 0
            outputs.append(capsys.readouterr().out)
        assert started == []
        assert outputs[0] == outputs[1] == outputs[2]
