"""End-to-end CLI behavior: commands, formats, exit codes."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from harmchoice import GroundSet, LinearOrder, UniformIndexPolicy, generate_harmful, rational_choice
from harmchoice.cli import LoadedDataset, load_dataset, main

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
