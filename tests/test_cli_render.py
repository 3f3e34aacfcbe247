"""Each command builds only the rendering that --format asks for, and only
the stages its report needs; JSON written in pieces is what
``json.dumps(..., indent=2)`` writes."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from harmchoice import (
    REVERSAL_CAP,
    GroundSet,
    LinearOrder,
    UniformIndexPolicy,
    generate_harmful,
)
from harmchoice import cli
from harmchoice.cli import LoadedDataset, build_analysis, main
from conftest import dataset_dict
from test_cli import LABEL_CHARS
from test_cli_golden import DATASETS, FORMATS, GOLDEN, argv_for, golden_path, write_inputs


@pytest.fixture
def paths(tmp_path):
    return write_inputs(tmp_path)


# (case, format, renderer of the other format, patched to raise)
ONE_RENDERING = [
    ("analyze-erratic4", "json", "harmchoice.cli.AnalysisReport.to_text"),
    ("analyze-erratic4", "text", "harmchoice.cli.AnalysisReport.to_dict"),
    ("analyze-erratic4", "text", "harmchoice.axioms.Reversal.to_dict"),
    ("analyze-header4", "json", "harmchoice.degree.SpReport.to_text"),
    ("reversals-cycle3", "json", "harmchoice.axioms.Reversal.to_text"),
    ("reversals-cycle3", "text", "harmchoice.axioms.Reversal.to_dict"),
    ("sp-header4", "json", "harmchoice.degree.SpReport.to_text"),
    ("sp-header4", "text", "harmchoice.degree.SpReport.to_dict"),
    ("elicit-header4", "json", "harmchoice.cli.Elicitation.to_text"),
    ("elicit-header4", "text", "harmchoice.cli.Elicitation.to_dict"),
    ("census", "json", "harmchoice.census.CensusReport.to_text"),
    ("sample-census", "text", "harmchoice.census.CensusReport.to_dict"),
    ("generate-uniform", "json", "harmchoice.cli.LoadedDataset.to_text"),
    ("construct-inconsistent", "text", "harmchoice.cli.LoadedDataset.json_fields"),
]


@pytest.mark.parametrize(
    "case,fmt,renderer", ONE_RENDERING, ids=[f"{c}-{f}-{r.split('.', 2)[2]}" for c, f, r in ONE_RENDERING]
)
def test_only_the_requested_format_is_built(case, fmt, renderer, paths, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{renderer} built for --format {fmt}")

    monkeypatch.setattr(renderer, refuse)
    assert main(argv_for(case, fmt, paths)) == 0
    assert capsys.readouterr().out == golden_path(case, fmt).read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("data", sorted(DATASETS))
def test_elicit_does_not_enumerate_reversals(data, fmt, paths, capsys, monkeypatch):
    """elicit shares only the degree and elicitation stages with analyze."""

    def refuse(*args, **kwargs):
        raise RuntimeError("elicit ran an analyze-only stage")

    for stage in ("find_reversals", "reversal_count", "satisfies_warp", "is_inconsistent"):
        monkeypatch.setattr(cli, stage, refuse)
    case = f"elicit-{data}"
    assert main(argv_for(case, fmt, paths)) == 0
    assert capsys.readouterr().out == golden_path(case, fmt).read_text(encoding="utf-8")


def test_analyze_lists_the_first_reversals(paths, capsys):
    """analyze lists the first REVERSAL_CAP reversals of the full list that
    the reversals command writes, with the exact count."""
    reports = {}
    for case in ("analyze-uniform6", "reversals-uniform6"):
        assert main(argv_for(case, "json", paths)) == 0
        reports[case] = json.loads(capsys.readouterr().out)
    full = reports["reversals-uniform6"]
    analysis = reports["analyze-uniform6"]
    assert full["count"] == len(full["reversals"]) == analysis["reversal_count"] > REVERSAL_CAP
    assert analysis["reversals"] == full["reversals"][:REVERSAL_CAP]


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json")))
def test_golden_json_is_standard_indent2(name):
    text = (GOLDEN / name).read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_json_chunks_empty_rows_and_fields():
    assert "".join(cli._json_chunks({})) == json.dumps({}, indent=2)
    fields = {"a": cli._Rows(iter(())), "b": {"c": [1, 2.5, None]}, "d": []}
    plain = {"a": [], "b": {"c": [1, 2.5, None]}, "d": []}
    assert "".join(cli._json_chunks(fields)) == json.dumps(plain, indent=2)


# non-ASCII, quotes, backslashes and control characters, besides test_cli's mix
JSON_LABEL_CHARS = st.one_of(
    st.sampled_from(list('"\\\x00\x1f\x7f\n\u00e9\u65e5\u2028\U0001f600')), LABEL_CHARS
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.text(JSON_LABEL_CHARS, min_size=1, max_size=5), min_size=1, max_size=5, unique=True),
    st.integers(0, 2**32 - 1),
)
def test_rows_render_as_json_dumps(labels, seed):
    """Dataset rows and the analyze report, with any labels."""
    n = len(labels)
    ground = GroundSet(tuple(labels))
    choice = generate_harmful(LinearOrder(tuple(range(n))), UniformIndexPolicy(n - 1), seed=seed)
    ds = LoadedDataset(ground, choice)
    assert "".join(cli._json_chunks(ds.json_fields())) == json.dumps(dataset_dict(ds), indent=2)
    report = build_analysis(ds, workers=1).to_dict()
    assert "".join(cli._json_chunks(report)) == json.dumps(report, indent=2)
