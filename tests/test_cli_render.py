"""Each command builds only the rendering that --format asks for, and only
the stages its report needs."""

import pytest

from harmchoice import cli
from harmchoice.cli import main
from test_cli_golden import DATASETS, FORMATS, argv_for, golden_path, write_inputs


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
    ("construct-inconsistent", "text", "harmchoice.cli.LoadedDataset.to_dict"),
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

    for stage in ("find_reversals", "satisfies_warp", "is_inconsistent"):
        monkeypatch.setattr(cli, stage, refuse)
    case = f"elicit-{data}"
    assert main(argv_for(case, fmt, paths)) == 0
    assert capsys.readouterr().out == golden_path(case, fmt).read_text(encoding="utf-8")
