"""Span arithmetic and the traced CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spans import Span, layer_metrics, self_times, union_length

HERE = Path(__file__).resolve().parent


def span(sid, name, start, end, parent=None, thread=1, **data):
    return Span(sid, name, start, end, parent, thread, data)


def test_union_length_merges_overlaps():
    assert union_length([]) == 0
    assert union_length([(0, 1), (2, 3)]) == 2
    assert union_length([(0, 4), (1, 2), (3, 6)]) == 6
    assert union_length([(5, 6), (0, 2), (1, 3)]) == 4


def test_self_time_with_children_overlapping_on_two_threads():
    spans = [
        span(1, "parallel.map_chunks", 0, 10),
        span(2, "parallel.chunk", 1, 5, parent=1, thread=2),
        span(3, "parallel.chunk", 3, 8, parent=1, thread=3),
    ]
    own = self_times(spans)
    # the children cover [1, 8] together; their overlap [3, 5] counts once
    assert own[1] == pytest.approx(3)
    assert own[2] == pytest.approx(4)
    assert own[3] == pytest.approx(5)


def test_self_time_clips_children_to_the_parent():
    spans = [span(1, "a", 0, 4), span(2, "b", 3, 6, parent=1)]
    assert self_times(spans)[1] == pytest.approx(3)


def test_layer_metrics_for_a_threaded_sample():
    spans = [
        span(1, "cli.main", 0, 12),
        span(2, "census.sample", 1, 11, parent=1, choices=100),
        span(3, "parallel.map_chunks", 2, 10, parent=2, chunks=2, workers=2),
        span(4, "parallel.chunk", 2, 7, parent=3, thread=2),
        span(5, "kernels.count_inconsistent", 3, 6, parent=4, thread=2),
        span(6, "parallel.chunk", 3, 10, parent=3, thread=3),
        span(7, "kernels.count_inconsistent", 4, 9, parent=6, thread=3),
    ]
    m = layer_metrics([spans])
    assert m["cli.render_s"] == pytest.approx(2)
    assert m["census.sample_s"] == pytest.approx(10)
    assert m["kernels.count_inconsistent_s"] == pytest.approx(8)
    # sample 10 - 8, map_chunks 8 - 8, chunks (5 - 3) + (7 - 5)
    assert m["census.sample_self_s"] == pytest.approx(6)
    assert m["census.choices"] == 100
    assert m["parallel.chunks"] == 2
    assert m["parallel.busy_frac"] == pytest.approx(8 / (8 * 2))


def test_layer_metrics_for_a_load_and_analysis():
    spans = [
        span(1, "cli.main", 0, 10),
        span(2, "cli.load", 1, 3, parent=1, bytes=2_000_000),
        span(3, "core.validate", 2, 2.5, parent=2),
        span(4, "axioms.reversals", 4, 6, parent=1, count=7),
        span(5, "axioms.coselected", 4, 4.5, parent=4, pairs=3),
        span(6, "axioms.coselected", 6.5, 6.6, parent=1, pairs=3),
        span(7, "axioms.check_cns", 7, 7.5, parent=1, hit=0),
        span(8, "axioms.check_cns", 7.5, 8, parent=1, hit=1),
    ]
    m = layer_metrics([spans, spans])
    assert m["cli.load_s"] == pytest.approx(4)
    assert m["cli.parse_s"] == pytest.approx(3)
    assert m["core.validate_s"] == pytest.approx(1)
    assert m["cli.input_mb"] == pytest.approx(4)
    assert m["cli.render_s"] == pytest.approx(2 * (10 - 2 - 2 - 0.1 - 1))
    assert m["axioms.reversals"] == 14
    assert m["axioms.coselected_pairs"] == 6
    assert m["axioms.check_cns_calls"] == 4
    assert m["axioms.check_cns_hit_ratio"] == pytest.approx(0.5)
    assert m["parallel.busy_frac"] == 0


def _run(argv, tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("HARMCHOICE_")}
    env["PYTHONPATH"] = str(HERE.parent / "src")
    return subprocess.run(argv, capture_output=True, env=env, cwd=tmp_path, timeout=120)


@pytest.mark.parametrize(
    "args, expected",
    [
        (["construct-inconsistent", "--k", "2", "--format", "json"], {"cli.main", "census.generate"}),
        (["sample-census", "--n", "6", "--samples", "131072", "--workers", "2", "--format", "json"],
         {"cli.main", "census.sample", "parallel.map_chunks", "parallel.chunk", "kernels.count_inconsistent"}),
    ],
)
def test_traced_cli_matches_the_plain_cli(tmp_path, args, expected):
    plain = _run([sys.executable, "-m", "harmchoice.cli", *args], tmp_path)
    out = tmp_path / "spans.json"
    traced = _run([sys.executable, str(HERE / "traced_cli.py"), str(out), "0", *args], tmp_path)
    assert plain.returncode == traced.returncode == 0
    assert traced.stdout == plain.stdout
    rows = [Span.from_record(r) for r in json.loads(out.read_text())["spans"]]
    assert expected <= {s.name for s in rows}
    ids = {s.id for s in rows}
    assert all(s.parent is None or s.parent in ids for s in rows)
    assert [s.name for s in rows if s.parent is None] == ["cli.main"]


def test_traced_cli_reads_a_dataset(tmp_path):
    data = tmp_path / "d.txt"
    data.write_text("alternatives: x,y,z\nx,y,z -> x\nx,y -> y\ny,z -> z\nx,z -> x\nx -> x\ny -> y\nz -> z\n")
    out = tmp_path / "spans.json"
    traced = _run([sys.executable, str(HERE / "traced_cli.py"), str(out), "0", "analyze", "--format", "json", str(data)], tmp_path)
    assert traced.returncode == 0, traced.stderr
    rows = [Span.from_record(r) for r in json.loads(out.read_text())["spans"]]
    m = layer_metrics([rows])
    assert m["cli.input_mb"] == pytest.approx(data.stat().st_size / 1e6)
    assert m["axioms.reversals"] == len(json.loads(traced.stdout)["reversals"])
    assert m["degree.orders_scanned"] == 6
    assert m["core.validate_s"] > 0 and m["cli.parse_s"] > 0


def test_tracer_reports_a_missing_function_and_a_failing_count(monkeypatch):
    import traced_cli

    monkeypatch.setattr(traced_cli, "TARGETS", [("harmchoice.axioms", "no_such_function", "axioms.x", None)])
    tracer = traced_cli.Tracer()
    tracer.install()
    assert len(tracer.errors) == 1 and "no_such_function" in tracer.errors[0]

    tracer = traced_cli.Tracer()
    assert tracer.wrap(lambda: 1, "x", measure=lambda args, result: result.missing)() == 1
    assert len(tracer.errors) == 1 and "AttributeError" in tracer.errors[0]
