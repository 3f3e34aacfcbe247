"""Byte-exact CLI output: every subcommand in both formats against tests/golden/.

The golden files pin each command's stdout byte for byte, so any change to
a report's bytes shows up here. After a deliberate change of output,
rewrite them with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import argparse
import json
import sys
from pathlib import Path

import pytest

from harmchoice import cli
from harmchoice.cli import main
from test_cli import CYCLE3, ERRATIC4

GOLDEN = Path(__file__).parent / "golden"

# degree 2, header order differs from the sorted one, singletons omitted
HEADER4 = """\
# generated by: generate --order d,b,a,c --policy uniform:2 --seed 5
alternatives: d, b, a, c
d,b -> b
d,a -> d
d,c -> d
b,a -> b
b,c -> b
a,c -> a
d,b,a -> a
d,b,c -> c
d,a,c -> d
b,a,c -> a
d,b,a,c -> d
"""

# maximizes p > q > r: degree 0, nothing to elicit
RATIONAL3 = """\
p,q,r -> p
p,q -> p
p,r -> p
q,r -> q
"""

# the smallest `generate --policy uniform:<cap>` dataset with more than
# REVERSAL_CAP reversals (142): analyze lists only the first 100
UNIFORM6 = """\
# generated by: generate --order a,b,c,d,e,f --policy uniform:1
alternatives: a, b, c, d, e, f
a -> a
b -> b
c -> c
d -> d
e -> e
f -> f
a,b -> a
a,c -> c
a,d -> a
a,e -> e
a,f -> f
b,c -> b
b,d -> b
b,e -> b
b,f -> b
c,d -> c
c,e -> c
c,f -> c
d,e -> d
d,f -> d
e,f -> e
a,b,c -> b
a,b,d -> b
a,b,e -> b
a,b,f -> b
a,c,d -> c
a,c,e -> c
a,c,f -> a
a,d,e -> d
a,d,f -> a
a,e,f -> e
b,c,d -> b
b,c,e -> b
b,c,f -> b
b,d,e -> b
b,d,f -> b
b,e,f -> b
c,d,e -> c
c,d,f -> c
c,e,f -> c
d,e,f -> d
a,b,c,d -> a
a,b,c,e -> a
a,b,c,f -> a
a,b,d,e -> b
a,b,d,f -> a
a,b,e,f -> b
a,c,d,e -> c
a,c,d,f -> c
a,c,e,f -> a
a,d,e,f -> d
b,c,d,e -> b
b,c,d,f -> b
b,c,e,f -> b
b,d,e,f -> b
c,d,e,f -> c
a,b,c,d,e -> b
a,b,c,d,f -> a
a,b,c,e,f -> a
a,b,d,e,f -> b
a,c,d,e,f -> a
b,c,d,e,f -> b
a,b,c,d,e,f -> a
"""

DATASETS = {
    "cycle3": ("cycle3.json", json.dumps(CYCLE3)),
    "erratic4": ("erratic4.json", json.dumps(ERRATIC4)),
    "header4": ("header4.txt", HEADER4),
    "rational3": ("rational3.txt", RATIONAL3),
    "uniform6": ("uniform6.txt", UNIFORM6),
}

POLICY_MAP = {"a,b": 1, "a,c": 1, "b,c": 1, "a,b,c": 2}

DATASET_COMMANDS = {
    "analyze": ["analyze"],
    "warp": ["warp"],
    "reversals": ["reversals"],
    "sp": ["sp"],
    "sp-brute": ["sp", "--brute"],
    "sp-axiomatic": ["sp", "--axiomatic"],
    "elicit": ["elicit"],
}

OTHER_COMMANDS = {
    "generate-fixed": ["generate", "--order", "h,mh,ml,l", "--policy", "fixed:1"],
    "generate-uniform": ["generate", "--order", "a,b,c,d", "--policy", "uniform:2", "--seed", "5"],
    "generate-map": ["generate", "--order", "a,b,c", "--policy", "map:{policy}"],
    "construct-inconsistent": ["construct-inconsistent", "--k", "2"],
    "census": ["census", "--n", "3"],
    "sample-census": ["sample-census", "--n", "4", "--samples", "2000", "--seed", "11"],
    "distort": ["distort", "--order", "h,mh,ml,l", "--index", "2"],
}

CASES = {
    f"{cmd}-{data}": argv + ["{" + data + "}"]
    for cmd, argv in DATASET_COMMANDS.items()
    for data in DATASETS
} | OTHER_COMMANDS

FORMATS = ("json", "text")


def write_inputs(directory: Path) -> dict[str, str]:
    """Write every input file; return the placeholders of CASES' argv."""
    paths = {}
    for key, (name, text) in DATASETS.items():
        (directory / name).write_text(text, encoding="utf-8")
        paths[key] = str(directory / name)
    (directory / "policy.json").write_text(json.dumps(POLICY_MAP), encoding="utf-8")
    paths["policy"] = str(directory / "policy.json")
    return paths


def argv_for(case: str, fmt: str, paths: dict[str, str]) -> list[str]:
    return [arg.format(**paths) for arg in CASES[case]] + ["--format", fmt]


def golden_path(case: str, fmt: str) -> Path:
    return GOLDEN / f"{case}.{fmt}"


@pytest.fixture
def paths(tmp_path):
    return write_inputs(tmp_path)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case, fmt, paths, capsys):
    assert main(argv_for(case, fmt, paths)) == 0
    assert capsys.readouterr().out == golden_path(case, fmt).read_text(encoding="utf-8")


ROW_ERRORS = [
    ("dup.txt", "a,b -> a\na,b -> b\n", "menu {a, b} appears at both line 1 and line 2"),
    (
        "dup.json",
        json.dumps({"alternatives": ["x", "y"], "choices": [
            {"menu": ["x", "y"], "choice": "x"}, {"menu": ["y", "x"], "choice": "y"}]}),
        "menu {x, y} appears at both choices[0] and choices[1]",
    ),
    ("pick.txt", "x,y -> y\nx,y,z -> z\ny,z -> x\n", "line 3: pick 'x' is not a member of its menu"),
    (
        "pick.json",
        json.dumps({"alternatives": ["x", "y", "z"], "choices": [{"menu": ["x", "y"], "choice": "z"}]}),
        "choices[0]: pick 'z' is not a member of its menu",
    ),
    (
        "missing.json",
        json.dumps({"alternatives": ["x", "y", "z"], "choices": [{"menu": ["x", "y", "z"], "choice": "x"}]}),
        "dataset is missing 3 menu(s): {x, y}, {x, z}, {y, z}",
    ),
    (
        "missing5.json",
        json.dumps({"alternatives": list("abcde"), "choices": [{"menu": list("abcde"), "choice": "a"}]}),
        "dataset is missing 25 menu(s): {a, b}, {a, c}, {a, d}, {a, e}, {b, c}, {b, d}, {b, e}, {c, d}"
        " (and 17 more)",
    ),
]


@pytest.mark.parametrize("name,text,message", ROW_ERRORS, ids=[e[0] for e in ROW_ERRORS])
def test_row_errors_name_file_positions(name, text, message, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    assert main(["warp", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_every_subcommand_is_covered():
    covered = {argv[0] for argv in CASES.values()}
    assert covered == set(subcommands())


def subcommands() -> list[str]:
    """The subcommand names of the CLI's parser, in definition order."""
    (action,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return list(action.choices)


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(Path(tmp))
        for case in sorted(CASES):
            for fmt in FORMATS:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(argv_for(case, fmt, paths))
                if code != 0:
                    sys.exit(f"{case} --format {fmt} exited {code}")
                golden_path(case, fmt).write_text(out.getvalue(), encoding="utf-8")
