"""README, the benchmark's traced layers and the package's public names stay
in step with the code."""

import ast
import importlib
import json
import re
from pathlib import Path

import pytest

import harmchoice
import harmchoice.cli
from test_cli import CYCLE3, ERRATIC4
from test_cli_golden import subcommands

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def first_code_block(section: str) -> str:
    """The first fenced code block under the ``## <section>`` heading."""
    body = README.split(f"\n## {section}\n", 1)[1]
    return re.search(r"```\w*\n(.*?)```", body, re.S).group(1)


def test_readme_command_lines_match_parser():
    lines = first_code_block("Command line").splitlines()
    documented = [line.split()[1] for line in lines if line.startswith("harmchoice ")]
    assert documented == subcommands()


def test_every_exported_name_resolves():
    missing = [name for name in harmchoice.__all__ if not hasattr(harmchoice, name)]
    assert missing == []


def test_readme_api_names_are_exported():
    used = set(re.findall(r"\bhc\.(\w+)", first_code_block("Python API")))
    assert used
    assert used <= set(harmchoice.__all__)


#: A Sphinx cross-reference in a docstring, such as :func:`find_reversals`.
DOC_REFERENCE = re.compile(r":(?:func|data|class|meth|attr):`([\w.]+)`")


def has_path(obj: object, dotted: str) -> bool:
    for name in dotted.split("."):
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_docstring_references_resolve():
    """Every cross-reference in a package docstring names something that
    exists: in its own module's namespace, in a class defined there, or as a
    dotted ``harmchoice.`` path."""
    unresolved = []
    for path in sorted((ROOT / "src" / "harmchoice").glob("*.py")):
        name = "harmchoice" if path.stem == "__init__" else f"harmchoice.{path.stem}"
        module = importlib.import_module(name)
        classes = [
            value
            for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == name
        ]
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                continue
            for target in DOC_REFERENCE.findall(ast.get_docstring(node) or ""):
                if not (
                    has_path(module, target)
                    or any(has_path(cls, target) for cls in classes)
                    or target.startswith("harmchoice.")
                    and has_path(harmchoice, target.removeprefix("harmchoice."))
                ):
                    unresolved.append(f"{name}: {target}")
    assert unresolved == []


def perfbench_value(module: str, name: str) -> ast.expr:
    """The expression assigned to ``name`` at the top of perfbench/<module>.py,
    read with ast; nothing from perfbench is imported."""
    tree = ast.parse((ROOT / "perfbench" / f"{module}.py").read_text(encoding="utf-8"))
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
    ]
    return value


def test_traced_layers_resolve():
    """Every (module, function) that perfbench/traced_cli.py wraps exists, so
    renaming a traced layer fails here and not only in a traced benchmark
    run."""
    targets = perfbench_value("traced_cli", "TARGETS")
    pairs = [(row.elts[0].value, row.elts[1].value) for row in targets.elts]
    assert pairs
    missing = [
        f"{mod}.{name}" for mod, name in pairs if not hasattr(importlib.import_module(mod), name)
    ]
    assert missing == []


def test_load_dataset_reaches_traced_validate(tmp_path, monkeypatch):
    """load_dataset validates through the name harmchoice.cli.validate_choice,
    which traced_cli.py wraps for the core.validate span, in both formats."""
    calls = []
    validate = harmchoice.cli.validate_choice

    def recorder(rows, ground):
        calls.append(ground.n)
        return validate(rows, ground)

    monkeypatch.setattr(harmchoice.cli, "validate_choice", recorder)
    json_path = tmp_path / "cycle3.json"
    json_path.write_text(json.dumps(CYCLE3), encoding="utf-8")
    text_path = tmp_path / "cycle3.txt"
    text_path.write_text("x,y,z -> x\nx,y -> y\ny,z -> z\nx,z -> x\n", encoding="utf-8")
    for path in (json_path, text_path):
        harmchoice.cli.load_dataset(str(path))
    assert calls == [3, 3]


def test_required_spans_are_traced():
    """Every span a workload must record is the span name of a TARGETS row."""
    spans = {row.elts[2].value for row in perfbench_value("traced_cli", "TARGETS").elts}
    required = ast.literal_eval(perfbench_value("workloads", "TRACED_SPANS"))
    assert required
    missing = {name for names in required.values() for name in names} - spans
    assert missing == set()


@pytest.mark.parametrize("command", ["analyze", "elicit"])
@pytest.mark.parametrize(
    ("data", "reached", "count"),
    [
        (ERRATIC4, ["elicit_partial", "all_extensions"], 1),
        (CYCLE3, ["elicit_partial", "elicit_weakly_harmful"], 2),
    ],
    ids=["sp3", "sp1"],
)
def test_commands_reach_traced_elicitation(
    tmp_path, monkeypatch, capsys, command, data, reached, count
):
    """analyze and elicit elicit through the names in harmchoice.cli that
    traced_cli.py wraps for the elicit.* spans: the partial order and its
    extensions at sp >= 2, the partial order and the exact orders at sp = 1."""
    calls = []
    for name in ("elicit_partial", "elicit_weakly_harmful", "all_extensions"):
        original = getattr(harmchoice.cli, name)

        def spy(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(harmchoice.cli, name, spy)
    path = tmp_path / "data.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert harmchoice.cli.main([command, "--format", "json", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["elicited_order_count"] == count
    assert sorted(calls) == sorted(reached)
