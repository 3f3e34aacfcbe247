"""README, the benchmark's traced layers and the package's public names stay
in step with the code."""

import ast
import importlib
import json
import re
from pathlib import Path

import harmchoice
import harmchoice.cli
from test_cli import CYCLE3
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


def test_traced_layers_resolve():
    """Every (module, function) that perfbench/traced_cli.py wraps exists, so
    renaming a traced layer fails here and not only in a traced benchmark
    run. TARGETS is read with ast; nothing from perfbench is imported."""
    tree = ast.parse((ROOT / "perfbench" / "traced_cli.py").read_text(encoding="utf-8"))
    (targets,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    ]
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
