"""README and the package's public names stay in step with the code."""

import re
from pathlib import Path

import harmchoice
from test_cli_golden import subcommands

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


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
