"""README's Python example runs and gives the value its comment states,
every name its library overview quotes exists, and every command its usage
block shows parses."""

import builtins
import importlib
import re
from fractions import Fraction
from pathlib import Path

from kolmconj.cli import build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_python_example_gives_the_stated_value():
    [example] = re.findall(r"```python\n(.*?)```", README, re.S)
    assert "# Fraction(-23779, 25721)" in example
    scope = {}
    exec(example, scope)
    assert scope["q"] == Fraction(-23779, 25721)


def _overview_names():
    """(module, name) for each identifier the library overview quotes in
    backticks, a call such as `main(argv)` by its name."""
    table = README.split("## Library overview", 1)[1].split("```", 1)[0]
    rows = re.findall(r"^\| `(kolmconj\.\w+)` \| (.*) \|$", table, re.M)
    return [(module, name) for module, text in rows
            for name in re.findall(r"`([A-Za-z_]\w*)(?:\([^`]*\))?`", text)]


def test_overview_names_resolve():
    names = _overview_names()
    assert len(names) >= 12
    for module, name in names:
        assert (hasattr(importlib.import_module(module), name)
                or hasattr(builtins, name) or name == "kolmconj"), (module, name)


def test_usage_lines_parse():
    [usage] = re.findall(r"## Command line\n\n```\n(.*?)```", README, re.S)
    lines = [line.split("#", 1)[0].split() for line in usage.splitlines() if line.strip()]
    assert len(lines) >= 9 and all(words[0] == "kolmconj" for words in lines)
    for words in lines:
        build_parser().parse_args(words[1:])
