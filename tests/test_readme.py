"""README's Python example runs and gives the value its comment states,
every name its library overview quotes exists, every test it quotes is
defined, every command its usage block shows parses, and its command-line
section names the options the parser defines."""

import argparse
import builtins
import importlib
import re
from fractions import Fraction
from pathlib import Path

from kolmconj.cli import build_parser, main

TESTS = Path(__file__).resolve().parent
README = (TESTS.parent / "README.md").read_text()


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


def test_quoted_tests_are_defined():
    # a test that README names in backticks, alone or as `module.py::name`,
    # is defined in some module under tests/
    quoted = {name for span in re.findall(r"`([^`]*)`", README)
              for name in re.findall(r"\b(test_\w+)(?![\w.])", span)}
    defined = {name for path in TESTS.rglob("*.py")
               for name in re.findall(r"^\s*def (test_\w+)", path.read_text(), re.M)}
    assert quoted and quoted <= defined, sorted(quoted - defined)


def test_usage_lines_parse():
    [usage] = re.findall(r"## Command line\n\n```\n(.*?)```", README, re.S)
    lines = [line.split("#", 1)[0].split() for line in usage.splitlines() if line.strip()]
    assert len(lines) >= 9 and all(words[0] == "kolmconj" for words in lines)
    for words in lines:
        build_parser().parse_args(words[1:])


# options the command line section names as gone: each exits 2 in argparse
REMOVED_OPTIONS = {"--cap", "--nmax"}


def _subparser_options():
    """Every long option that a subparser defines, `--help` aside."""
    [commands] = [action.choices for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    return {option for parser in commands.values() for action in parser._actions
            for option in action.option_strings if option.startswith("--")} - {"--help"}


def test_command_line_options_match_the_parser(capsys):
    section = README.split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[A-Za-z]\w*", section))
    defined = _subparser_options()
    assert defined <= named
    assert named - defined == REMOVED_OPTIONS
    for option in sorted(REMOVED_OPTIONS):
        assert main(["sweep", "--mmax", "2", option, "1"]) == 2
        assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err
