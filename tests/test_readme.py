"""README's command-line examples, each run in-process through `cli.main` from the repo root,
and its references to code and files, each checked to resolve."""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import setqm
from setqm.cli import main

ROOT = Path(__file__).resolve().parent.parent


def readme_commands():
    """The `setqm ...` lines of the first sh block after README's "## Command line" heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()
            if line.startswith("setqm ")]


COMMANDS = readme_commands()


def test_the_block_lists_every_example():
    assert len(COMMANDS) >= 13


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(c[1:]) for c in COMMANDS])
def test_readme_command_runs_cleanly(argv, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert argv[0] == "setqm"
    assert main(argv[1:]) == 0
    out, err = capsys.readouterr()
    assert out and err == ""


SUBMODULES = {m.name for m in pkgutil.iter_modules(setqm.__path__)}
PATH_ROOTS = ("tools/", "perfbench/", "tests/", "circuits/")


def readme_references():
    """README's backticked `module.name` and `Class.attr` references, and its repository paths."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    names, paths = set(), set()
    for word in re.findall(r"`([^`\s]+)`", text):
        dotted = re.fullmatch(r"(\w+)\.(\w+)(?:\(\))?", word)
        if dotted and (dotted[1] in SUBMODULES or dotted[1] in setqm.__all__):
            names.add(dotted.group(1, 2))
        elif word.startswith(PATH_ROOTS):
            paths.add(word)
    return sorted(names), sorted(paths)


def resolves(owner, attr):
    if owner in SUBMODULES:
        return hasattr(importlib.import_module(f"setqm.{owner}"), attr)
    cls = getattr(setqm, owner)
    return isinstance(cls, type) and hasattr(cls, attr)


def test_readme_references_resolve():
    names, paths = readme_references()
    assert names and paths
    assert [f"{o}.{a}" for o, a in names if not resolves(o, a)] == []
    assert [p for p in paths if not (ROOT / p).exists()] == []
