"""README's command-line examples, each run in-process through `cli.main` from the repo root."""

import shlex
from pathlib import Path

import pytest

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
