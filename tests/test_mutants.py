"""tools/mutants.py: the kept list matches the source, and a stubbed pytest run decides the exit code."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "mutants.py"
KEPT = json.loads((ROOT / "tools" / "mutants.json").read_text())


def _load_script():
    spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mutant", KEPT, ids=[m["name"] for m in KEPT])
def test_every_kept_mutant_changes_one_place_in_its_file(mutant):
    assert set(mutant) <= {"name", "file", "old", "new", "tests", "equivalent"}
    assert (ROOT / mutant["file"]).read_text().count(mutant["old"]) == 1
    assert mutant["new"] != mutant["old"] and mutant["tests"]
    for test in mutant["tests"]:
        assert (ROOT / test.split("::")[0]).is_file()


MODULE = "def f(x):\n    return x + 1\n"


def run_stubbed(tmp_path, monkeypatch, mutants, exit_code):
    """main() on `mutants` over a one-file tree; `exit_code(source, tests)` stands in for pytest."""
    tool = _load_script()
    listing = tmp_path / "mutants.json"
    listing.write_text(json.dumps(mutants))

    def export(rev, dest):
        assert rev == "HEAD"
        (dest / "src").mkdir(parents=True)
        (dest / "src" / "m.py").write_text(MODULE)
        return dest

    runs = []

    def run_tests(tree, tests):
        source = (tree / "src" / "m.py").read_text()
        runs.append(source)
        return exit_code(source, tests)

    monkeypatch.setattr(tool, "export", export)
    monkeypatch.setattr(tool, "run_tests", run_tests)
    return tool.main(listing), runs


def mutant(new, **extra):
    return {"name": new, "file": "src/m.py", "old": "x + 1", "new": new, "tests": ["t.py"], **extra}


def fails_on_mutants(source, tests):
    return 0 if source == MODULE else 1


def test_killed_mutants_pass_and_each_file_is_put_back(tmp_path, monkeypatch):
    code, runs = run_stubbed(tmp_path, monkeypatch, [mutant("x - 1"), mutant("x + 2")],
                             fails_on_mutants)
    assert code == 0
    assert runs == [MODULE, MODULE.replace("x + 1", "x - 1"), MODULE.replace("x + 1", "x + 2")]


def test_a_surviving_mutant_fails_the_run(tmp_path, monkeypatch):
    code, _ = run_stubbed(tmp_path, monkeypatch, [mutant("x - 1"), mutant("1 + x")],
                          lambda source, tests: 0 if "x - 1" not in source else 1)
    assert code == 1


def test_a_surviving_mutant_marked_equivalent_passes(tmp_path, monkeypatch, capsys):
    code, _ = run_stubbed(tmp_path, monkeypatch, [mutant("1 + x", equivalent="addition commutes")],
                          lambda source, tests: 0)
    assert code == 0 and "equivalent: addition commutes" in capsys.readouterr().out


def test_an_old_string_that_no_longer_matches_fails_the_run(tmp_path, monkeypatch, capsys):
    stale = {**mutant("x - 1"), "old": "x + 3"}
    code, runs = run_stubbed(tmp_path, monkeypatch, [stale], fails_on_mutants)
    assert code == 1 and runs == [MODULE] and "STALE" in capsys.readouterr().out


def test_failing_unmutated_tests_fail_the_run_before_any_mutant(tmp_path, monkeypatch):
    code, runs = run_stubbed(tmp_path, monkeypatch, [mutant("x - 1")], lambda source, tests: 1)
    assert code == 1 and runs == [MODULE]


def test_a_pytest_usage_error_is_not_a_kill(tmp_path, monkeypatch):
    code, _ = run_stubbed(tmp_path, monkeypatch, [mutant("x - 1")],
                          lambda source, tests: 0 if source == MODULE else 4)
    assert code == 1
