"""tools/bench_pairs.py: one short pair of benchmark runs and the keys of the file it writes."""

import importlib.util
import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "bench_pairs.py"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _in_git_checkout() -> bool:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True).returncode == 0
    except OSError:
        return False


@pytest.mark.skipif(not _in_git_checkout(), reason="needs a git checkout with a commit")
def test_one_second_pair_writes_every_key(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(SCRIPT), "--parent", "HEAD", "--workloads", "circuits",
                    "--seeds", "1", "--seconds", "1", "--out", str(out)],
                   check=True, capture_output=True, timeout=300)
    report = json.loads(out.read_text())
    assert set(report) >= {"host", "parent", "change", "command", "seconds", "seeds", "workloads"}
    assert set(report["host"]) >= {"cpu", "nproc", "python"}
    assert report["seeds"] == [1] and report["seconds"] == 1
    assert len(report["parent"]["commit"]) == 40 and len(report["change"]["commit"]) == 40
    circuits = report["workloads"]["circuits"]
    (pair,) = circuits["pairs"]
    assert pair["seed"] == 1 and pair["order"] == ["parent", "change"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    names = [m["name"] for m in spec]
    for side in ("parent", "change"):
        assert sorted(pair[side]["metrics"]) == sorted(names)
        assert pair[side]["failed"] == 0 and pair[side]["attempted"] > 0
        assert circuits["failed_share"][side] == 0
        assert circuits["crashed"][side] == 0
    for m in spec:
        row = circuits["metrics"][m["name"]]
        assert row["bound"] == m["bound"] and row["better"] == m["better"]
        assert row["pairs"] == 1 and row["wins"] in (0, 1) and row["parent_iqr"] == 0
        assert set(row) >= {"parent_median", "change_median", "relative_change", "within_bound"}
    per_layer = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    traced = circuits["traced"]
    assert traced["seed"] == 1
    for side in ("parent", "change"):
        assert sorted(traced[side]["metrics"]) == sorted(per_layer)
        assert traced[side]["failed"] == 0 and traced[side]["metrics"]["qc.calls_per_op"] > 0


def test_seed_ranges():
    parse_seeds = runpy.run_path(str(SCRIPT))["parse_seeds"]
    assert parse_seeds("1-10") == list(range(1, 11))
    assert parse_seeds("1,4-5,9") == [1, 4, 5, 9]


@pytest.mark.parametrize("argv", [["--workloads", "circuits:5-1"], ["--seeds", "3-1"],
                                  ["--workloads", "frames:1-2,circuits:2-1"]])
def test_empty_seed_range_is_a_usage_error_before_any_export(tmp_path, monkeypatch, argv):
    bench_pairs = _load_script()

    def export(rev, dest):
        raise AssertionError("the parent must not be exported")

    monkeypatch.setattr(bench_pairs, "export", export)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "HEAD", *argv, "--out", str(out)])
    assert exc.value.code == 2 and not out.exists()


def test_workloads_with_their_own_seeds():
    parse_workloads = runpy.run_path(str(SCRIPT))["parse_workloads"]
    plan = parse_workloads("frames:1-10,circuits:1-3,mixed_states,cli:2", [4, 5])
    assert list(plan) == ["frames", "circuits", "mixed_states", "cli"]
    assert plan == {"frames": list(range(1, 11)), "circuits": [1, 2, 3],
                    "mixed_states": [4, 5], "cli": [2]}
    for bad in ("frames:x", "frames:", "frames,frames:1", "frames:5-1"):
        with pytest.raises(ValueError):
            parse_workloads(bad, [1])


def test_one_command_runs_each_workload_with_its_own_seeds(tmp_path, monkeypatch):
    calls = []

    def run_side(bench_pairs, command, tree, workload, seed, seconds, trace=0):
        side = "change" if tree == bench_pairs.ROOT else "parent"
        calls.append((side, workload, seed, trace))
        assert command == BENCH["command"] and seconds == 1
        return _completed_run(trace)

    code, report = _stub_report(tmp_path, monkeypatch, run_side,
                                ["--workloads", "circuits:2,mixed_states", "--seeds", "1",
                                 "--seconds", "1"])
    assert code == 0
    assert calls == [("parent", "circuits", 2, 0), ("change", "circuits", 2, 0),
                     ("parent", "circuits", 2, 1), ("change", "circuits", 2, 1),
                     ("parent", "mixed_states", 1, 0), ("change", "mixed_states", 1, 0),
                     ("parent", "mixed_states", 1, 1), ("change", "mixed_states", 1, 1)]
    assert list(report["workloads"]) == ["circuits", "mixed_states"]
    for workload, seed in (("circuits", 2), ("mixed_states", 1)):
        entry = report["workloads"][workload]
        assert entry["seeds"] == [seed]
        (pair,) = entry["pairs"]
        assert pair["seed"] == seed and pair["order"] == ["parent", "change"]
        assert entry["crashed"] == {"parent": 0, "change": 0}
        assert entry["metrics"]["ops_per_s"]["pairs"] == 1


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_crashed_change_side_fails_the_report(tmp_path, monkeypatch):
    calls = []

    def run_side(bench_pairs, command, tree, workload, seed, seconds, trace=0):
        # the change side is this checkout; its runs exit 1 at once
        side = "change" if tree == bench_pairs.ROOT else "parent"
        calls.append((side, workload, seed, trace))
        return {"exit": 1, "stderr": ""} if side == "change" else _completed_run(trace)

    code, report = _stub_report(tmp_path, monkeypatch, run_side,
                                ["--workloads", "circuits", "--seeds", "1-2",
                                 "--seconds", "0.5"])
    assert code == 1
    assert calls == [("parent", "circuits", 1, 0), ("change", "circuits", 1, 0),
                     ("change", "circuits", 2, 0), ("parent", "circuits", 2, 0),
                     ("parent", "circuits", 1, 1), ("change", "circuits", 1, 1)]
    circuits = report["workloads"]["circuits"]
    assert circuits["crashed"] == {"parent": 0, "change": 2}
    assert all(pair["change"]["exit"] == 1 for pair in circuits["pairs"])
    assert circuits["traced"]["change"]["exit"] == 1 and "metrics" in circuits["traced"]["parent"]
    for row in circuits["metrics"].values():
        assert row["pairs"] == 2 and row["wins"] == 0 and row["within_bound"] is False


def test_one_crashed_change_run_loses_its_pair_and_the_bound():
    summarize = runpy.run_path(str(SCRIPT))["summarize"]
    spec = [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]
    ok = {"attempted": 10, "failed": 0, "metrics": {"ops_per_s": 100.0}}
    fast = {"attempted": 10, "failed": 0, "metrics": {"ops_per_s": 200.0}}
    pairs = [{"parent": ok, "change": fast}, {"parent": ok, "change": {"exit": 1, "stderr": ""}}]
    row = summarize(pairs, spec)["ops_per_s"]
    assert row["pairs"] == 2 and row["wins"] == 1
    assert row["change_median"] == 200.0 and row["within_bound"] is False
    assert summarize(pairs[:1], spec)["ops_per_s"]["within_bound"] is True


def test_each_workload_records_the_median_ops_attempted_per_side(tmp_path, monkeypatch):
    bench_pairs = _load_script()
    attempted = {"parent": iter([100, 300, 200]), "change": iter([400, 0, 600])}
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    def run_side(command, tree, workload, seed, seconds, trace=0):
        side = "change" if tree == bench_pairs.ROOT else "parent"
        if trace:
            return {"attempted": 1, "failed": 0, "metrics": {}}
        n = next(attempted[side])
        if not n:  # one crashed change run: it counts for no median
            return {"exit": 1, "stderr": ""}
        return {"attempted": n, "failed": 0, "metrics": dict.fromkeys(names, float(n))}

    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: dest)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "0" * 40)
    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    out = tmp_path / "bench.json"
    bench_pairs.main(["--parent", "HEAD", "--workloads", "frames", "--seeds", "1-3",
                      "--out", str(out)])
    frames = json.loads(out.read_text())["workloads"]["frames"]
    assert frames["attempted"] == {"parent": 200, "change": 500}


def _completed_run(trace):
    """A completed run as `run_side` returns it: the end-to-end metrics, or with `trace` the split."""
    names = [m["name"] for m in BENCH["per_layer" if trace else "end_to_end"]]
    return {"attempted": 10, "failed": 0, "metrics": dict.fromkeys(names, 1.0)}


def _stub_report(tmp_path, monkeypatch, run_side, argv):
    """main() with `run_side` stubbed and nothing exported; returns (exit code, the file)."""
    bench_pairs = _load_script()
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: dest)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "0" * 40)
    monkeypatch.setattr(bench_pairs, "run_side", lambda *a, **k: run_side(bench_pairs, *a, **k))
    out = tmp_path / "bench.json"
    code = bench_pairs.main(["--parent", "HEAD", *argv, "--out", str(out)])
    return code, json.loads(out.read_text())


def test_each_workload_ends_with_one_traced_run_per_side_on_its_first_seed(tmp_path, monkeypatch):
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    calls = []

    def run_side(bench_pairs, command, tree, workload, seed, seconds, trace=0):
        side = "change" if tree == bench_pairs.ROOT else "parent"
        calls.append((workload, seed, side, trace))
        if trace:  # a per-layer split tagged with its seed and its place among the calls
            split = {"gf2.calls_per_op": float(seed), "space.born.self_us_per_op": len(calls)}
            return {"attempted": 4, "failed": 0, "metrics": split}
        return {"attempted": 10, "failed": 0, "metrics": dict.fromkeys(names, 1.0)}

    code, report = _stub_report(tmp_path, monkeypatch, run_side,
                                ["--workloads", "frames:3-5,cli:7", "--seconds", "1"])
    assert code == 0
    assert [c for c in calls if c[3]] == [("frames", 3, "parent", 1), ("frames", 3, "change", 1),
                                          ("cli", 7, "parent", 1), ("cli", 7, "change", 1)]
    # each workload's traced runs come after all of its pairs
    assert [c[:2] for c in calls] == [("frames", 3), ("frames", 3), ("frames", 4), ("frames", 4),
                                      ("frames", 5), ("frames", 5), ("frames", 3), ("frames", 3),
                                      ("cli", 7), ("cli", 7), ("cli", 7), ("cli", 7)]
    # the file keeps each side's own split: the stub tags it with its place among the calls
    for workload, seed, place in (("frames", 3, 7), ("cli", 7, 11)):
        traced = report["workloads"][workload]["traced"]
        assert traced["seed"] == seed
        assert traced["parent"]["metrics"] == {"gf2.calls_per_op": seed,
                                               "space.born.self_us_per_op": place}
        assert traced["change"]["metrics"] == {"gf2.calls_per_op": seed,
                                               "space.born.self_us_per_op": place + 1}
        assert report["workloads"][workload]["crashed"] == {"parent": 0, "change": 0}


def test_a_crashed_traced_run_fails_the_report_but_no_pair(tmp_path, monkeypatch):
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    def run_side(bench_pairs, command, tree, workload, seed, seconds, trace=0):
        if trace and tree == bench_pairs.ROOT:
            return {"exit": 3, "stderr": "aborted"}
        return {"attempted": 10, "failed": 0, "metrics": dict.fromkeys(names, 1.0)}

    code, report = _stub_report(tmp_path, monkeypatch, run_side,
                                ["--workloads", "frames:1-2", "--seconds", "1"])
    frames = report["workloads"]["frames"]
    assert code == 1
    assert frames["traced"]["change"] == {"exit": 3, "stderr": "aborted"}
    assert frames["crashed"] == {"parent": 0, "change": 0}
    assert all(row["within_bound"] for row in frames["metrics"].values())
