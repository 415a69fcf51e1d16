import json
from pathlib import Path

import pytest

from setqm.cli import main

CIRCUITS = Path(__file__).resolve().parent.parent / "circuits"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ket_table(capsys):
    code, out, _ = run_cli(capsys, "ket-table")
    assert code == 0
    assert "{a,b,c}" in out and "{c'}" in out and "{a'',b'',c''}" in out
    code, out, _ = run_cli(capsys, "ket-table", "--dim", "2", "--format", "json")
    rows = json.loads(out)
    assert {"U": ["a", "b"], "U'": ["a'"], "U''": ["a''"]} in rows
    assert len(rows) == 4


def test_bracket(capsys):
    code, out, _ = run_cli(capsys, "bracket", "{a,b}", "{a,c}")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run_cli(capsys, "bracket", "{a,b}", "{a,c}", "--format", "json")
    assert json.loads(out) == {"bracket": 1}


def test_born(capsys):
    code, out, _ = run_cli(capsys, "born", "{a,b}", "--frame", "U")
    assert code == 0
    assert "a  1/2" in out and "c  0" in out
    code, out, _ = run_cli(capsys, "born", "{a,b}", "--frame", "U''", "--format", "json")
    data = json.loads(out)
    assert data["probabilities"] == {"a''": "0/1", "b''": "1/1", "c''": "0/1"}


def test_born_zero_state_exits_1(capsys):
    code, _, err = run_cli(capsys, "born", "{}", "--frame", "U")
    assert code == 1
    assert "ZeroState" in err


def test_born_unknown_frame(capsys):
    code, _, err = run_cli(capsys, "born", "{a}", "--frame", "W")
    assert code == 1 and "unknown frame" in err


def test_measure(capsys):
    code, out, _ = run_cli(
        capsys, "measure", "--attr", "a:1,b:2,c:3", "--state", "{a,b,c}", "--seed", "3"
    )
    assert code == 0
    assert "observed eigenvalue" in out
    code, out, _ = run_cli(
        capsys, "measure", "--attr", "a:0,b:1,c:1", "--state", "{a,b,c}",
        "--format", "json",
    )
    data = json.loads(out)
    assert data["probabilities"] == {"0/1": "1/3", "1/1": "2/3"}


def test_entropy(capsys):
    code, out, _ = run_cli(capsys, "entropy", "--partition", "{a,b}|{c}")
    assert code == 0
    assert "h = 4/9" in out
    assert "0.918" in out
    code, out, _ = run_cli(capsys, "entropy", "--partition", "{a,b}|{c}", "--format", "json")
    data = json.loads(out)
    assert data["logical"] == "4/9"
    assert abs(data["shannon"] - 0.9182958340544896) < 1e-12


def test_density(capsys):
    code, out, _ = run_cli(capsys, "density", "--partition", "{a,b}|{c}")
    assert code == 0
    assert "purity = 5/9" in out and "h = 4/9" in out
    code, out, _ = run_cli(capsys, "density", "--state", "{a,b}", "--format", "json")
    data = json.loads(out)
    assert data["matrix"][0] == ["1/2", "1/2", "0/1"]
    assert data["purity"] == "1/1"


def test_density_requires_exactly_one_input(capsys):
    code, _, err = run_cli(capsys, "density")
    assert code == 1 and "exactly one" in err


def test_measure_density(capsys):
    code, out, _ = run_cli(capsys, "measure-density", "--attr", "a:1,b:2,c:3")
    assert code == 0
    assert "entropy increase = 2/3" in out
    code, out, _ = run_cli(
        capsys, "measure-density", "--attr", "a:0,b:1,c:1", "--format", "json"
    )
    data = json.loads(out)
    assert data["entropy_increase"] == "4/9"
    assert data["after"][1] == ["0/1", "1/3", "1/3"]


def test_double_slit(capsys):
    code, out, _ = run_cli(capsys, "double-slit")
    assert code == 0
    assert "a  1/2" in out and "b  0" in out and "c  1/2" in out
    code, out, _ = run_cli(capsys, "double-slit", "--measure-at-slits", "--format", "json")
    data = json.loads(out)
    assert data["distribution"] == {"a": "1/4", "b": "1/2", "c": "1/4"}


def test_bell(capsys):
    code, out, _ = run_cli(capsys, "bell")
    assert code == 0
    assert "1/4 + 0 ≥ 1/2 : VIOLATED" in out
    assert "state-outcome" in out
    code, out, _ = run_cli(capsys, "bell", "--format", "json")
    data = json.loads(out)
    assert data["violated"] is True
    assert data["terms"] == {"(a,a')": "1/4", "(b',b'')": "0/1", "(a,b'')": "1/2"}
    assert data["state_outcome"]["{a,b}"]["a''"] == "1/1"


def test_bell_separated_state(capsys):
    code, out, _ = run_cli(capsys, "bell", "--state", "{(a,a)}")
    assert code == 0 and "SATISFIED" in out


def test_teleport(capsys):
    code, out, _ = run_cli(capsys, "teleport", "--alpha", "1", "--beta", "1", "--seed", "0")
    assert code == 0 and "teleported" in out
    code, out, _ = run_cli(
        capsys, "teleport", "--alpha", "0", "--beta", "1", "--seed", "4", "--format", "json"
    )
    data = json.loads(out)
    assert data["teleported"] is True
    assert data["bob"] == [0, 1]


def test_teleport_zero_input(capsys):
    code, _, err = run_cli(capsys, "teleport", "--alpha", "0", "--beta", "0")
    assert code == 1 and "ZeroState" in err


def test_parity_sat(capsys):
    code, out, _ = run_cli(capsys, "parity-sat", "--table", "1101")
    assert code == 0
    assert "measured |01>" in out and "parity: odd" in out
    code, out, _ = run_cli(capsys, "parity-sat", "--table", "10", "--format", "json")
    data = json.loads(out)
    assert data["parity"] == 1
    assert data["measured_ket"] == "1"
    code, out, _ = run_cli(capsys, "parity-sat", "--table", "11")
    assert "deutsch: constant" in out


def test_parity_sat_bad_table(capsys):
    code, _, err = run_cli(capsys, "parity-sat", "--table", "110")
    assert code == 1 and "truth table" in err


def test_run_circuit(capsys):
    code, out, _ = run_cli(capsys, "run", str(CIRCUITS / "deutsch_negation.qc2"))
    assert code == 0
    assert "line 0 -> 1" in out
    code, out, _ = run_cli(
        capsys, "run", str(CIRCUITS / "parity_sat2.qc2"), "--format", "json"
    )
    data = json.loads(out)
    assert data["trace"][-1]["state"] == ["01"]


def test_run_parse_error_position(capsys, tmp_path):
    bad = tmp_path / "bad.qc2"
    bad.write_text("lines 1\ngate H9 0\n")
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == 1
    assert "ParseError" in err and "line 2" in err


def test_run_too_wide_exits_1(capsys, tmp_path):
    wide = tmp_path / "wide.qc2"
    wide.write_text("lines 40\ngate X 0\n")
    code, out, err = run_cli(capsys, "run", str(wide))
    assert code == 1 and out == ""
    assert err.startswith("RegisterTooWide:") and "Traceback" not in err


def test_run_non_ascii_line_count_exits_1(capsys, tmp_path):
    bad = tmp_path / "digit.qc2"
    bad.write_text("lines ²\ngate X 0\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == 1
    assert err.startswith("ParseError:") and "line 1, col 7" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["born", "{a}", "--frame"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv,error",
    [
        (("bracket", "{a,z}", "{a}"), "UnknownLabel"),
        (("entropy", "--partition", "{a}|{b}"), "InvalidBlocks"),
        (("measure", "--attr", "a:1,b:2", "--state", "{a}"), "NotTotal"),
        (("bell", "--state", "{(a,z)}"), "UnknownLabel"),
    ],
)
def test_bad_labels_and_blocks_exit_1_with_the_error_name(capsys, argv, error):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"{error}: ") and "Traceback" not in err
