import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import setqm
from setqm import cli
from setqm.cli import build_parser, main
from setqm.density import DensityMatrix

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


def test_repeated_label_is_one_element(capsys):
    code, out, _ = run_cli(capsys, "bracket", "{a,a}", "{a}")
    assert code == 0 and out.strip() == "1"
    _, twice, _ = run_cli(capsys, "density", "--state", "{a,a,b}")
    _, once, _ = run_cli(capsys, "density", "--state", "{a,b}")
    assert twice == once and "purity = 1" in once


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


@pytest.mark.parametrize("table, error", [
    ("110", "InvalidArgument: truth table must hold 2^arity bits"),
    ("\u0661\u0660", "InvalidArgument: truth table"),  # digits, but not 0/1 bits
    ("1", "WrongArity: arity must be at least 1"),
])
def test_parity_sat_bad_table(capsys, table, error):
    # the library's BooleanFunction check, the only one
    code, _, err = run_cli(capsys, "parity-sat", "--table", table)
    assert code == 1 and err.startswith(error) and "Traceback" not in err


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


# main in a child whose address space is capped at 400 MB (`ulimit -v 400000`)
CAPPED_MAIN = """\
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (400_000 << 10, 400_000 << 10))
sys.path.insert(0, {src!r})
from setqm.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_run_too_many_kets_to_print_exits_1_before_rendering(tmp_path, fmt):
    # 20 lines, each given H0 three times: the trace holds about 5 * 2^20 kets
    wide = tmp_path / "wide.qc2"
    wide.write_text("lines 20\n" + "".join(f"gate H0 {k % 20}\n" for k in range(60)))
    src = str(Path(setqm.__file__).resolve().parent.parent)
    child = subprocess.run([sys.executable, "-c", CAPPED_MAIN.format(src=src),
                            "run", str(wide), "--format", fmt],
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 1 and child.stdout == ""
    assert child.stderr.startswith("TooLarge:") and "Traceback" not in child.stderr


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_run_sums_the_trace_once(capsys, monkeypatch, fmt):
    checks = []
    check = setqm.dsl.RunResult._check_printable
    monkeypatch.setattr(setqm.dsl.RunResult, "_check_printable",
                        lambda result: checks.append(result) or check(result))
    code, out, _ = run_cli(capsys, "run", str(CIRCUITS / "teleport.qc2"), "--format", fmt)
    assert code == 0 and out and len(checks) == 1


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
        (("measure", "--attr", "a:1,a:2,b:3,c:4", "--state", "{a}"), "NotTotal"),
        (("measure-density", "--attr", "a:1,b:2,c:3,a:1"), "NotTotal"),
        (("bell", "--state", "{(a,z)}"), "UnknownLabel"),
    ],
)
def test_bad_labels_and_blocks_exit_1_with_the_error_name(capsys, argv, error):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"{error}: ") and "Traceback" not in err


def test_repeated_attribute_label_is_named(capsys):
    code, _, err = run_cli(capsys, "measure", "--attr", "a:1,b:3,c:4, a :2", "--state", "{a}")
    assert code == 1 and err == "NotTotal: label 'a' is given more than one value\n"


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("argv,reads", [
    (("density", "--partition", "{a,b}|{c}"), 1),
    (("density", "--state", "{a,c}"), 1),
    (("measure-density", "--attr", "a:0,b:1,c:1"), 2),
])
def test_only_the_chosen_format_is_rendered(capsys, monkeypatch, fmt, argv, reads):
    entries = DensityMatrix.entries
    calls = []

    def counted(rho):
        calls.append(rho)
        return entries.fget(rho)

    monkeypatch.setattr(DensityMatrix, "entries", property(counted))
    code, _, _ = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0 and len(calls) == reads


def test_bad_rational_exits_1(capsys):
    code, out, err = run_cli(capsys, "measure", "--attr", "a:1/0,b:1,c:2", "--state", "{a}")
    assert code == 1 and out == ""
    assert err.startswith("SetQMError: bad rational value")


@pytest.mark.parametrize(
    "make_path,error",
    [
        (lambda tmp: tmp / "missing.qc2", "FileNotFoundError"),
        (lambda tmp: tmp, "IsADirectoryError"),
        (lambda tmp: _write(tmp / "bytes.qc2", b"\xff\xfe"), "UnicodeDecodeError"),
    ],
)
def test_run_unreadable_file_exits_1_with_the_error_name(capsys, tmp_path, make_path, error):
    code, out, err = run_cli(capsys, "run", str(make_path(tmp_path)))
    assert code == 1 and out == ""
    assert err.startswith(f"{error}: ") and "Traceback" not in err


def _write(path, data):
    path.write_bytes(data)
    return path


# -- fuzzing: every subcommand keeps the exit contract on generated arguments --

LABELS = st.sampled_from(["a", "b", "c", "a'", "z", " ", ""])
SUBSETS = st.lists(LABELS, min_size=1, max_size=4).map(lambda xs: "{" + ",".join(xs) + "}")
BLOCK_OF = st.lists(st.integers(0, 2), min_size=3, max_size=3)  # a block number for a, b, c
PARTITIONS = st.one_of(
    BLOCK_OF.map(
        lambda ks: "|".join(
            "{" + ",".join(x for x, k in zip("abc", ks) if k == b) + "}" for b in sorted(set(ks))
        )
    ),
    st.lists(SUBSETS, min_size=1, max_size=3).map("|".join),
)
RATIONALS = st.sampled_from(["0", "1", "-2", "1/2", "1/0", "0.5", "x", ""])
ATTRS = st.one_of(
    st.lists(st.sampled_from(["0", "1", "-2", "1/2"]), min_size=3, max_size=3).map(
        lambda vs: ",".join(f"{x}:{v}" for x, v in zip("abc", vs))
    ),
    st.lists(st.tuples(LABELS, RATIONALS), min_size=1, max_size=4).map(
        lambda kv: ",".join(f"{k}:{v}" for k, v in kv)
    ),
)
PAIRS = st.lists(st.tuples(LABELS, LABELS), max_size=3).map(
    lambda ps: "{" + ",".join(f"({x},{y})" for x, y in ps) + "}"
)
NUMBERS = st.integers(-3, 5).map(str)
NOISE = st.text(max_size=8)


def opt(flag, values=None):
    """The tokens of one option: the flag, then a drawn value unless it is a switch."""
    return st.just([flag]) if values is None else values.map(lambda v: [flag, v])


def pos(values):
    return values.map(lambda v: [v])


FORMAT = opt("--format", st.sampled_from(["table", "json"]))
DIM = opt("--dim", st.sampled_from(["2", "3"]))
SEED = opt("--seed", NUMBERS)
BITS = st.sampled_from(["0", "1"])

# subcommand -> (arguments always given, arguments given half the time)
SUBCOMMANDS = {
    "ket-table": ([], [FORMAT, DIM]),
    "bracket": ([pos(SUBSETS), pos(SUBSETS)], [FORMAT, DIM]),
    "born": ([pos(SUBSETS), opt("--frame", st.sampled_from(["U", "U'", "U''", "W"]))],
             [FORMAT, DIM]),
    "measure": ([opt("--attr", ATTRS), opt("--state", SUBSETS)], [SEED, FORMAT, DIM]),
    "entropy": ([opt("--partition", PARTITIONS)], [FORMAT, DIM]),
    "density": ([], [opt("--partition", PARTITIONS), opt("--state", SUBSETS), FORMAT, DIM]),
    "measure-density": ([opt("--attr", ATTRS)], [opt("--partition", PARTITIONS), FORMAT, DIM]),
    "double-slit": ([], [opt("--measure-at-slits"), FORMAT]),
    "bell": ([], [opt("--state", PAIRS), FORMAT]),
    "teleport": ([opt("--alpha", BITS), opt("--beta", BITS)], [SEED, FORMAT]),
    "parity-sat": ([opt("--table", st.text("01", max_size=9))], [FORMAT]),
    "run": ([], [SEED, FORMAT]),  # the file is drawn by the test
}
FLAGS = [
    "--alpha", "--attr", "--beta", "--dim", "--format", "--frame", "--help",
    "--measure-at-slits", "--partition", "--seed", "--state", "--table",
]


def test_fuzz_table_names_every_subcommand():
    choices = re.search(r"\{(.*?)\}", build_parser().format_usage()).group(1)
    assert set(choices.split(",")) == set(SUBCOMMANDS)


@st.composite
def argument_lists(draw, command):
    """Well-formed arguments with generated values, now and then a stray token."""
    required, optional = SUBCOMMANDS[command]
    args = [token for tokens in required for token in draw(tokens)]
    for tokens in optional:
        if draw(st.booleans()):
            args += draw(tokens)
    if draw(st.sampled_from([False, False, False, True])):  # the shrink target is no stray
        stray = draw(st.one_of(st.sampled_from(FLAGS), NOISE))
        args.insert(draw(st.integers(0, len(args))), stray)
    return args


def call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_exit_contract(argv):
    code, out, err = call_cli(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in out + err, argv
    if code == 1:
        assert re.match(r"[A-Z]\w*: ", err), (argv, err)


@pytest.mark.parametrize("command", sorted(set(SUBCOMMANDS) - {"run"}))
@given(data=st.data())
def test_fuzzed_subcommands_keep_the_exit_contract(command, data):
    assert_exit_contract([command, *data.draw(argument_lists(command))])


STATEMENTS = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "21", "x"]).map(lambda n: f"lines {n}"),
    st.text("01+", max_size=6).map(lambda k: f"init {k}"),
    st.text("01+", max_size=9).map(lambda k: f"init ket {k}"),
    st.tuples(
        st.sampled_from(["I", "X", "H0", "H1", "XH0", "XH1", "H9", "CNOT", "EF"]),
        st.text("0123 ", max_size=5),
    ).map(lambda g: f"gate {g[0]} {g[1]}"),
    st.sampled_from(["measure 0", "measure 1", "measure all", "measure 9", "measure", "# c"]),
    NOISE,
)


@st.composite
def programs(draw):
    """A program that parses, followed by up to two generated statements."""
    n = draw(st.sampled_from([1, 2, 3, 4]))
    line = st.integers(0, n - 1).map(str)
    steps = [st.tuples(st.sampled_from(["I", "X", "H0", "H1", "XH0", "XH1"]), line).map(" ".join)]
    if n > 1:  # CNOT acts on adjacent lines
        pair = st.integers(0, n - 2).flatmap(lambda c: st.permutations([c, c + 1]))
        steps.append(pair.map(lambda ct: f"CNOT {ct[0]} {ct[1]}"))
    if n != 3:  # EF spans a power-of-two line count with a 2n-bit table
        steps.append(st.text("01", min_size=2 * n, max_size=2 * n).map(lambda t: f"EF {t}"))
    body = [f"lines {n}", "init " + draw(st.text("01", min_size=n, max_size=n))]
    body += ["gate " + s for s in draw(st.lists(st.one_of(steps), min_size=1, max_size=5))]
    body += draw(st.lists(st.sampled_from(["measure all", "measure 0"]), max_size=1))
    body += draw(st.lists(STATEMENTS, max_size=2))
    return "\n".join(body).encode()


SOURCES = st.one_of(
    programs(),
    st.lists(STATEMENTS, max_size=8).map(lambda xs: "\n".join(xs).encode()),
    st.binary(max_size=24),
    st.binary(max_size=24).map(lambda b: b"\x80" + b),  # never UTF-8: a stray continuation byte
)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(source=SOURCES, data=st.data())
def test_fuzzed_run_keeps_the_exit_contract(tmp_path, source, data):
    path = tmp_path / "fuzz.qc2"
    path.write_bytes(source)
    assert_exit_contract(["run", str(path), *data.draw(argument_lists("run"))])


# -- one kept parser: main answers as a new build_parser() does, call after call --

# a command name first, then each kind of usage error; before it, the calls that name none
EDGE_CALLS = [[], ["-h"], ["--help"], ["nope"], ["-h", "bracket"], ["--format", "json", "bracket"]]
EDGE_CALLS += [
    [command, *tail] for command in SUBCOMMANDS
    for tail in (["-h"], [], ["--format", "xml"], ["--bogus"], ["--dim", "4"], ["w", "x", "y", "z"])
]
# well-formed calls that set options away from their defaults
SET_OPTIONS = [
    ["ket-table", "--dim", "2", "--format", "json"], ["double-slit", "--measure-at-slits"],
    ["measure", "--attr", "a:1,b:2", "--state", "{a,b}", "--seed", "5", "--dim", "2"],
    ["density", "--state", "{a}", "--format", "json"], ["bell", "--state", "{(a,a),(b,b)}"],
    ["teleport", "--alpha", "1", "--beta", "0", "--seed", "3", "--format", "json"],
]


def reference_cli(argv):
    """call_cli with main parsing through a new build_parser() rather than the kept one.

    argparse's texts differ between Python versions, so the two sides are
    compared at run time and no output is stored.
    """
    with mock.patch.object(cli, "_parser", build_parser):
        return call_cli(argv)


def test_main_builds_one_parser_per_process():
    built = []
    full = cli.build_parser

    def spy():
        built.append(1)
        return full()

    calls = [["bracket", "{a}", "{b}"], ["born", "{a}", "--frame", "U", "--format", "json"],
             ["bracket", "{a}"], ["nope"], ["--format", "json", "bracket"], ["run", "-h"],
             ["-h"], []]
    assert cli._parser() is cli._parser()
    with mock.patch.object(cli, "build_parser", spy):
        cli._parser.cache_clear()
        for argv in calls:
            call_cli(argv)
    assert len(built) == 1
    assert build_parser() is not build_parser()


def test_the_kept_parser_answers_every_call_of_a_sequence_as_a_new_one():
    # a usage error, a -h or an earlier command's options leave nothing in it
    kept = cli._parser()
    sequence = EDGE_CALLS + SET_OPTIONS + EDGE_CALLS[::-1]
    for i, argv in enumerate(sequence):
        assert call_cli(argv) == reference_cli(argv), (i, argv)
    assert cli._parser() is kept


def test_edge_calls_cover_every_subcommand():
    assert len(EDGE_CALLS) == 78 and {argv[0] for argv in EDGE_CALLS[6:]} == set(SUBCOMMANDS)


@pytest.mark.parametrize("argv", EDGE_CALLS, ids=[" ".join(a) or "no-arguments" for a in EDGE_CALLS])
def test_edge_calls_match_the_full_parser(argv):
    assert call_cli(argv) == reference_cli(argv)


@given(data=st.data())
def test_fuzzed_calls_match_the_full_parser(data):
    command = data.draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [command, *data.draw(argument_lists(command))]
    if command == "run":
        argv.insert(1, str(CIRCUITS / "teleport.qc2"))
    if data.draw(st.sampled_from([False, False, False, True])):  # a first token naming no command
        argv.insert(0, data.draw(st.one_of(st.sampled_from(FLAGS), NOISE)))
    assert call_cli(argv) == reference_cli(argv)


@pytest.mark.parametrize("argv", [["bracket", "{a,b}", "{a,c}"], ["bracket", "{a}"],
                                  ["bracket", "a", "b", "c"], ["-h"], [], ["nope"]])
def test_main_reads_sys_argv_like_the_full_parser(monkeypatch, argv):
    monkeypatch.setattr(sys, "argv", ["setqm", *argv])
    assert call_cli(None) == reference_cli(None)
