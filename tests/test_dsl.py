from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from setqm.dsl import (
    CircuitAst,
    CnotStep,
    EfStep,
    GateStep,
    MeasureStep,
    parse,
    render,
    run,
)
from setqm.errors import ParseError, RegisterTooWide, ZeroInitial
from setqm.qc import MAX_LINES

CIRCUITS = Path(__file__).resolve().parent.parent / "circuits"

DEUTSCH_X = "lines 1\ninit 0\ngate H0 0\ngate EF 10\nmeasure 0\n"
PARITY2 = "lines 2\ninit 00\ngate H0 0\ngate H0 1\ngate EF 1101\nmeasure all\n"


def test_parse_deutsch():
    ast = parse(DEUTSCH_X)
    assert ast == CircuitAst(
        1, ("0",), (GateStep("H0", 0), EfStep("10"), MeasureStep(0))
    )


def test_parse_parity_sat():
    ast = parse(PARITY2)
    assert ast.lines == 2
    assert ast.initial == ("00",)
    assert ast.steps == (
        GateStep("H0", 0),
        GateStep("H0", 1),
        EfStep("1101"),
        MeasureStep(None),
    )


def test_parse_unknown_gate_position():
    with pytest.raises(ParseError) as err:
        parse("lines 1\ngate H9 0\nmeasure 0\n")
    assert err.value.line == 2
    assert err.value.column == 6
    assert err.value.token == "H9"
    assert "unknown gate" in err.value.message


def test_parse_line_out_of_range():
    with pytest.raises(ParseError) as err:
        parse("lines 1\ngate H0 3\n")
    assert err.value.line == 2
    assert "outside" in err.value.message


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("init 00\nlines 2\n")  # lines must come first
    with pytest.raises(ParseError):
        parse("lines 2\ninit 0\nmeasure 0\n")  # bitstring width
    with pytest.raises(ParseError):
        parse("lines 2\ngate CNOT 0 0\n")  # not adjacent
    with pytest.raises(ParseError):
        parse("lines 2\ngate EF 110\n")  # table length
    with pytest.raises(ParseError):
        parse("lines 1\ninit 0\n")  # no steps
    with pytest.raises(ParseError):
        parse("lines 1\nfrobnicate 0\n")


def test_parse_rejects_non_ascii_digits():
    for digits in ("²", "٣", "1²"):
        with pytest.raises(ParseError) as err:
            parse(f"lines {digits}\ngate X 0\n")
        assert (err.value.line, err.value.column, err.value.token) == (1, 7, digits)
    with pytest.raises(ParseError) as err:
        parse("lines 2\ngate X ¹\n")
    assert (err.value.line, err.value.column) == (2, 8)


def test_parse_rejects_too_many_lines():
    with pytest.raises(RegisterTooWide):
        parse("lines 40\ngate X 0\n")
    with pytest.raises(RegisterTooWide):
        parse(f"lines {MAX_LINES + 1}\nmeasure 0\n")
    assert parse(f"lines {MAX_LINES}\nmeasure 0\n").lines == MAX_LINES
    with pytest.raises(RegisterTooWide):  # an AST built without the parser
        run(CircuitAst(40, ("1" * 40,), (MeasureStep(0),)))


def test_comments_and_blank_lines():
    text = "# heading\nlines 1\n\ninit 1   # start in |1>\ngate X 0\nmeasure 0\n"
    ast = parse(text)
    assert ast.initial == ("1",)
    result = run(ast, seed=0)
    assert result.measurements[0].outcome == 0


def test_render_round_trip():
    for text in (DEUTSCH_X, PARITY2):
        ast = parse(text)
        assert parse(render(ast)) == ast
    ket = parse("lines 2\ninit ket 00+10\ngate H0 1\ngate CNOT 1 0\nmeasure 0\n")
    assert parse(render(ket)) == ket


def test_shipped_circuits_round_trip():
    for path in sorted(CIRCUITS.glob("*.qc2")):
        ast = parse(path.read_text())
        assert parse(render(ast)) == ast


def test_run_deutsch_balanced():
    result = run(parse(DEUTSCH_X), seed=0)
    assert result.final.bitstrings() == ("1",)
    assert [m.outcome for m in result.measurements] == [1]
    assert result.measurements[0].probability == 1


def test_run_parity_sat_circuit():
    result = run(parse(PARITY2), seed=0)
    assert [m.outcome for m in result.measurements] == [0, 1]
    assert result.final.bitstrings() == ("01",)


def test_run_is_deterministic_per_seed():
    text = "lines 1\ninit ket 0+1\nmeasure 0\n"
    first = run(parse(text), seed=7)
    again = run(parse(text), seed=7)
    assert [m.outcome for m in first.measurements] == [m.outcome for m in again.measurements]
    assert first.final == again.final
    outcomes = {run(parse(text), seed=s).measurements[0].outcome for s in range(30)}
    assert outcomes == {0, 1}


def test_certain_measurements_never_sample():
    # without a seed, a deterministic circuit still runs identically
    result1 = run(parse(DEUTSCH_X))
    result2 = run(parse(DEUTSCH_X))
    assert result1.measurements == result2.measurements


def test_run_no_measure_reports_final_state():
    result = run(parse("lines 1\ninit 0\ngate H0 0\n"), seed=0)
    assert result.measurements == ()
    assert result.final.bitstrings() == ("0", "1")


def test_init_ket_cancellation():
    # the two 00 terms cancel mod 2, leaving |10>
    ast = parse("lines 2\ninit ket 00+10+00\ngate X 0\nmeasure all\n")
    result = run(ast, seed=0)
    assert result.trace[0].register.bitstrings() == ("10",)
    with pytest.raises(ZeroInitial):
        run(parse("lines 1\ninit ket 0+0\ngate X 0\n"))


def test_run_teleport_circuit_trace():
    text = (CIRCUITS / "teleport.qc2").read_text()
    for seed in range(6):
        result = run(parse(text), seed=seed)
        final = result.final
        m = result.measurements[0].outcome
        # Bob's line carries the input superposition on either branch
        bob = (final.coefficient(2 * m), final.coefficient(2 * m + 1))
        assert bob == (1, 1)


def test_trace_records_every_step():
    result = run(parse(PARITY2), seed=0)
    labels = [t.label for t in result.trace]
    assert labels[0] == "init"
    assert labels[1:4] == ["gate H0 0", "gate H0 1", "gate EF 1101"]
    assert len(labels) == 6  # init + 3 gates + 2 line measurements


def test_json_payload():
    data = run(parse(DEUTSCH_X), seed=0).to_json()
    assert data["lines"] == 1
    assert data["measurements"] == [{"line": 0, "outcome": 1, "probability": "1/1"}]
    assert data["trace"][0] == {"step": "init", "state": ["0"]}


# ---- properties: render inverts parse, and parse never escapes SetQMError

@st.composite
def bitstrings(draw, n):
    return "".join(draw(st.lists(st.sampled_from("01"), min_size=n, max_size=n)))


@st.composite
def steps(draw, n):
    kinds = ["gate", "measure"] + ["cnot"] * (n > 1) + ["ef"] * (n & (n - 1) == 0)
    kind = draw(st.sampled_from(kinds))
    line = st.integers(0, n - 1)
    if kind == "gate":
        return GateStep(draw(st.sampled_from(("I", "X", "H0", "H1", "XH0", "XH1"))), draw(line))
    if kind == "cnot":
        low = draw(st.integers(0, n - 2))
        return CnotStep(low, low + 1) if draw(st.booleans()) else CnotStep(low + 1, low)
    if kind == "ef":
        return EfStep(draw(bitstrings(2 * n)))
    return MeasureStep(draw(st.none() | line))


@st.composite
def circuit_asts(draw):
    n = draw(st.integers(1, 8))
    initial = tuple(draw(st.lists(bitstrings(n), min_size=1, max_size=3)))
    return CircuitAst(n, initial, tuple(draw(st.lists(steps(n), min_size=1, max_size=6))))


@given(circuit_asts())
def test_parse_inverts_render(ast):
    assert parse(render(ast)) == ast


# statements of the language with arguments drawn from good values, near misses and
# numbers int() refuses, so the parser gets past its first checks
NUMBERS = ("1", "2", "4", "0", "01", "40", "-1", "²", "9" * 5000)
STATEMENTS = (("init",), ("init", "ket"), ("gate", "X"), ("gate", "CNOT"), ("gate", "EF"),
              ("gate", "H9"), ("measure",), ("lines",), ("frob",))
ARGS = NUMBERS + ("10", "0110", "00+11", "+", "all", "#")


@st.composite
def near_circuits(draw):
    rows = [("lines", draw(st.sampled_from(NUMBERS)))]
    for _ in range(draw(st.integers(0, 5))):
        args = draw(st.lists(st.sampled_from(ARGS), max_size=3))
        rows.append(draw(st.sampled_from(STATEMENTS)) + tuple(args))
    return "\n".join(" ".join(row) for row in rows)


@given(st.text() | near_circuits())
def test_parse_returns_ast_or_setqm_error(text):
    try:
        ast = parse(text)
    except (ParseError, RegisterTooWide):
        return
    assert isinstance(ast, CircuitAst)
