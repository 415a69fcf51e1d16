import random
import re
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setqm.dsl import (
    MAX_TRACE_KETS,
    CircuitAst,
    CnotStep,
    EfStep,
    GateStep,
    MeasureRecord,
    MeasureStep,
    parse,
    render,
    run,
)
from setqm.errors import InvalidArgument, ParseError, RegisterTooWide, TooLarge, ZeroInitial
from setqm.qc import (
    MAX_LINES,
    BooleanFunction,
    Register,
    apply,
    apply_ef,
    line_probs,
    measure_line,
    measure_line_given,
    standard_gate,
)

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
        CircuitAst(40, ("1" * 40,), (MeasureStep(0),))


GATE_STEP = "a gate step is one of I X H0 H1 XH0 XH1 on a line in 0..2"
MEASURE_STEP = "a measure step is `all` or a line in 0..2"


@pytest.mark.parametrize(
    "step,message",
    [(None, "expected a circuit step, got NoneType"), ("gate X 0", "got str"),
     (CnotStep(0, 2), "adjacent lines"), (CnotStep(2, 0), "adjacent lines"),
     (CnotStep(0, 0), "adjacent lines"), (CnotStep("0", 1), "adjacent lines"),
     (CnotStep(True, 2), "adjacent lines"), (CnotStep(2, 3), "adjacent lines in 0..2"),
     (EfStep("0110"), "EF on 3 lines needs a 6-bit truth table"),
     (EfStep(""), "EF on 3 lines"), (EfStep(None), "EF on 3 lines"),
     (GateStep("CNOT_A", 0), GATE_STEP), (GateStep("H0", True), GATE_STEP),
     (GateStep("H0", 1.0), GATE_STEP), (GateStep(["H0"], 0), GATE_STEP),
     (GateStep("H0", 3), GATE_STEP), (GateStep("H0", -1), GATE_STEP),
     (MeasureStep(True), MEASURE_STEP), (MeasureStep(1.0), MEASURE_STEP),
     (MeasureStep(3), MEASURE_STEP)],
    ids=["none", "text", "cnot-skips-a-line", "cnot-skips-a-line-upward", "cnot-one-line",
         "cnot-str-line", "cnot-bool-line", "cnot-below-the-register",
         "ef-narrower-than-the-register", "ef-empty", "ef-none", "gate-two-line-name",
         "gate-bool-line", "gate-float-line", "gate-list-name", "gate-line-outside",
         "gate-negative-line", "measure-bool-line", "measure-float-line",
         "measure-line-outside"],
)
def test_circuit_ast_rejects_a_step_that_parse_never_builds(step, message):
    with pytest.raises(InvalidArgument, match=re.escape(message)):
        CircuitAst(3, ("100",), (step,))


def test_circuit_ast_rejects_an_ef_table_that_does_not_span_the_register():
    # on 2 lines a 2-bit table would act on line 0 alone
    with pytest.raises(InvalidArgument, match="EF on 2 lines needs a 4-bit truth table"):
        CircuitAst(2, ("00",), (EfStep("01"),))
    with pytest.raises(InvalidArgument, match="EF on 2 lines needs a 4-bit truth table"):
        CircuitAst(2, ("00",), (EfStep("0120"),))
    assert run(CircuitAst(2, ("00",), (EfStep("0110"),)), seed=0).final.lines == 2


@pytest.mark.parametrize(
    "fields,error,message",
    [((2, ("00",), (None,)), InvalidArgument, "expected a circuit step, got NoneType"),
     ((2, ("00",), None), InvalidArgument, "steps must be iterable"),
     ((2, "00", (MeasureStep(0),)), InvalidArgument, "initial must be iterable and not a str"),
     ((2, ("00", 1), (MeasureStep(0),)), InvalidArgument, "initial must hold 2-bit bitstrings"),
     ((2, (), (MeasureStep(0),)), InvalidArgument, "initial must hold 2-bit bitstrings"),
     ((2, None, (MeasureStep(0),)), InvalidArgument, "initial must be iterable"),
     # steps of known types whose fields `parse` never builds
     ((2, ("00",), (GateStep(None, None), MeasureStep("x"))), InvalidArgument,
      "gate None None: a gate step is one of"),
     ((2, ("00",), (CnotStep(1, 2),)), InvalidArgument,
      "gate CNOT 1 2: CNOT control and target must be adjacent lines in 0..1"),
     ((2, ("00",), (MeasureStep("0"),)), InvalidArgument,
      "measure 0: a measure step is `all` or a line in 0..1"),
     (("2", ("00",), (GateStep("X", 0),)), InvalidArgument, "line count must be an int, got str"),
     # fields of the circuit that `parse` never builds
     ((True, ("1",), (MeasureStep(0),)), InvalidArgument, "line count must be an int, got bool"),
     ((0, ("",), (MeasureStep(None),)), InvalidArgument, "at least one line"),
     ((MAX_LINES + 1, ("0" * (MAX_LINES + 1),), (MeasureStep(0),)), RegisterTooWide,
      f"{MAX_LINES + 1} lines exceed the limit of {MAX_LINES}"),
     ((2, ("0",), (MeasureStep(0),)), InvalidArgument, "initial must hold 2-bit bitstrings"),
     ((2, ("0a",), (MeasureStep(0),)), InvalidArgument, "initial must hold 2-bit bitstrings"),
     ((2, ("00",), ()), InvalidArgument, "circuit needs at least one step"),
     ((2, ("00",), "gate X 0"), InvalidArgument, "steps must be iterable and not a str"),
     # "01" iterates as the 1-line kets 0 and 1, and so once ran from |0>+|1>
     ((1, "01", (MeasureStep(0),)), InvalidArgument, "initial must be iterable and not a str")],
    ids=["none-step", "none-steps", "str-initial", "int-in-initial", "empty-initial",
         "none-initial", "none-gate-fields", "cnot-line-outside", "str-measure-line",
         "str-line-count", "bool-line-count", "no-lines", "too-many-lines",
         "narrow-initial", "letter-in-initial", "no-steps", "str-steps", "str-initial-of-kets"],
)
def test_circuit_ast_rejects_fields_that_parse_never_builds(fields, error, message):
    with pytest.raises(error, match=re.escape(message)):
        CircuitAst(*fields)


def test_render_takes_a_list_initial_as_a_tuple():
    ast = CircuitAst(2, ["00", "11"], [GateStep("X", 0)])
    assert render(ast) == "lines 2\ninit ket 00+11\ngate X 0\n"
    assert (ast.initial, ast.steps) == (("00", "11"), (GateStep("X", 0),))
    assert hash(ast) == hash(parse(render(ast)))


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
    # the measured line is certain, so every seed records the same measurement
    records = {run(parse(DEUTSCH_X), seed=s).measurements for s in range(10)}
    assert len(records) == 1
    assert [m.probability for m in records.pop()] == [1]


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
        run(parse("lines 1\ninit ket 0+0\ngate X 0\n"), seed=0)


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


def test_json_payload_refuses_a_trace_above_the_ket_limit():
    # H0 on the first k of 20 lines: the trace holds 1 + 2 + ... + 2^k = 2^(k+1) - 1 kets
    def h0_run(k):
        return run(parse("lines 20\n" + "".join(f"gate H0 {j}\n" for j in range(k))), seed=0)

    assert (1 << 17) - 1 <= MAX_TRACE_KETS < (1 << 18) - 1
    h0_run(16)._check_printable()
    with pytest.raises(TooLarge, match="262143 kets"):
        h0_run(17).to_json()


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
def circuit_asts(draw, max_lines=8, max_steps=6):
    n = draw(st.integers(1, max_lines))
    initial = tuple(draw(st.lists(bitstrings(n), min_size=1, max_size=3)))
    return CircuitAst(n, initial, tuple(draw(st.lists(steps(n), min_size=1, max_size=max_steps))))


@given(circuit_asts())
def test_parse_inverts_render(ast):
    assert parse(render(ast)) == ast


# ---- the AST contract as a law: fields drawn near what `parse` builds either raise at
# construction or give an AST that renders to text `parse` reads back as it, and that runs.
# With the record audit in `conftest.py`, which builds every AST `parse` returns again
# through the checked constructor, the two encodings of the grammar agree both ways.

def mostly(good, bad):
    """`good` about four draws in five, else `bad` (hypothesis favours the first and last
    of a sampled tuple, so `bad` sits in the middle)."""
    return st.sampled_from((good, good, bad, good, good)).flatmap(lambda s: s)


def near_lines(n):
    """A line of the register, else one just outside it or not an int."""
    return mostly(st.integers(0, n - 1), st.sampled_from((-1, n, True, False, 1.0, "0", None)))


@st.composite
def near_steps(draw, n):
    kind = draw(mostly(st.sampled_from(("gate", "cnot", "ef", "measure")), st.just("other")))
    if kind == "gate":
        name = draw(mostly(st.sampled_from(("I", "X", "H0", "H1", "XH0", "XH1")),
                           st.sampled_from(("CNOT_A", "H9", None))))
        return GateStep(name, draw(near_lines(n)))
    if kind == "cnot":
        control = draw(near_lines(n))
        if type(control) is int and draw(mostly(st.just(True), st.just(False))):  # adjacent
            return CnotStep(control, control + draw(st.sampled_from((-1, 1))))
        return CnotStep(control, draw(near_lines(n)))
    if kind == "ef":
        bad = st.text("01", min_size=2 * n - 1, max_size=2 * n + 1) | st.just("2" * 2 * n)
        return EfStep(draw(mostly(bitstrings(2 * n), bad)))
    if kind == "measure":
        return MeasureStep(draw(mostly(near_lines(n), st.none())))
    return draw(st.sampled_from((None, "gate X 0", 0)))


@st.composite
def near_ast_fields(draw):
    n = draw(mostly(st.integers(1, 4), st.sampled_from((0, MAX_LINES + 1, True, 1.0, "2"))))
    width = n if type(n) is int and 1 <= n <= 4 else 1
    ket = mostly(bitstrings(width), st.text("012", max_size=width + 1))
    kets = draw(st.lists(ket, min_size=1, max_size=3))
    steps = draw(st.lists(near_steps(width), min_size=1, max_size=3))
    container = st.sampled_from((tuple, list))  # lists in place of tuples
    initial = draw(mostly(container.map(lambda c: c(kets)),
                          st.sampled_from(("".join(kets), (), None))))
    return n, initial, draw(mostly(container.map(lambda c: c(steps)), st.sampled_from(((), None))))


@settings(max_examples=400)
@given(near_ast_fields())
def test_a_circuit_ast_is_either_refused_or_what_parse_builds(fields):
    try:
        ast = CircuitAst(*fields)
    except (InvalidArgument, RegisterTooWide):
        return
    assert parse(render(ast)) == ast
    assert type(ast.initial) is tuple and type(ast.steps) is tuple
    try:
        result = run(ast, 0)
    except ZeroInitial:  # the kets cancel, as they do for the same `init ket` text
        assert all(ast.initial.count(k) % 2 == 0 for k in ast.initial)
        return
    assert len(result.trace) > len(ast.steps)


def reference_statement(step):
    if isinstance(step, GateStep):
        return f"gate {step.name} {step.line}"
    if isinstance(step, CnotStep):
        return f"gate CNOT {step.control} {step.target}"
    if isinstance(step, EfStep):
        return f"gate EF {step.table}"
    return f"measure {'all' if step.line is None else step.line}"


def reference_run(ast, seed):
    """Trace labels, states and measurements, with certainty read from `line_probs`."""
    reg = Register.from_bitstrings(ast.lines, ast.initial)
    rng = random.Random(seed)
    trace, records = [("init", reg)], []

    def measure(line):
        nonlocal reg
        probs = line_probs(reg, line)
        if probs[0] == 0 or probs[1] == 0:
            outcome = 0 if probs[1] == 0 else 1
            _, reg = measure_line_given(reg, line, outcome)
        else:
            outcome, reg = measure_line(reg, line, rng)
        records.append(MeasureRecord(line, outcome, probs[outcome]))
        trace.append((f"measure {line} -> {outcome}", reg))

    for step in ast.steps:
        if isinstance(step, MeasureStep):
            for line in range(ast.lines) if step.line is None else [step.line]:
                measure(line)
            continue
        if isinstance(step, GateStep):
            reg = apply(standard_gate(step.name), reg, step.line)
        elif isinstance(step, CnotStep):
            name = "CNOT_A" if step.control < step.target else "CNOT_B"
            reg = apply(standard_gate(name), reg, min(step.control, step.target))
        else:
            reg = apply_ef(BooleanFunction.from_bits(step.table), reg)
        trace.append((reference_statement(step), reg))
    return trace, records


@settings(max_examples=200)
@given(circuit_asts(max_lines=12, max_steps=12), st.integers(0, 2 ** 32))
def test_run_and_render_match_the_reference(ast, seed):
    # `run` keeps the state as an int and calls the kernels itself; the reference steps a
    # Register through public `apply`, `apply_ef` and `measure_line` with the generator built
    # up front: one-line gates, both Cnot directions, `measure <k>`, `measure all` and EF on
    # 1, 2, 4 and 8 lines, on 1 to 12 lines
    assert render(ast).splitlines()[2:] == [reference_statement(s) for s in ast.steps]
    try:
        result = run(ast, seed)
    except ZeroInitial:
        return
    trace, records = reference_run(ast, seed)
    assert [(t.label, t.register) for t in result.trace] == trace
    assert list(result.measurements) == records


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


# ---- reference: the token-object parser that `parse` replaced. Every word carried its
# line and column; `parse` keeps only words and finds a column again when it raises.

_ONE_LINE_GATES = ("I", "X", "H0", "H1", "XH0", "XH1")


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    column: int


def _tokenize(text):
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = [_Token(m.group(), lineno, m.start() + 1) for m in re.finditer(r"\S+", body)]
        if tokens:
            rows.append(tokens)
    return rows


def _bad(tok, message):
    return ParseError(tok.line, tok.column, message, tok.text)


def _int_token(tok, what):
    if not (tok.text.isascii() and tok.text.isdigit()):
        raise _bad(tok, f"expected {what}")
    try:
        return int(tok.text)
    except ValueError:
        raise _bad(tok, f"{what} has too many digits") from None


def _bitstring_token(tok, lines):
    if set(tok.text) - {"0", "1"} or len(tok.text) != lines:
        raise _bad(tok, f"expected a {lines}-bit basis bitstring")
    return tok.text


def _line_token(tok, lines):
    value = _int_token(tok, "a line index")
    if value >= lines:
        raise _bad(tok, f"line index outside 0..{lines - 1}")
    return value


def reference_parse(text):
    rows = _tokenize(text)
    if not rows:
        raise ParseError(1, 1, "empty circuit")
    head = rows[0]
    if head[0].text != "lines":
        raise _bad(head[0], "circuit must start with a `lines <n>` statement")
    if len(head) != 2:
        raise _bad(head[-1], "`lines` takes exactly one count")
    n = _int_token(head[1], "a positive line count")
    if n < 1:
        raise _bad(head[1], "line count must be positive")
    if n > MAX_LINES:
        raise RegisterTooWide(f"line {head[1].line}: {n} lines exceed the limit of {MAX_LINES}")
    initial = None
    steps = []
    for row in rows[1:]:
        word = row[0]
        if word.text == "init":
            if initial is not None:
                raise _bad(word, "only one init statement is allowed")
            if steps:
                raise _bad(word, "init must come before gates and measures")
            initial = _reference_init(row, n)
        elif word.text == "gate":
            steps.append(_reference_gate(row, n))
        elif word.text == "measure":
            steps.append(_reference_measure(row, n))
        else:
            raise _bad(word, "expected `init`, `gate`, or `measure`")
    if not steps:
        last = rows[-1][0]
        raise ParseError(last.line, last.column, "circuit needs at least one step")
    if initial is None:
        initial = ("0" * n,)
    return CircuitAst(n, initial, tuple(steps))


def _reference_init(row, n):
    if len(row) >= 2 and row[1].text == "ket":
        if len(row) != 3:
            raise _bad(row[-1], "`init ket` takes one `+`-joined ket expression")
        start = row[2].column
        out = []
        for part in row[2].text.split("+"):
            out.append(_bitstring_token(_Token(part, row[2].line, start), n))
            start += len(part) + 1
        return tuple(out)
    if len(row) != 2:
        raise _bad(row[-1], "`init` takes exactly one bitstring")
    return (_bitstring_token(row[1], n),)


def _reference_gate(row, n):
    if len(row) < 2:
        raise _bad(row[0], "`gate` needs a gate name")
    name = row[1]
    if name.text in _ONE_LINE_GATES:
        if len(row) != 3:
            raise _bad(row[-1], f"`gate {name.text}` takes exactly one line index")
        return GateStep(name.text, _line_token(row[2], n))
    if name.text == "CNOT":
        if len(row) != 4:
            raise _bad(row[-1], "`gate CNOT` takes control and target line indices")
        control = _line_token(row[2], n)
        target = _line_token(row[3], n)
        if abs(control - target) != 1:
            raise _bad(row[2], "CNOT control and target must be adjacent lines")
        return CnotStep(control, target)
    if name.text == "EF":
        if len(row) != 3:
            raise _bad(row[-1], "`gate EF` takes one truth-table bitstring")
        table = row[2].text
        if set(table) - {"0", "1"}:
            raise _bad(row[2], "truth table must be 0/1 bits")
        if n & (n - 1):
            raise _bad(name, "EF needs a power-of-two line count")
        if len(table) != 2 * n:
            raise _bad(row[2], f"EF on {n} lines needs a {2 * n}-bit truth table")
        return EfStep(table)
    raise _bad(name, "unknown gate")


def _reference_measure(row, n):
    if len(row) != 2:
        raise _bad(row[-1], "`measure` takes a line index or `all`")
    if row[1].text == "all":
        return MeasureStep(None)
    return MeasureStep(_line_token(row[1], n))


def outcome(parser, text):
    """The AST, or the error's type and everything it reports."""
    try:
        return parser(text)
    except ParseError as err:
        return (ParseError, err.line, err.column, err.message, err.token)
    except RegisterTooWide as err:
        return (RegisterTooWide, str(err))


def test_shipped_circuits_match_reference():
    for path in sorted(CIRCUITS.glob("*.qc2")):
        text = path.read_text()
        assert isinstance(parse(text), CircuitAst)
        assert parse(text) == reference_parse(text)


# words of valid and near-valid statements: counts out of range or not ASCII digits,
# bitstrings and `init ket` parts of the right and wrong width, gates of every arity,
# separated and indented by ASCII and Unicode whitespace, with comments and blank lines
COUNTS = ("1", "2", "3", "4", "0", "01", "20", "21", "-1", "²", "1²", "9" * 5000)
SEPARATORS = (" ", "  ", "\t", " \t ", "\xa0", "\u3000", "\x1f")
NEWLINES = ("\n", "\n", "\r\n", "\r", "\x1c", "\u2028")
COMMENTS = ("#", " # note", "\t#gate X 0", "# lines 9")


@st.composite
def ket_words(draw):
    parts = draw(st.lists(st.text("01", max_size=5), min_size=1, max_size=4))
    return "+".join(parts)


@st.composite
def near_statements(draw, n):
    if draw(st.integers(0, 4)) == 0:  # arguments in range, so that later checks are reached
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table = draw(st.text("01", min_size=2 * n - 1, max_size=2 * n + 1))
        return draw(st.sampled_from(
            (f"gate CNOT {i} {j}", f"gate EF {table}", f"measure {i} {j}", f"gate H1 {i} {j}")
        ))
    index = st.integers(0, n).map(str)
    word = st.one_of(
        index, index, index, st.sampled_from(COUNTS), st.text("01", min_size=1, max_size=9),
        ket_words(), st.sampled_from(("all", "ket", "X", "CNOT", "EF", "H9", "x", "lines")),
    )
    head = draw(st.sampled_from((
        ("lines",), ("init",), ("init", "ket"), ("measure",), ("gate",), ("gate", "X"),
        ("gate", "H0"), ("gate", "XH1"), ("gate", "CNOT"), ("gate", "EF"), ("gate", "Z"),
        ("frob",), (),
    )))
    words = head + tuple(draw(st.lists(word, max_size=3)))
    sep = st.sampled_from(SEPARATORS)
    text = "".join(w + (draw(sep) if i < len(words) - 1 else "") for i, w in enumerate(words))
    if draw(st.booleans()):
        text += draw(st.sampled_from(COMMENTS))
    return text


@st.composite
def near_circuit_texts(draw):
    n = draw(st.integers(1, 4))
    count = draw(st.sampled_from((str(n),) * 2 * len(COUNTS) + COUNTS))
    head = ("lines {0}",) * 16 + ("lines", "lines {0} {0}", "init {0}", "lines{0}")
    rows = [draw(st.sampled_from(head)).format(count)]
    for step in draw(st.lists(steps(n), max_size=4)):
        rows.append(render(CircuitAst(n, ("0" * n,), (step,))).splitlines()[2])
    if draw(st.booleans()):
        rows.insert(1, "init " + draw(st.sampled_from(("", "ket "))) + draw(ket_words()))
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(1, len(rows))), draw(near_statements(n)))
    if draw(st.booleans()):
        rows.insert(0, draw(st.sampled_from(("",) + COMMENTS)))
    indent = st.sampled_from(("",) * 4 + SEPARATORS)
    return "".join(draw(indent) + row + draw(st.sampled_from(NEWLINES)) for row in rows)


@settings(max_examples=500)
@given(st.one_of(near_circuit_texts(), near_circuit_texts(), near_circuit_texts(), st.text()))
def test_parse_matches_reference(text):
    assert outcome(parse, text) == outcome(reference_parse, text)
