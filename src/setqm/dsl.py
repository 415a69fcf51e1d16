"""Line-oriented text language for Z2 circuits.

One statement per line, '#' starts a comment:

    lines <n>
    init <bitstring> | init ket <bitstring>+<bitstring>+...
    gate <NAME> <line>          # I X H0 H1 XH0 XH1
    gate CNOT <control> <target>
    gate EF <truthtable-bits>   # spans all lines
    measure <line> | measure all

Kets in `init` are mod-2 sums of basis bitstrings, so duplicates cancel.
Files use the `.qc2` extension and UTF-8.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ParseError, RegisterTooWide, ZeroInitial, ZeroState
from . import qc
from .space import rat_json

_ONE_LINE_GATES = ("I", "X", "H0", "H1", "XH0", "XH1")


@dataclass(frozen=True)
class GateStep:
    name: str
    line: int


@dataclass(frozen=True)
class CnotStep:
    control: int
    target: int


@dataclass(frozen=True)
class EfStep:
    table: str


@dataclass(frozen=True)
class MeasureStep:
    line: int | None  # None measures every line in order


Step = Union[GateStep, CnotStep, EfStep, MeasureStep]


@dataclass(frozen=True)
class CircuitAst:
    lines: int
    initial: tuple[str, ...]
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[list[_Token]]:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = [
            _Token(m.group(), lineno, m.start() + 1) for m in re.finditer(r"\S+", body)
        ]
        if tokens:
            rows.append(tokens)
    return rows


def _bad(tok: _Token, message: str) -> ParseError:
    return ParseError(tok.line, tok.column, message, tok.text)


def _int_token(tok: _Token, what: str) -> int:
    if not (tok.text.isascii() and tok.text.isdigit()):
        raise _bad(tok, f"expected {what}")
    try:
        return int(tok.text)
    except ValueError:  # more digits than int() converts
        raise _bad(tok, f"{what} has too many digits") from None


def _bitstring_token(tok: _Token, lines: int) -> str:
    if set(tok.text) - {"0", "1"} or len(tok.text) != lines:
        raise _bad(tok, f"expected a {lines}-bit basis bitstring")
    return tok.text


def _line_token(tok: _Token, lines: int) -> int:
    value = _int_token(tok, "a line index")
    if value >= lines:
        raise _bad(tok, f"line index outside 0..{lines - 1}")
    return value


def parse(text: str) -> CircuitAst:
    """Parse circuit text; raises ParseError with a 1-based position on bad input."""
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
    if n > qc.MAX_LINES:
        raise RegisterTooWide(f"line {head[1].line}: {n} lines exceed the limit of {qc.MAX_LINES}")

    initial: tuple[str, ...] | None = None
    steps: list[Step] = []
    for row in rows[1:]:
        word = row[0]
        if word.text == "init":
            if initial is not None:
                raise _bad(word, "only one init statement is allowed")
            if steps:
                raise _bad(word, "init must come before gates and measures")
            initial = _parse_init(row, n)
        elif word.text == "gate":
            steps.append(_parse_gate(row, n))
        elif word.text == "measure":
            steps.append(_parse_measure(row, n))
        else:
            raise _bad(word, "expected `init`, `gate`, or `measure`")
    if not steps:
        last = rows[-1][0]
        raise ParseError(last.line, last.column, "circuit needs at least one step")
    if initial is None:
        initial = ("0" * n,)
    return CircuitAst(n, initial, tuple(steps))


def _parse_init(row: list[_Token], n: int) -> tuple[str, ...]:
    if len(row) >= 2 and row[1].text == "ket":
        if len(row) != 3:
            raise _bad(row[-1], "`init ket` takes one `+`-joined ket expression")
        parts = row[2].text.split("+")
        start = row[2].column
        out = []
        for part in parts:
            tok = _Token(part, row[2].line, start)
            out.append(_bitstring_token(tok, n))
            start += len(part) + 1
        return tuple(out)
    if len(row) != 2:
        raise _bad(row[-1], "`init` takes exactly one bitstring")
    return (_bitstring_token(row[1], n),)


def _parse_gate(row: list[_Token], n: int) -> Step:
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


def _parse_measure(row: list[_Token], n: int) -> MeasureStep:
    if len(row) != 2:
        raise _bad(row[-1], "`measure` takes a line index or `all`")
    if row[1].text == "all":
        return MeasureStep(None)
    return MeasureStep(_line_token(row[1], n))


def render(ast: CircuitAst) -> str:
    """Canonical text for an AST; parse(render(ast)) == ast."""
    out = [f"lines {ast.lines}"]
    if len(ast.initial) == 1:
        out.append(f"init {ast.initial[0]}")
    else:
        out.append("init ket " + "+".join(ast.initial))
    for step in ast.steps:
        if isinstance(step, GateStep):
            out.append(f"gate {step.name} {step.line}")
        elif isinstance(step, CnotStep):
            out.append(f"gate CNOT {step.control} {step.target}")
        elif isinstance(step, EfStep):
            out.append(f"gate EF {step.table}")
        else:
            target = "all" if step.line is None else str(step.line)
            out.append(f"measure {target}")
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class MeasureRecord:
    line: int
    outcome: int
    probability: Fraction


@dataclass(frozen=True)
class TraceEntry:
    label: str
    register: qc.Register


@dataclass(frozen=True)
class RunResult:
    ast: CircuitAst
    trace: tuple[TraceEntry, ...]
    measurements: tuple[MeasureRecord, ...]

    @property
    def final(self) -> qc.Register:
        return self.trace[-1].register

    def to_json(self) -> dict:
        return {
            "lines": self.ast.lines,
            "trace": [
                {"step": t.label, "state": list(t.register.bitstrings())}
                for t in self.trace
            ],
            "measurements": [
                {
                    "line": m.line,
                    "outcome": m.outcome,
                    "probability": rat_json(m.probability),
                }
                for m in self.measurements
            ],
        }


def run(ast: CircuitAst, seed: int | None = None) -> RunResult:
    """Execute a circuit; deterministic for a fixed seed.

    The generator is only consulted when a measurement is genuinely random;
    measurements with a certain outcome never draw from it.
    """
    try:
        reg = qc.Register.from_bitstrings(ast.lines, ast.initial)
    except ZeroState:
        raise ZeroInitial("initial ket expression cancels to the zero vector") from None

    rng = random.Random(seed)
    trace = [TraceEntry("init", reg)]
    measurements: list[MeasureRecord] = []

    def do_measure(line: int) -> None:
        nonlocal reg
        probs = qc.line_probs(reg, line)
        if probs[0] == 0 or probs[1] == 0:
            outcome = 0 if probs[1] == 0 else 1
            _, reg = qc.measure_line_given(reg, line, outcome)
        else:
            outcome, reg = qc.measure_line(reg, line, rng)
        measurements.append(MeasureRecord(line, outcome, probs[outcome]))
        trace.append(TraceEntry(f"measure {line} -> {outcome}", reg))

    for step in ast.steps:
        if isinstance(step, GateStep):
            reg = qc.apply(qc.standard_gate(step.name), reg, step.line)
            trace.append(TraceEntry(f"gate {step.name} {step.line}", reg))
        elif isinstance(step, CnotStep):
            name = "CNOT_A" if step.control < step.target else "CNOT_B"
            reg = qc.apply(qc.standard_gate(name), reg, min(step.control, step.target))
            trace.append(TraceEntry(f"gate CNOT {step.control} {step.target}", reg))
        elif isinstance(step, EfStep):
            reg = qc.apply_ef(qc.BooleanFunction.from_bits(step.table), reg)
            trace.append(TraceEntry(f"gate EF {step.table}", reg))
        else:
            if step.line is None:
                for line in range(ast.lines):
                    do_measure(line)
            else:
                do_measure(step.line)
    return RunResult(ast, tuple(trace), tuple(measurements))
