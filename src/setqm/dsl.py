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

Bad input raises ParseError with the 1-based line and column of the
offending word (or of the offending part of an `init ket` expression) and
the word itself.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import InvalidArgument, ParseError, RegisterTooWide, TooLarge, ZeroInitial, ZeroState
from . import qc
from .gf2 import _expect
from .space import rat_json

_ONE_LINE_GATES = tuple(name for name, g in qc._LIBRARY.items() if g.width == 1)
# a CNOT step's gate by target - control; lines that are not adjacent have none
_CNOT_NAMES = {1: "CNOT_A", -1: "CNOT_B"}
# The most kets, summed over a run's trace, that its JSON object or `setqm run`
# prints; each ket is a bitstring of one character per line. A 20-step run on
# 12 lines has at most 21 * 4096 = 86016.
MAX_TRACE_KETS = 1 << 17


@dataclass(frozen=True)
class GateStep:
    name: str
    line: int

    def __str__(self) -> str:
        return f"gate {self.name} {self.line}"


@dataclass(frozen=True)
class CnotStep:
    control: int
    target: int

    def __str__(self) -> str:
        return f"gate CNOT {self.control} {self.target}"


@dataclass(frozen=True)
class EfStep:
    table: str

    def __str__(self) -> str:
        return f"gate EF {self.table}"


@dataclass(frozen=True)
class MeasureStep:
    line: int | None  # None measures every line in order

    def __str__(self) -> str:
        return f"measure {'all' if self.line is None else self.line}"


Step = Union[GateStep, CnotStep, EfStep, MeasureStep]


@dataclass(frozen=True)
class CircuitAst:
    lines: int
    initial: tuple[str, ...]
    steps: tuple[Step, ...]


# A statement is (line number, text before any '#', its whitespace-separated words).
# Positions are not kept: an error finds its word's column again in the text.
_Statement = tuple[int, str, list[str]]


def _statements(text: str) -> list[_Statement]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        words = body.split()
        if words:
            out.append((lineno, body, words))
    return out


def _column(stmt: _Statement, k: int) -> int:
    """1-based column of word k (negative k counts from the end); only errors need it."""
    return [m.start() for m in re.finditer(r"\S+", stmt[1])][k] + 1


def _bad(
    stmt: _Statement, k: int, message: str, offset: int = 0, token: str | None = None
) -> ParseError:
    """Error at word k, or at `token` found `offset` characters into word k."""
    token = stmt[2][k] if token is None else token
    return ParseError(stmt[0], _column(stmt, k) + offset, message, token)


def _int_word(stmt: _Statement, k: int, what: str) -> int:
    word = stmt[2][k]
    if not (word.isascii() and word.isdigit()):
        raise _bad(stmt, k, f"expected {what}")
    try:
        return int(word)
    except ValueError:  # more digits than int() converts
        raise _bad(stmt, k, f"{what} has too many digits") from None


def _bitstring(
    stmt: _Statement, k: int, lines: int, offset: int = 0, part: str | None = None
) -> str:
    """Word k, or the `part` of it at `offset`, as a basis bitstring of `lines` bits."""
    text = stmt[2][k] if part is None else part
    if set(text) - {"0", "1"} or len(text) != lines:
        raise _bad(stmt, k, f"expected a {lines}-bit basis bitstring", offset, part)
    return text


def _line_word(stmt: _Statement, k: int, lines: int) -> int:
    value = _int_word(stmt, k, "a line index")
    if value >= lines:
        raise _bad(stmt, k, f"line index outside 0..{lines - 1}")
    return value


def parse(text: str) -> CircuitAst:
    """Parse circuit text; raises ParseError with a 1-based line and column on bad input."""
    _expect(str, text)
    stmts = _statements(text)
    if not stmts:
        raise ParseError(1, 1, "empty circuit")
    head = stmts[0]
    words = head[2]
    if words[0] != "lines":
        raise _bad(head, 0, "circuit must start with a `lines <n>` statement")
    if len(words) != 2:
        raise _bad(head, -1, "`lines` takes exactly one count")
    n = _int_word(head, 1, "a positive line count")
    if n < 1:
        raise _bad(head, 1, "line count must be positive")
    if n > qc.MAX_LINES:
        raise RegisterTooWide(f"line {head[0]}: {n} lines exceed the limit of {qc.MAX_LINES}")

    initial: tuple[str, ...] | None = None
    steps: list[Step] = []
    for stmt in stmts[1:]:
        word = stmt[2][0]
        if word == "init":
            if initial is not None:
                raise _bad(stmt, 0, "only one init statement is allowed")
            if steps:
                raise _bad(stmt, 0, "init must come before gates and measures")
            initial = _parse_init(stmt, n)
        elif word == "gate":
            steps.append(_parse_gate(stmt, n))
        elif word == "measure":
            steps.append(_parse_measure(stmt, n))
        else:
            raise _bad(stmt, 0, "expected `init`, `gate`, or `measure`")
    if not steps:
        last = stmts[-1]
        raise ParseError(last[0], _column(last, 0), "circuit needs at least one step")
    if initial is None:
        initial = ("0" * n,)
    return CircuitAst(n, initial, tuple(steps))


def _parse_init(stmt: _Statement, n: int) -> tuple[str, ...]:
    words = stmt[2]
    if len(words) >= 2 and words[1] == "ket":
        if len(words) != 3:
            raise _bad(stmt, -1, "`init ket` takes one `+`-joined ket expression")
        out = []
        offset = 0
        for part in words[2].split("+"):
            out.append(_bitstring(stmt, 2, n, offset, part))
            offset += len(part) + 1
        return tuple(out)
    if len(words) != 2:
        raise _bad(stmt, -1, "`init` takes exactly one bitstring")
    return (_bitstring(stmt, 1, n),)


def _parse_gate(stmt: _Statement, n: int) -> Step:
    words = stmt[2]
    if len(words) < 2:
        raise _bad(stmt, 0, "`gate` needs a gate name")
    name = words[1]
    if name in _ONE_LINE_GATES:
        if len(words) != 3:
            raise _bad(stmt, -1, f"`gate {name}` takes exactly one line index")
        return GateStep(name, _line_word(stmt, 2, n))
    if name == "CNOT":
        if len(words) != 4:
            raise _bad(stmt, -1, "`gate CNOT` takes control and target line indices")
        control = _line_word(stmt, 2, n)
        target = _line_word(stmt, 3, n)
        if abs(control - target) != 1:
            raise _bad(stmt, 2, "CNOT control and target must be adjacent lines")
        return CnotStep(control, target)
    if name == "EF":
        if len(words) != 3:
            raise _bad(stmt, -1, "`gate EF` takes one truth-table bitstring")
        table = words[2]
        if set(table) - {"0", "1"}:
            raise _bad(stmt, 2, "truth table must be 0/1 bits")
        if n & (n - 1):
            raise _bad(stmt, 1, "EF needs a power-of-two line count")
        if len(table) != 2 * n:
            raise _bad(stmt, 2, f"EF on {n} lines needs a {2 * n}-bit truth table")
        return EfStep(table)
    raise _bad(stmt, 1, "unknown gate")


def _parse_measure(stmt: _Statement, n: int) -> MeasureStep:
    words = stmt[2]
    if len(words) != 2:
        raise _bad(stmt, -1, "`measure` takes a line index or `all`")
    if words[1] == "all":
        return MeasureStep(None)
    return MeasureStep(_line_word(stmt, 1, n))


def render(ast: CircuitAst) -> str:
    """Canonical text for an AST, each step as its str; parse(render(ast)) == ast."""
    _expect(CircuitAst, ast)
    out = [f"lines {ast.lines}"]
    if len(ast.initial) == 1:
        out.append(f"init {ast.initial[0]}")
    else:
        out.append("init ket " + "+".join(ast.initial))
    out.extend(map(str, ast.steps))
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

    @classmethod
    def _derived(cls, label: str, register: qc.Register) -> TraceEntry:
        """The entry built by writing its fields, without the frozen __setattr__."""
        entry = object.__new__(cls)
        fields = entry.__dict__
        fields["label"], fields["register"] = label, register
        return entry


@dataclass(frozen=True)
class RunResult:
    ast: CircuitAst
    trace: tuple[TraceEntry, ...]
    measurements: tuple[MeasureRecord, ...]

    @property
    def final(self) -> qc.Register:
        return self.trace[-1].register

    def _check_printable(self) -> None:
        """Raise TooLarge, before any ket string is built, above MAX_TRACE_KETS kets."""
        kets = sum(t.register.state.weight() for t in self.trace)
        if kets > MAX_TRACE_KETS:
            raise TooLarge(f"the trace holds {kets} kets, above the print limit of {MAX_TRACE_KETS}")

    def to_json(self) -> dict:
        self._check_printable()
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


def run(ast: CircuitAst, seed: int) -> RunResult:
    """Execute a circuit; deterministic for a fixed seed.

    The generator is only consulted when a measurement is genuinely random;
    measurements with a certain outcome never draw from it.
    """
    _expect(CircuitAst, ast)
    _expect(int, seed)
    try:
        reg = qc.Register.from_bitstrings(ast.lines, ast.initial)
    except ZeroState:
        raise ZeroInitial("initial ket expression cancels to the zero vector") from None

    rng = random.Random(seed)
    entry = TraceEntry._derived
    trace = [entry("init", reg)]
    measurements: list[MeasureRecord] = []

    def do_measure(line: int) -> None:
        # the outcome is certain, and the register kept, when no ket or every ket has a 1
        nonlocal reg
        total = reg.state.weight()
        ones = qc._ones(reg, line).bit_count()
        if 0 < ones < total:
            outcome, reg = qc.measure_line(reg, line, rng)
        else:
            outcome = 1 if ones else 0
        measurements.append(MeasureRecord(line, outcome, Fraction(reg.state.weight(), total)))
        trace.append(entry(f"measure {line} -> {outcome}", reg))

    for step in ast.steps:
        kind = type(step)
        if kind is MeasureStep:
            for line in range(ast.lines) if step.line is None else (step.line,):
                do_measure(line)
            continue
        if kind is GateStep:
            reg = qc.apply(qc.standard_gate(step.name), reg, step.line)
        elif kind is CnotStep:
            name = _CNOT_NAMES.get(step.target - step.control)
            if name is None:  # as `parse` requires
                raise InvalidArgument(f"{step}: CNOT control and target must be adjacent lines")
            reg = qc.apply(qc.standard_gate(name), reg, min(step.control, step.target))
        elif kind is EfStep:
            reg = qc.apply_ef(qc.BooleanFunction.from_bits(step.table), reg)
        else:
            raise InvalidArgument(f"expected a circuit step, got {kind.__name__}")
        trace.append(entry(str(step), reg))
    return RunResult(ast, tuple(trace), tuple(measurements))
