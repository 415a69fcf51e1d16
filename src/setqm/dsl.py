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
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache

from ._record import record
from .errors import InvalidArgument, ParseError, RegisterTooWide, TooLarge, ZeroInitial, ZeroState
from . import qc
from .gf2 import BitVec, _expect, _random_set_bit
from .space import rat_json

_ONE_LINE_GATES = tuple(name for name, g in qc._LIBRARY.items() if g.width == 1)
# The most kets, summed over a run's trace, that its JSON object or `setqm run`
# prints; each ket is a bitstring of one character per line. A 20-step run on
# 12 lines has at most 21 * 4096 = 86016.
MAX_TRACE_KETS = 1 << 17


@record
class GateStep:
    """A `gate <NAME> <line>` statement: a one-line gate on one line."""

    name: str
    line: int

    def __str__(self) -> str:
        return f"gate {self.name} {self.line}"


@record
class CnotStep:
    """A `gate CNOT <control> <target>` statement on two adjacent lines."""

    control: int
    target: int

    def __str__(self) -> str:
        return f"gate CNOT {self.control} {self.target}"


@record
class EfStep:
    """A `gate EF <truthtable-bits>` statement over every line."""

    table: str

    def __str__(self) -> str:
        return f"gate EF {self.table}"


@record
class MeasureStep:
    """A `measure <line>` or `measure all` statement."""

    line: int | None  # None measures every line in order

    def __str__(self) -> str:
        return f"measure {'all' if self.line is None else self.line}"


Step = GateStep | CnotStep | EfStep | MeasureStep


@record
class CircuitAst:
    """A circuit: its line count, `init` bitstrings and steps in order.

    Built by hand, its fields must be what `parse` would build, or it
    raises InvalidArgument (RegisterTooWide above `qc.MAX_LINES` lines).
    `initial` and `steps` may be any iterables other than a str and are
    stored as tuples. `parse` builds with the unchecked `_derived`.
    """

    lines: int
    initial: tuple[str, ...]
    steps: tuple[Step, ...]

    def __post_init__(self) -> None:
        lines = self.lines
        qc._check_width(lines)
        for name in "initial", "steps":
            value = getattr(self, name)
            if isinstance(value, str) or not isinstance(value, Iterable):
                raise InvalidArgument(f"circuit {name} must be iterable and not a str, "
                                      f"got {type(value).__name__}")
            object.__setattr__(self, name, tuple(value))
        if not self.initial or not all(type(k) is str and len(k) == lines and not k.strip("01")
                                       for k in self.initial):
            raise InvalidArgument(f"circuit initial must hold {lines}-bit bitstrings, "
                                  f"got {self.initial!r}")
        if not self.steps:
            raise InvalidArgument("circuit needs at least one step")
        for step in self.steps:
            _check_step(step, lines)


def _check_step(step: object, lines: int) -> None:
    """Raise InvalidArgument unless `parse` builds `step` in a circuit of `lines` lines."""
    kind = type(step)
    if kind is GateStep:
        name, line = step.name, step.line
        if type(name) is str and name in _ONE_LINE_GATES and type(line) is int \
                and 0 <= line < lines:
            return
        problem = f"a gate step is one of {' '.join(_ONE_LINE_GATES)} on a line in 0..{lines - 1}"
    elif kind is CnotStep:
        control, target = step.control, step.target
        if (type(control) is int and type(target) is int
                and abs(target - control) == 1 and 0 <= min(control, target) < lines - 1):
            return
        problem = f"CNOT control and target must be adjacent lines in 0..{lines - 1}"
    elif kind is MeasureStep:
        line = step.line
        if line is None or type(line) is int and 0 <= line < lines:
            return
        problem = f"a measure step is `all` or a line in 0..{lines - 1}"
    elif kind is EfStep:
        table = step.table
        if type(table) is str and len(table) == 2 * lines and not table.strip("01") \
                and not lines & (lines - 1):
            return
        problem = (f"EF on {lines} lines needs a {2 * lines}-bit truth table of 0/1 bits"
                   " and a power-of-two line count")
    else:
        raise InvalidArgument(f"expected a circuit step, got {kind.__name__}")
    raise InvalidArgument(f"{step}: {problem}")


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
    return CircuitAst._derived(n, initial, tuple(steps))


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
    initial = ast.initial
    init = f"init {initial[0]}" if len(initial) == 1 else "init ket " + "+".join(initial)
    return "\n".join([f"lines {ast.lines}", init, *map(str, ast.steps)]) + "\n"


@record
class MeasureRecord:
    """One line measured in a run: its outcome and that outcome's probability."""

    line: int
    outcome: int
    probability: Fraction


@record
class TraceEntry:
    """The register after the run step that `label` names."""

    label: str
    register: qc.Register


@record
class RunResult:
    """A run of a circuit: the register after each step, and each measurement."""

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


# The gate steps on 6-12 lines have 490 keys: 6 one-line gates on 63 lines and 2 Cnots on
# 56 line pairs. An entry holds a short label and three small values, about 0.25 KiB with
# its key, so 512 entries stay near 128 KiB; it holds no mask (`qc._block_mask` caches those).
@lru_cache(maxsize=512)
def _plan(lines: int, name: str, line: int) -> tuple:
    """(trace label, kernel or None for the identity, pos, width) of a library gate whose
    top line is `line`, with pos and width as `qc._block_mask` takes them."""
    g = qc._LIBRARY[name]
    if name == "CNOT_A":
        label = f"gate CNOT {line} {line + 1}"
    elif name == "CNOT_B":
        label = f"gate CNOT {line + 1} {line}"
    else:
        label = f"gate {name} {line}"
    return label, g._kernel, lines - line - g.width, g.width


def run(ast: CircuitAst, seed: int) -> RunResult:
    """Execute a circuit; deterministic for a fixed seed.

    The state stays one packed int from step to step. A gate step runs its
    kernel on it through a cached plan, an EF step its 2x2 factors line by
    line, and a measurement reads the kets with a 1 on its line. The trace
    holds a real `TraceEntry` and `Register` for every step.
    `random.Random(seed)` is built at the first measurement that is
    genuinely random, and gives the sequence it would have given if built
    up front; a measurement with a certain outcome never draws from it.
    """
    _expect(CircuitAst, ast)
    _expect(int, seed)
    try:
        reg = qc.Register.from_bitstrings(ast.lines, ast.initial)
    except ZeroState:
        raise ZeroInitial("initial ket expression cancels to the zero vector") from None

    lines, bits, rng = reg.lines, reg.state.bits, None
    size, block_mask = 1 << lines, qc._block_mask
    vec, new_reg, entry = BitVec._derived, qc.Register._derived, TraceEntry._derived
    trace = [entry("init", reg)]
    measurements: list[MeasureRecord] = []
    for step in ast.steps:
        kind = type(step)
        if kind is GateStep or kind is CnotStep:
            if kind is GateStep:
                plan = _plan(lines, step.name, step.line)
            elif step.control < step.target:
                plan = _plan(lines, "CNOT_A", step.control)
            else:
                plan = _plan(lines, "CNOT_B", step.target)
            label, kernel, pos, width = plan
            if kernel is not None:
                bits = kernel(bits, block_mask(lines, pos, width), 1 << pos)
                reg = new_reg(lines, vec(size, bits))
            trace.append(entry(label, reg))
        elif kind is MeasureStep:
            for line in range(lines) if step.line is None else (step.line,):
                pos = lines - 1 - line
                ones = bits & block_mask(lines, pos, 1) << (1 << pos)
                total, count = bits.bit_count(), ones.bit_count()
                # the outcome is certain, and the register kept, when no ket or every ket has a 1
                if 0 < count < total:
                    if rng is None:
                        rng = random.Random(seed)
                    outcome = (ones >> _random_set_bit(bits, rng)) & 1
                    bits = ones if outcome else bits ^ ones
                    reg = new_reg(lines, vec(size, bits))
                else:
                    outcome = 1 if count else 0
                measurements.append(MeasureRecord(line, outcome, Fraction(bits.bit_count(), total)))
                trace.append(entry(f"measure {line} -> {outcome}", reg))
        else:  # an EfStep: `CircuitAst` holds no other kind
            table = step.table
            factors = qc._ef_factors(qc.BooleanFunction.from_bits(table))
            for line, g in enumerate(factors):
                pos = lines - 1 - line
                bits = g._kernel(bits, block_mask(lines, pos, 1), 1 << pos)
            reg = new_reg(lines, vec(size, bits))
            trace.append(entry(f"gate EF {table}", reg))
    return RunResult(ast, tuple(trace), tuple(measurements))
