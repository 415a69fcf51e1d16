"""Quantum computing over Z2: registers, nonsingular gates, and oracle algorithms.

A register of n lines is a nonzero vector in Z2^(2^n); basis index k is
the n-bit string of k with line 0 as the most significant bit (Alice on
top). Gates are any nonsingular GF(2) matrices, so a nonzero state can
never be driven to zero.

Gates act locally on the packed state; no matrix of the register's full
width is built. The kernel is chosen by the gate's matrix, not its name.
With m the kets whose gate lines are all 0 and s the distance between
neighbouring local values:

- an identity of any width returns the register itself;
- the 2x2 matrices are the six elements of GL(2, Z2): H0 and H1 are one
  transvection, b ^ ((b & m) << s) and b ^ ((b >> s) & m); X is the delta
  swap below of local values 0 and 1, the same kernel as the Cnots; XH0
  and XH1 are a transvection followed by that swap;
- the two Cnots are a delta swap of two local values,
  t = ((b >> d) ^ b) & M; b ^ t ^ (t << d).

Any other gate takes the column loop: the kets whose gate lines spell j
are masked out, shifted down to j = 0 and shifted back up once per set
entry of column j.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable
from fractions import Fraction
from functools import cached_property, lru_cache, partial, reduce

from ._record import record
from .errors import (
    ImpossibleOutcome,
    InvalidArgument,
    LineOutOfRange,
    RegisterTooWide,
    SizeMismatch,
    Singular,
    TooLarge,
    UnknownGate,
    WrongArity,
    ZeroState,
)
from .gf2 import BitVec, GF2Matrix, _expect, _random_set_bit, is_nonsingular, kron

MAX_LINES = 20  # a register of n lines is a 2^n-bit int; 20 lines is 128 KiB


@record
class Gate:
    """A named nonsingular matrix of size 2^k acting on k adjacent lines."""

    name: str
    matrix: GF2Matrix

    def __post_init__(self):
        _expect(GF2Matrix, self.matrix)
        if not self.matrix.is_square:
            raise SizeMismatch("gate matrix must be square")
        if self.matrix.rows & (self.matrix.rows - 1):
            raise SizeMismatch("gate size must be a power of two")
        if not is_nonsingular(self.matrix):
            raise Singular(f"gate {self.name} must be nonsingular")

    @cached_property
    def width(self) -> int:
        return self.matrix.rows.bit_length() - 1

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """Row indices of the set entries of each column: local value j goes to each i."""
        return tuple(self.matrix.column(j).indices() for j in range(self.matrix.cols))

    @cached_property
    def _kernel(self) -> Callable[[int, int, int], int] | None:
        """kernel(bits, m, s) for this matrix; None for an identity."""
        if self.matrix == GF2Matrix.identity(self.matrix.rows):
            return None
        return _KERNELS.get(self.matrix.row_bits) or partial(_column_loop, self.columns)


# Each kernel maps the packed state b to the gate's image of it. m holds the
# kets whose gate lines are all 0 and s = 2^pos is the distance between
# neighbouring local values, so the kets with local value j are m << j*s.


def _column_loop(columns: tuple[tuple[int, ...], ...], b: int, m: int, s: int) -> int:
    out = 0
    for j, column in enumerate(columns):
        part = (b >> j * s) & m
        if part:
            for i in column:
                out ^= part << i * s
    return out


def _h0(b: int, m: int, s: int) -> int:
    return b ^ ((b & m) << s)


def _h1(b: int, m: int, s: int) -> int:
    return b ^ ((b >> s) & m)


def _xh0(b: int, m: int, s: int) -> int:
    return _delta_swap(b ^ ((b & m) << s), m, s)


def _xh1(b: int, m: int, s: int) -> int:
    return _delta_swap(b ^ ((b >> s) & m), m, s)


def _delta_swap(b: int, mask: int, d: int) -> int:
    """Swap each ket in `mask` with the ket d above it."""
    t = ((b >> d) ^ b) & mask
    return b ^ t ^ (t << d)


def _cnot_a(b: int, m: int, s: int) -> int:
    return _delta_swap(b, m << 2 * s, s)  # local values 10 <-> 11


def _cnot_b(b: int, m: int, s: int) -> int:
    return _delta_swap(b, m << s, 2 * s)  # local values 01 <-> 11


# The gate library: name, matrix rows, kernel (None: the identity returns its input).
_GATES = (
    ("I", [[1, 0], [0, 1]], None),
    ("X", [[0, 1], [1, 0]], _delta_swap),  # local values 0 <-> 1
    ("H0", [[1, 0], [1, 1]], _h0),
    ("H1", [[1, 1], [0, 1]], _h1),
    ("XH0", [[1, 1], [1, 0]], _xh0),
    ("XH1", [[0, 1], [1, 1]], _xh1),
    ("CNOT_A", [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], _cnot_a),
    ("CNOT_B", [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], _cnot_b),
)

_LIBRARY = {name: Gate(name, GF2Matrix.from_rows(rows)) for name, rows, _ in _GATES}

_KERNELS = {_LIBRARY[name].matrix.row_bits: kernel for name, _, kernel in _GATES if kernel}


def standard_gate(name: str) -> Gate:
    """One of the named library gates (the six 2x2 ones plus the two Cnots)."""
    try:
        return _LIBRARY[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise UnknownGate(f"no gate named {name!r}") from None


# One mask is at most 2^MAX_LINES bits (128 KiB), so the cache holds at most
# 16 MiB. 128 entries hold every key of one- and two-line gates on 6-12 lines
# (119 keys; a pass of the `circuits` benchmark uses 74), where 64 kept evicting.
@lru_cache(maxsize=128)
def _block_mask(lines: int, pos: int, width: int) -> int:
    """Basis indices of an n-line register whose bits pos..pos+width-1 are all 0.

    One run of 2^pos ones every 2^(pos+width) bits, doubled up to 2^lines
    bits; the indices whose bits spell j are this mask shifted by j << pos.
    """
    mask, span = (1 << (1 << pos)) - 1, 1 << (pos + width)
    while span < 1 << lines:
        mask |= mask << span
        span <<= 1
    return mask


def _check_width(lines: int) -> None:
    _expect(int, lines)
    if lines < 1:
        raise InvalidArgument("register needs at least one line")
    if lines > MAX_LINES:
        raise RegisterTooWide(f"{lines} lines exceed the limit of {MAX_LINES}")


def _check_index(index: int) -> None:
    if not (isinstance(index, int) and index >= 0):
        raise InvalidArgument(f"basis index {index!r} must be a nonnegative int")


def _check_line(r: Register, line: int) -> None:
    if not (isinstance(line, int) and 0 <= line < r.lines):
        raise LineOutOfRange(f"line {line!r} outside 0..{r.lines - 1}")


@record
class Register:
    """n lines holding a nonzero vector in Z2^(2^n)."""

    lines: int
    state: BitVec

    def __post_init__(self):
        _check_width(self.lines)
        _expect(BitVec, self.state)
        if self.state.length != 1 << self.lines:
            raise SizeMismatch("state length must be 2^lines")
        if self.state.is_zero:
            raise ZeroState("register state must be nonzero")

    @classmethod
    def basis(cls, lines: int, index: int) -> Register:
        return cls.from_indices(lines, [index])

    @classmethod
    def from_indices(cls, lines: int, indices: Iterable[int]) -> Register:
        _check_width(lines)
        return cls(lines, BitVec.from_indices(1 << lines, indices))

    @classmethod
    def from_bitstrings(cls, lines: int, strings: Iterable[str]) -> Register:
        _check_width(lines)
        _expect(Iterable, strings)
        bits = 0
        for s in strings:
            if not isinstance(s, str) or len(s) != lines or s.strip("01"):
                raise InvalidArgument(f"bad basis bitstring {s!r}")
            bits ^= 1 << int(s, 2)
        if not bits:
            raise ZeroState("register state must be nonzero")
        return cls._derived(lines, bits)

    @classmethod
    def _derived(cls, lines: int, bits: int) -> Register:
        """The register of `bits`, built without the constructor's checks.

        Only for a nonzero state below 2^(2^lines) on a checked number of
        lines, such as the image of a checked register under a nonsingular
        gate or a nonempty part of its support.
        """
        r = object.__new__(cls)
        fields = r.__dict__
        fields["lines"], fields["state"] = lines, BitVec._derived(1 << lines, bits)
        return r

    def support(self) -> tuple[int, ...]:
        return self.state.indices()

    def bitstrings(self) -> tuple[str, ...]:
        return tuple(format(k, f"0{self.lines}b") for k in self.support())

    def coefficient(self, index: int) -> int:
        _check_index(index)
        return (self.state.bits >> index) & 1

    def coefficients(self) -> tuple[int, ...]:
        return self.state.coords()

    def line_value(self, index: int, line: int) -> int:
        _check_index(index)
        _check_line(self, line)
        return (index >> (self.lines - 1 - line)) & 1

    def __str__(self) -> str:
        return "+".join(f"|{s}>" for s in self.bitstrings())


def apply(g: Gate, r: Register, line: int = 0) -> Register:
    """Apply the gate to the contiguous lines starting at `line`, identity elsewhere.

    Library matrices take a constant number of mask-and-shift passes over
    the packed state (see the module docstring). The column loop moves the
    kets whose local value is j to every i with a set entry in column j: one
    mask-and-shift per local value plus one shift-and-XOR per set entry of a
    column whose kets are present.
    """
    if not (isinstance(g, Gate) and isinstance(r, Register)):
        _expect(Gate, g)
        _expect(Register, r)
    width, lines = g.width, r.lines
    if not (isinstance(line, int) and 0 <= line <= lines - width):
        raise SizeMismatch(
            f"gate {g.name} spans lines {line!r} onward ({width} lines), register has {lines}"
        )
    kernel = g._kernel
    if kernel is None:
        return r
    pos = lines - line - width
    return Register._derived(lines, kernel(r.state.bits, _block_mask(lines, pos, width), 1 << pos))


def _ones(r: Register, line: int) -> int:
    """The kets of `r` with a 1 on `line`; the rest of the support has a 0 there."""
    if not isinstance(r, Register):
        _expect(Register, r)
    _check_line(r, line)
    pos = r.lines - 1 - line
    return r.state.bits & _block_mask(r.lines, pos, 1) << (1 << pos)


def line_probs(r: Register, line: int) -> dict[int, Fraction]:
    """Born probabilities of each bit value on one line."""
    ones = _ones(r, line).bit_count()
    total = r.state.weight()
    return {0: Fraction(total - ones, total), 1: Fraction(ones, total)}


def measure_line(r: Register, line: int, rng: random.Random) -> tuple[int, Register]:
    """Measure one line: uniform draw over the support, collapse to the matching kets."""
    ones, bits = _ones(r, line), r.state.bits
    outcome = (ones >> _random_set_bit(bits, rng)) & 1
    return outcome, Register._derived(r.lines, ones if outcome else bits ^ ones)


def measure_line_given(r: Register, line: int, outcome: int) -> tuple[int, Register]:
    """Deterministic variant: collapse onto a chosen outcome of nonzero probability."""
    ones, is_bit = _ones(r, line), isinstance(outcome, int) and outcome in (0, 1)
    kept = (r.state.bits ^ ones, ones)[outcome] if is_bit else 0
    if not kept:
        raise ImpossibleOutcome(f"outcome {outcome!r} on line {line} has probability 0")
    return outcome, Register._derived(r.lines, kept)


@record
class TeleportTrace:
    """Every stage of the one-classical-bit teleportation protocol."""

    input: tuple[int, int]
    phi0: Register
    phi1: Register
    phi2: Register
    measured: int
    bob: tuple[int, int]

    def to_json(self) -> dict:
        return {
            "input": list(self.input),
            "phi0": list(self.phi0.bitstrings()),
            "phi1": list(self.phi1.bitstrings()),
            "phi2": list(self.phi2.bitstrings()),
            "classical_bit": self.measured,
            "bob": list(self.bob),
        }


def teleport(alpha: int, beta: int, rng: random.Random) -> TeleportTrace:
    """Teleport Alice's qubit (alpha, beta) to Bob using one classical bit.

    Bob superposes his |0> with H0, Cnot_B entangles the pair, Alice
    measures her line and sends the result M, drawn with `rng`, and Bob
    applies X^M.
    """
    _expect(random.Random, rng)
    if not all(isinstance(a, int) and a in (0, 1) for a in (alpha, beta)):
        raise InvalidArgument(f"amplitudes over Z2 are 0 or 1, got ({alpha!r}, {beta!r})")
    if (alpha, beta) == (0, 0):
        raise ZeroState("cannot teleport the zero vector")
    phi0 = Register.from_indices(2, [k for k, amp in ((0, alpha), (2, beta)) if amp])
    phi1 = apply(standard_gate("H0"), phi0, line=1)
    phi2 = apply(standard_gate("CNOT_B"), phi1)
    m, collapsed = measure_line(phi2, 0, rng)
    if m:
        collapsed = apply(standard_gate("X"), collapsed, line=1)
    bob = (collapsed.coefficient(m * 2), collapsed.coefficient(m * 2 + 1))
    return TeleportTrace((alpha, beta), phi0, phi1, phi2, m, bob)


@record
class BooleanFunction:
    """An n-ary Boolean function as its truth table in input order 0..0 to 1..1."""

    arity: int
    table: tuple[int, ...]

    def __post_init__(self):
        if not (isinstance(self.arity, int) and isinstance(self.table, tuple)):
            raise InvalidArgument("a Boolean function is an int arity and a tuple truth table")
        if self.arity < 1:
            raise WrongArity("arity must be at least 1")
        table = self.table
        if len(table) != 1 << self.arity or set(table) - {0, 1} or set(map(type, table)) - {int}:
            raise InvalidArgument("truth table must hold 2^arity bits, each the int 0 or 1")

    @classmethod
    def from_bits(cls, bits: str) -> BooleanFunction:
        _expect(str, bits)
        if bits.strip("01"):
            raise InvalidArgument(f"truth table {bits!r} must be 0/1 bits")
        return cls(len(bits).bit_length() - 1, tuple(map(int, bits)))

    def value(self, index: int) -> int:
        if not (isinstance(index, int) and 0 <= index < len(self.table)):
            raise InvalidArgument(f"input {index!r} outside 0..{len(self.table) - 1}")
        return self.table[index]

    @property
    def bits(self) -> str:
        return "".join(str(b) for b in self.table)


# X^f(p,1) H_f(p,0) is a library gate, indexed by f(p,0) + 2 f(p,1)
_EF_FACTORS = ("H0", "H1", "XH0", "XH1")


def _ef_factors(f: BooleanFunction) -> tuple[Gate, ...]:
    """The 2x2 factors X^f(p,1) H_f(p,0) of the evaluation gate, prefix p on line p."""
    t = f.table
    return tuple(
        _LIBRARY[_EF_FACTORS[t[2 * p] + 2 * t[2 * p + 1]]] for p in range(1 << (f.arity - 1))
    )


MAX_EF_GATE_LINES = 8  # the full gate on 8 lines is 256 x 256 bits


def ef_gate(f: BooleanFunction) -> Gate:
    """The function-evaluation gate: X^f(p,1) H_f(p,0) tensored over prefixes p.

    Prefixes run over Z2^(arity-1) in lexicographic order, first prefix
    outermost, giving 2^(arity-1) factors of size 2x2. This full matrix is
    the reference for `apply_ef`, which applies the factors one line at a time.
    Above arity 4 the gate spans more than MAX_EF_GATE_LINES lines, and
    TooLarge is raised before anything is built. `apply_ef` builds only the
    2x2 factors, so the register's width is its only bound.
    """
    _expect(BooleanFunction, f)
    lines = 1 << (f.arity - 1)
    if lines > MAX_EF_GATE_LINES:
        raise TooLarge(
            f"the EF gate of arity {f.arity} spans {lines} lines, "
            f"over the limit of {MAX_EF_GATE_LINES}"
        )
    return Gate(f"EF[{f.bits}]", reduce(kron, (g.matrix for g in _ef_factors(f))))


def apply_ef(f: BooleanFunction, r: Register) -> Register:
    """Same as apply(ef_gate(f), r), one 2x2 factor per line, without building the gate."""
    if not isinstance(f, BooleanFunction):
        _expect(BooleanFunction, f)
    for line, g in enumerate(_ef_factors(f)):
        r = apply(g, r, line)
    return r


@record
class ParitySatResult:
    """Decoded outcome of the one-evaluation parity algorithm."""

    parity: int
    slice_parities: tuple[int, ...]
    measured_index: int
    lines: int
    state: Register
    oracle_calls: int

    @property
    def measured_bits(self) -> str:
        return format(self.measured_index, f"0{self.lines}b")

    def to_json(self) -> dict:
        return {
            "parity": self.parity,
            "slice_parities": list(self.slice_parities),
            "measured_ket": self.measured_bits,
            "oracle_calls": self.oracle_calls,
        }


def parity_sat(f: BooleanFunction) -> ParitySatResult:
    """Decide the parity of all 2^arity function values with one evaluation gate.

    H0 on every line of |0...0> gives the uniform superposition, built here
    directly. It turns the evaluation gate into its row sums, which land on
    exactly one basis ket; each line's bit is the parity of the function on
    one prefix slice, and their sum is the total parity.
    """
    _expect(BooleanFunction, f)
    lines = 1 << (f.arity - 1)
    _check_width(lines)
    reg = apply_ef(f, Register._derived(lines, (1 << (1 << lines)) - 1))
    bits = reg.state.bits
    if bits & (bits - 1):
        raise AssertionError("post-evaluation state must be a single basis ket")
    index = bits.bit_length() - 1
    slices = tuple((index >> (lines - 1 - j)) & 1 for j in range(lines))
    parity = index.bit_count() & 1
    return ParitySatResult(parity, slices, index, lines, reg, oracle_calls=1)


def deutsch(f: BooleanFunction) -> str:
    """Classify a unary Boolean function as balanced or constant."""
    _expect(BooleanFunction, f)
    if f.arity != 1:
        raise WrongArity("the balanced/constant question is about unary functions")
    return "balanced" if parity_sat(f).parity else "constant"


def unambiguous_sat(f: BooleanFunction) -> str:
    """Under the promise of at most one satisfying input, decide satisfiability."""
    return "satisfiable" if parity_sat(f).parity else "unsatisfiable"
