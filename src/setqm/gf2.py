"""Bit-packed linear algebra over GF(2).

Vectors and matrix rows are Python ints used as bitsets: bit j is
coordinate j, so vector addition is a single XOR and a dot product is a
popcount parity. Everything is immutable and all operations are pure,
so values can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from typing import Iterable, Sequence

from .errors import DimMismatch, InvalidArgument, LengthMismatch, NotSquare, Singular


@dataclass(frozen=True)
class BitVec:
    """A vector in Z2^length, packed into one int (bit j = coordinate j)."""

    length: int
    bits: int

    def __post_init__(self):
        if self.length < 1:
            raise InvalidArgument("BitVec needs positive length")
        if self.bits < 0 or self.bits >> self.length:
            raise InvalidArgument("bits outside the declared length")

    @classmethod
    def zero(cls, length: int) -> BitVec:
        return cls(length, 0)

    @classmethod
    def from_coords(cls, coords: Sequence[int]) -> BitVec:
        bits = 0
        for j, c in enumerate(coords):
            if c not in (0, 1):
                raise InvalidArgument("coordinates must be 0 or 1")
            bits |= c << j
        return cls(len(coords), bits)

    @classmethod
    def from_indices(cls, length: int, indices: Iterable[int]) -> BitVec:
        bits = 0
        for j in indices:
            if not 0 <= j < length:
                raise InvalidArgument(f"index {j} outside 0..{length - 1}")
            bits ^= 1 << j
        return cls(length, bits)

    def coords(self) -> tuple[int, ...]:
        return tuple(_digits(self.bits).ljust(self.length, b"\0"))

    def indices(self) -> tuple[int, ...]:
        return tuple(compress(count(), _digits(self.bits)))

    def weight(self) -> int:
        return self.bits.bit_count()

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    def __xor__(self, other: BitVec) -> BitVec:
        return add(self, other)


_BINARY_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _digits(bits: int) -> bytes:
    # coordinates lowest first as bytes 0/1, in one pass (a shift per coordinate is quadratic)
    return bin(bits)[:1:-1].encode().translate(_BINARY_DIGITS)


def nth_set_bit(x: int, n: int) -> int:
    """Position of the n-th set bit of x, counting from 0 at the lowest."""
    lo, hi = 0, x.bit_length()  # n set bits lie below lo, more than n below hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (x & ((1 << mid) - 1)).bit_count() > n:
            hi = mid
        else:
            lo = mid
    return lo


def add(v: BitVec, w: BitVec) -> BitVec:
    """Componentwise sum mod 2 (symmetric difference of the index sets)."""
    if v.length != w.length:
        raise LengthMismatch(f"lengths {v.length} and {w.length} differ")
    return BitVec(v.length, v.bits ^ w.bits)


@dataclass(frozen=True)
class GF2Matrix:
    """Dense 0/1 matrix; each row packed into one int (bit j = column j)."""

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise InvalidArgument("matrix needs positive dimensions")
        if len(self.row_bits) != self.rows:
            raise InvalidArgument("row count does not match row_bits")
        for r in self.row_bits:
            if r < 0 or r >> self.cols:
                raise InvalidArgument("row bits outside the declared width")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> GF2Matrix:
        packed = []
        for row in rows:
            bits = 0
            for j, e in enumerate(row):
                if e not in (0, 1):
                    raise InvalidArgument("entries must be 0 or 1")
                bits |= e << j
            packed.append(bits)
        return cls(len(rows), len(rows[0]), tuple(packed))

    @classmethod
    def identity(cls, n: int) -> GF2Matrix:
        return cls(n, n, tuple(1 << i for i in range(n)))

    def column(self, j: int) -> BitVec:
        if not 0 <= j < self.cols:
            raise InvalidArgument(f"column {j} outside 0..{self.cols - 1}")
        return BitVec(self.rows, sum(((r >> j) & 1) << i for i, r in enumerate(self.row_bits)))

    def to_lists(self) -> list[list[int]]:
        return [[(r >> j) & 1 for j in range(self.cols)] for r in self.row_bits]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols


def mat_apply(a: GF2Matrix, v: BitVec) -> BitVec:
    """Matrix-vector product mod 2."""
    if a.cols != v.length:
        raise DimMismatch(f"matrix has {a.cols} columns, vector has length {v.length}")
    out = 0
    for i, row in enumerate(a.row_bits):
        out |= ((row & v.bits).bit_count() & 1) << i
    return BitVec(a.rows, out)


def mat_mul(a: GF2Matrix, b: GF2Matrix) -> GF2Matrix:
    """Matrix product mod 2."""
    if a.cols != b.rows:
        raise DimMismatch(f"inner dimensions {a.cols} and {b.rows} differ")
    out = []
    for row in a.row_bits:
        acc = 0
        rem = row
        while rem:
            j = (rem & -rem).bit_length() - 1
            acc ^= b.row_bits[j]
            rem &= rem - 1
        out.append(acc)
    return GF2Matrix(a.rows, b.cols, tuple(out))


def _reduce(a: GF2Matrix) -> list[int] | None:
    """Gauss-Jordan on identity-augmented rows; None when `a` is singular.

    Row i starts as a_i | e_i << n, so one XOR carries a row operation to
    both halves; a full-rank reduction leaves row i = e_i | inverse_i << n.
    """
    if not a.is_square:
        raise NotSquare(f"{a.rows}x{a.cols} matrix is not square")
    n = a.rows
    rows = [r | 1 << (n + i) for i, r in enumerate(a.row_bits)]
    for col in range(n):
        bit = 1 << col
        for p in range(col, n):
            if rows[p] & bit:
                break
        else:
            return None  # a square matrix with a pivotless column is singular
        prow = rows[p]
        rows[p] = rows[col]
        for i, r in enumerate(rows):
            if r & bit:
                rows[i] = r ^ prow
        rows[col] = prow
    return rows


def is_nonsingular(a: GF2Matrix) -> bool:
    """True iff elimination mod 2 finds a pivot in every column."""
    return _reduce(a) is not None


def invert(a: GF2Matrix) -> GF2Matrix:
    """Inverse over GF(2); raises Singular when none exists."""
    rows = _reduce(a)
    if rows is None:
        raise Singular("matrix has no inverse over GF(2)")
    n = a.rows
    return GF2Matrix(n, n, tuple(r >> n for r in rows))


def solve(a: GF2Matrix, b: BitVec) -> BitVec:
    """The unique x with a*x = b, for square nonsingular a."""
    if a.rows != b.length:
        raise DimMismatch(f"matrix has {a.rows} rows, vector has length {b.length}")
    return mat_apply(invert(a), b)


def kron(a: GF2Matrix, b: GF2Matrix) -> GF2Matrix:
    """Kronecker product mod 2, row-major blocks with `a` outer."""
    out = []
    for a_row in a.row_bits:
        for b_row in b.row_bits:
            bits = 0
            rem = a_row
            while rem:
                j = (rem & -rem).bit_length() - 1
                bits |= b_row << (j * b.cols)
                rem &= rem - 1
            out.append(bits)
    return GF2Matrix(a.rows * b.rows, a.cols * b.cols, tuple(out))
