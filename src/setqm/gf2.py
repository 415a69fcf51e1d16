"""Bit-packed linear algebra over GF(2).

Vectors and matrix rows are Python ints used as bitsets: bit j is
coordinate j, so vector addition is a single XOR and a dot product is a
popcount parity. Everything is immutable and all operations are pure,
so values can be shared freely between threads.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, compress, count, repeat
from operator import xor
from typing import Iterable, Sequence

from .errors import DimMismatch, InvalidArgument, LengthMismatch, NotSquare, Singular


@dataclass(frozen=True)
class BitVec:
    """A vector in Z2^length, packed into one int (bit j = coordinate j)."""

    length: int
    bits: int

    def __post_init__(self):
        try:
            if self.length < 1:
                raise InvalidArgument("BitVec needs positive length")
            if self.bits < 0 or self.bits >> self.length:
                raise InvalidArgument("bits outside the declared length")
        except TypeError:
            raise InvalidArgument("BitVec length and bits must be ints") from None

    @classmethod
    def zero(cls, length: int) -> BitVec:
        return cls(length, 0)

    @classmethod
    def _derived(cls, length: int, bits: int) -> BitVec:
        """The vector of `bits`, built without the constructor's checks.

        Only for a positive `length` and a nonnegative int `bits` below
        2^length that setqm derives from checked values.
        """
        v = object.__new__(cls)
        fields = v.__dict__
        fields["length"], fields["bits"] = length, bits
        return v

    @classmethod
    def from_coords(cls, coords: Sequence[int]) -> BitVec:
        _expect(Sequence, coords)  # its length is the vector's
        bits = 0
        try:
            for j, c in enumerate(coords):
                if c not in (0, 1):
                    raise InvalidArgument("coordinates must be 0 or 1")
                bits |= c << j
        except TypeError:  # a non-int equal to 0 or 1, such as 1.0
            raise InvalidArgument("coordinates must be 0 or 1") from None
        return cls(len(coords), bits)

    @classmethod
    def from_indices(cls, length: int, indices: Iterable[int]) -> BitVec:
        bits = 0
        try:
            for j in indices:
                if not 0 <= j < length:
                    raise InvalidArgument(f"index {j} outside 0..{length - 1}")
                bits ^= 1 << j
        except TypeError:
            raise InvalidArgument("indices must be ints") from None
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


def _random_set_bit(x: int, rng: random.Random) -> int:
    """Position of a uniform pick among the set bits of nonzero x, by one `randrange` call.

    This is the Born rule's draw: every element of the support is equally likely.
    """
    if not isinstance(rng, random.Random):
        _expect(random.Random, rng)
    return nth_set_bit(x, rng.randrange(x.bit_count()))


def _expect(cls: type, *values: object) -> None:
    """Raise InvalidArgument unless every value is a `cls`."""
    for v in values:
        if not isinstance(v, cls):
            raise InvalidArgument(f"expected a {cls.__name__}, got {type(v).__name__}")


def _get(table: dict, key: object, default: object = None):
    """table.get(key, default), with an unhashable key, which no table holds, read as missing."""
    try:
        return table.get(key, default)
    except TypeError:
        return default


def add(v: BitVec, w: BitVec) -> BitVec:
    """Componentwise sum mod 2 (symmetric difference of the index sets)."""
    _expect(BitVec, v, w)
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
        if not (isinstance(self.rows, int) and isinstance(self.cols, int)):
            raise InvalidArgument("matrix dimensions must be ints")
        if self.rows < 1 or self.cols < 1:
            raise InvalidArgument("matrix needs positive dimensions")
        if not isinstance(self.row_bits, tuple):
            raise InvalidArgument("row_bits must be a tuple of ints")
        if len(self.row_bits) != self.rows:
            raise InvalidArgument("row count does not match row_bits")
        try:
            for r in self.row_bits:
                if r < 0 or r >> self.cols:
                    raise InvalidArgument("row bits outside the declared width")
        except TypeError:
            raise InvalidArgument("row bits must be ints") from None

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> GF2Matrix:
        _expect(Sequence, rows)
        if not rows:
            raise InvalidArgument("matrix needs positive dimensions")
        packed = [BitVec.from_coords(row) for row in rows]
        if any(v.length != packed[0].length for v in packed):
            raise InvalidArgument("rows must all have the same length")
        return cls(len(rows), packed[0].length, tuple(v.bits for v in packed))

    @classmethod
    def _derived(cls, rows: int, cols: int, row_bits: tuple[int, ...]) -> GF2Matrix:
        """The matrix of `row_bits`, built without the constructor's checks.

        Only for positive `rows` and `cols` and a tuple of `rows` nonnegative
        ints below 2^cols that setqm derives from checked values.
        """
        m = object.__new__(cls)
        fields = m.__dict__
        fields["rows"], fields["cols"], fields["row_bits"] = rows, cols, row_bits
        return m

    @classmethod
    def identity(cls, n: int) -> GF2Matrix:
        _expect(int, n)
        return cls(n, n, tuple(1 << i for i in range(n)))

    def column(self, j: int) -> BitVec:
        if not isinstance(j, int):
            raise InvalidArgument("column index must be an int")
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
    _expect(GF2Matrix, a)
    _expect(BitVec, v)
    if a.cols != v.length:
        raise DimMismatch(f"matrix has {a.cols} columns, vector has length {v.length}")
    vb = v.bits  # bit i is the parity of row i & v; the digits '0'/'1' are read highest row first
    digits = bytes([48 + ((row & vb).bit_count() & 1) for row in reversed(a.row_bits)])
    return BitVec._derived(a.rows, int(digits, 2))


def _row_sum(rows: Sequence[int], bits: int) -> int:
    """The XOR of the rows that the set bits of `bits` name: the row vector `bits` times `rows`."""
    return reduce(xor, compress(rows, _digits(bits)), 0)


def _xor_table(rows: Sequence[int]) -> list[int]:
    """Entry s is the XOR of the rows that the set bits of s name, built by doubling:
    the entries with bit j set are those without it, each XORed with row j."""
    table = [0]
    for row in rows:
        table += [t ^ row for t in table]
    return table


def _spread(bits: int, stride: int) -> int:
    """`bits` with bit j moved to bit j*stride; times a row below 2^stride, a copy per block."""
    return int(("0" * (stride - 1)).join(bin(bits)[2:]), 2)


def mat_mul(a: GF2Matrix, b: GF2Matrix) -> GF2Matrix:
    """Matrix product mod 2: row i is the sum of the rows of `b` that row i of `a` names."""
    _expect(GF2Matrix, a, b)
    if a.cols != b.rows:
        raise DimMismatch(f"inner dimensions {a.cols} and {b.rows} differ")
    return GF2Matrix._derived(a.rows, b.cols, tuple([_row_sum(b.row_bits, r) for r in a.row_bits]))


# Four-Russians Gauss-Jordan (Arlazarov et al. 1970; M4RI, G. Bard, *Algebraic
# Cryptanalysis*, 2009) clears _BLOCK_COLUMNS columns from every row with one
# table lookup and one XOR. Below _BLOCKED_FROM columns, the best-of crossover
# on dense and sparse matrices, the plain column loop, which builds no table, is faster.
_BLOCK_COLUMNS = 6
_BLOCKED_FROM = 40


def _reduce(a: GF2Matrix) -> list[int] | None:
    """The rows of the inverse of square `a` by Gauss-Jordan; None when `a` is singular."""
    _expect(GF2Matrix, a)
    if not a.is_square:
        raise NotSquare(f"{a.rows}x{a.cols} matrix is not square")
    n = a.rows
    return (_block_pass if n >= _BLOCKED_FROM else _column_pass)(a.row_bits, n)


def _column_pass(row_bits: Sequence[int], n: int) -> list[int] | None:
    """One column at a time, lowest first: find a pivot, then XOR it into every other row with that bit.

    Row i starts as a_i | e_i << n, so one XOR carries a row operation to
    both halves; a full-rank reduction leaves row i = e_i | inverse_i << n.
    """
    rows = [r | 1 << (n + i) for i, r in enumerate(row_bits)]
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
    return [r >> n for r in rows]


def _block_pass(row_bits: Sequence[int], n: int) -> list[int] | None:
    """_BLOCK_COLUMNS columns at a time, highest block first: find their pivots in one scan, then clear them.

    Row i starts as a_i << n | e_i. The scan (Bard 2009, ch. 9) reduces
    each row not yet a pivot by the pivots so far; the first with a block
    bit left pivots on its lowest, which the earlier pivots then drop, so
    the pivots stay identity on the block and table[s], built once, is the
    sum of those that the bits of s name. A cleared pivot row drops its
    pivot bit, so no row has a bit above the block being cleared, its table
    index is a shift of its few top bits, and full rank leaves row i = inverse_i.
    """
    rows = [r << n | 1 << i for i, r in enumerate(row_bits)]
    for c0 in reversed(range(0, n, _BLOCK_COLUMNS)):
        top, shift = min(c0 + _BLOCK_COLUMNS, n), n + c0
        pivots = {}  # pivots[1 << j] is the pivot of column c0 + j
        for p in chain(range(c0, top), range(c0)):  # the rows not yet pivots
            r = rows[p]
            s = r >> shift
            if not s:
                continue
            for low, q in pivots.items():
                if s & low:
                    r ^= q  # the candidate as the earlier pivots leave it
            s = r >> shift
            if s:
                low = s & -s
                for k, q in pivots.items():
                    if q >> shift & low:
                        pivots[k] = q ^ r
                rows[p] = rows[c0 + len(pivots)]  # that slot's row, no pivot, takes p's place
                pivots[low] = r
                if len(pivots) == top - c0:
                    break
        else:
            return None  # the rows ran out first: a square matrix with a pivotless column is singular
        table = _xor_table([q for _, q in sorted(pivots.items())])
        rows = [r ^ table[r >> shift] for r in rows]
        rows[c0:top] = [table[1 << j] ^ 1 << (shift + j) for j in range(top - c0)]
    return rows


def is_nonsingular(a: GF2Matrix) -> bool:
    """True iff elimination mod 2 finds a pivot in every column."""
    return _reduce(a) is not None


def invert(a: GF2Matrix) -> GF2Matrix:
    """Inverse over GF(2); raises Singular when none exists."""
    rows = _reduce(a)
    if rows is None:
        raise Singular("matrix has no inverse over GF(2)")
    return GF2Matrix._derived(a.rows, a.rows, tuple(rows))


# struct codes of the row strides that fit one machine word; the frames benchmark's tail needs
# them, as the byte-string path alone is 1.4-2.3x slower at n = 3-64
_WORD_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}


@lru_cache(maxsize=32)
def _transpose_plan(rows: int, cols: int):
    """(row stride in bytes, packer or None, unpacker, swaps) for a rows x cols transpose.

    The swaps act on the n x n square, n the least power of two that holds
    the matrix, with row i packed at bit i*w for w = max(n, 8). Each swap
    is (shift, mask): the mask marks the upper right s x s block of every
    2s x 2s block, whose bits move down-left by s*(w - 1) to the lower left.
    Rows of one machine word pack and unpack as words in one struct call;
    wider rows unpack in one call as byte strings.
    """
    n = 1 << (max(rows, cols) - 1).bit_length()
    w = max(n, 8)
    swaps, s = [], n >> 1
    while s:
        right = sum(1 << j for j in range(n) if j & s)  # its complement: the rows i without s
        swaps.append((s * (w - 1), right * _spread(right ^ (1 << n) - 1, w)))
        s >>= 1
    word = _WORD_FORMATS.get(w)
    if word:
        packer, unpacker = struct.Struct(f"<{rows}{word}"), struct.Struct(f"<{cols}{word}")
    else:
        packer, unpacker = None, struct.Struct(f"{w // 8}s" * cols)
    return w // 8, packer, unpacker, tuple(swaps)


def transpose(a: GF2Matrix) -> GF2Matrix:
    """The transpose: row j of the result is column j of `a`.

    The rows are packed into one int at a power-of-two stride, and the
    off-diagonal blocks of every 2s x 2s block are swapped for s = n/2,
    ..., 1: log2 n mask-and-shift passes over the whole matrix (H. S.
    Warren, *Hacker's Delight*, 2nd ed., section 7-3).
    """
    _expect(GF2Matrix, a)
    stride, packer, unpacker, swaps = _transpose_plan(a.rows, a.cols)
    if packer:
        x = int.from_bytes(packer.pack(*a.row_bits), "little")
    else:
        x = int.from_bytes(b"".join([r.to_bytes(stride, "little") for r in a.row_bits]), "little")
    for shift, mask in swaps:
        t = (x >> shift ^ x) & mask
        x ^= t ^ t << shift
    row_bits = unpacker.unpack(x.to_bytes(a.cols * stride, "little"))
    if not packer:
        row_bits = tuple(map(int.from_bytes, row_bits, repeat("little")))
    return GF2Matrix._derived(a.cols, a.rows, row_bits)


def solve(a: GF2Matrix, b: BitVec) -> BitVec:
    """The unique x with a*x = b, for square nonsingular a."""
    _expect(GF2Matrix, a)
    _expect(BitVec, b)
    if a.rows != b.length:
        raise DimMismatch(f"matrix has {a.rows} rows, vector has length {b.length}")
    return mat_apply(invert(a), b)


def kron(a: GF2Matrix, b: GF2Matrix) -> GF2Matrix:
    """Kronecker product mod 2, row-major blocks with `a` outer.

    Row (i, k) is row k of `b` times row i of `a` spread to stride b.cols.
    Row i's trailing zeros are shifted out before the spread and the
    product shifted back, so a sparse row costs no characters below its
    lowest set bit.
    """
    _expect(GF2Matrix, a, b)
    out = []
    for a_row in a.row_bits:
        low = (a_row ^ a_row - 1).bit_length() - 1  # the trailing zeros; 0 for a zero row
        spread = _spread(a_row >> low, b.cols) << low * b.cols
        out += [b_row * spread for b_row in b.row_bits]
    return GF2Matrix._derived(a.rows * b.rows, a.cols * b.cols, tuple(out))
