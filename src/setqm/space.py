"""Universes, subsets-as-kets, alternative bases, brackets, and Born probabilities.

A state is a subset of a finite universe, viewed as a vector in Z2^n.
Brackets count overlaps, so they take integer values outside the base
field, and every probability is an exact `fractions.Fraction`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress

from .errors import (
    DimMismatch,
    InvalidArgument,
    Singular,
    TooLarge,
    UniverseMismatch,
    UnknownLabel,
    ZeroState,
)
from .gf2 import BitVec, GF2Matrix, _digits, _expect, _row_sum, _xor_table, invert, mat_apply, transpose


@dataclass(frozen=True)
class Universe:
    """An ordered tuple of distinct labels; position defines the coordinate.

    Any iterable of hashable labels is stored as a tuple, so a universe
    built from a list equals, and hashes like, the one built from the tuple.
    """

    labels: tuple[str, ...]
    _position: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            labels = tuple(self.labels)
            position = {x: j for j, x in enumerate(labels)}
        except TypeError:
            raise InvalidArgument("universe labels must be hashable and iterable") from None
        if not labels:
            raise InvalidArgument("universe needs at least one element")
        if len(position) != len(labels):
            raise InvalidArgument("universe labels must be distinct")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_position", position)

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._position[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise UnknownLabel(f"{label!r} not in universe {self.labels}") from None

    def _mask(self, labels: Iterable[str]) -> int:
        """Bitmask of the named elements; raises UnknownLabel for a label outside.
        ProductUniverse shares this loop: its labels are pairs."""
        bits = 0
        try:
            for x in labels:
                bits |= 1 << self.index(x)
        except TypeError:  # `index` catches its own, so `labels` is not an iterable
            raise InvalidArgument(f"expected labels, got {type(labels).__name__}") from None
        return bits

    def _labels(self, mask: int) -> tuple[str, ...]:
        """The elements of `mask` in universe order; the inverse of `_mask`."""
        return tuple(compress(self.labels, _digits(mask)))

    def subset(self, labels: Iterable[str] = ()) -> SubsetKet:
        """The ket of the named elements; a label named twice is still one element."""
        return SubsetKet(self, BitVec(self.size, self._mask(labels)))

    def singleton(self, label: str) -> SubsetKet:
        return self.subset([label])

    def empty(self) -> SubsetKet:
        return SubsetKet(self, BitVec.zero(self.size))

    def full(self) -> SubsetKet:
        return SubsetKet(self, BitVec(self.size, (1 << self.size) - 1))

    def all_subsets(self) -> Iterator[SubsetKet]:
        for bits in range(1 << self.size):
            yield SubsetKet(self, BitVec(self.size, bits))

    def canonical_frame(self) -> BasisFrame:
        return BasisFrame("U", self.labels, GF2Matrix.identity(self.size))


@dataclass(frozen=True)
class SubsetKet:
    """A subset of a universe, i.e. a vector in Z2^|U| in that universe's coordinates."""

    universe: Universe
    bits: BitVec

    def __post_init__(self):
        _expect(Universe, self.universe)
        _expect(BitVec, self.bits)
        if self.bits.length != self.universe.size:
            raise DimMismatch("bit vector length does not match universe size")

    @classmethod
    def _derived(cls, universe: Universe, mask: int) -> SubsetKet:
        """The ket of `mask`, built without the checks: only for a nonnegative int below
        bit `universe.size` derived from checked values, such as the AND of checked masks."""
        ket = object.__new__(cls)
        fields = ket.__dict__
        fields["universe"], fields["bits"] = universe, BitVec._derived(universe.size, mask)
        return ket

    @property
    def labels(self) -> tuple[str, ...]:
        return self.universe._labels(self.bits.bits)

    @property
    def cardinality(self) -> int:
        return self.bits.weight()

    @property
    def is_zero(self) -> bool:
        return self.bits.is_zero

    def __contains__(self, label: str) -> bool:
        return bool((self.bits.bits >> self.universe.index(label)) & 1)

    def __add__(self, other: SubsetKet) -> SubsetKet:
        _operands(self, other, SubsetKet, SubsetKet)
        return SubsetKet._derived(self.universe, self.bits.bits ^ other.bits.bits)

    def intersect(self, other: SubsetKet) -> SubsetKet:
        _operands(self, other, SubsetKet, SubsetKet)
        return SubsetKet._derived(self.universe, self.bits.bits & other.bits.bits)

    def __str__(self) -> str:
        return _fmt_labels(self.labels)


def _operands(a, b, a_type: type, b_type: type) -> None:
    """InvalidArgument unless `a` is an `a_type` and `b` a `b_type`, then UniverseMismatch
    unless both live on one universe; a shared universe object skips the label comparison.

    The message names the operands' types, not their labels, which can
    run to thousands.
    """
    if not (isinstance(a, a_type) and isinstance(b, b_type)
            and (a.universe is b.universe or a.universe == b.universe)):
        _expect(a_type, a)
        _expect(b_type, b)
        raise UniverseMismatch(
            f"{type(a).__name__} and {type(b).__name__} live on different universes"
        )


def _preimages(matrix: GF2Matrix, what: str) -> GF2Matrix:
    """The transpose of the inverse of `matrix`: row j is the vector it maps to {u_j}.

    A `what` matrix that is not a GF2Matrix, not square or not invertible
    raises InvalidArgument, DimMismatch or Singular.
    """
    _expect(GF2Matrix, matrix)
    if not matrix.is_square:
        raise DimMismatch(f"{what} matrix must be square")
    try:
        return transpose(invert(matrix))
    except Singular:
        raise Singular(f"{what} must be nonsingular") from None


@dataclass(frozen=True)
class BasisFrame:
    """A nonsingular change of basis: column j is basis ket j in canonical coordinates.

    `_expansions` is the transpose of the inverse, kept from construction:
    its row j is the singleton {u_j} in this frame's coordinates. A ket is
    a sum of singletons, so its coordinates are the XOR of the rows it names.
    """

    name: str
    labels: tuple[str, ...]
    matrix: GF2Matrix
    universe: Universe = field(init=False, repr=False, compare=False)
    _expansions: GF2Matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the frame's own labels viewed as a universe, whose tuple the frame keeps;
        # raises InvalidArgument on repeats or labels that are not an iterable
        universe = Universe(self.labels)
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "labels", universe.labels)
        if isinstance(self.matrix, GF2Matrix) and len(self.labels) != self.matrix.cols:
            raise DimMismatch("frame needs one label per basis ket")
        object.__setattr__(self, "_expansions", _preimages(self.matrix, "frame"))

    @classmethod
    def _derived(cls, name: str, labels: tuple[str, ...], matrix: GF2Matrix,
                 expansions: GF2Matrix) -> BasisFrame:
        """The frame of `matrix`, given its singleton expansions, built without elimination.

        Only for distinct `labels`, one per column of a square `matrix`,
        and `expansions` the transpose of its inverse over GF(2), all
        derived from checked frames.
        """
        f = object.__new__(cls)
        fields = f.__dict__
        fields["name"], fields["labels"], fields["matrix"] = name, labels, matrix
        fields["universe"], fields["_expansions"] = Universe(labels), expansions
        return f

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def basis_ket(self, label: str, canonical: Universe) -> SubsetKet:
        """Basis ket named `label`, expressed in canonical coordinates."""
        return SubsetKet(canonical, self.matrix.column(self.universe.index(label)))


def rat_json(v: Fraction) -> str:
    """A probability or eigenvalue as JSON output writes it: "p/q", even for whole numbers."""
    return f"{v.numerator}/{v.denominator}"


def bracket(t: SubsetKet, s: SubsetKet) -> int:
    """Overlap |T ∩ S| of two subsets of the same universe."""
    _operands(t, s, SubsetKet, SubsetKet)
    return (t.bits.bits & s.bits.bits).bit_count()


def norm_sq(s: SubsetKet) -> int:
    """Squared norm, i.e. the cardinality |S|."""
    _expect(SubsetKet, s)
    return s.cardinality


def to_basis(s: SubsetKet, frame: BasisFrame) -> SubsetKet:
    """Coordinates of the same abstract ket in `frame`: the XOR of its singletons' expansions."""
    _expect(SubsetKet, s)
    _expect(BasisFrame, frame)
    if frame.dim != s.universe.size:
        raise DimMismatch("frame dimension does not match the ket")
    return SubsetKet._derived(frame.universe, _row_sum(frame._expansions.row_bits, s.bits.bits))


def from_basis(s: SubsetKet, frame: BasisFrame, canonical: Universe) -> SubsetKet:
    """Inverse of `to_basis`: frame coordinates back to canonical coordinates."""
    _expect(SubsetKet, s)
    _expect(BasisFrame, frame)
    _expect(Universe, canonical)
    if frame.dim != canonical.size:
        raise DimMismatch("frame dimension does not match the universe")
    return SubsetKet(canonical, mat_apply(frame.matrix, s.bits))


def born(s: SubsetKet, frame: BasisFrame) -> dict[str, Fraction]:
    """Outcome probabilities Pr(u|S) = <{u}|S>^2 / |S| in the frame's coordinates."""
    bits = to_basis(s, frame).bits
    n = bits.weight()
    if n == 0:
        raise ZeroState("Born rule is undefined on the zero ket")
    p, zero = Fraction(1, n), Fraction(0)
    return {label: p if c else zero for label, c in zip(frame.labels, bits.coords())}


def resolve(s: SubsetKet) -> list[SubsetKet]:
    """Singleton kets whose sum reconstructs S (ket-bra resolution)."""
    _expect(SubsetKet, s)
    return [SubsetKet(s.universe, BitVec(s.universe.size, 1 << j)) for j in s.bits.indices()]


@dataclass(frozen=True)
class KetTable:
    """Every ket of the space, one row per ket: its coordinate mask in each of `frames`."""

    frames: tuple[BasisFrame, ...]
    rows: tuple[tuple[int, ...], ...]

    def _labelled(self, row: tuple[int, ...]) -> dict[str, tuple[str, ...]]:
        return {f.name: f.universe._labels(m) for f, m in zip(self.frames, row)}

    def row_for(self, frame_name: str, labels: Sequence[str]) -> dict[str, tuple[str, ...]]:
        """The row whose `frame_name` entry is `labels`, listed in universe order."""
        _expect(Iterable, labels)
        key = tuple(labels)
        for k, f in enumerate(self.frames):
            if f.name == frame_name and f.universe._labels(mask := f.universe._mask(key)) == key:
                return self._labelled(next(row for row in self.rows if row[k] == mask))
        raise UnknownLabel(f"no row with {frame_name} entry {key}")

    def to_json(self) -> list[dict[str, list[str]]]:
        return [{n: list(ls) for n, ls in row.items()} for row in map(self._labelled, self.rows)]

    def to_text(self) -> str:
        names = [f.name for f in self.frames]
        cells = [[_fmt_labels(row[n]) for n in names] for row in map(self._labelled, self.rows)]
        return "\n".join(_fmt_columns(names, cells, rule=True))

    def __str__(self) -> str:
        return self.to_text()


def _fmt_labels(labels: Iterable[str]) -> str:
    return "{" + ",".join(labels) + "}"


def _fmt_columns(header: list[str], rows: list[list[str]], rule: bool) -> list[str]:
    """The header and rows as lines, each column left-aligned to its widest cell and
    two spaces from the next; `rule` puts a line of dashes under the header."""
    rows = [header, *rows]
    widths = [max(map(len, column)) for column in zip(*rows)]
    if rule:
        rows.insert(1, ["-" * w for w in widths])
    return ["  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in rows]


MAX_KET_TABLE_DIM = 16  # 2^16 rows of one mask per frame each


def ket_table(dim: int, frames: Sequence[BasisFrame]) -> KetTable:
    """All 2^dim kets, each expressed in every frame.

    Rows are keyed by the first frame's expression and ordered by
    descending cardinality, then lexicographically by coordinates.
    Raises DimMismatch without frames and TooLarge for dim above
    MAX_KET_TABLE_DIM, before any row is built.
    """
    _expect(int, dim)
    _expect(Sequence, frames)
    frames = tuple(frames)
    _expect(BasisFrame, *frames)
    if not frames:
        raise DimMismatch("need at least one frame")
    if dim > MAX_KET_TABLE_DIM:
        raise TooLarge(f"a ket table of dimension {dim} exceeds the limit of {MAX_KET_TABLE_DIM}")
    for f in frames:
        if f.dim != dim:
            raise DimMismatch(f"frame {f.name} has dimension {f.dim}, expected {dim}")

    def sort_key(bits: int) -> tuple[int, int]:
        # coordinates compared lowest index first: the bits read in reverse
        return (-bits.bit_count(), -int(f"{bits:0{dim}b}"[::-1], 2))

    # each frame's table of every ket's coordinates, looked up by the ket's mask
    tables = [_xor_table(f._expansions.row_bits) for f in frames]
    rows = tuple(tuple(t[bits] for t in tables) for bits in sorted(range(1 << dim), key=sort_key))
    return KetTable(frames, rows)
