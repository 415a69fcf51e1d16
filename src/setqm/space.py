"""Universes, subsets-as-kets, alternative bases, brackets, and Born probabilities.

A state is a subset of a finite universe, viewed as a vector in Z2^n.
Brackets count overlaps, so they take integer values outside the base
field, and every probability is an exact `fractions.Fraction`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import (
    DimMismatch,
    InvalidArgument,
    TooLarge,
    UniverseMismatch,
    UnknownLabel,
    ZeroState,
)
from .gf2 import BitVec, GF2Matrix, invert, mat_apply


@dataclass(frozen=True)
class Universe:
    """An ordered tuple of distinct labels; position defines the coordinate."""

    labels: tuple[str, ...]
    _position: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.labels:
            raise InvalidArgument("universe needs at least one element")
        position = {x: j for j, x in enumerate(self.labels)}
        if len(position) != len(self.labels):
            raise InvalidArgument("universe labels must be distinct")
        object.__setattr__(self, "_position", position)

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._position[label]
        except KeyError:
            raise UnknownLabel(f"{label!r} not in universe {self.labels}") from None

    def _mask(self, labels: Iterable[str]) -> int:
        """Bitmask of the named elements; raises UnknownLabel for a label outside."""
        bits = 0
        for x in labels:
            bits |= 1 << self.index(x)
        return bits

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

    def canonical_frame(self, name: str = "U") -> BasisFrame:
        return BasisFrame(name, self.labels, GF2Matrix.identity(self.size))


@dataclass(frozen=True)
class SubsetKet:
    """A subset of a universe, i.e. a vector in Z2^|U| in that universe's coordinates."""

    universe: Universe
    bits: BitVec

    def __post_init__(self):
        if self.bits.length != self.universe.size:
            raise DimMismatch("bit vector length does not match universe size")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.universe.labels[j] for j in self.bits.indices())

    @property
    def cardinality(self) -> int:
        return self.bits.weight()

    @property
    def is_zero(self) -> bool:
        return self.bits.is_zero

    def __contains__(self, label: str) -> bool:
        return bool((self.bits.bits >> self.universe.index(label)) & 1)

    def __add__(self, other: SubsetKet) -> SubsetKet:
        self._check_universe(other)
        return SubsetKet(self.universe, self.bits ^ other.bits)

    def intersect(self, other: SubsetKet) -> SubsetKet:
        self._check_universe(other)
        return SubsetKet(self.universe, BitVec(self.bits.length, self.bits.bits & other.bits.bits))

    def _check_universe(self, other: SubsetKet) -> None:
        if self.universe != other.universe:
            raise UniverseMismatch(
                f"universes {self.universe.labels} and {other.universe.labels} differ"
            )

    def __str__(self) -> str:
        return "{" + ",".join(self.labels) + "}"


@dataclass(frozen=True)
class BasisFrame:
    """A nonsingular change of basis: column j is basis ket j in canonical coordinates."""

    name: str
    labels: tuple[str, ...]
    matrix: GF2Matrix
    universe: Universe = field(init=False, repr=False, compare=False)
    _inverse: GF2Matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.matrix.is_square:
            raise DimMismatch("frame matrix must be square")
        if len(self.labels) != self.matrix.cols:
            raise DimMismatch("frame needs one label per basis ket")
        # the frame's own labels viewed as a universe; raises InvalidArgument on repeats
        object.__setattr__(self, "universe", Universe(self.labels))
        # raises Singular for an invalid frame
        object.__setattr__(self, "_inverse", invert(self.matrix))

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
    if t.universe != s.universe:
        raise UniverseMismatch("bracket of subsets of different universes is undefined")
    return (t.bits.bits & s.bits.bits).bit_count()


def norm_sq(s: SubsetKet) -> int:
    """Squared norm, i.e. the cardinality |S|."""
    return s.cardinality


def to_basis(s: SubsetKet, frame: BasisFrame) -> SubsetKet:
    """Coordinates of the same abstract ket in `frame` (solved against its columns)."""
    if frame.dim != s.universe.size:
        raise DimMismatch("frame dimension does not match the ket")
    return SubsetKet(frame.universe, mat_apply(frame._inverse, s.bits))


def from_basis(s: SubsetKet, frame: BasisFrame, canonical: Universe) -> SubsetKet:
    """Inverse of `to_basis`: frame coordinates back to canonical coordinates."""
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
    return [SubsetKet(s.universe, BitVec(s.universe.size, 1 << j)) for j in s.bits.indices()]


@dataclass(frozen=True)
class KetTable:
    """Every ket of the space, one row per ket, expressed in each frame."""

    frames: tuple[BasisFrame, ...]
    rows: tuple[dict[str, tuple[str, ...]], ...]

    def row_for(self, frame_name: str, labels: Sequence[str]) -> dict[str, tuple[str, ...]]:
        key = tuple(labels)
        for row in self.rows:
            if row.get(frame_name) == key:
                return row
        raise UnknownLabel(f"no row with {frame_name} entry {key}")

    def to_json(self) -> list[dict[str, list[str]]]:
        return [{name: list(labels) for name, labels in row.items()} for row in self.rows]

    def to_text(self) -> str:
        names = [f.name for f in self.frames]
        cells = [[_fmt_labels(row[n]) for n in names] for row in self.rows]
        widths = [max(len(n), *(len(c[i]) for c in cells)) for i, n in enumerate(names)]
        lines = ["  ".join(n.ljust(w) for n, w in zip(names, widths))]
        lines.append("  ".join("-" * w for w in widths))
        for c in cells:
            lines.append("  ".join(x.ljust(w) for x, w in zip(c, widths)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.to_text()


def _fmt_labels(labels: tuple[str, ...]) -> str:
    return "{" + ",".join(labels) + "}"


MAX_KET_TABLE_DIM = 16  # 2^16 rows of one dict each


def ket_table(dim: int, frames: Sequence[BasisFrame]) -> KetTable:
    """All 2^dim kets, each expressed in every frame.

    Rows are keyed by the first frame's expression and ordered by
    descending cardinality, then lexicographically by coordinates.
    Raises DimMismatch without frames and TooLarge for dim above
    MAX_KET_TABLE_DIM, before any row is built.
    """
    frames = tuple(frames)
    if not frames:
        raise DimMismatch("need at least one frame")
    if dim > MAX_KET_TABLE_DIM:
        raise TooLarge(f"a ket table of dimension {dim} exceeds the limit of {MAX_KET_TABLE_DIM}")
    for f in frames:
        if f.dim != dim:
            raise DimMismatch(f"frame {f.name} has dimension {f.dim}, expected {dim}")

    def sort_key(bits: int) -> tuple:
        coords = tuple((bits >> j) & 1 for j in range(dim))
        return (-bits.bit_count(), tuple(-c for c in coords))

    rows = []
    for bits in sorted(range(1 << dim), key=sort_key):
        vec = BitVec(dim, bits)
        row = {}
        for f in frames:
            coords = mat_apply(f._inverse, vec)
            row[f.name] = tuple(f.labels[j] for j in coords.indices())
        rows.append(row)
    return KetTable(frames, tuple(rows))
