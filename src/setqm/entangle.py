"""Product universes, entangled subsets, and the Bell-style inequality violation.

A subset of X x Y is separated when it equals the product of its factor
supports, and separation is exactly independence of the uniform joint
distribution it carries. Sequentially measuring the two factors of an
entangled state in incompatible bases produces probabilities no single
joint distribution over all three bases can reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Iterable, Sequence

from .errors import DimMismatch, DuplicateTerms, ImpossibleOutcome, UnknownLabel, ZeroState
from .gf2 import BitVec, GF2Matrix, _expect, _spread, mat_apply
from .space import BasisFrame, SubsetKet, Universe, _fmt_labels, born, rat_json


@dataclass(frozen=True)
class ProductUniverse:
    """The Cartesian product of two universes, pairs ordered row-major (left outer)."""

    left: Universe
    right: Universe

    @property
    def pair_labels(self) -> tuple[tuple[str, str], ...]:
        return tuple((x, y) for x in self.left.labels for y in self.right.labels)

    @property
    def size(self) -> int:
        return self.left.size * self.right.size

    def index(self, pair: tuple[str, str]) -> int:
        return self.left.index(pair[0]) * self.right.size + self.right.index(pair[1])

    def state(self, pairs: Iterable[tuple[str, str]]) -> ProductState:
        bits = 0
        for pair in pairs:
            bits |= 1 << self.index(pair)
        return ProductState(self, BitVec(self.size, bits))

    def all_states(self):
        """All nonempty subsets of the pair set."""
        for bits in range(1, 1 << self.size):
            yield ProductState(self, BitVec(self.size, bits))


@dataclass(frozen=True)
class ProductState:
    """A nonempty subset of a product universe: bit index(x, y) marks the pair (x, y)."""

    space: ProductUniverse
    bits: BitVec

    def __post_init__(self):
        _expect(BitVec, self.bits)
        if self.bits.length != self.space.size:
            raise DimMismatch("bit vector length does not match the product size")
        if self.bits.is_zero:
            raise ZeroState("product state must be nonempty")

    @property
    def cardinality(self) -> int:
        return self.bits.weight()

    @property
    def pairs(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.sorted_pairs())

    def sorted_pairs(self) -> tuple[tuple[str, str], ...]:
        k = self.space.right.size
        left, right = self.space.left.labels, self.space.right.labels
        return tuple((left[j // k], right[j % k]) for j in self.bits.indices())

    def __str__(self) -> str:
        return _fmt_labels(f"({x},{y})" for x, y in self.sorted_pairs())


def _rows(s: ProductState) -> dict[str, int]:
    """Each left label -> the mask of the right labels paired with it."""
    k = s.space.right.size
    return {x: s.bits.bits >> (i * k) & ((1 << k) - 1) for i, x in enumerate(s.space.left.labels)}


def _left_probs(s: ProductState) -> dict[str, Fraction]:
    """Each left label -> the share of the state's pairs that have it."""
    n = s.cardinality
    return {x: Fraction(row.bit_count(), n) for x, row in _rows(s).items()}


def _column_counts(s: ProductState) -> dict[str, int]:
    """Each right label -> how many of the state's pairs have it."""
    column = _spread((1 << s.space.left.size) - 1, s.space.right.size)
    return {y: (s.bits.bits & column << j).bit_count() for j, y in enumerate(s.space.right.labels)}


@dataclass(frozen=True)
class JointDistribution:
    """The uniform distribution carried by a product state."""

    support: ProductState

    def prob(self, pair: tuple[str, str]) -> Fraction:
        s = self.support
        try:
            inside = (s.bits.bits >> s.space.index(pair)) & 1
        except UnknownLabel:  # a pair outside the product
            inside = 0
        return Fraction(inside, s.cardinality)


def joint(s: ProductState) -> JointDistribution:
    _expect(ProductState, s)
    return JointDistribution(s)


def supports(s: ProductState) -> tuple[SubsetKet, SubsetKet]:
    """Projections of the state onto each factor."""
    _expect(ProductState, s)
    left, right = s.space.left, s.space.right
    rows = _rows(s).values()
    return (SubsetKet(left, BitVec(left.size, sum(1 << i for i, row in enumerate(rows) if row))),
            SubsetKet(right, BitVec(right.size, reduce(or_, rows))))


def is_separated(s: ProductState) -> bool:
    """True iff the state equals the product of its supports."""
    sx, sy = supports(s)
    return s.cardinality == sx.cardinality * sy.cardinality


def marginals(d: JointDistribution) -> tuple[dict[str, Fraction], dict[str, Fraction]]:
    """Exact marginal distributions of the two factors."""
    _expect(JointDistribution, d)
    s = d.support
    right = {y: Fraction(c, s.cardinality) for y, c in _column_counts(s).items()}
    return _left_probs(s), right


def is_independent(d: JointDistribution) -> bool:
    """Exact product test Pr(x,y) = Pr(x)Pr(y) at every pair of the product."""
    left, right = marginals(d)
    return all(
        d.prob((x, y)) == left[x] * right[y]
        for x in d.support.space.left.labels
        for y in d.support.space.right.labels
    )


def product_to_frame(
    s: ProductState, left_frame: BasisFrame, right_frame: BasisFrame
) -> ProductState:
    """The same tensor ket in new factor bases, without a Kronecker matrix.

    (A (x) B)^-1 vec(S) = vec(A^-1 S B^-T), built from the singleton
    expansions both frames keep. The pair (x_i, y) carries the right
    expansion of {y} into row i, and then row j of S B^-T carries into every
    row that the left expansion of {x_j} names. Both moves are products of
    ints whose set bits are k apart, with k = |Y|, so no two terms overlap.
    """
    _expect(ProductState, s)
    _expect(BasisFrame, left_frame, right_frame)
    space = s.space
    if left_frame.dim != space.left.size or right_frame.dim != space.right.size:
        raise DimMismatch("frame dimensions do not match the factors")
    k, state = space.right.size, s.bits.bits
    column = _spread((1 << space.left.size) - 1, k)  # bit i*k: the first pair of every row
    right = 0  # S B^-T
    for y, expansion in enumerate(right_frame._expansions.row_bits):
        right ^= (state >> y & column) * expansion
    bits, row_mask = 0, (1 << k) - 1
    for j, expansion in enumerate(left_frame._expansions.row_bits):
        row = right >> (j * k) & row_mask
        if row:
            bits ^= row * _spread(expansion, k)
    new_space = ProductUniverse(left_frame.universe, right_frame.universe)
    return ProductState(new_space, BitVec(space.size, bits))


def left_measure_prob(s: ProductState, frame: BasisFrame, outcome: str) -> Fraction:
    """Fraction of the state's pairs, expressed in the frame, with the given left label."""
    return _left_probs(product_to_frame(s, frame, frame)).get(outcome, Fraction(0))


def right_measure_prob(s: ProductState, frame: BasisFrame, outcome: str) -> Fraction:
    """Mirror of left_measure_prob for the right factor."""
    expressed = product_to_frame(s, frame, frame)
    hits = _column_counts(expressed).get(outcome, 0)
    return Fraction(hits, expressed.cardinality)


@dataclass(frozen=True)
class CounterfactualReport:
    """Joint distribution over one outcome per frame, built from the three left-measurement probabilities."""

    probs: dict[tuple[str, str, str], Fraction]
    marginal_xy: dict[tuple[str, str], Fraction]
    marginal_yz: dict[tuple[str, str], Fraction]
    marginal_xz: dict[tuple[str, str], Fraction]
    lhs: Fraction
    rhs: Fraction
    satisfied: bool

    def to_json(self) -> dict:
        def fmt(d):
            return {",".join(k): rat_json(v) for k, v in d.items()}

        return {
            "probabilities": fmt(self.probs),
            "marginal_xy": fmt(self.marginal_xy),
            "marginal_yz": fmt(self.marginal_yz),
            "marginal_xz": fmt(self.marginal_xz),
            "lhs": rat_json(self.lhs),
            "rhs": rat_json(self.rhs),
            "satisfied": self.satisfied,
        }


def counterfactual_joint(
    s: ProductState, frames: Sequence[BasisFrame]
) -> CounterfactualReport:
    """Product distribution of the three single-choice measurement probabilities.

    Because it is a genuine joint distribution, its pairwise marginals always
    satisfy lhs = Pr(x1,y1) + Pr(y2,z2) >= Pr(x1,z2) = rhs.
    """
    f1, f2, f3 = _three_frames(frames)
    # one change of basis per frame; every outcome's probability is read from it
    p1, p2, p3 = (_left_probs(product_to_frame(s, f, f)) for f in (f1, f2, f3))
    probs = {
        (x, y, z): p1[x] * p2[y] * p3[z]
        for x in f1.labels
        for y in f2.labels
        for z in f3.labels
    }
    # each single-frame distribution sums to 1, so every pairwise marginal is a product
    marginal_xy = {(x, y): p1[x] * p2[y] for x in f1.labels for y in f2.labels}
    marginal_yz = {(y, z): p2[y] * p3[z] for y in f2.labels for z in f3.labels}
    marginal_xz = {(x, z): p1[x] * p3[z] for x in f1.labels for z in f3.labels}
    lhs = marginal_xy[(f1.labels[0], f2.labels[0])] + marginal_yz[(f2.labels[1], f3.labels[1])]
    rhs = marginal_xz[(f1.labels[0], f3.labels[1])]
    return CounterfactualReport(
        probs, marginal_xy, marginal_yz, marginal_xz, lhs, rhs, lhs >= rhs
    )


def sequential_pair_prob(
    s: ProductState,
    left_frame: BasisFrame,
    left_outcome: str,
    right_frame: BasisFrame,
    right_outcome: str,
) -> Fraction:
    """Probability of a left outcome, then a right outcome on the collapsed partner.

    The left measurement keeps only the pairs with the observed left
    component; the right-hand system is then in the state given by their
    right support, which is Born-measured in the right frame.
    """
    expressed = product_to_frame(s, left_frame, left_frame)
    kept = _rows(expressed).get(left_outcome, 0)
    if not kept:
        raise ImpossibleOutcome(
            f"left outcome {left_outcome!r} has probability 0; no state to collapse to"
        )
    p_left = Fraction(kept.bit_count(), expressed.cardinality)
    # the kept right support is in left_frame coordinates; move it back to canonical
    back = mat_apply(left_frame.matrix, BitVec(left_frame.dim, kept))
    canonical = SubsetKet(s.space.right, back)
    p_right = born(canonical, right_frame)[right_outcome]
    return p_left * p_right


@dataclass(frozen=True)
class BellReport:
    """The three sequential probabilities and the inequality they violate."""

    terms: dict[str, Fraction]
    lhs: Fraction
    rhs: Fraction
    violated: bool

    def to_json(self) -> dict:
        return {
            "terms": {k: rat_json(v) for k, v in self.terms.items()},
            "lhs": rat_json(self.lhs),
            "rhs": rat_json(self.rhs),
            "violated": self.violated,
        }


def bell_basis_frames(universe: Universe) -> tuple[BasisFrame, BasisFrame, BasisFrame]:
    """The three bases of a two-element universe (each pair of nonzero kets is one)."""
    if universe.size != 2:
        raise DimMismatch("only a two-element universe has exactly three bases")
    x, y = universe.labels
    u = universe.canonical_frame("U")
    u1 = BasisFrame("U'", (x + "'", y + "'"), GF2Matrix.from_rows([[1, 0], [1, 1]]))
    u2 = BasisFrame("U''", (x + "''", y + "''"), GF2Matrix.from_rows([[1, 1], [1, 0]]))
    return u, u1, u2


def bell_violation(
    s: ProductState, frames: Sequence[BasisFrame] | None = None
) -> BellReport:
    """Evaluate lhs = Pr(x1,y1) + Pr(y2,z2) >= Pr(x1,z2) = rhs with sequential probabilities."""
    if frames is None:
        frames = bell_basis_frames(s.space.left)
    f1, f2, f3 = _three_frames(frames)
    x1, y1 = f1.labels[0], f2.labels[0]
    y2, z2 = f2.labels[1], f3.labels[1]
    keys = (f"({x1},{y1})", f"({y2},{z2})", f"({x1},{z2})")
    if len(set(keys)) != 3:
        raise DuplicateTerms(f"the frames' labels name two terms alike: {', '.join(keys)}")
    xy = _sequential_or_zero(s, f1, x1, f2, y1)
    yz = _sequential_or_zero(s, f2, y2, f3, z2)
    xz = _sequential_or_zero(s, f1, x1, f3, z2)
    return BellReport(dict(zip(keys, (xy, yz, xz))), xy + yz, xz, xy + yz < xz)


def _three_frames(frames: Sequence[BasisFrame]) -> Sequence[BasisFrame]:
    if len(frames) != 3 or any(f.dim < 2 for f in frames):
        raise DimMismatch("need exactly three frames, each with at least two labels")
    return frames


def _sequential_or_zero(s, left_frame, left_outcome, right_frame, right_outcome) -> Fraction:
    # a left outcome that never occurs contributes probability 0 to the pair
    try:
        return sequential_pair_prob(s, left_frame, left_outcome, right_frame, right_outcome)
    except ImpossibleOutcome:
        return Fraction(0)
