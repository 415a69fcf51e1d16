"""Numerical attributes as set observables: level sets, projections, measurement.

An attribute maps universe elements to exact rational eigenvalues. Its
level sets are the eigenspaces, measurement projects onto one of them,
and a complete compatible family names every element by its eigenvalue
tuple.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (
    ImpossibleOutcome,
    IncompatibleAttributes,
    InvalidArgument,
    NotComplete,
    NotTotal,
    ZeroState,
)
from .gf2 import BitVec, _expect, _random_set_bit
from .partitions import Partition, _least_bit, _rational
from .space import SubsetKet, Universe, _same_universe, rat_json

Rational = Fraction | int | str


@dataclass(frozen=True)
class Attribute:
    """A total map from universe elements to exact rational eigenvalues."""

    universe: Universe
    values: tuple[Fraction, ...]

    def __post_init__(self):
        _expect(Universe, self.universe)
        _expect(Sequence, self.values)
        if len(self.values) != self.universe.size:
            raise NotTotal("attribute must assign a value to every element")
        values = tuple(_rational(v, "attribute value") for v in self.values)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_values(cls, universe: Universe, values: Mapping[str, Rational]) -> Attribute:
        _expect(Universe, universe)
        _expect(Mapping, values)
        if set(values) != set(universe.labels):
            raise NotTotal("attribute must be total on the universe")
        return cls(universe, tuple(values[x] for x in universe.labels))

    @classmethod
    def indicator(cls, universe: Universe, labels: Sequence[str]) -> Attribute:
        """Characteristic function of a subset; raises UnknownLabel outside the universe."""
        return cls(universe, universe.subset(labels).bits.coords())

    def value(self, label: str) -> Fraction:
        return self.values[self.universe.index(label)]

    @cached_property
    def levels(self) -> dict[Fraction, int]:
        """Each eigenvalue, ascending, mapped to the bitmask of its level set."""
        masks = {}
        for j, v in enumerate(self.values):
            masks[v] = masks.get(v, 0) | 1 << j
        return dict(sorted(masks.items()))

    def spectrum(self) -> tuple[Fraction, ...]:
        return tuple(self.levels)

    def level_set(self, r: Rational) -> SubsetKet:
        mask = self.levels.get(_rational(r, "eigenvalue"), 0)
        return SubsetKet(self.universe, BitVec(self.universe.size, mask))

    def to_json(self) -> dict[str, str]:
        return {x: rat_json(v) for x, v in zip(self.universe.labels, self.values)}


@dataclass(frozen=True)
class MeasurementOutcome:
    eigenvalue: Fraction
    probability: Fraction
    post_state: SubsetKet


def inverse_image_partition(f: Attribute) -> Partition:
    """Partition of the universe into the nonempty level sets of f.

    A total attribute's level masks are nonempty, disjoint and cover the
    universe, so they are only put in order.
    """
    return Partition._derived(f.universe, tuple(sorted(f.levels.values(), key=_least_bit)))


def _expect_operands(f: Attribute, s: SubsetKet) -> None:
    """InvalidArgument unless `f` is an Attribute and `s` a SubsetKet; inline for the valid case."""
    if not (isinstance(f, Attribute) and isinstance(s, SubsetKet)):
        _expect(Attribute, f)
        _expect(SubsetKet, s)


def project(f: Attribute, r: Rational, s: SubsetKet) -> SubsetKet:
    """Projection f^-1(r) ∩ S; may be the zero ket."""
    _expect_operands(f, s)
    _same_universe(f, s)
    return f.level_set(r).intersect(s)


def _split(f: Attribute, s: SubsetKet) -> list[tuple[Fraction, int]]:
    """(r, mask of f^-1(r) ∩ S) for each eigenvalue whose part of S is nonempty."""
    _same_universe(f, s)
    return [(r, part) for r, level in f.levels.items() if (part := level & s.bits.bits)]


def measure_probs(f: Attribute, s: SubsetKet) -> dict[Fraction, Fraction]:
    """Probability of each eigenvalue with nonzero projection; sums to 1."""
    _expect_operands(f, s)
    if s.is_zero:
        raise ZeroState("cannot measure the zero ket")
    n = s.cardinality
    return {r: Fraction(part.bit_count(), n) for r, part in _split(f, s)}


def measure(f: Attribute, s: SubsetKet, rng: random.Random) -> MeasurementOutcome:
    """Sample an eigenvalue by a uniform draw over S and collapse onto its level set."""
    _expect_operands(f, s)
    if s.is_zero:
        raise ZeroState("cannot measure the zero ket")
    _same_universe(f, s)
    return measure_given(f, s, f.values[_random_set_bit(s.bits.bits, rng)])


def measure_given(f: Attribute, s: SubsetKet, r: Rational) -> MeasurementOutcome:
    """Deterministic variant: the outcome for a chosen eigenvalue of nonzero probability."""
    if s.is_zero:
        raise ZeroState("cannot measure the zero ket")
    post = project(f, r, s)
    if post.is_zero:
        raise ImpossibleOutcome(f"eigenvalue {r} has probability 0 in this state")
    return MeasurementOutcome(Fraction(r), Fraction(post.cardinality, s.cardinality), post)


def is_compatible(f: Attribute, g: Attribute) -> bool:
    """Attributes are compatible exactly when they share a universe."""
    return f.universe == g.universe


def is_complete(fs: Sequence[Attribute]) -> bool:
    """True when the join of the level masks, most levels first, reaches |U| blocks: eigenvalue
    tuples all differ."""
    if not fs:
        raise IncompatibleAttributes("need at least one attribute")
    if not all(is_compatible(fs[0], g) for g in fs):
        raise IncompatibleAttributes("attributes live on different universes")
    n = fs[0].universe.size
    first, *rest = sorted(fs, key=lambda f: len(f.levels), reverse=True)
    blocks = first.levels.values()
    for f in rest:
        if len(blocks) < n:
            blocks = [b & c for b in blocks for c in f.levels.values() if b & c]
    return len(blocks) == n


def eigenkets(fs: Sequence[Attribute]) -> dict[str, tuple[Fraction, ...]]:
    """Each element named by its tuple of eigenvalues under a complete family."""
    _expect(Sequence, fs)
    _expect(Attribute, *fs)
    if not is_complete(fs):
        raise NotComplete("attribute family does not separate all elements")
    return dict(zip(fs[0].universe.labels, zip(*(f.values for f in fs))))


def spectral_apply(f: Attribute, s: SubsetKet) -> list[tuple[Fraction, SubsetKet]]:
    """Formal spectral decomposition: (r, f^-1(r) ∩ S) with nonzero components."""
    _expect_operands(f, s)
    n = s.universe.size
    return [(r, SubsetKet(s.universe, BitVec(n, part))) for r, part in _split(f, s)]
