"""Numerical attributes as set observables: level sets, projections, measurement.

An attribute maps universe elements to exact rational eigenvalues. Its
level sets are the eigenspaces, measurement projects onto one of them,
and a complete compatible family names every element by its eigenvalue
tuple.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cached_property

from ._record import record
from .errors import (
    ImpossibleOutcome,
    IncompatibleAttributes,
    NotComplete,
    NotTotal,
    ZeroState,
)
from .gf2 import _expect, _random_set_bit
from .partitions import Partition, _least_bit, _rational
from .space import SubsetKet, Universe, _ket, _operands, rat_json

Rational = Fraction | int | str


@record
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
        _expect(Universe, universe)
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
        return _ket(self.universe, self.levels.get(_rational(r, "eigenvalue"), 0))

    def to_json(self) -> dict[str, str]:
        return {x: rat_json(v) for x, v in zip(self.universe.labels, self.values)}


@record
class MeasurementOutcome:
    """One measurement of an attribute: the eigenvalue found, its probability, the collapsed ket."""

    eigenvalue: Fraction
    probability: Fraction
    post_state: SubsetKet


def inverse_image_partition(f: Attribute) -> Partition:
    """Partition of the universe into the nonempty level sets of f.

    A total attribute's level masks are nonempty, disjoint and cover the
    universe, so they are only put in order.
    """
    if not isinstance(f, Attribute):
        _expect(Attribute, f)
    return Partition._derived(f.universe, tuple(sorted(f.levels.values(), key=_least_bit)))


def _check(f: Attribute, s: SubsetKet) -> None:
    """The operands of a measurement: InvalidArgument, then ZeroState, then UniverseMismatch."""
    if isinstance(s, SubsetKet) and not s.bits.bits:
        _expect(Attribute, f)
        raise ZeroState("cannot measure the zero ket")
    _operands(f, s, Attribute, SubsetKet)


def project(f: Attribute, r: Rational, s: SubsetKet) -> SubsetKet:
    """Projection f^-1(r) ∩ S; may be the zero ket."""
    _operands(f, s, Attribute, SubsetKet)
    return _ket(s.universe, f.levels.get(_rational(r, "eigenvalue"), 0) & s.bits.bits)


def _split(f: Attribute, s: SubsetKet) -> list[tuple[Fraction, int]]:
    """(r, mask of f^-1(r) ∩ S) for each eigenvalue whose part of S is nonempty."""
    return [(r, part) for r, level in f.levels.items() if (part := level & s.bits.bits)]


def measure_probs(f: Attribute, s: SubsetKet) -> dict[Fraction, Fraction]:
    """Probability of each eigenvalue with nonzero projection; sums to 1."""
    _check(f, s)
    n = s.cardinality
    return {r: Fraction(part.bit_count(), n) for r, part in _split(f, s)}


def _collapse(f: Attribute, s: SubsetKet, r: Fraction) -> MeasurementOutcome:
    """The outcome r of measuring f on operands already checked: f^-1(r) ∩ S kept."""
    kept = f.levels.get(r, 0) & s.bits.bits
    if not kept:
        raise ImpossibleOutcome(f"eigenvalue {r} has probability 0 in this state")
    post = _ket(s.universe, kept)
    return MeasurementOutcome(r, Fraction(kept.bit_count(), s.cardinality), post)


def measure(f: Attribute, s: SubsetKet, rng: random.Random) -> MeasurementOutcome:
    """Sample an eigenvalue by a uniform draw over S and collapse onto its level set."""
    _check(f, s)
    return _collapse(f, s, f.values[_random_set_bit(s.bits.bits, rng)])


def measure_given(f: Attribute, s: SubsetKet, r: Rational) -> MeasurementOutcome:
    """Deterministic variant: the outcome for a chosen eigenvalue of nonzero probability."""
    _check(f, s)
    return _collapse(f, s, _rational(r, "eigenvalue"))


def is_compatible(f: Attribute, g: Attribute) -> bool:
    """Attributes are compatible exactly when they share a universe."""
    if not (isinstance(f, Attribute) and isinstance(g, Attribute)):
        _expect(Attribute, f, g)
    return f.universe == g.universe


def is_complete(fs: Sequence[Attribute]) -> bool:
    """True when the join of the level masks, most levels first, reaches |U| blocks: eigenvalue
    tuples all differ."""
    if not isinstance(fs, Sequence):
        _expect(Sequence, fs)
    if not fs:
        raise IncompatibleAttributes("need at least one attribute")
    # a list, not a generator: every member's type is checked before the universes' verdict
    if not all([is_compatible(fs[0], g) for g in fs]):
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
    if not is_complete(fs):
        raise NotComplete("attribute family does not separate all elements")
    return dict(zip(fs[0].universe.labels, zip(*(f.values for f in fs))))


def spectral_apply(f: Attribute, s: SubsetKet) -> list[tuple[Fraction, SubsetKet]]:
    """Formal spectral decomposition: (r, f^-1(r) ∩ S) with nonzero components."""
    _operands(f, s, Attribute, SubsetKet)
    return [(r, _ket(s.universe, part)) for r, part in _split(f, s)]
