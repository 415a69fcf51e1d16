"""Numerical attributes as set observables: level sets, projections, measurement.

An attribute maps universe elements to exact rational eigenvalues. Its
level sets are the eigenspaces, measurement projects onto one of them,
and a complete compatible family names every element by its eigenvalue
tuple.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import (
    ImpossibleOutcome,
    IncompatibleAttributes,
    NotComplete,
    NotTotal,
    UniverseMismatch,
    ZeroState,
)
from .gf2 import BitVec
from .partitions import Partition, join
from .space import SubsetKet, Universe, rat_json

Rational = Fraction | int | str


@dataclass(frozen=True)
class Attribute:
    """A total map from universe elements to exact rational eigenvalues."""

    universe: Universe
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != self.universe.size:
            raise NotTotal("attribute must assign a value to every element")

    @classmethod
    def from_values(cls, universe: Universe, values: Mapping[str, Rational]) -> Attribute:
        if set(values) != set(universe.labels):
            raise NotTotal("attribute must be total on the universe")
        return cls(universe, tuple(Fraction(values[x]) for x in universe.labels))

    @classmethod
    def indicator(cls, universe: Universe, labels: Sequence[str]) -> Attribute:
        """Characteristic function of a subset."""
        chosen = set(labels)
        return cls(universe, tuple(Fraction(1 if x in chosen else 0) for x in universe.labels))

    def value(self, label: str) -> Fraction:
        return self.values[self.universe.index(label)]

    def spectrum(self) -> tuple[Fraction, ...]:
        return tuple(sorted(set(self.values)))

    def level_set(self, r: Rational) -> SubsetKet:
        r = Fraction(r)
        mask = sum(1 << j for j, v in enumerate(self.values) if v == r)
        return SubsetKet(self.universe, BitVec(self.universe.size, mask))

    def to_json(self) -> dict[str, str]:
        return {x: rat_json(v) for x, v in zip(self.universe.labels, self.values)}


@dataclass(frozen=True)
class MeasurementOutcome:
    eigenvalue: Fraction
    probability: Fraction
    post_state: SubsetKet


def inverse_image_partition(f: Attribute) -> Partition:
    """Partition of the universe into the nonempty level sets of f."""
    return Partition(f.universe, tuple(f.level_set(r) for r in f.spectrum()))


def project(f: Attribute, r: Rational, s: SubsetKet) -> SubsetKet:
    """Projection f^-1(r) ∩ S; may be the zero ket."""
    if f.universe != s.universe:
        raise UniverseMismatch("attribute and state live on different universes")
    return f.level_set(r).intersect(s)


def measure_probs(f: Attribute, s: SubsetKet) -> dict[Fraction, Fraction]:
    """Probability of each eigenvalue with nonzero projection; sums to 1."""
    if s.is_zero:
        raise ZeroState("cannot measure the zero ket")
    n = s.cardinality
    out = {}
    for r in f.spectrum():
        k = project(f, r, s).cardinality
        if k:
            out[r] = Fraction(k, n)
    return out


def measure(f: Attribute, s: SubsetKet, rng: random.Random) -> MeasurementOutcome:
    """Sample an eigenvalue by a uniform draw over S and collapse onto its level set."""
    if s.is_zero:
        raise ZeroState("cannot measure the zero ket")
    label = s.labels[rng.randrange(s.cardinality)]
    return measure_given(f, s, f.value(label))


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
    """True when the join of the inverse-image partitions is discrete."""
    joined = _joined_partition(fs)
    return all(b.cardinality == 1 for b in joined.blocks)


def eigenkets(fs: Sequence[Attribute]) -> dict[str, tuple[Fraction, ...]]:
    """Each element named by its tuple of eigenvalues under a complete family."""
    if not is_complete(fs):
        raise NotComplete("attribute family does not separate all elements")
    universe = fs[0].universe
    return {x: tuple(f.value(x) for f in fs) for x in universe.labels}


def spectral_apply(f: Attribute, s: SubsetKet) -> list[tuple[Fraction, SubsetKet]]:
    """Formal spectral decomposition: (r, f^-1(r) ∩ S) with nonzero components."""
    out = []
    for r in f.spectrum():
        part = project(f, r, s)
        if not part.is_zero:
            out.append((r, part))
    return out


def _joined_partition(fs: Sequence[Attribute]) -> Partition:
    if not fs:
        raise IncompatibleAttributes("need at least one attribute")
    for g in fs[1:]:
        if not is_compatible(fs[0], g):
            raise IncompatibleAttributes("attributes live on different universes")
    joined = inverse_image_partition(fs[0])
    for g in fs[1:]:
        joined = join(joined, inverse_image_partition(g))
    return joined
