"""Set partitions: refinement, join, dit sets, logical and Shannon entropy."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from typing import Iterable, Iterator

from .errors import InvalidBlocks, OutOfRange, UniverseMismatch
from .gf2 import BitVec
from .space import SubsetKet, Universe


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty blocks covering a universe, ordered by least element index."""

    universe: Universe
    blocks: tuple[SubsetKet, ...]

    def __post_init__(self):
        union = 0
        for b in self.blocks:
            if b.universe != self.universe:
                raise UniverseMismatch("block universe differs from partition universe")
            if b.is_zero:
                raise InvalidBlocks("blocks must be nonempty")
            if union & b.bits.bits:
                raise InvalidBlocks("blocks must be pairwise disjoint")
            union |= b.bits.bits
        if union != (1 << self.universe.size) - 1:
            raise InvalidBlocks("blocks must cover the universe")
        ordered = tuple(sorted(self.blocks, key=lambda b: b.bits.bits & -b.bits.bits))
        object.__setattr__(self, "blocks", ordered)

    @classmethod
    def from_blocks(cls, universe: Universe, blocks: Iterable[Iterable[str]]) -> Partition:
        return cls(universe, tuple(universe.subset(b) for b in blocks))

    @classmethod
    def discrete(cls, universe: Universe) -> Partition:
        return cls(universe, tuple(map(universe.singleton, universe.labels)))

    @classmethod
    def indiscrete(cls, universe: Universe) -> Partition:
        """The blob: the single block containing everything."""
        return cls(universe, (universe.full(),))

    def to_json(self) -> list[list[str]]:
        return [list(b.labels) for b in self.blocks]

    def __str__(self) -> str:
        return "|".join(str(b) for b in self.blocks)


@dataclass(frozen=True)
class DitSet:
    """Ordered pairs of elements lying in distinct blocks."""

    pairs: frozenset[tuple[str, str]]

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return pair in self.pairs

    def issubset(self, other: DitSet) -> bool:
        return self.pairs <= other.pairs


def _check_same_universe(p: Partition, q: Partition) -> None:
    if p.universe != q.universe:
        raise UniverseMismatch("partitions on different universes are incompatible")


def join(p: Partition, q: Partition) -> Partition:
    """Partition whose blocks are the nonempty pairwise block intersections."""
    _check_same_universe(p, q)
    n = p.universe.size
    blocks = []
    for b in p.blocks:
        for c in q.blocks:
            common = b.bits.bits & c.bits.bits
            if common:
                blocks.append(SubsetKet(p.universe, BitVec(n, common)))
    return Partition(p.universe, tuple(blocks))


def refines(coarse: Partition, fine: Partition) -> bool:
    """True when every block of `fine` lies inside some block of `coarse`."""
    _check_same_universe(coarse, fine)
    for b in fine.blocks:
        if not any(b.bits.bits & ~c.bits.bits == 0 for c in coarse.blocks):
            return False
    return True


def dit_set(p: Partition) -> DitSet:
    """All ordered pairs that cross blocks."""
    labels = [b.labels for b in p.blocks]
    return DitSet(frozenset(
        chain.from_iterable(product(xs, ys) for xs in labels for ys in labels if xs is not ys)
    ))


def logical_entropy(p: Partition) -> Fraction:
    """Normalized dit count |dit(p)| / |U|^2 = 1 - sum of squared block probabilities."""
    n = p.universe.size
    indits = sum(b.cardinality ** 2 for b in p.blocks)
    return Fraction(n * n - indits, n * n)


def shannon_entropy(p: Partition) -> float:
    """Base-2 entropy of the block probabilities; the one float in the package."""
    n = p.universe.size
    return sum(b.cardinality / n * math.log2(n / b.cardinality) for b in p.blocks)


def block_entropy_relation(p_b: Fraction) -> tuple[Fraction, float]:
    """Block entropies (1 - p, log2(1/p)); they satisfy h = 1 - 2^(-H)."""
    p_b = Fraction(p_b)
    if not 0 < p_b <= 1:
        raise OutOfRange("block probability must lie in (0, 1]")
    return Fraction(1) - p_b, math.log2(1 / p_b)


def iter_partitions(universe: Universe) -> Iterator[Partition]:
    """All partitions of the universe (restricted-growth enumeration)."""
    n = universe.size

    def grow(j: int, masks: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        # element j joins each existing block in turn, then opens a new one
        if j == n:
            yield masks
            return
        for b in range(len(masks)):
            yield from grow(j + 1, masks[:b] + (masks[b] | 1 << j,) + masks[b + 1:])
        yield from grow(j + 1, masks + (1 << j,))

    for masks in grow(0, ()):
        yield Partition(universe, tuple(SubsetKet(universe, BitVec(n, m)) for m in masks))
