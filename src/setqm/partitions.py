"""Set partitions: refinement, join, dit sets, logical and Shannon entropy."""

from __future__ import annotations

import math
from collections.abc import Set
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator

from .errors import InvalidBlocks, OutOfRange, ShapeMismatch, UniverseMismatch
from .gf2 import BitVec
from .space import SubsetKet, Universe


def _block_masks(size: int, masks: Iterable[int]) -> tuple[int, ...]:
    """Nonempty, pairwise disjoint masks below bit `size`, ordered by least element."""
    masks = tuple(masks)
    union = 0
    for m in masks:
        if m >> size:  # a negative mask shifts to -1
            raise ShapeMismatch("block mask outside the universe")
        if not m or union & m:
            raise InvalidBlocks("blocks must be nonempty and pairwise disjoint")
        union |= m
    return tuple(sorted(masks, key=lambda m: m & -m))


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty block masks covering a universe, ordered by least element index."""

    universe: Universe
    masks: tuple[int, ...]
    blocks: tuple[SubsetKet, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.universe.size
        masks = _block_masks(n, self.masks)
        if sum(m.bit_count() for m in masks) != n:
            raise InvalidBlocks("blocks must cover the universe")
        object.__setattr__(self, "masks", masks)
        blocks = tuple(SubsetKet(self.universe, BitVec(n, m)) for m in masks)
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def from_blocks(cls, universe: Universe, blocks: Iterable[Iterable[str]]) -> Partition:
        return cls(universe, tuple(map(universe._mask, blocks)))

    @classmethod
    def discrete(cls, universe: Universe) -> Partition:
        return cls(universe, tuple(1 << j for j in range(universe.size)))

    @classmethod
    def indiscrete(cls, universe: Universe) -> Partition:
        """The blob: the single block containing everything."""
        return cls(universe, ((1 << universe.size) - 1,))

    def to_json(self) -> list[list[str]]:
        return [list(b.labels) for b in self.blocks]

    def __str__(self) -> str:
        return "|".join(str(b) for b in self.blocks)


@dataclass(frozen=True)
class DitSet:
    """Ordered pairs of elements lying in distinct blocks.

    `pairs` is any set of label pairs; `dit_set` gives a view that derives
    them from the partition's block masks and never stores them.
    """

    pairs: Set[tuple[str, str]]

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return pair in self.pairs

    def issubset(self, other: DitSet) -> bool:
        return self.pairs <= other.pairs


class _Dits(Set):
    """The dit set of a partition, read from its block masks on demand.

    Between two views of one universe, inclusion is refinement and equality
    is equal masks. The other set operators return a frozenset. The hash
    equals the frozenset's and is computed once.
    """

    __slots__ = ("partition", "_owner", "_hash_value")

    def __init__(self, partition: Partition):
        self.partition = partition
        self._owner = self._hash_value = None

    @classmethod
    def _from_iterable(cls, pairs: Iterable[tuple[str, str]]) -> frozenset[tuple[str, str]]:
        return frozenset(pairs)

    def _block_of(self) -> dict[str, int]:
        """Each label's block index, built from the masks on first use."""
        if self._owner is None:
            labels = self.partition.universe.labels
            owner = {}
            for k, m in enumerate(self.partition.masks):
                while m:
                    low = m & -m
                    owner[labels[low.bit_length() - 1]] = k
                    m ^= low
            self._owner = owner
        return self._owner

    def __len__(self) -> int:
        return _dit_count(self.partition)

    def __contains__(self, pair: object) -> bool:
        if not isinstance(pair, tuple) or len(pair) != 2:
            return False
        owner = self._block_of()
        i, j = owner.get(pair[0]), owner.get(pair[1])
        return i is not None and j is not None and i != j  # None: a label outside U

    def __iter__(self) -> Iterator[tuple[str, str]]:
        blocks = [[] for _ in self.partition.masks]
        for x, k in self._block_of().items():
            blocks[k].append(x)
        for xs in blocks:
            for ys in blocks:
                if xs is not ys:
                    yield from product(xs, ys)

    def _same_universe(self, other: object) -> bool:
        return isinstance(other, _Dits) and other.partition.universe == self.partition.universe

    def __le__(self, other: object) -> bool:
        # dit(p) <= dit(q) exactly when q refines p
        if self._same_universe(other):
            return refines(self.partition, other.partition)
        return Set.__le__(self, other)

    def __eq__(self, other: object) -> bool:
        if self._same_universe(other):
            return self.partition.masks == other.partition.masks
        return Set.__eq__(self, other)

    def __hash__(self) -> int:
        if self._hash_value is None:
            self._hash_value = self._hash()  # equal to the hash of the frozenset of the same pairs
        return self._hash_value

    def __repr__(self) -> str:
        return f"_Dits({self.partition!r})"


def _dit_count(p: Partition) -> int:
    n = p.universe.size
    return n * n - sum(m.bit_count() ** 2 for m in p.masks)


def _check_same_universe(p: Partition, q: Partition) -> None:
    if p.universe != q.universe:
        raise UniverseMismatch("partitions on different universes are incompatible")


def join(p: Partition, q: Partition) -> Partition:
    """Partition whose blocks are the nonempty pairwise block intersections."""
    _check_same_universe(p, q)
    return Partition(p.universe, tuple(b & c for b in p.masks for c in q.masks if b & c))


def refines(coarse: Partition, fine: Partition) -> bool:
    """True when every block of `fine` lies inside some block of `coarse`."""
    _check_same_universe(coarse, fine)
    return all(any(b & ~c == 0 for c in coarse.masks) for b in fine.masks)


def dit_set(p: Partition) -> DitSet:
    """All ordered pairs that cross blocks, as a view over the block masks.

    `len` is |U|^2 - sum of |B|^2, `in` is two lookups in a label-to-block
    table built once from the masks, inclusion and equality between two
    views of one universe are `refines` and equal masks, and iteration
    yields the pairs block pair by block pair; no pair is stored.
    """
    return DitSet(_Dits(p))


def logical_entropy(p: Partition) -> Fraction:
    """Normalized dit count |dit(p)| / |U|^2 = 1 - sum of squared block probabilities."""
    n = p.universe.size
    return Fraction(_dit_count(p), n * n)


def shannon_entropy(p: Partition) -> float:
    """Base-2 entropy of the block probabilities; the one float in the package."""
    n = p.universe.size
    return sum(m.bit_count() / n * math.log2(n / m.bit_count()) for m in p.masks)


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
        yield Partition(universe, masks)
