"""Set partitions: refinement, join, dit sets, logical and Shannon entropy."""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence, Set
from fractions import Fraction
from functools import cached_property
from itertools import product

from ._record import record
from .errors import InvalidArgument, InvalidBlocks, OutOfRange, ShapeMismatch
from .gf2 import _expect, _get
from .space import SubsetKet, Universe, _fmt_labels, _ket, _operands


def _rational(v: object, what: str) -> Fraction:
    """`v` as a Fraction; InvalidArgument names `what` when `v` is not a rational."""
    if type(v) is Fraction:
        return v
    try:
        return Fraction(v)
    except (TypeError, ValueError, ArithmeticError):
        raise InvalidArgument(f"{what} {v!r} is not a rational") from None


def _least_bit(mask: int) -> int:
    return mask & -mask


def _block_masks(size: int, masks: Iterable[int]) -> tuple[int, ...]:
    """Nonempty, pairwise disjoint masks below bit `size`, ordered by least element."""
    try:
        masks = tuple(masks)
    except TypeError:
        raise InvalidBlocks("block masks must be an iterable of ints") from None
    union = 0
    for m in masks:
        if not isinstance(m, int):
            raise InvalidBlocks("block masks must be ints")
        if m >> size:  # a negative mask shifts to -1
            raise ShapeMismatch("block mask outside the universe")
        if not m or union & m:
            raise InvalidBlocks("blocks must be nonempty and pairwise disjoint")
        union |= m
    return tuple(sorted(masks, key=_least_bit))


@record
class Partition:
    """Disjoint nonempty block masks covering a universe, ordered by least element index."""

    universe: Universe
    masks: tuple[int, ...]

    def __post_init__(self):
        _expect(Universe, self.universe)
        n = self.universe.size
        masks = _block_masks(n, self.masks)
        if sum(m.bit_count() for m in masks) != n:
            raise InvalidBlocks("blocks must cover the universe")
        object.__setattr__(self, "masks", masks)

    @cached_property
    def blocks(self) -> tuple[SubsetKet, ...]:
        """The ket of each block, built from the masks on first read."""
        return tuple(_ket(self.universe, m) for m in self.masks)

    @classmethod
    def from_blocks(cls, universe: Universe, blocks: Iterable[Iterable[str]]) -> Partition:
        _expect(Universe, universe)
        _expect(Iterable, blocks)
        return cls(universe, tuple(map(universe._mask, blocks)))

    @classmethod
    def discrete(cls, universe: Universe) -> Partition:
        _expect(Universe, universe)
        return cls(universe, tuple(1 << j for j in range(universe.size)))

    @classmethod
    def indiscrete(cls, universe: Universe) -> Partition:
        """The blob: the single block containing everything."""
        _expect(Universe, universe)
        return cls(universe, ((1 << universe.size) - 1,))

    def to_json(self) -> list[list[str]]:
        return [list(self.universe._labels(m)) for m in self.masks]

    def __str__(self) -> str:
        return "|".join(_fmt_labels(self.universe._labels(m)) for m in self.masks)


@record
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
        _expect(DitSet, other)
        return self.pairs <= other.pairs


class _Dits(Set):
    """The dit set of a partition, read from its block masks on demand.

    Between two views of one universe, inclusion is refinement and equality
    is equal masks. The other set operators return a frozenset. The hash
    equals the frozenset's.
    """

    __slots__ = ("partition",)

    def __init__(self, partition: Partition):
        self.partition = partition

    @classmethod
    def _from_iterable(cls, pairs: Iterable[tuple[str, str]]) -> frozenset[tuple[str, str]]:
        return frozenset(pairs)

    def __len__(self) -> int:
        return _dit_count(self.partition)

    def __contains__(self, pair: object) -> bool:
        if not isinstance(pair, tuple) or len(pair) != 2:
            return False
        position = self.partition.universe._position
        i, j = _get(position, pair[0]), _get(position, pair[1])
        if i is None or j is None:  # a label outside U
            return False
        both = 1 << i | 1 << j
        return all(m & both != both for m in self.partition.masks)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        blocks = [self.partition.universe._labels(m) for m in self.partition.masks]
        for xs in blocks:
            for ys in blocks:
                if xs is not ys:
                    yield from product(xs, ys)

    def _comparable(self, other: object) -> bool:
        return isinstance(other, _Dits) and other.partition.universe == self.partition.universe

    def __le__(self, other: object) -> bool:
        # dit(p) <= dit(q) exactly when q refines p
        if self._comparable(other):
            return refines(self.partition, other.partition)
        return Set.__le__(self, other)

    def __eq__(self, other: object) -> bool:
        if self._comparable(other):
            return self.partition.masks == other.partition.masks
        return Set.__eq__(self, other)

    __hash__ = Set._hash

    def __repr__(self) -> str:
        return f"_Dits({self.partition!r})"


def _dit_count(p: Partition) -> int:
    n = p.universe.size
    return n * n - sum(m.bit_count() ** 2 for m in p.masks)


def join(p: Partition, q: Partition) -> Partition:
    """Partition whose blocks are the nonempty pairwise block intersections."""
    _operands(p, q, Partition, Partition)
    masks = sorted((b & c for b in p.masks for c in q.masks if b & c), key=_least_bit)
    return Partition._derived(p.universe, tuple(masks))


def _nested(coarse: Sequence[int], fine: Sequence[int]) -> list[list[int]] | None:
    """The fine masks inside each coarse mask, in coarse order, or None when
    some fine mask lies inside no coarse mask. Both hold disjoint masks.

    A fine mask can lie only inside the coarse mask that holds its least
    element, so each fine mask is tested once, against that one.
    """
    by_least, firsts = {}, 0
    for b in fine:
        low = b & -b
        by_least[low] = b
        firsts |= low
    out, found = [], 0
    for c in coarse:
        inside, hits = [], c & firsts
        while hits:
            low = hits & -hits
            b = by_least[low]
            if b & ~c:
                return None
            inside.append(b)
            hits ^= low
        out.append(inside)
        found += len(inside)
    return out if found == len(by_least) else None


def refines(coarse: Partition, fine: Partition) -> bool:
    """True when every block of `fine` lies inside some block of `coarse`.

    Each fine block is tested only against the coarse block that holds its
    least element: O(|coarse| + |fine|) mask operations.
    """
    _operands(coarse, fine, Partition, Partition)
    return _nested(coarse.masks, fine.masks) is not None


def dit_set(p: Partition) -> DitSet:
    """All ordered pairs that cross blocks, as a view over the block masks.

    `len` is |U|^2 - sum of |B|^2, `in` looks up both labels' positions and
    tests that no block mask holds both, inclusion and equality between two
    views of one universe are `refines` and equal masks, and iteration
    yields the pairs block pair by block pair; no pair is stored.
    """
    _expect(Partition, p)
    return DitSet(_Dits(p))


def logical_entropy(p: Partition) -> Fraction:
    """Normalized dit count |dit(p)| / |U|^2 = 1 - sum of squared block probabilities."""
    if not isinstance(p, Partition):
        _expect(Partition, p)
    n = p.universe.size
    return Fraction(_dit_count(p), n * n)


def shannon_entropy(p: Partition) -> float:
    """Base-2 entropy of the block probabilities; the one float in the package."""
    if not isinstance(p, Partition):
        _expect(Partition, p)
    n = p.universe.size
    return sum(m.bit_count() / n * math.log2(n / m.bit_count()) for m in p.masks)


def block_entropy_relation(p_b: Fraction) -> tuple[Fraction, float]:
    """Block entropies (1 - p, log2(1/p)); they satisfy h = 1 - 2^(-H)."""
    p_b = _rational(p_b, "block probability")
    if not 0 < p_b <= 1:
        raise OutOfRange("block probability must lie in (0, 1]")
    return Fraction(1) - p_b, math.log2(1 / p_b)


def iter_partitions(universe: Universe) -> Iterator[Partition]:
    """All partitions of the universe (restricted-growth enumeration)."""
    _expect(Universe, universe)
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
