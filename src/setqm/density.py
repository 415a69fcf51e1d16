"""Density matrices as weighted blocks.

rho(S) is the uniform block on a subset, rho(p) the mixture over a
partition's blocks, and measurement only splits blocks, so every matrix
here is a sum of w_B |B><B| over disjoint blocks B. Entry (j,k) is w_B
when u_j and u_k share block B, else 0: off-diagonal entries record which
pairs still cohere, and measuring zeroes the pairs it distinguishes. The
weights are held over one common denominator: every figure here is an
integer sum that becomes one `Fraction` at the end.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from ._record import record
from .attributes import Attribute
from .errors import InvalidBlocks, ShapeMismatch, UniverseMismatch, ZeroState
from .gf2 import _expect
from .partitions import Partition, _block_masks, _nested
from .space import SubsetKet, Universe, _operands, rat_json


@record
class DensityMatrix:
    """Sum of w_B |B><B| over disjoint nonempty blocks B (bitmasks), with trace 1.

    Stored as the masks, ordered by least element index, and integer
    numerators: block k's weight is `_nums[k] / _den`, `_den` the lcm of
    the reduced denominators. `.blocks` builds the (mask, Fraction) pairs
    on first read. Elements in no block have an all-zero row and column.
    """

    universe: Universe
    masks: tuple[int, ...]
    _den: int
    _nums: tuple[int, ...]

    def __init__(self, universe: Universe, blocks: Iterable[tuple[int, Fraction]]):
        _expect(Universe, universe)
        try:
            pairs = [(m, w if type(w) is Fraction else Fraction(w)) for m, w in blocks]
        except (TypeError, ValueError, ArithmeticError) as e:
            raise InvalidBlocks("blocks must be (mask, rational weight) pairs") from e
        masks, weights = _block_masks(universe.size, [m for m, _ in pairs]), dict(pairs)
        den = math.lcm(*{w.denominator for w in weights.values()})
        nums = tuple(weights[m].numerator * (den // weights[m].denominator) for m in masks)
        if any(a <= 0 for a in nums):
            raise InvalidBlocks("block weights must be positive")
        if sum(m.bit_count() * a for m, a in zip(masks, nums)) != den:
            raise InvalidBlocks("density matrix must have trace 1")
        self.__dict__.update(universe=universe, masks=masks, _den=den, _nums=nums)

    @cached_property
    def blocks(self) -> tuple[tuple[int, Fraction], ...]:
        """Each block as (mask, weight), built from the numerators on first read."""
        return tuple((m, Fraction(a, self._den)) for m, a in zip(self.masks, self._nums))

    @property
    def dim(self) -> int:
        return self.universe.size

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The |U| x |U| grid, built afresh on each access."""
        zero = Fraction(0)
        rows = [(zero,) * self.dim] * self.dim
        for mask, weight in self.blocks:
            row = tuple(weight if (mask >> k) & 1 else zero for k in range(self.dim))
            for j, e in enumerate(row):
                if e:
                    rows[j] = row
        return tuple(rows)

    def to_json(self) -> list[list[str]]:
        return [[rat_json(e) for e in row] for row in self.entries]

    def to_text(self) -> str:
        cells = [[str(e) for e in row] for row in self.entries]
        width = max(len(c) for row in cells for c in row)
        return "\n".join("  ".join(c.rjust(width) for c in row) for row in cells)

    def __str__(self) -> str:
        return self.to_text()


def rho_of_partition(p: Partition) -> DensityMatrix:
    """Every block of p with weight 1/|U|."""
    if not isinstance(p, Partition):
        _expect(Partition, p)
    return DensityMatrix._derived(p.universe, p.masks, p.universe.size, (1,) * len(p.masks))


def rho_of_subset(s: SubsetKet) -> DensityMatrix:
    """The single block S with weight 1/|S|."""
    if not isinstance(s, SubsetKet):
        _expect(SubsetKet, s)
    if s.is_zero:
        raise ZeroState("no density matrix for the zero ket")
    k = s.cardinality
    return DensityMatrix._derived(s.universe, (s.bits.bits,), k, (1,))


def _square_sum(rho: DensityMatrix) -> int:
    """den^2 tr[rho^2]: block B holds |B|^2 entries equal to a_B / den."""
    return sum((m.bit_count() * a) ** 2 for m, a in zip(rho.masks, rho._nums))


def purity(rho: DensityMatrix) -> Fraction:
    """tr[rho^2] = sum of |B|^2 w_B^2."""
    if not isinstance(rho, DensityMatrix):
        _expect(DensityMatrix, rho)
    return Fraction(_square_sum(rho), rho._den ** 2)


def logical_entropy_rho(rho: DensityMatrix) -> Fraction:
    """1 - tr[rho^2]: the probability that two draws land in distinct blocks."""
    if not isinstance(rho, DensityMatrix):
        _expect(DensityMatrix, rho)
    return Fraction(rho._den ** 2 - _square_sum(rho), rho._den ** 2)


def expectation(f: Attribute, rho: DensityMatrix) -> Fraction:
    """tr[f rho]: each numerator a times the sum of r |B_a ∩ f^-1(r)|, B_a the union of a's blocks."""
    _operands(f, rho, Attribute, DensityMatrix)
    union: dict[int, int] = {}
    for mask, a in zip(rho.masks, rho._nums):
        union[a] = union.get(a, 0) | mask
    den = math.lcm(*(r.denominator for r in f.levels))
    levels = [(r.numerator * (den // r.denominator), level) for r, level in f.levels.items()]
    total = sum(a * c * (m & level).bit_count() for a, m in union.items() for c, level in levels)
    return Fraction(total, rho._den * den)


def measure_density(f: Attribute, rho: DensityMatrix) -> DensityMatrix:
    """Sum of P_r rho P_r over the eigenvalue projections of f.

    Splits each block by the level sets of f, keeping its weight; for rho
    of a partition p the result is rho of join(f's partition, p). Every
    block keeps a nonempty part, so the common denominator stays the same.
    """
    _operands(f, rho, Attribute, DensityMatrix)
    levels = f.levels.values()
    parts = sorted(((mask & level, a) for mask, a in zip(rho.masks, rho._nums)
                    for level in levels if mask & level), key=lambda part: part[0] & -part[0])
    masks, nums = zip(*parts)
    return DensityMatrix._derived(rho.universe, masks, rho._den, nums)


def entropy_increase(before: DensityMatrix, after: DensityMatrix) -> Fraction:
    """Sum of squares of the entries of `before` that are zero in `after`.

    Block B of `before` loses the pairs that no block A of `after` holds
    together: |B|^2 - sum over A of |B ∩ A|^2 entries, each w_B. Equals
    logical_entropy_rho(after) - logical_entropy_rho(before) when `after`
    came from measure_density on `before`.

    The cells B ∩ A come from one pass over the blocks when every block of
    `after` lies inside the block of `before` that holds its least element
    (as after measure_density): they are the blocks A inside B. Otherwise
    every block of `before` is ANDed with every block of `after`.
    """
    try:
        _operands(before, after, DensityMatrix, DensityMatrix)
    except UniverseMismatch:  # one universe has one size, so only foreign operands can differ
        if before.dim != after.dim:
            raise ShapeMismatch("density matrices differ in dimension") from None
        raise
    masks, parts = before.masks, after.masks
    cells = _nested(masks, parts) or [[m & b for b in parts] for m in masks]
    kept = [sum(c.bit_count() ** 2 for c in inside) for inside in cells]
    lost = sum(a * a * (m.bit_count() ** 2 - k) for m, a, k in zip(masks, before._nums, kept))
    return Fraction(lost, before._den ** 2)
