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
from dataclasses import dataclass, field
from fractions import Fraction

from .attributes import Attribute
from .errors import InvalidBlocks, ShapeMismatch, UniverseMismatch, ZeroState
from .partitions import Partition, _block_masks
from .space import SubsetKet, Universe, rat_json


@dataclass(frozen=True)
class DensityMatrix:
    """Sum of w_B |B><B| over disjoint nonempty blocks B (bitmasks), with trace 1.

    Blocks are ordered by least element index; elements in no block have
    an all-zero row and column. Block k's weight is `_nums[k] / _den`.
    """

    universe: Universe
    blocks: tuple[tuple[int, Fraction], ...]
    _den: int = field(init=False, repr=False, compare=False)
    _nums: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            pairs = [(m, w if type(w) is Fraction else Fraction(w)) for m, w in self.blocks]
        except (TypeError, ValueError, ArithmeticError) as e:
            raise InvalidBlocks("blocks must be (mask, rational weight) pairs") from e
        masks, weights = _block_masks(self.universe.size, [m for m, _ in pairs]), dict(pairs)
        den = math.lcm(*{w.denominator for w in weights.values()})
        nums = tuple(weights[m].numerator * (den // weights[m].denominator) for m in masks)
        if any(a <= 0 for a in nums):
            raise InvalidBlocks("block weights must be positive")
        if sum(m.bit_count() * a for m, a in zip(masks, nums)) != den:
            raise InvalidBlocks("density matrix must have trace 1")
        object.__setattr__(self, "blocks", tuple((m, weights[m]) for m in masks))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_nums", nums)

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
    w = Fraction(1, p.universe.size)
    return DensityMatrix(p.universe, tuple((m, w) for m in p.masks))


def rho_of_subset(s: SubsetKet) -> DensityMatrix:
    """The single block S with weight 1/|S|."""
    if s.is_zero:
        raise ZeroState("no density matrix for the zero ket")
    return DensityMatrix(s.universe, ((s.bits.bits, Fraction(1, s.cardinality)),))


def _square_sum(rho: DensityMatrix) -> int:
    """den^2 tr[rho^2]: block B holds |B|^2 entries equal to a_B / den."""
    return sum((m.bit_count() * a) ** 2 for (m, _), a in zip(rho.blocks, rho._nums))


def purity(rho: DensityMatrix) -> Fraction:
    """tr[rho^2] = sum of |B|^2 w_B^2."""
    return Fraction(_square_sum(rho), rho._den ** 2)


def logical_entropy_rho(rho: DensityMatrix) -> Fraction:
    """1 - tr[rho^2]: the probability that two draws land in distinct blocks."""
    return Fraction(rho._den ** 2 - _square_sum(rho), rho._den ** 2)


def expectation(f: Attribute, rho: DensityMatrix) -> Fraction:
    """tr[f rho]: each numerator a times the sum of r |B_a ∩ f^-1(r)|, B_a the union of a's blocks."""
    if f.universe != rho.universe:
        raise UniverseMismatch("attribute and density matrix live on different universes")
    union: dict[int, int] = {}
    for (mask, _), a in zip(rho.blocks, rho._nums):
        union[a] = union.get(a, 0) | mask
    den = math.lcm(*(r.denominator for r in f.levels))
    levels = [(r.numerator * (den // r.denominator), level) for r, level in f.levels.items()]
    total = sum(a * c * (m & level).bit_count() for a, m in union.items() for c, level in levels)
    return Fraction(total, rho._den * den)


def measure_density(f: Attribute, rho: DensityMatrix) -> DensityMatrix:
    """Sum of P_r rho P_r over the eigenvalue projections of f.

    Splits each block by the level sets of f, keeping its weight; for rho
    of a partition p the result is rho of join(f's partition, p).
    """
    if f.universe != rho.universe:
        raise UniverseMismatch("attribute and density matrix live on different universes")
    levels = f.levels.values()
    return DensityMatrix(
        rho.universe,
        tuple((mask & level, w) for mask, w in rho.blocks for level in levels if mask & level),
    )


def entropy_increase(before: DensityMatrix, after: DensityMatrix) -> Fraction:
    """Sum of squares of the entries of `before` that are zero in `after`.

    Block B of `before` loses the pairs that no block A of `after` holds
    together: |B|^2 - sum over A of |B ∩ A|^2 entries, each w_B. Equals
    logical_entropy_rho(after) - logical_entropy_rho(before) when `after`
    came from measure_density on `before`.
    """
    if before.dim != after.dim:
        raise ShapeMismatch("density matrices differ in dimension")
    if before.universe != after.universe:
        raise UniverseMismatch("density matrices live on different universes")
    parts, lost = [b for b, _ in after.blocks], 0
    for (mask, _), a in zip(before.blocks, before._nums):
        kept = sum((mask & b).bit_count() ** 2 for b in parts)
        lost += a * a * (mask.bit_count() ** 2 - kept)
    return Fraction(lost, before._den ** 2)
