"""Density matrices as weighted blocks.

rho(S) is the uniform block on a subset, rho(p) the mixture over a
partition's blocks, and measurement only splits blocks, so every matrix
here is a sum of w_B |B><B| over disjoint blocks B. Entry (j,k) is w_B
when u_j and u_k share block B, else 0: off-diagonal entries record which
pairs still cohere, and measuring zeroes the pairs it distinguishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .attributes import Attribute
from .errors import InvalidBlocks, ShapeMismatch, UniverseMismatch, ZeroState
from .partitions import Partition, _block_masks
from .space import SubsetKet, Universe, rat_json


def _union_by_weight(blocks) -> dict:
    """Each weight mapped to the union of its disjoint blocks: one exact product per weight
    in a sum that is linear in the elements."""
    union: dict = {}
    for mask, w in blocks:
        union[w] = union.get(w, 0) | mask
    return union


@dataclass(frozen=True)
class DensityMatrix:
    """Sum of w_B |B><B| over disjoint nonempty blocks B (bitmasks), with trace 1.

    Blocks are ordered by least element index; elements in no block have
    an all-zero row and column.
    """

    universe: Universe
    blocks: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        masks = _block_masks(self.universe.size, [m for m, _ in self.blocks])
        weights, union = dict(self.blocks), _union_by_weight(self.blocks)
        if any(w <= 0 for w in union):
            raise InvalidBlocks("block weights must be positive")
        if sum(m.bit_count() * w for w, m in union.items()) != 1:
            raise InvalidBlocks("density matrix must have trace 1")
        exact = {w: Fraction(w) for w in union}  # one Fraction per weight, shared by its blocks
        object.__setattr__(self, "blocks", tuple((m, exact[weights[m]]) for m in masks))

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


def purity(rho: DensityMatrix) -> Fraction:
    """tr[rho^2]: block B holds |B|^2 entries equal to w_B."""
    return sum((mask.bit_count() ** 2 * w * w for mask, w in rho.blocks), Fraction(0))


def logical_entropy_rho(rho: DensityMatrix) -> Fraction:
    """1 - tr[rho^2]: the probability that two draws land in distinct blocks."""
    return Fraction(1) - purity(rho)


def expectation(f: Attribute, rho: DensityMatrix) -> Fraction:
    """tr[f rho]: each weight w times the sum of r |B_w ∩ f^-1(r)|, B_w the union of w's blocks."""
    if f.universe != rho.universe:
        raise UniverseMismatch("attribute and density matrix live on different universes")
    total = Fraction(0)
    for w, mask in _union_by_weight(rho.blocks).items():
        total += w * sum(r * (mask & level).bit_count() for r, level in f.levels.items())
    return total


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
    lost = Fraction(0)
    for mask, w in before.blocks:
        kept = sum((mask & a).bit_count() ** 2 for a, _ in after.blocks)
        lost += w * w * (mask.bit_count() ** 2 - kept)
    return lost
