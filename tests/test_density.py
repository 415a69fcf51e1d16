import subprocess
import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from setqm.attributes import Attribute, inverse_image_partition, is_complete
from setqm import density
from setqm.density import (
    MAX_GRID_ENTRIES,
    DensityMatrix,
    entropy_increase,
    expectation,
    logical_entropy_rho,
    measure_density,
    purity,
    rho_of_partition,
    rho_of_subset,
)
from setqm.errors import InvalidBlocks, ShapeMismatch, TooLarge, UniverseMismatch, ZeroState
from setqm.partitions import Partition, iter_partitions, join, logical_entropy
from setqm.presets import universe_abc
from setqm.gf2 import BitVec
from setqm.space import SubsetKet, Universe

F = Fraction


def grid(*rows):
    return tuple(tuple(F(x) for x in row) for row in rows)


def test_rho_of_partition_example():
    u = universe_abc()
    p = Partition.from_blocks(u, [["a", "b"], ["c"]])
    assert rho_of_partition(p).entries == grid(
        ["1/3", "1/3", 0],
        ["1/3", "1/3", 0],
        [0, 0, "1/3"],
    )
    blob = rho_of_partition(Partition.indiscrete(u))
    assert all(e == F(1, 3) for row in blob.entries for e in row)
    assert rho_of_partition(Partition.discrete(u)).entries == grid(
        ["1/3", 0, 0], [0, "1/3", 0], [0, 0, "1/3"]
    )


def test_rho_of_subset_examples():
    u = universe_abc()
    assert rho_of_subset(u.subset(["a", "b"])).entries == grid(
        ["1/2", "1/2", 0],
        ["1/2", "1/2", 0],
        [0, 0, 0],
    )
    assert rho_of_subset(u.subset(["c"])).entries == grid(
        [0, 0, 0], [0, 0, 0], [0, 0, 1]
    )
    full = rho_of_subset(u.full())
    assert all(e == F(1, 3) for row in full.entries for e in row)
    with pytest.raises(ZeroState):
        rho_of_subset(u.empty())


def test_rho_of_subset_block_formula():
    u = universe_abc()
    for s in u.all_subsets():
        if s.is_zero:
            continue
        rho = rho_of_subset(s)
        for j, x in enumerate(u.labels):
            for k, y in enumerate(u.labels):
                inside = x in s and y in s
                assert rho.entries[j][k] == (F(1, s.cardinality) if inside else 0)


def test_purity_and_entropy():
    u = universe_abc()
    p = Partition.from_blocks(u, [["a", "b"], ["c"]])
    rho = rho_of_partition(p)
    assert purity(rho) == F(5, 9)
    assert logical_entropy_rho(rho) == F(4, 9)
    assert logical_entropy_rho(rho) == logical_entropy(p)
    for s in u.all_subsets():
        if not s.is_zero:
            assert purity(rho_of_subset(s)) == 1
            assert logical_entropy_rho(rho_of_subset(s)) == 0
    diag = rho_of_partition(Partition.discrete(u))
    assert purity(diag) == F(1, 3)
    assert logical_entropy_rho(diag) == F(2, 3)


def test_entropy_equivalence_exhaustive_to_size_5():
    for n in range(1, 6):
        universe = Universe(tuple("abcde"[:n]))
        for p in iter_partitions(universe):
            assert logical_entropy(p) == logical_entropy_rho(rho_of_partition(p))


def test_expectation():
    u = universe_abc()
    f = Attribute.from_values(u, {"a": 1, "b": 2, "c": 3})
    assert expectation(f, rho_of_subset(u.full())) == 2
    constant = Attribute.from_values(u, {x: F(7, 3) for x in u.labels})
    assert expectation(constant, rho_of_subset(u.subset(["a", "c"]))) == F(7, 3)
    chi_bc = Attribute.indicator(u, ["b", "c"])
    assert expectation(chi_bc, rho_of_subset(u.full())) == F(2, 3)


def test_expectation_is_mean_over_subset():
    u = universe_abc()
    f = Attribute.from_values(u, {"a": F(1, 2), "b": 3, "c": F(-2)})
    for s in u.all_subsets():
        if s.is_zero:
            continue
        mean = sum((f.value(x) for x in s.labels), F(0)) / s.cardinality
        assert expectation(f, rho_of_subset(s)) == mean


def test_expectation_universe_mismatch():
    u = universe_abc()
    f = Attribute.indicator(Universe(("x", "y", "z")), ["x"])
    with pytest.raises(UniverseMismatch):
        expectation(f, rho_of_subset(u.full()))


def test_measure_density_nondegenerate():
    u = universe_abc()
    f = Attribute.from_values(u, {"a": 1, "b": 2, "c": 3})
    before = rho_of_subset(u.full())
    after = measure_density(f, before)
    assert after.entries == grid(["1/3", 0, 0], [0, "1/3", 0], [0, 0, "1/3"])


def test_measure_density_constant_is_noop():
    u = universe_abc()
    constant = Attribute.from_values(u, {x: 4 for x in u.labels})
    rho = rho_of_subset(u.subset(["a", "b"]))
    assert measure_density(constant, rho) == rho


def test_measure_density_degenerate():
    u = universe_abc()
    chi_bc = Attribute.indicator(u, ["b", "c"])
    after = measure_density(chi_bc, rho_of_subset(u.full()))
    assert after.entries == grid(
        ["1/3", 0, 0],
        [0, "1/3", "1/3"],
        [0, "1/3", "1/3"],
    )
    assert after == rho_of_partition(Partition.from_blocks(u, [["a"], ["b", "c"]]))


def test_join_action_law():
    # measuring a mixed state refines its partition by the attribute's level sets
    universe = Universe(("a", "b", "c", "d"))
    attributes = [
        Attribute.indicator(universe, ["a", "b"]),
        Attribute.indicator(universe, ["b", "c"]),
        Attribute.from_values(universe, {"a": 1, "b": 2, "c": 3, "d": 3}),
    ]
    for p in iter_partitions(universe):
        rho = rho_of_partition(p)
        for f in attributes:
            expected = rho_of_partition(join(inverse_image_partition(f), p))
            assert measure_density(f, rho) == expected


def test_measure_density_preserves_trace():
    u = universe_abc()
    chi_bc = Attribute.indicator(u, ["b", "c"])
    for p in iter_partitions(u):
        after = measure_density(chi_bc, rho_of_partition(p))
        assert sum(after.entries[j][j] for j in range(3)) == 1


def test_entropy_increase_examples():
    u = universe_abc()
    f = Attribute.from_values(u, {"a": 1, "b": 2, "c": 3})
    before = rho_of_subset(u.full())
    after = measure_density(f, before)
    assert entropy_increase(before, after) == F(2, 3)
    constant = Attribute.from_values(u, {x: 1 for x in u.labels})
    assert entropy_increase(before, measure_density(constant, before)) == 0
    chi_bc = Attribute.indicator(u, ["b", "c"])
    assert entropy_increase(before, measure_density(chi_bc, before)) == F(4, 9)


def test_entropy_increase_is_entropy_difference():
    u = universe_abc()
    attributes = [
        Attribute.indicator(u, ["b", "c"]),
        Attribute.indicator(u, ["a", "b"]),
        Attribute.from_values(u, {"a": 1, "b": 2, "c": 3}),
    ]
    for p in iter_partitions(u):
        before = rho_of_partition(p)
        for f in attributes:
            after = measure_density(f, before)
            gain = entropy_increase(before, after)
            assert gain >= 0
            assert gain == logical_entropy_rho(after) - logical_entropy_rho(before)


def test_entropy_increase_shape_mismatch():
    u = universe_abc()
    small = Universe(("a", "b"))
    with pytest.raises(ShapeMismatch):
        entropy_increase(
            rho_of_subset(u.full()), rho_of_subset(small.full())
        )


def test_entropy_increase_universe_mismatch():
    u = universe_abc()
    other = Universe(("x", "y", "z"))
    with pytest.raises(UniverseMismatch):
        entropy_increase(rho_of_subset(u.full()), rho_of_subset(other.full()))


def test_density_validation():
    u = universe_abc()
    assert issubclass(InvalidBlocks, ValueError)
    with pytest.raises(ShapeMismatch):
        DensityMatrix(u, ((0b1000, F(1)),))
    for blocks in (
        ((0b011, F(1, 4)), (0b110, F(1, 4))),  # overlapping blocks
        ((0, F(1, 2)), (0b111, F(1, 3))),  # an empty block
        ((0b001, F(0)), (0b110, F(1, 2))),  # a zero weight
        ((0b001, F(2)), (0b110, F(-1, 2))),  # a negative weight
        ((0b111, F(1, 2)),),  # trace 3/2
    ):
        with pytest.raises(InvalidBlocks):
            DensityMatrix(u, blocks)


def test_float_weight_trace_is_checked_exactly():
    # the float 1/3 is 6004799503160661 / 2^54, so three of it miss 1 by 2^-54
    with pytest.raises(InvalidBlocks):
        DensityMatrix(universe_abc(), ((0b111, 1 / 3),))


@pytest.mark.parametrize(
    "call",
    [
        lambda u: DensityMatrix(u, ((7, None),)),
        lambda u: DensityMatrix(u, ((7, "x"),)),
        lambda u: DensityMatrix(u, ((7, float("nan")),)),
        lambda u: DensityMatrix(u, ((7, "1/0"),)),
        lambda u: DensityMatrix(u, (7,)),  # a block that is not a pair
        lambda u: DensityMatrix(u, ((7,),)),
        lambda u: DensityMatrix(u, ((7, F(1, 3), 0),)),
        lambda u: DensityMatrix(u, None),
        lambda u: DensityMatrix(u, (("7", F(1, 3)),)),  # a mask that is not an int
        lambda u: DensityMatrix(u, (([7], F(1, 3)),)),
        lambda u: Partition(u, ("1",)),
        lambda u: Partition(u, (1.0, 6)),
    ],
)
def test_malformed_blocks_raise_invalid_blocks(call):
    with pytest.raises(InvalidBlocks):
        call(universe_abc())


def test_weights_with_unrelated_denominators():
    u = universe_abc()
    rho = DensityMatrix(u, ((0b001, F(1, 2)), (0b010, F(1, 3)), (0b100, F(1, 6))))
    assert (rho._den, rho._nums) == (6, (3, 2, 1))
    assert purity(rho) == F(1, 4) + F(1, 9) + F(1, 36)
    f = Attribute.from_values(u, {"a": F(1, 2), "b": F(2, 3), "c": 5})
    assert expectation(f, rho) == F(1, 4) + F(2, 9) + F(5, 6)


def test_density_blocks_are_canonical():
    u = universe_abc()
    shuffled = DensityMatrix(u, ((0b010, F(1, 3)), (0b101, F(1, 3))))
    assert shuffled.blocks == ((0b101, F(1, 3)), (0b010, F(1, 3)))  # by least element
    assert shuffled == rho_of_partition(Partition.from_blocks(u, [["b"], ["a", "c"]]))


def test_density_weights_become_fractions():
    u = universe_abc()
    rho = DensityMatrix(u, ((0b100, 1),))
    assert rho.blocks == ((0b100, F(1)),)
    assert type(rho.blocks[0][1]) is F
    mixed = DensityMatrix(u, ((0b110, F(1, 4)), (0b001, F(1, 2))))
    assert mixed.blocks == ((0b001, F(1, 2)), (0b110, F(1, 4)))
    # int, float and str weights build the same matrix as Fraction weights
    for a, b in (
        (rho, DensityMatrix(u, ((0b100, F(1)),))),
        (DensityMatrix(u, ((0b001, 0.5), (0b110, "1/4"))), mixed),
    ):
        assert a == b and hash(a) == hash(b)
        assert all(type(w) is F for _, w in a.blocks)
        assert (a._den, a._nums) == (b._den, b._nums)


def test_density_json():
    u = universe_abc()
    rho = rho_of_subset(u.subset(["c"]))
    assert rho.to_json() == [
        ["0/1", "0/1", "0/1"],
        ["0/1", "0/1", "0/1"],
        ["0/1", "0/1", "1/1"],
    ]


# ---- the block form against the dense entrywise algorithms it replaced

def dense_of_blocks(n, blocks):
    """Entry (j,k) is w when j and k lie in one block of weight w, else 0."""
    rows = [[F(0)] * n for _ in range(n)]
    for mask, w in blocks:
        for j in range(n):
            for k in range(n):
                if (mask >> j) & 1 and (mask >> k) & 1:
                    rows[j][k] = w
    return tuple(tuple(row) for row in rows)


def dense_purity(entries):
    return sum((e * e for row in entries for e in row), F(0))


def dense_expectation(values, entries):
    return sum((values[j] * entries[j][j] for j in range(len(entries))), F(0))


def dense_measure(values, entries):
    n = len(entries)
    return tuple(
        tuple(entries[j][k] if values[j] == values[k] else F(0) for k in range(n))
        for j in range(n)
    )


def dense_entropy_increase(before, after):
    n = len(before)
    return sum(
        (before[j][k] ** 2 for j in range(n) for k in range(n) if after[j][k] == 0), F(0)
    )


def dense_text(entries):
    cells = [[str(e) for e in row] for row in entries]
    width = max(len(c) for row in cells for c in row)
    return "\n".join("  ".join(c.rjust(width) for c in row) for row in cells)


def dense_json(entries):
    return [[f"{e.numerator}/{e.denominator}" for e in row] for row in entries]


LABELS = tuple("abcdef")
VALUES = (F(-1), F(0), F(1, 2), F(-2, 3), F(1), F(3))


@st.composite
def universes(draw):
    return Universe(LABELS[: draw(st.integers(1, len(LABELS)))])


@st.composite
def partitions_of(draw, u):
    """A partition of u from a restricted-growth style block assignment."""
    assign = [draw(st.integers(0, j)) for j in range(u.size)]
    blocks = {}
    for label, b in zip(u.labels, assign):
        blocks.setdefault(b, []).append(label)
    return Partition.from_blocks(u, list(blocks.values()))


@st.composite
def density_matrices(draw, u):
    """Any block matrix on u: disjoint blocks, leftover elements, positive weights whose
    denominators need not share a factor (such as 1/2, 1/3 and 1/6)."""
    assign = draw(st.lists(st.integers(-1, u.size - 1), min_size=u.size, max_size=u.size))
    if all(b < 0 for b in assign):
        assign[0] = 0
    masks = {}
    for j, b in enumerate(assign):
        if b >= 0:
            masks[b] = masks.get(b, 0) | 1 << j
    counts = [F(draw(st.integers(1, 5)), draw(st.integers(1, 6))) for _ in masks]
    trace = sum(m.bit_count() * c for m, c in zip(masks.values(), counts))
    return DensityMatrix(u, tuple((m, c / trace) for m, c in zip(masks.values(), counts)))


@st.composite
def attributes_on(draw, u):
    return Attribute(u, tuple(draw(st.sampled_from(VALUES)) for _ in range(u.size)))


@given(st.data())
def test_rho_constructors_match_dense(data):
    u = data.draw(universes())
    p = data.draw(partitions_of(u))
    dense = dense_of_blocks(u.size, [(m, F(1, u.size)) for m in p.masks])
    assert rho_of_partition(p).entries == dense
    mask = data.draw(st.integers(1, (1 << u.size) - 1))
    s = SubsetKet(u, BitVec(u.size, mask))
    assert rho_of_subset(s).entries == dense_of_blocks(u.size, [(mask, F(1, s.cardinality))])


@given(st.data())
def test_block_functions_match_dense(data):
    u = data.draw(universes())
    rho = data.draw(density_matrices(u))
    f = data.draw(attributes_on(u))
    dense = dense_of_blocks(u.size, rho.blocks)
    assert rho.entries == dense
    assert rho.to_text() == str(rho) == dense_text(dense)
    assert rho.to_json() == dense_json(dense)
    assert purity(rho) == dense_purity(dense)
    assert logical_entropy_rho(rho) == 1 - dense_purity(dense)
    assert expectation(f, rho) == dense_expectation(f.values, dense)
    after = measure_density(f, rho)
    assert after.entries == dense_measure(f.values, dense)
    assert entropy_increase(rho, after) == dense_entropy_increase(dense, after.entries)


@given(st.data())
def test_entropy_increase_of_unrelated_pairs_matches_dense(data):
    u = data.draw(universes())
    before, after = data.draw(density_matrices(u)), data.draw(density_matrices(u))
    assert entropy_increase(before, after) == dense_entropy_increase(before.entries, after.entries)


@given(st.data())
def test_measuring_a_partition_state_is_the_join(data):
    u = data.draw(universes())
    p = data.draw(partitions_of(u))
    f = data.draw(attributes_on(u))
    joined = join(inverse_image_partition(f), p)
    after = measure_density(f, rho_of_partition(p))
    assert after == rho_of_partition(joined)
    gain = logical_entropy(joined) - logical_entropy(p)
    assert entropy_increase(rho_of_partition(p), after) == gain


# ---- the integer sums against the Fraction sums they replaced

def ref_purity(rho):
    return sum((mask.bit_count() ** 2 * w * w for mask, w in rho.blocks), F(0))


def ref_logical_entropy_rho(rho):
    return F(1) - ref_purity(rho)


def ref_expectation(f, rho):
    union = {}
    for mask, w in rho.blocks:
        union[w] = union.get(w, 0) | mask
    total = F(0)
    for w, mask in union.items():
        total += w * sum(r * (mask & level).bit_count() for r, level in f.levels.items())
    return total


def ref_entropy_increase(before, after):
    lost = F(0)
    for mask, w in before.blocks:
        kept = sum((mask & a).bit_count() ** 2 for a, _ in after.blocks)
        lost += w * w * (mask.bit_count() ** 2 - kept)
    return lost


def ref_is_complete(fs):
    return len(set(zip(*(f.values for f in fs)))) == fs[0].universe.size


@st.composite
def wide_universes(draw):
    return Universe(tuple(f"u{j}" for j in range(draw(st.integers(1, 64)))))


@st.composite
def ramps_on(draw, u):
    """A shuffled ramp j // k / k: each value on k elements, so families are often complete."""
    k = draw(st.integers(1, 3))
    return Attribute(u, tuple(draw(st.permutations([F(j // k, k) for j in range(u.size)]))))


@given(st.data())
def test_integer_sums_match_fraction_sums(data):
    u = data.draw(wide_universes())
    rho, other = data.draw(density_matrices(u)), data.draw(density_matrices(u))
    count = data.draw(st.integers(1, 3))
    fs = [data.draw(st.one_of(attributes_on(u), ramps_on(u))) for _ in range(count)]
    assert purity(rho) == ref_purity(rho)
    assert logical_entropy_rho(rho) == ref_logical_entropy_rho(rho)
    after = measure_density(fs[0], rho)
    for f in fs:
        assert expectation(f, rho) == ref_expectation(f, rho)
        assert expectation(f, after) == ref_expectation(f, after)
    for a, b in ((rho, after), (rho, other), (after, rho)):
        assert entropy_increase(a, b) == ref_entropy_increase(a, b)
    assert is_complete(fs) == ref_is_complete(fs)


# ---- values built by the private constructors against the public constructors

STORED = {"universe", "masks", "_den", "_nums"}


def assert_same_matrix(rho, public):
    assert vars(rho).keys() == vars(public).keys() == STORED  # no blocks until read
    assert rho == public and hash(rho) == hash(public)
    assert rho.masks == public.masks
    assert rho._den == public._den and rho._nums == public._nums
    assert rho.blocks == public.blocks
    assert all(type(w) is F for _, w in rho.blocks)
    assert rho.blocks is rho.blocks


def assert_same_partition(p, public):
    assert vars(p).keys() == vars(public).keys() == {"universe", "masks"}
    assert p == public and hash(p) == hash(public)
    assert p.masks == public.masks and p.blocks == public.blocks
    assert [hash(b) for b in p.blocks] == [hash(b) for b in public.blocks]


@given(st.data())
def test_derived_values_match_the_public_constructors(data):
    u = data.draw(wide_universes())
    n = u.size
    p = data.draw(partitions_of(u))
    f = data.draw(st.one_of(attributes_on(u), ramps_on(u)))
    rho = data.draw(density_matrices(u))

    assert_same_partition(inverse_image_partition(f), Partition(u, tuple(f.levels.values())))
    g = data.draw(attributes_on(u))
    joined = join(p, inverse_image_partition(g))
    assert_same_partition(joined, Partition(
        u, (b & c for b in p.masks for c in g.levels.values() if b & c)))

    assert_same_matrix(rho_of_partition(p), DensityMatrix(u, tuple((m, F(1, n)) for m in p.masks)))
    mask = data.draw(st.integers(1, (1 << n) - 1))
    s = SubsetKet(u, BitVec(n, mask))
    assert_same_matrix(rho_of_subset(s), DensityMatrix(u, ((mask, F(1, mask.bit_count())),)))

    for before in (rho, rho_of_partition(p)):
        after = measure_density(f, before)
        split = tuple((m & level, w) for m, w in before.blocks for level in f.levels.values()
                      if m & level)
        assert_same_matrix(after, DensityMatrix(u, split))


# ---- entropy_increase in one pass against the pairwise sum it keeps as a fallback

@given(st.data())
def test_entropy_increase_matches_the_pairwise_sum(data):
    u = data.draw(wide_universes())
    p = data.draw(partitions_of(u))
    f, g = data.draw(attributes_on(u)), data.draw(ramps_on(u))
    rho, other = data.draw(density_matrices(u)), data.draw(density_matrices(u))
    refining = [
        (rho, measure_density(f, rho)),
        (rho, measure_density(g, measure_density(f, rho))),
        (rho_of_partition(p), rho_of_partition(join(p, inverse_image_partition(g)))),
        (rho, rho),
    ]
    # `other` rarely refines `rho`; measured `rho` against `rho` refines only when equal;
    # blocks of `rho` and `other` leave elements out, so some start outside every block
    unrelated = [(rho, other), (other, rho), (measure_density(f, rho), rho),
                 (rho_of_partition(p), rho), (rho, rho_of_partition(p))]
    for before, after in refining + unrelated:
        assert entropy_increase(before, after) == ref_entropy_increase(before, after)
    for before, after in refining:
        assert entropy_increase(before, after) == (
            logical_entropy_rho(after) - logical_entropy_rho(before))


def test_entropy_increase_when_a_block_starts_outside_before():
    # before is {a}|{c,d}; after's block {b,c} starts at b, which no block of before
    # holds, yet meets {c,d}, while {a} and {d} lie inside the blocks holding their starts
    u = Universe(tuple("abcd"))
    before = DensityMatrix(u, ((0b0001, F(1, 3)), (0b1100, F(1, 3))))
    after = DensityMatrix(u, ((0b0001, F(1, 4)), (0b0110, F(1, 4)), (0b1000, F(1, 4))))
    assert entropy_increase(before, after) == ref_entropy_increase(before, after) == F(2, 9)
    inside = DensityMatrix(u, ((0b0001, F(1, 2)), (0b0100, F(1, 2))))
    assert entropy_increase(before, inside) == ref_entropy_increase(before, inside) == F(1, 3)


# ---- the printed grid: one element over sqrt(MAX_GRID_ENTRIES) raises TooLarge before any row

SIDE = isqrt(MAX_GRID_ENTRIES)


def whole(n):
    """rho of the whole universe of n elements: one block, so its grid is one shared row."""
    u = Universe(range(n))
    return rho_of_subset(u.subset(u.labels))


READS = {"entries": lambda rho: rho.entries, "to_json": DensityMatrix.to_json, "str": str}


@pytest.mark.parametrize("read", READS.values(), ids=READS.keys())
def test_a_grid_one_element_over_the_bound_raises_too_large(read):
    with pytest.raises(TooLarge, match=f"exceeds the limit of {MAX_GRID_ENTRIES} entries$"):
        read(whole(SIDE + 1))


def test_a_grid_at_the_bound_is_built():
    assert SIDE >= 512  # every benchmark size and the planned sweeps to |U| = 512
    entries = whole(SIDE).entries
    assert len(entries) == SIDE and set(entries[-1]) == {F(1, SIDE)}


# Each call runs in a child whose address space is capped at 600 MiB; without the bound,
# printing the grid of 20,000 elements allocates until MemoryError (after some 14 s).
CAPPED_CALL = """\
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))
sys.path.insert(0, {src!r})
from setqm.density import rho_of_partition
from setqm.partitions import Partition
from setqm.space import Universe
try:
    {call}
except Exception as exc:
    print(type(exc).__name__)
"""
OVERSIZED = [
    "rho_of_partition(Partition.discrete(Universe(range(20000)))).to_json()",
    "rho_of_partition(Partition.discrete(Universe(range(20000)))).to_text()",
    "str(rho_of_partition(Partition.indiscrete(Universe(range(1 << 16)))))",
]


@pytest.mark.parametrize("call", OVERSIZED)
def test_an_oversized_grid_raises_too_large_in_a_capped_child(call):
    src = str(Path(density.__file__).resolve().parent.parent)
    child = subprocess.run([sys.executable, "-c", CAPPED_CALL.format(src=src, call=call)],
                           capture_output=True, text=True, timeout=60)
    assert (child.returncode, child.stdout, child.stderr) == (0, "TooLarge\n", "")
