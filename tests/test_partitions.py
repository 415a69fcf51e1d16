import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from setqm.errors import OutOfRange, UniverseMismatch
from setqm.partitions import (
    Partition,
    block_entropy_relation,
    dit_set,
    iter_partitions,
    join,
    logical_entropy,
    refines,
    shannon_entropy,
)
from setqm.presets import universe_abc
from setqm.space import Universe

ABCD = Universe(("a", "b", "c", "d"))


def part(universe, *blocks):
    return Partition.from_blocks(universe, blocks)


def test_join_examples():
    u = universe_abc()
    p = part(u, ["a"], ["b", "c"])
    q = part(u, ["a", "b"], ["c"])
    assert join(p, q) == Partition.discrete(u)
    assert join(p, Partition.indiscrete(u)) == p
    assert join(p, p) == p


def test_join_universe_mismatch():
    with pytest.raises(UniverseMismatch):
        join(Partition.discrete(universe_abc()), Partition.discrete(ABCD))


def test_refines_examples():
    u = universe_abc()
    blob = Partition.indiscrete(u)
    one = Partition.discrete(u)
    sigma = part(u, ["a"], ["b", "c"])
    assert refines(blob, one)
    assert refines(blob, sigma)
    assert not refines(one, blob)
    assert refines(sigma, one)


def test_dit_set_examples():
    u = universe_abc()
    assert len(dit_set(Partition.discrete(u))) == 6
    assert len(dit_set(Partition.indiscrete(u))) == 0
    assert dit_set(part(u, ["a"], ["b", "c"])).pairs == {
        ("a", "b"), ("b", "a"), ("a", "c"), ("c", "a"),
    }


def test_dit_set_symmetric_and_off_diagonal():
    for p in iter_partitions(ABCD):
        ds = dit_set(p)
        block = {x: i for i, b in enumerate(p.blocks) for x in b.labels}
        assert ds.pairs == {(x, y) for x in block for y in block if block[x] != block[y]}
        for x, y in ds.pairs:
            assert x != y
            assert (y, x) in ds


def reference_dit_set(p):
    """The double loop `dit_set` replaced: a set filled block pair by block pair."""
    labels = [b.labels for b in p.blocks]
    pairs = set()
    for i, xs in enumerate(labels):
        for ys in labels[i + 1:]:
            pairs.update(itertools.product(xs, ys))
            pairs.update(itertools.product(ys, xs))
    return frozenset(pairs)


@st.composite
def partitions(draw):
    n = draw(st.integers(1, 24))
    universe = Universe(tuple(f"e{j}" for j in range(n)))
    block_of = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks = {}
    for label, b in zip(universe.labels, block_of):
        blocks.setdefault(b, []).append(label)
    return Partition.from_blocks(universe, blocks.values())


@given(partitions())
def test_dit_set_matches_double_loop(p):
    ds = dit_set(p)
    assert type(ds.pairs) is frozenset
    assert ds.pairs == reference_dit_set(p)


def test_dit_count_formula():
    for p in iter_partitions(ABCD):
        n = ABCD.size
        expected = n * n - sum(b.cardinality ** 2 for b in p.blocks)
        assert len(dit_set(p)) == expected


def test_refines_equals_dit_inclusion():
    # block-containment implementation against the dit-set oracle
    for universe in (universe_abc(), ABCD):
        parts = list(iter_partitions(universe))
        for p in parts:
            for q in parts:
                assert refines(p, q) == dit_set(p).issubset(dit_set(q))


def test_join_is_least_upper_bound():
    parts = list(iter_partitions(ABCD))
    for p, q in itertools.product(parts, repeat=2):
        j = join(p, q)
        assert refines(p, j) and refines(q, j)
        for r in parts:
            if refines(p, r) and refines(q, r):
                assert refines(j, r)


def test_logical_entropy_examples():
    u = universe_abc()
    assert logical_entropy(Partition.discrete(u)) == Fraction(2, 3)
    assert logical_entropy(Partition.indiscrete(u)) == 0
    assert logical_entropy(part(u, ["a", "b"], ["c"])) == Fraction(4, 9)


def test_logical_entropy_monotone_under_refinement():
    parts = list(iter_partitions(ABCD))
    for p in parts:
        for q in parts:
            if refines(p, q):
                assert logical_entropy(p) <= logical_entropy(q)


def test_shannon_entropy_examples():
    u = universe_abc()
    assert shannon_entropy(Partition.indiscrete(u)) == 0
    two_even = part(ABCD, ["a", "b"], ["c", "d"])
    assert abs(shannon_entropy(two_even) - 1) < 1e-12
    assert abs(shannon_entropy(Partition.discrete(ABCD)) - 2) < 1e-12


def test_block_entropy_relation():
    assert block_entropy_relation(Fraction(1)) == (0, 0)
    h, hs = block_entropy_relation(Fraction(1, 2))
    assert h == Fraction(1, 2) and abs(hs - 1) < 1e-12
    h, hs = block_entropy_relation(Fraction(1, 4))
    assert h == Fraction(3, 4) and abs(hs - 2) < 1e-12
    # h = 1 - 2^(-H) for a spread of probabilities
    for num in range(1, 8):
        h, hs = block_entropy_relation(Fraction(num, 8))
        assert abs(float(h) - (1 - 2 ** -hs)) < 1e-12


def test_block_entropy_out_of_range():
    with pytest.raises(OutOfRange):
        block_entropy_relation(Fraction(0))
    with pytest.raises(OutOfRange):
        block_entropy_relation(Fraction(3, 2))


def test_partition_validation():
    u = universe_abc()
    with pytest.raises(ValueError):
        part(u, ["a"], ["b"])  # does not cover
    with pytest.raises(ValueError):
        part(u, ["a", "b"], ["b", "c"])  # overlap


def test_blocks_canonically_ordered():
    u = universe_abc()
    p = Partition.from_blocks(u, [["c"], ["a", "b"]])
    assert [b.labels for b in p.blocks] == [("a", "b"), ("c",)]
    assert p.to_json() == [["a", "b"], ["c"]]


def test_partition_count_is_bell_number():
    sizes = {1: 1, 2: 2, 3: 5, 4: 15}
    for n, bell in sizes.items():
        universe = Universe(tuple("abcde"[:n]))
        assert sum(1 for _ in iter_partitions(universe)) == bell
