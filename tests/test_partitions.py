import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setqm.density import entropy_increase, rho_of_partition
from setqm.errors import InvalidBlocks, OutOfRange, ShapeMismatch, UniverseMismatch
from setqm.partitions import (
    DitSet,
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
    ref = reference_dit_set(p)
    assert ds.pairs == ref
    assert ref == ds.pairs
    assert len(ds) == len(ref)
    assert hash(ds.pairs) == hash(ref)
    assert hash(ds) == hash(DitSet(ref)) and ds == DitSet(ref)
    labels = p.universe.labels
    for pair in itertools.product(labels + ("outside",), repeat=2):
        assert (pair in ds) == (pair in ref)


def test_dit_set_operators_match_stored_pairs():
    # the view's &, |, - and ^ build plain sets of pairs, from either side
    for p, q in itertools.product(list(iter_partitions(ABCD)), repeat=2):
        a, b = dit_set(p).pairs, dit_set(q).pairs
        ra, rb = reference_dit_set(p), reference_dit_set(q)
        assert a & b == ra & rb and a | b == ra | rb
        assert a - b == ra - rb and a ^ b == ra ^ rb
        assert a & rb == ra & b == ra & rb and a - rb == ra - b == ra - rb
        assert len(a | b) == len(ra | rb) and all(pair in a | b for pair in ra)


def test_dit_set_repr_depends_only_on_the_partition():
    u = Universe(tuple(f"e{j}" for j in range(6)))
    p = Partition(u, (0b000011, 0b111100))
    assert repr(dit_set(p)) == repr(dit_set(Partition(u, (0b111100, 0b000011))))
    assert repr(dit_set(p)) != repr(dit_set(Partition.discrete(u)))
    assert "0x" not in repr(dit_set(p))


def test_dit_set_of_a_large_discrete_partition_stores_no_pairs():
    n = 4096
    start = time.perf_counter()
    ds = dit_set(Partition.discrete(Universe(tuple(f"e{j}" for j in range(n)))))
    assert len(ds) == n * n - n
    assert ("e0", "e1") in ds
    assert ("e0", "e0") not in ds and ("e0", "x") not in ds and "e0" not in ds
    assert time.perf_counter() - start < 1.0


def test_refinement_of_a_large_discrete_partition_is_linear():
    # pairwise, each call compares 4096 x 4096 blocks (seconds); by least element, 4096
    p = Partition.discrete(Universe(tuple(f"e{j}" for j in range(4096))))
    rho = rho_of_partition(p)
    start = time.perf_counter()
    assert refines(p, p)
    assert time.perf_counter() - start < 0.5
    start = time.perf_counter()
    assert entropy_increase(rho, rho) == 0
    assert time.perf_counter() - start < 0.5


def test_dit_count_formula():
    for p in iter_partitions(ABCD):
        n = ABCD.size
        expected = n * n - sum(b.cardinality ** 2 for b in p.blocks)
        assert len(dit_set(p)) == expected


def random_partition(rng, universe):
    blocks = {}
    for x in universe.labels:
        blocks.setdefault(rng.randrange(universe.size), []).append(x)
    return Partition.from_blocks(universe, blocks.values())


def test_refines_equals_dit_inclusion():
    # block containment and dit-set inclusion against the stored-pair oracle:
    # every pair of partitions of up to 4 elements, then random partitions of
    # up to 24 elements, each also against its join with the other
    cases = [pq for universe in (universe_abc(), ABCD)
             for pq in itertools.product(list(iter_partitions(universe)), repeat=2)]
    rng = random.Random(0)
    for n in (8, 16, 24):
        u = Universe(tuple(f"e{j}" for j in range(n)))
        for _ in range(10):
            p, q = random_partition(rng, u), random_partition(rng, u)
            cases += [(p, q), (p, join(p, q)), (join(p, q), p), (p, p)]
    for p, q in cases:
        rp, rq = reference_dit_set(p), reference_dit_set(q)
        assert refines(p, q) == (rp <= rq)
        assert dit_set(p).issubset(dit_set(q)) == (rp <= rq)
        assert DitSet(rp).issubset(dit_set(q)) == dit_set(p).issubset(DitSet(rq)) == (rp <= rq)
        assert (dit_set(p).pairs >= dit_set(q).pairs) == (rp >= rq)
        assert (dit_set(p) == dit_set(q)) == (rp == rq)


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


# ---- Partition on block masks against a frozenset-of-label-sets reference

def ref_of(p):
    return frozenset(frozenset(b.labels) for b in p.blocks)


def ref_ordered(universe, blocks):
    """Blocks as label tuples in universe order, ordered by least element."""
    return sorted(
        (tuple(x for x in universe.labels if x in b) for b in blocks),
        key=lambda labels: universe.index(labels[0]),
    )


def ref_join(p, q):
    return frozenset(b & c for b in p for c in q if b & c)


def ref_refines(coarse, fine):
    return all(any(b <= c for c in coarse) for b in fine)


def ref_logical_entropy(blocks, n):
    return 1 - sum((Fraction(len(b), n) ** 2 for b in blocks), Fraction(0))


def ref_shannon_entropy(universe, blocks):
    n = universe.size
    return sum(len(b) / n * math.log2(n / len(b)) for b in ref_ordered(universe, blocks))


def ref_str(universe, blocks):
    return "|".join("{" + ",".join(b) + "}" for b in ref_ordered(universe, blocks))


@st.composite
def label_set_partitions(draw, universe):
    """A partition of `universe` as a frozenset of frozensets of labels."""
    block_of = draw(st.lists(st.integers(0, universe.size - 1),
                             min_size=universe.size, max_size=universe.size))
    blocks = {}
    for label, b in zip(universe.labels, block_of):
        blocks.setdefault(b, set()).add(label)
    return frozenset(map(frozenset, blocks.values()))


@st.composite
def small_universes(draw):
    return Universe(tuple(f"e{j}" for j in range(draw(st.integers(1, 12)))))


@given(st.data())
def test_partition_operations_match_label_sets(data):
    u = data.draw(small_universes())
    rp, rq = data.draw(label_set_partitions(u)), data.draw(label_set_partitions(u))
    p, q = Partition.from_blocks(u, rp), Partition.from_blocks(u, rq)
    assert ref_of(p) == rp and ref_of(q) == rq
    assert ref_of(join(p, q)) == ref_join(rp, rq)
    assert refines(p, q) == ref_refines(rp, rq)
    assert refines(q, p) == ref_refines(rq, rp)
    assert logical_entropy(p) == ref_logical_entropy(rp, u.size)
    assert shannon_entropy(p) == ref_shannon_entropy(u, rp)
    assert p.to_json() == [list(b) for b in ref_ordered(u, rp)]
    assert str(p) == ref_str(u, rp)
    shuffled = Partition(u, p.masks[::-1])
    assert shuffled == p and hash(shuffled) == hash(p) and shuffled.masks == p.masks
    assert len(p.blocks) == len(p.masks)
    for block, mask in zip(p.blocks, p.masks):
        assert block.universe == u and block.bits.bits == mask


def brute_force_partitions(universe):
    """Every block assignment of the labels, collapsed to its set of label sets."""
    n = universe.size
    found = set()
    for assign in itertools.product(range(n), repeat=n):
        blocks = {}
        for label, b in zip(universe.labels, assign):
            blocks.setdefault(b, set()).add(label)
        found.add(frozenset(map(frozenset, blocks.values())))
    return found


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_iter_partitions_matches_brute_force(n):
    u = Universe(tuple("abcde"[:n]))
    parts = [ref_of(p) for p in iter_partitions(u)]
    assert len(parts) == len(set(parts))
    assert set(parts) == brute_force_partitions(u)


@given(st.data())
def test_invalid_masks_are_rejected(data):
    u = data.draw(small_universes())
    n = u.size
    p = Partition.from_blocks(u, data.draw(label_set_partitions(u)))
    masks = p.masks
    j = data.draw(st.integers(0, n - 1))
    k = data.draw(st.integers(0, len(masks) - 1))
    with pytest.raises(InvalidBlocks):
        Partition(u, masks + (0,))  # an empty block
    with pytest.raises(InvalidBlocks):
        Partition(u, masks + (1 << j,))  # overlap
    with pytest.raises(InvalidBlocks):
        Partition(u, masks[:k] + masks[k + 1:])  # does not cover
    with pytest.raises(ShapeMismatch):
        Partition(u, masks + (1 << data.draw(st.integers(n, n + 8)),))
    with pytest.raises(ShapeMismatch):
        Partition(u, masks[:k] + (masks[k] | 1 << n,) + masks[k + 1:])
    with pytest.raises(ShapeMismatch):
        Partition(u, masks + (-1,))


# ---- refinement by least element against the pairwise comparison it replaced

def pairwise_refines(coarse, fine):
    """Every fine block against every coarse block: the reference for `refines`."""
    return all(any(b & ~c == 0 for c in coarse.masks) for b in fine.masks)


@st.composite
def partition_pairs(draw):
    """Two partitions of up to 64 elements: the second often refines the first, coarsens
    it, or misses refining it by one moved element."""
    n = draw(st.integers(1, 64))
    u = Universe(tuple(f"e{j}" for j in range(n)))

    def assigned(k):
        return Partition.from_blocks(u, _blocks_of(u, draw(
            st.lists(st.integers(0, k - 1), min_size=n, max_size=n))))

    p = assigned(draw(st.integers(1, n)))
    kind = draw(st.sampled_from(("finer", "coarser", "moved", "same", "random")))
    if kind == "finer":
        q = join(p, assigned(draw(st.integers(1, n))))
    elif kind == "coarser":
        merge = draw(st.lists(st.integers(0, 2), min_size=len(p.masks), max_size=len(p.masks)))
        merged = {}
        for m, k in zip(p.masks, merge):
            merged[k] = merged.get(k, 0) | m
        q = Partition(u, tuple(merged.values()))
    elif kind == "moved":
        # one element leaves its block of a refinement of p for another block
        fine = list(join(p, assigned(draw(st.integers(1, n)))).masks)
        j = draw(st.integers(0, n - 1))
        src = next(k for k, m in enumerate(fine) if m >> j & 1)
        dst = draw(st.integers(0, len(fine) - 1))
        fine[src] ^= 1 << j
        fine[dst] |= 1 << j
        q = Partition(u, tuple(m for m in fine if m))
    elif kind == "same":
        q = p
    else:
        q = assigned(draw(st.integers(1, n)))
    return p, q


def _blocks_of(universe, block_of):
    blocks = {}
    for label, b in zip(universe.labels, block_of):
        blocks.setdefault(b, []).append(label)
    return blocks.values()


@settings(max_examples=300)
@given(partition_pairs())
def test_refines_matches_pairwise_comparison(pq):
    p, q = pq
    assert refines(p, q) == pairwise_refines(p, q)
    assert refines(q, p) == pairwise_refines(q, p)
    assert refines(p, p) and refines(q, q)


@settings(max_examples=200)
@given(partition_pairs())
def test_join_matches_the_public_constructor(pq):
    p, q = pq
    joined = join(p, q)
    public = Partition(p.universe, tuple(b & c for b in p.masks for c in q.masks if b & c))
    assert vars(joined).keys() == vars(public).keys() == {"universe", "masks"}
    assert joined == public and hash(joined) == hash(public)
    assert joined.masks == public.masks and joined.blocks == public.blocks
    assert [hash(b) for b in joined.blocks] == [hash(b) for b in public.blocks]


def test_blocks_are_built_once_on_first_read():
    u = Universe(tuple("abcde"))
    joined = join(part(u, ["a", "b", "c"], ["d", "e"]), part(u, ["a", "d"], ["b", "c", "e"]))
    assert "blocks" not in vars(joined)
    blocks = joined.blocks
    assert [b.labels for b in blocks] == [("a",), ("b", "c"), ("d",), ("e",)]
    assert joined.blocks is blocks
