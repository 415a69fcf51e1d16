import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setqm.errors import (
    DimMismatch,
    InvalidArgument,
    SetQMError,
    Singular,
    TooLarge,
    UniverseMismatch,
    UnknownLabel,
    ZeroState,
)
from setqm.gf2 import BitVec, GF2Matrix, invert, mat_apply
from setqm.partitions import Partition
from setqm.presets import frames_ab, frames_abc, universe_abc
from setqm.space import (
    MAX_KET_TABLE_DIM,
    BasisFrame,
    SubsetKet,
    Universe,
    born,
    bracket,
    from_basis,
    ket_table,
    norm_sq,
    resolve,
    to_basis,
)

# the eight rows of the three-element ket table, frozen from the source table
KET_TABLE_3 = {
    ("a", "b", "c"): (("a''", "b''", "c''"), ("c'",)),
    ("a", "b"): (("b''",), ("a'",)),
    ("b", "c"): (("b''", "c''"), ("b'",)),
    ("a", "c"): (("c''",), ("a'", "b'")),
    ("a",): (("a''",), ("b'", "c'")),
    ("b",): (("a''", "b''"), ("a'", "b'", "c'")),
    ("c",): (("a''", "c''"), ("a'", "c'")),
    (): ((), ()),
}


def test_bracket_counts_overlap():
    u = universe_abc()
    assert bracket(u.subset(["a", "b"]), u.subset(["a", "c"])) == 1
    assert bracket(u.empty(), u.subset(["a", "b"])) == 0
    for x in u.labels:
        for y in u.labels:
            assert bracket(u.singleton(x), u.singleton(y)) == (1 if x == y else 0)


def test_subset_names_each_element_once():
    u = universe_abc()
    assert u.subset(["a", "a"]) == u.singleton("a")
    assert u.subset(["a", "b", "a", "b", "c"]) == u.full()
    assert bracket(u.subset(["a", "a"]), u.subset(["a"])) == 1


def test_bracket_universe_mismatch():
    u = universe_abc()
    other = Universe(("x", "y", "z"))
    with pytest.raises(UniverseMismatch):
        bracket(u.subset(["a"]), other.subset(["x"]))


def test_norm_sq():
    u = universe_abc()
    # {a'} = {a,b} has squared norm 2
    assert norm_sq(u.subset(["a", "b"])) == 2
    assert norm_sq(u.empty()) == 0
    assert norm_sq(u.full()) == 3


def test_to_basis_matches_table():
    u0, u1, u2 = frames_abc()
    universe = universe_abc()
    for labels, (in_u2, in_u1) in KET_TABLE_3.items():
        ket = universe.subset(labels)
        assert to_basis(ket, u2).labels == in_u2
        assert to_basis(ket, u1).labels == in_u1
        assert to_basis(ket, u0).labels == labels


def test_to_basis_round_trip_and_bijection():
    universe = universe_abc()
    for frame in frames_abc():
        seen = set()
        for ket in universe.all_subsets():
            converted = to_basis(ket, frame)
            seen.add(converted.bits.bits)
            assert from_basis(converted, frame, universe) == ket
        assert len(seen) == 8


def test_invalid_frame_is_singular():
    with pytest.raises(Singular):
        BasisFrame("bad", ("p", "q"), GF2Matrix.from_rows([[1, 1], [1, 1]]))


def test_born_uniform_on_state():
    universe = universe_abc()
    u0, _, u2 = frames_abc()
    s = universe.subset(["a", "b"])
    assert born(s, u0) == {
        "a": Fraction(1, 2),
        "b": Fraction(1, 2),
        "c": Fraction(0),
    }
    # the same ket is {b''}, so a'' never comes up in the double-primed basis
    assert born(s, u2)["a''"] == 0
    assert born(s, u2)["b''"] == 1


def test_born_singleton_in_own_frame():
    universe = universe_abc()
    assert born(universe.singleton("b"), universe.canonical_frame())["b"] == 1


def test_born_zero_state():
    universe = universe_abc()
    with pytest.raises(ZeroState):
        born(universe.empty(), universe.canonical_frame())


def test_born_sums_to_one_everywhere():
    universe = universe_abc()
    for frame in frames_abc():
        for ket in universe.all_subsets():
            if ket.is_zero:
                continue
            assert sum(born(ket, frame).values()) == 1


def test_resolve_reconstructs():
    u = universe_abc()
    assert [k.labels for k in resolve(u.subset(["a", "c"]))] == [("a",), ("c",)]
    assert resolve(u.empty()) == []
    big = Universe(("a", "b", "c", "d"))
    for ket in big.all_subsets():
        total = big.empty()
        for part in resolve(ket):
            total = total + part
        assert total == ket


def test_resolution_identity():
    # <T|S> equals the sum over u of <T|{u}><{u}|S>
    universe = universe_abc()
    for t in universe.all_subsets():
        for s in universe.all_subsets():
            total = sum(
                bracket(t, universe.singleton(x)) * bracket(universe.singleton(x), s)
                for x in universe.labels
            )
            assert bracket(t, s) == total


def test_pythagoras():
    universe = universe_abc()
    for s in universe.all_subsets():
        assert norm_sq(s) == sum(
            bracket(universe.singleton(x), s) ** 2 for x in universe.labels
        )


def test_contextuality_values():
    # the same abstract ket measured in two frames gives different chances
    universe = universe_abc()
    u0, _, u2 = frames_abc()
    s = universe.subset(["a", "b"])
    assert born(s, u0)["a"] == Fraction(1, 2)
    assert born(s, u2)["a''"] == 0  # and {a} = {a''}


def test_ket_table_contents():
    u0, u1, u2 = frames_abc()
    table = ket_table(3, [u0, u1, u2])
    assert len(table.rows) == 8
    for labels, (in_u2, in_u1) in KET_TABLE_3.items():
        row = table.row_for("U", labels)
        assert row["U'"] == in_u1
        assert row["U''"] == in_u2


def test_ket_table_ordering():
    u0, u1, u2 = frames_abc()
    table = ket_table(3, [u0, u1, u2])
    order = [row["U"] for row in table.to_json()]
    assert order == [["a", "b", "c"], ["a", "b"], ["a", "c"], ["b", "c"], ["a"], ["b"], ["c"], []]
    assert table.row_for("U", ("a", "b", "c")) == {
        "U": ("a", "b", "c"), "U'": ("c'",), "U''": ("a''", "b''", "c''")}
    assert table.row_for("U", ())["U'"] == ()


def test_ket_table_dim_one():
    u = Universe(("u",))
    table = ket_table(1, [u.canonical_frame()])
    assert [row["U"] for row in table.to_json()] == [["u"], []]
    assert table.row_for("U", ["u"]) == {"U": ("u",)}


def test_ket_table_rows_are_masks_in_frame_order():
    u0, u1, u2 = frames_abc()
    table = ket_table(3, [u0, u1, u2])
    assert table.rows[0] == (0b111, 0b100, 0b111)
    for row, labelled in zip(table.rows, table.to_json()):
        for f, mask in zip(table.frames, row):
            assert isinstance(mask, int) and f.universe._mask(labelled[f.name]) == mask


def test_row_for_matches_the_exact_label_tuple():
    table = ket_table(2, frames_ab())
    assert table.row_for("U", ("a", "b"))["U"] == ("a", "b")
    with pytest.raises(UnknownLabel):
        table.row_for("U", ("b", "a"))


def test_ket_table_dim_mismatch():
    u0, _, _ = frames_abc()
    with pytest.raises(DimMismatch):
        ket_table(2, [u0])


def test_ket_table_is_bounded():
    for dim in (MAX_KET_TABLE_DIM + 1, 40):
        frame = Universe(tuple(f"e{j}" for j in range(dim))).canonical_frame()
        start = time.perf_counter()
        with pytest.raises(TooLarge):
            ket_table(dim, [frame])
        assert time.perf_counter() - start < 1
    with pytest.raises(SetQMError):
        ket_table(2, [])
    assert issubclass(TooLarge, SetQMError) and issubclass(TooLarge, ValueError)


def test_ket_table_json_roundtrip():
    u0, u1, u2 = frames_abc()
    table = ket_table(3, [u0, u1, u2])
    data = table.to_json()
    assert data[0] == {"U": ["a", "b", "c"], "U'": ["c'"], "U''": ["a''", "b''", "c''"]}


def test_row_for_unknown_row():
    table = ket_table(2, frames_ab())
    for frame_name, labels in (("U", ["z"]), ("Z", ["a"])):
        with pytest.raises(UnknownLabel):
            table.row_for(frame_name, labels)
    assert issubclass(UnknownLabel, KeyError)


def test_frame_rejects_repeated_labels():
    with pytest.raises(ValueError):
        BasisFrame("bad", ("p", "p"), GF2Matrix.identity(2))


def test_universe_from_a_list_equals_the_tuple_one():
    from_list, from_tuple = Universe(["a", "b"]), Universe(("a", "b"))
    assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
    assert from_list.labels == ("a", "b")
    assert bracket(from_list.subset(["a", "b"]), from_tuple.subset(["b"])) == 1
    assert hash(Partition.discrete(from_list)) == hash(Partition.discrete(from_tuple))
    assert Universe("ab") == from_tuple


def test_frame_from_a_list_equals_and_hashes_like_the_tuple_one():
    m = GF2Matrix.from_rows([[1, 1], [0, 1]])
    from_list, from_tuple = BasisFrame("F", ["a", "b"], m), BasisFrame("F", ("a", "b"), m)
    assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
    assert from_list.labels == ("a", "b")
    assert BasisFrame("F", iter(["a", "b"]), m) == from_tuple
    with pytest.raises(InvalidArgument):
        BasisFrame("F", 3, m)


def test_unhashable_label_lookup_is_unknown_label():
    u = Universe(("a", "b"))
    for label in (["a"], {"a": 1}):
        with pytest.raises(UnknownLabel):
            u.index(label)
        with pytest.raises(UnknownLabel):
            u.subset([label])


@given(st.integers(1, 70), st.data())
def test_labels_and_mask_are_inverses(n, data):
    u = Universe(tuple(f"e{j}" for j in range(n)))
    mask = data.draw(st.integers(0, (1 << n) - 1))
    labels = u._labels(mask)
    assert u._mask(labels) == mask
    assert labels == tuple(x for j, x in enumerate(u.labels) if mask >> j & 1)
    chosen = data.draw(st.lists(st.sampled_from(u.labels)))
    assert set(u._labels(u._mask(chosen))) == set(chosen)


# ---- the position map against the tuple.index walks it replaced

LABELS = tuple("abcdefghij")


@st.composite
def frames(draw):
    """A random basis of a random universe: the identity under random row additions."""
    n = draw(st.integers(1, len(LABELS)))
    rows = [1 << i for i in range(n)]
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            rows[i] ^= rows[j]
    labels = draw(st.permutations(LABELS))[:n]
    return BasisFrame("F", tuple(x + "'" for x in labels), GF2Matrix(n, n, tuple(rows)))


@given(frames(), st.data())
def test_positions_match_tuple_index(frame, data):
    u = Universe(tuple(x[:-1] for x in frame.labels))
    for x in u.labels:
        assert u.index(x) == u.labels.index(x)
    with pytest.raises(UnknownLabel):
        u.index("z")
    chosen = data.draw(st.lists(st.sampled_from(u.labels), unique=True))
    s = u.subset(chosen)
    assert s.labels == tuple(x for x in u.labels if x in chosen)
    assert all((x in s) == (x in chosen) for x in u.labels)
    assert frame.universe == Universe(frame.labels)
    for j, x in enumerate(frame.labels):
        assert frame.basis_ket(x, u).bits == frame.matrix.column(j)
    if s.is_zero:
        with pytest.raises(ZeroState):
            born(s, frame)
    else:
        converted = to_basis(s, frame).labels
        assert born(s, frame) == {
            x: Fraction(1, len(converted)) if x in converted else Fraction(0)
            for x in frame.labels
        }


# ---- row sums of the kept singleton expansions against the eliminated inverse they replaced


def random_frame(name, n, rng):
    """A basis of n elements: the identity under 3n random row additions, rows shuffled."""
    rows = [1 << i for i in range(n)]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        rows[i] ^= rows[j]
    rng.shuffle(rows)
    return BasisFrame(name, tuple(f"{name}{j}" for j in range(n)), GF2Matrix(n, n, tuple(rows)))


def reference_coords(frame, bits):
    """The frame coordinates as computed before: F^-1, by elimination, applied to the ket."""
    return mat_apply(invert(frame.matrix), BitVec(frame.dim, bits)).bits


@settings(max_examples=30)
@given(st.one_of(st.integers(1, 300), st.sampled_from([63, 64, 65, 128, 256])),
       st.integers(0, 2**32 - 1))
def test_to_basis_and_born_match_the_eliminated_inverse(n, seed):
    rng = random.Random(seed)
    frame = random_frame("F", n, rng)
    u = Universe(tuple(f"e{j}" for j in range(n)))
    for bits in (0, (1 << n) - 1, 1 << rng.randrange(n), rng.getrandbits(n)):
        s = SubsetKet(u, BitVec(n, bits))
        want = reference_coords(frame, bits)
        got = to_basis(s, frame)
        assert got.bits == BitVec(n, want) and got.universe == frame.universe
        if not bits:
            with pytest.raises(ZeroState):
                born(s, frame)
            continue
        p = Fraction(1, want.bit_count())
        assert born(s, frame) == {x: p if want >> j & 1 else 0 for j, x in enumerate(frame.labels)}


@settings(max_examples=20)
@given(st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_ket_table_rows_match_the_eliminated_inverses(dim, seed):
    rng = random.Random(seed)
    canonical = Universe(tuple(f"e{j}" for j in range(dim))).canonical_frame()
    frames = [canonical, random_frame("A", dim, rng), random_frame("B", dim, rng)]
    table = ket_table(dim, frames)
    assert sorted(row[0] for row in table.rows) == list(range(1 << dim))
    for row in table.rows:
        assert row == tuple(reference_coords(f, row[0]) for f in frames)
