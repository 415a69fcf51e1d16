import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from setqm.errors import (
    DimMismatch,
    SetQMError,
    Singular,
    TooLarge,
    UniverseMismatch,
    UnknownLabel,
    ZeroState,
)
from setqm.gf2 import GF2Matrix
from setqm.presets import frames_ab, frames_abc, universe_abc
from setqm.space import (
    MAX_KET_TABLE_DIM,
    BasisFrame,
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
    cards = [len(row["U"]) for row in table.rows]
    assert cards == sorted(cards, reverse=True)
    assert table.rows[0]["U"] == ("a", "b", "c")
    assert table.rows[-1]["U"] == ()


def test_ket_table_dim_one():
    u = Universe(("u",))
    table = ket_table(1, [u.canonical_frame()])
    assert [row["U"] for row in table.rows] == [("u",), ()]


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
