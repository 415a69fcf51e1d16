import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setqm.entangle import (
    CounterfactualReport,
    bell_basis_frames,
    bell_violation,
    counterfactual_joint,
    is_independent,
    is_separated,
    joint,
    left_measure_prob,
    marginals,
    product_to_frame,
    right_measure_prob,
    sequential_pair_prob,
    supports,
    ProductState,
    ProductUniverse,
)
from setqm.errors import (
    DimMismatch,
    DuplicateTerms,
    ImpossibleOutcome,
    SetQMError,
    UnknownLabel,
    ZeroState,
)
from setqm.gf2 import BitVec, GF2Matrix, invert, kron, mat_apply
from setqm.presets import bell_state, other_bell_state, pair_space, universe_ab
from setqm.space import BasisFrame, SubsetKet, Universe, born

F = Fraction

# the six entangled subsets of the 2x2 product, frozen from the source list
ENTANGLED_SETS = [
    {("a", "a"), ("b", "b")},
    {("a", "b"), ("b", "a")},
    {("a", "a"), ("a", "b"), ("b", "a")},
    {("a", "a"), ("a", "b"), ("b", "b")},
    {("a", "b"), ("b", "a"), ("b", "b")},
    {("a", "a"), ("b", "a"), ("b", "b")},
]


def test_supports():
    space = pair_space()
    sx, sy = supports(bell_state())
    assert sx.labels == ("a", "b") and sy.labels == ("a", "b")
    sx, sy = supports(space.state([("a", "b")]))
    assert sx.labels == ("a",) and sy.labels == ("b",)
    full = space.state(space.pair_labels)
    sx, sy = supports(full)
    assert sx.labels == ("a", "b") and sy.labels == ("a", "b")


def test_is_separated_examples():
    space = pair_space()
    assert is_separated(space.state([("a", "a"), ("a", "b")]))  # {a} x {a,b}
    assert not is_separated(bell_state())


def test_entanglement_census():
    space = pair_space()
    separated = [s for s in space.all_states() if is_separated(s)]
    entangled = [s for s in space.all_states() if not is_separated(s)]
    assert len(separated) == 9
    assert len(entangled) == 6


def test_entangled_list_matches_source():
    space = pair_space()
    entangled = {frozenset(s.pairs) for s in space.all_states() if not is_separated(s)}
    assert entangled == {frozenset(e) for e in ENTANGLED_SETS}


def test_marginals():
    space = pair_space()
    left, right = marginals(joint(bell_state()))
    assert left == {"a": F(1, 2), "b": F(1, 2)}
    assert right == {"a": F(1, 2), "b": F(1, 2)}
    left, right = marginals(joint(space.state([("a", "a"), ("a", "b")])))
    assert left == {"a": F(1), "b": F(0)}
    assert right == {"a": F(1, 2), "b": F(1, 2)}
    left, right = marginals(joint(space.state(space.pair_labels)))
    assert left == right == {"a": F(1, 2), "b": F(1, 2)}


def test_independence_examples():
    space = pair_space()
    assert is_independent(joint(space.state([("a", "a"), ("a", "b")])))
    assert not is_independent(joint(bell_state()))


def test_separated_iff_independent_exhaustive():
    # every nonempty subset of U x U for |U| = 2 and |U| = 3
    for labels in (("a", "b"), ("a", "b", "c")):
        u = Universe(labels)
        space = ProductUniverse(u, u)
        for s in space.all_states():
            assert is_separated(s) == is_independent(joint(s))


def test_product_to_frame_examples():
    space = pair_space()
    _, u1, u2 = bell_basis_frames(universe_ab())
    single = space.state([("a", "b")])
    assert set(product_to_frame(single, u1, u1).pairs) == {("a'", "b'"), ("b'", "b'")}
    assert set(product_to_frame(single, u2, u2).pairs) == {("b''", "a''"), ("b''", "b''")}
    moved = product_to_frame(bell_state(), u1, u1)
    assert set(moved.pairs) == {("a'", "a'"), ("a'", "b'"), ("b'", "a'")}
    moved = product_to_frame(bell_state(), u2, u2)
    assert set(moved.pairs) == {("a''", "a''"), ("a''", "b''"), ("b''", "a''")}


def test_product_to_frame_identity():
    space = pair_space()
    u = universe_ab().canonical_frame()
    for s in space.all_states():
        assert set(product_to_frame(s, u, u).pairs) == set(s.pairs)


def test_separability_is_basis_independent():
    space = pair_space()
    _, u1, u2 = bell_basis_frames(universe_ab())
    for s in space.all_states():
        flag = is_separated(s)
        assert is_separated(product_to_frame(s, u1, u1)) == flag
        assert is_separated(product_to_frame(s, u2, u2)) == flag


def test_left_measure_probabilities():
    u, u1, u2 = bell_basis_frames(universe_ab())
    s = bell_state()
    assert left_measure_prob(s, u, "a") == F(1, 2)
    assert left_measure_prob(s, u1, "a'") == F(2, 3)
    assert left_measure_prob(s, u2, "a''") == F(2, 3)
    assert left_measure_prob(s, u1, "b'") == F(1, 3)
    assert left_measure_prob(s, u2, "b''") == F(1, 3)


def test_bell_state_left_right_symmetry():
    frames = bell_basis_frames(universe_ab())
    for s in (bell_state(), other_bell_state()):
        for f in frames:
            for outcome in f.labels:
                assert left_measure_prob(s, f, outcome) == right_measure_prob(s, f, outcome)


def test_counterfactual_joint():
    frames = bell_basis_frames(universe_ab())
    report = counterfactual_joint(bell_state(), frames)
    assert report.probs[("a", "a'", "a''")] == F(2, 9)
    assert sum(report.probs.values()) == 1
    assert report.lhs >= report.rhs
    assert report.satisfied


def test_counterfactual_marginals_always_satisfy_inequality():
    frames = bell_basis_frames(universe_ab())
    for s in pair_space().all_states():
        report = counterfactual_joint(s, frames)
        assert report.lhs >= report.rhs
        assert report.satisfied


def test_sequential_pair_probabilities():
    u, u1, u2 = bell_basis_frames(universe_ab())
    s = bell_state()
    assert sequential_pair_prob(s, u, "a", u1, "a'") == F(1, 4)
    assert sequential_pair_prob(s, u1, "b'", u2, "b''") == F(0)
    assert sequential_pair_prob(s, u, "a", u2, "b''") == F(1, 2)


def test_sequential_impossible_outcome():
    u, u1, _ = bell_basis_frames(universe_ab())
    space = pair_space()
    only_b = space.state([("b", "b")])
    with pytest.raises(ImpossibleOutcome):
        sequential_pair_prob(only_b, u, "a", u1, "a'")


@pytest.mark.parametrize("outcome", ["z", "a", ["a'"], None],
                         ids=["unknown", "other-frame", "list", "none"])
def test_an_outcome_outside_the_frame_has_probability_zero(outcome):
    u, u1, _ = bell_basis_frames(universe_ab())
    s = bell_state()
    assert left_measure_prob(s, u1, outcome) == right_measure_prob(s, u1, outcome) == 0
    assert sequential_pair_prob(s, u, "a", u1, outcome) == 0  # as measured, then read off
    with pytest.raises(ImpossibleOutcome):  # no left outcome to collapse to
        sequential_pair_prob(s, u1, outcome, u, "a")


def test_bell_violation_reports():
    report = bell_violation(bell_state())
    assert report.terms["(a,a')"] == F(1, 4)
    assert report.terms["(b',b'')"] == F(0)
    assert report.terms["(a,b'')"] == F(1, 2)
    assert report.lhs == F(1, 4)
    assert report.rhs == F(1, 2)
    assert report.violated

    # the swap state also violates, with its own numbers: 0 + 0 against 1/4
    other = bell_violation(other_bell_state())
    assert other.terms["(a,a')"] == F(0)
    assert other.terms["(b',b'')"] == F(0)
    assert other.terms["(a,b'')"] == F(1, 4)
    assert other.violated


def test_bell_violation_separated_state():
    space = pair_space()
    report = bell_violation(space.state([("a", "a")]))
    assert not report.violated


def test_report_json():
    data = bell_violation(bell_state()).to_json()
    assert data == {
        "terms": {"(a,a')": "1/4", "(b',b'')": "0/1", "(a,b'')": "1/2"},
        "lhs": "1/4",
        "rhs": "1/2",
        "violated": True,
    }


def test_zero_product_state():
    with pytest.raises(ZeroState):
        pair_space().state([])


# ---- the bitset ProductState against the frozenset-of-pairs algorithms it replaced

def ref_state(space, pairs):
    known = set(space.pair_labels)
    out = frozenset(pairs)
    assert out and out <= known
    return out


def ref_to_frame(space, pairs, left_frame, right_frame):
    """Kronecker change of basis on the bit vector of the pairs, back to label pairs."""
    vec = BitVec.from_indices(space.size, (space.index(p) for p in pairs))
    coords = mat_apply(kron(invert(left_frame.matrix), invert(right_frame.matrix)), vec)
    labels = ProductUniverse(left_frame.universe, right_frame.universe).pair_labels
    return frozenset(labels[j] for j in coords.indices())


def ref_marginals(space, pairs):
    left = {x: F(0) for x in space.left.labels}
    right = {y: F(0) for y in space.right.labels}
    for x, y in pairs:
        left[x] += F(1, len(pairs))
        right[y] += F(1, len(pairs))
    return left, right


def ref_sequential(space, pairs, left_frame, left_outcome, right_frame, right_outcome):
    expressed = ref_to_frame(space, pairs, left_frame, left_frame)
    kept = [pair for pair in expressed if pair[0] == left_outcome]
    if not kept:
        return None
    right_support = left_frame.universe.subset({y for _, y in kept})
    canonical = SubsetKet(space.right, mat_apply(left_frame.matrix, right_support.bits))
    return F(len(kept), len(expressed)) * born(canonical, right_frame)[right_outcome]


@st.composite
def frames_of(draw, u, name):
    """A random basis of u: the identity under random row additions."""
    rows = [1 << i for i in range(u.size)]
    for _ in range(draw(st.integers(0, 3 * u.size))):
        i, j = draw(st.integers(0, u.size - 1)), draw(st.integers(0, u.size - 1))
        if i != j:
            rows[i] ^= rows[j]
    labels = tuple(x + name for x in u.labels)
    return BasisFrame(name, labels, GF2Matrix(u.size, u.size, tuple(rows)))


@st.composite
def product_states(draw, square=False):
    left = Universe(("a", "b", "c", "d")[: draw(st.integers(2 if square else 1, 4))])
    right = left if square else Universe(("x", "y", "z", "w")[: draw(st.integers(1, 4))])
    space = ProductUniverse(left, right)
    pairs = draw(st.lists(st.sampled_from(space.pair_labels), min_size=1, max_size=20))
    return space, pairs


@given(product_states(), st.data())
def test_bitset_state_matches_pair_set(case, data):
    space, pairs = case
    s = space.state(pairs)  # duplicates must not cancel
    ref = ref_state(space, pairs)
    assert s.pairs == ref
    assert s.sorted_pairs() == tuple(p for p in space.pair_labels if p in ref)
    assert s.cardinality == len(ref)
    sx, sy = supports(s)
    assert set(sx.labels) == {x for x, _ in ref} and set(sy.labels) == {y for _, y in ref}
    assert is_separated(s) == (len(ref) == len(sx.labels) * len(sy.labels))
    d = joint(s)
    assert marginals(d) == ref_marginals(space, ref)
    assert is_independent(d) == is_separated(s)
    for pair in space.pair_labels + (("a", "q"), ("q", "x")):
        assert d.prob(pair) == (F(1, len(ref)) if pair in ref else 0)
    lf, rf = data.draw(frames_of(space.left, "'")), data.draw(frames_of(space.right, "''"))
    assert product_to_frame(s, lf, rf).pairs == ref_to_frame(space, ref, lf, rf)


@given(product_states(square=True), st.data())
def test_measurements_match_pair_set(case, data):
    space, pairs = case
    s, ref = space.state(pairs), ref_state(space, pairs)
    frames = [data.draw(frames_of(space.left, "'" * i)) for i in (1, 2, 3)]
    for f in frames:
        expressed = ref_to_frame(space, ref, f, f)
        for outcome in f.labels + ("q",):
            n = len(expressed)
            lefts = sum(x == outcome for x, _ in expressed)
            rights = sum(y == outcome for _, y in expressed)
            assert left_measure_prob(s, f, outcome) == F(lefts, n)
            assert right_measure_prob(s, f, outcome) == F(rights, n)
    f1, f2, f3 = frames
    for x, y in product(f1.labels + ("q",), f2.labels):
        want = ref_sequential(space, ref, f1, x, f2, y)
        if want is None:
            with pytest.raises(ImpossibleOutcome):
                sequential_pair_prob(s, f1, x, f2, y)
        else:
            assert sequential_pair_prob(s, f1, x, f2, y) == want
    report = bell_violation(s, frames)
    terms = [
        ref_sequential(space, ref, f1, f1.labels[0], f2, f2.labels[0]),
        ref_sequential(space, ref, f2, f2.labels[1], f3, f3.labels[1]),
        ref_sequential(space, ref, f1, f1.labels[0], f3, f3.labels[1]),
    ]
    assert list(report.terms.values()) == [t or F(0) for t in terms]


def ref_counterfactual_joint(s, frames):
    """The summing version `counterfactual_joint` replaced: marginals as sums of the joint."""
    f1, f2, f3 = frames
    p1, p2, p3 = ({o: left_measure_prob(s, f, o) for o in f.labels} for f in frames)
    probs = {
        (x, y, z): p1[x] * p2[y] * p3[z]
        for x in f1.labels
        for y in f2.labels
        for z in f3.labels
    }
    marginal_xy = {
        (x, y): sum((probs[(x, y, z)] for z in f3.labels), F(0))
        for x in f1.labels
        for y in f2.labels
    }
    marginal_yz = {
        (y, z): sum((probs[(x, y, z)] for x in f1.labels), F(0))
        for y in f2.labels
        for z in f3.labels
    }
    marginal_xz = {
        (x, z): sum((probs[(x, y, z)] for y in f2.labels), F(0))
        for x in f1.labels
        for z in f3.labels
    }
    lhs = marginal_xy[(f1.labels[0], f2.labels[0])] + marginal_yz[(f2.labels[1], f3.labels[1])]
    rhs = marginal_xz[(f1.labels[0], f3.labels[1])]
    return CounterfactualReport(
        probs, marginal_xy, marginal_yz, marginal_xz, lhs, rhs, lhs >= rhs
    )


@given(product_states(square=True), st.data())
def test_counterfactual_marginals_match_summed_joint(case, data):
    space, pairs = case
    s = space.state(pairs)
    frames = [data.draw(frames_of(space.left, "'" * i)) for i in (1, 2, 3)]
    report, ref = counterfactual_joint(s, frames), ref_counterfactual_joint(s, frames)
    assert report == ref
    for got, want in zip(
        (report.marginal_xy, report.marginal_yz, report.marginal_xz),
        (ref.marginal_xy, ref.marginal_yz, ref.marginal_xz),
    ):
        assert list(got) == list(want)
    assert report.to_json() == ref.to_json()


def test_counterfactual_joint_changes_basis_once_per_frame(monkeypatch):
    import setqm.entangle as entangle
    from setqm.presets import frames_abc

    u = Universe(("a", "b", "c"))
    s = ProductUniverse(u, u).state([("a", "a"), ("a", "c"), ("b", "b"), ("c", "a"), ("c", "b")])
    frames = frames_abc()
    want = ref_counterfactual_joint(s, frames)
    calls = []
    original = entangle.product_to_frame

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(entangle, "product_to_frame", counting)
    report = counterfactual_joint(s, frames)
    assert report == want and report.to_json() == want.to_json()
    assert len(calls) == 3


def test_state_rejects_unknown_pairs():
    assert issubclass(UnknownLabel, KeyError)
    with pytest.raises(UnknownLabel):
        pair_space().state([("a", "z")])


def test_bell_reports_need_three_frames_of_two_labels():
    u, u1, u2 = bell_basis_frames(universe_ab())
    one = Universe(("a",))
    point = ProductUniverse(one, one).state([("a", "a")])
    cases = [
        (point, (one.canonical_frame(),) * 3),
        (bell_state(), (u,)),
        (bell_state(), (u, u1, u2, u)),
    ]
    for s, frames in cases:
        for report in (bell_violation, counterfactual_joint):
            with pytest.raises(DimMismatch):
                report(s, frames)


def test_bell_reports_with_colliding_names():
    # a third frame named like the second: the report keys terms by labels, not names
    u, u1, u2 = bell_basis_frames(universe_ab())
    clash = BasisFrame(u1.name, ("q", "r"), u2.matrix)
    renamed = BasisFrame("W", ("q", "r"), u2.matrix)
    s = bell_state()
    assert counterfactual_joint(s, (u, u1, clash)) == counterfactual_joint(s, (u, u1, renamed))
    report = bell_violation(s, (u, u1, clash))
    xy = sequential_pair_prob(s, u, "a", u1, "a'")
    yz = sequential_pair_prob(s, u1, "b'", clash, "r")
    xz = sequential_pair_prob(s, u, "a", clash, "r")
    assert (report.lhs, report.rhs, report.violated) == (xy + yz, xz, xy + yz < xz)
    assert report.terms == {"(a,a')": xy, "(b',r)": yz, "(a,r)": xz}


def test_bell_rejects_terms_with_one_key():
    # the third frame's second label is the second frame's first, so (x1,y1) = (x1,z2)
    u, u1, u2 = bell_basis_frames(universe_ab())
    for name in (u1.name, "W"):
        with pytest.raises(DuplicateTerms):
            bell_violation(bell_state(), (u, u1, BasisFrame(name, ("q", "a'"), u2.matrix)))
    # (y2,z2) = (x1,z2) when the first and second frames share a label
    w = BasisFrame("W", ("p", "a"), u1.matrix)
    with pytest.raises(DuplicateTerms):
        bell_violation(bell_state(), (u, w, u2))
    assert issubclass(DuplicateTerms, SetQMError) and issubclass(DuplicateTerms, ValueError)


@settings(max_examples=30)
@given(st.integers(1, 20), st.integers(1, 20), st.data())
def test_product_to_frame_matches_the_kronecker_change_of_basis(kx, ky, data):
    space = ProductUniverse(Universe(tuple(f"x{i}" for i in range(kx))),
                            Universe(tuple(f"y{j}" for j in range(ky))))
    lf, rf = data.draw(frames_of(space.left, "'")), data.draw(frames_of(space.right, "''"))
    kron_inverse = kron(invert(lf.matrix), invert(rf.matrix))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    for bits in (1, (1 << kx * ky) - 1, 1 << rng.randrange(kx * ky), rng.getrandbits(kx * ky) | 1):
        s = ProductState(space, BitVec(kx * ky, bits))
        got = product_to_frame(s, lf, rf)
        assert got.bits == mat_apply(kron_inverse, s.bits)
        assert got.space == ProductUniverse(lf.universe, rf.universe)


def per_entry_kron_inverse(lf, rf):
    """(A (x) B)^-1 entry by entry: row (i, k), column (j, l) is A^-1[i][j] AND B^-1[k][l]."""
    a, b = invert(lf.matrix).to_lists(), invert(rf.matrix).to_lists()
    rows = [[x & y for x in a_row for y in b_row] for a_row in a for b_row in b]
    return GF2Matrix.from_rows(rows)


@settings(max_examples=40)
@given(st.integers(1, 8), st.integers(1, 8), st.data())
def test_product_to_frame_and_column_counts_match_per_entry_references(kx, ky, data):
    space = ProductUniverse(Universe(tuple(f"x{i}" for i in range(kx))),
                            Universe(tuple(f"y{j}" for j in range(ky))))
    lf, rf = data.draw(frames_of(space.left, "'")), data.draw(frames_of(space.right, "''"))
    want_matrix = per_entry_kron_inverse(lf, rf)
    assert kron(invert(lf.matrix), invert(rf.matrix)) == want_matrix
    bits = data.draw(st.integers(1, (1 << kx * ky) - 1))
    s = ProductState(space, BitVec(kx * ky, bits))
    assert product_to_frame(s, lf, rf).bits == mat_apply(want_matrix, s.bits)
    # the right marginal counts the pairs of each right label: the stride-|Y| columns
    counts = {y: sum(1 for _, z in s.sorted_pairs() if z == y) for y in space.right.labels}
    assert marginals(joint(s))[1] == {y: F(c, s.cardinality) for y, c in counts.items()}
