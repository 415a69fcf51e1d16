import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from setqm.attributes import (
    Attribute,
    eigenkets,
    inverse_image_partition,
    is_compatible,
    is_complete,
    measure,
    measure_given,
    measure_probs,
    project,
    spectral_apply,
)
from setqm.errors import (
    ImpossibleOutcome,
    IncompatibleAttributes,
    InvalidArgument,
    NotComplete,
    UniverseMismatch,
    UnknownLabel,
    ZeroState,
)
from setqm.gf2 import BitVec
from setqm.partitions import Partition, join
from setqm.presets import universe_abc
from setqm.space import SubsetKet, Universe


def ordinal(universe):
    return Attribute.from_values(universe, {x: i + 1 for i, x in enumerate(universe.labels)})


def test_attribute_values_must_be_rationals():
    u = universe_abc()
    for values in (("x", "y", 0.5), ([1], [2], [3]), (1, None, 2), (1, "1/0", 2),
                   (1, float("inf"), 2), (1, float("nan"), 2)):
        with pytest.raises(InvalidArgument, match="is not a rational"):
            Attribute(u, values)
    with pytest.raises(InvalidArgument):
        Attribute.from_values(u, {"a": 1, "b": "two", "c": 3})
    f = Attribute(u, (1, "1/2", 0.5))
    assert f.values == (Fraction(1), Fraction(1, 2), Fraction(1, 2))
    assert inverse_image_partition(f) == Partition.from_blocks(u, [["a"], ["b", "c"]])


def test_inverse_image_partition():
    u = universe_abc()
    assert inverse_image_partition(ordinal(u)) == Partition.discrete(u)
    constant = Attribute.from_values(u, {x: 7 for x in u.labels})
    assert inverse_image_partition(constant) == Partition.indiscrete(u)
    chi_bc = Attribute.indicator(u, ["b", "c"])
    assert inverse_image_partition(chi_bc) == Partition.from_blocks(u, [["a"], ["b", "c"]])


def test_project():
    u = universe_abc()
    f = ordinal(u)
    s = u.full()
    assert project(f, 3, s).labels == ("c",)
    assert project(f, 9, s).is_zero
    once = project(f, 3, s)
    assert project(f, 3, once) == once  # idempotent


def test_project_universe_mismatch():
    u = universe_abc()
    with pytest.raises(UniverseMismatch):
        project(ordinal(u), 1, Universe(("x", "y", "z")).subset(["x"]))


def test_measure_probs_examples():
    u = universe_abc()
    s = u.full()
    assert measure_probs(ordinal(u), s) == {
        Fraction(1): Fraction(1, 3),
        Fraction(2): Fraction(1, 3),
        Fraction(3): Fraction(1, 3),
    }
    chi_bc = Attribute.indicator(u, ["b", "c"])
    assert measure_probs(chi_bc, s) == {Fraction(0): Fraction(1, 3), Fraction(1): Fraction(2, 3)}
    chi_ab = Attribute.indicator(u, ["a", "b"])
    assert measure_probs(chi_ab, u.subset(["b", "c"])) == {
        Fraction(0): Fraction(1, 2),
        Fraction(1): Fraction(1, 2),
    }


def test_measure_probs_zero_state():
    u = universe_abc()
    with pytest.raises(ZeroState):
        measure_probs(ordinal(u), u.empty())


def test_measure_given_collapse():
    u = universe_abc()
    out = measure_given(ordinal(u), u.full(), 3)
    assert out.post_state.labels == ("c",)
    assert out.probability == Fraction(1, 3)
    chi_ab = Attribute.indicator(u, ["a", "b"])
    out = measure_given(chi_ab, u.subset(["b", "c"]), 0)
    assert out.post_state.labels == ("c",)
    assert out.probability == Fraction(1, 2)


def test_measure_given_impossible():
    u = universe_abc()
    with pytest.raises(ImpossibleOutcome):
        measure_given(ordinal(u), u.subset(["a"]), 3)


def test_repeated_measurement_is_stable():
    u = universe_abc()
    chi_bc = Attribute.indicator(u, ["b", "c"])
    rng = random.Random(1)
    first = measure(chi_bc, u.full(), rng)
    second = measure(chi_bc, first.post_state, rng)
    assert second.eigenvalue == first.eigenvalue
    assert second.post_state == first.post_state
    assert second.probability == 1


def test_degenerate_measurement_chain():
    # chi_bc then chi_ab walks {a,b,c} -> {b,c} -> {c}
    u = universe_abc()
    chi_bc = Attribute.indicator(u, ["b", "c"])
    chi_ab = Attribute.indicator(u, ["a", "b"])
    step1 = measure_given(chi_bc, u.full(), 1)
    assert step1.post_state.labels == ("b", "c")
    step2 = measure_given(chi_ab, step1.post_state, 0)
    assert step2.post_state.labels == ("c",)
    assert eigenkets([chi_bc, chi_ab])["c"] == (1, 0)


def test_compatibility():
    u = universe_abc()
    chi_bc = Attribute.indicator(u, ["b", "c"])
    chi_ab = Attribute.indicator(u, ["a", "b"])
    assert is_compatible(chi_bc, chi_ab)
    assert is_compatible(chi_bc, chi_bc)
    primed = Attribute.indicator(Universe(("a'", "b'", "c'")), ["a'"])
    assert not is_compatible(chi_bc, primed)


def test_completeness():
    u = universe_abc()
    chi_bc = Attribute.indicator(u, ["b", "c"])
    chi_ab = Attribute.indicator(u, ["a", "b"])
    assert is_complete([chi_bc, chi_ab])
    assert not is_complete([chi_bc])
    assert is_complete([ordinal(u)])


def test_completeness_incompatible():
    u = universe_abc()
    primed = Attribute.indicator(Universe(("a'", "b'", "c'")), ["a'"])
    with pytest.raises(IncompatibleAttributes):
        is_complete([ordinal(u), primed])


def test_eigenkets():
    u = universe_abc()
    chi_bc = Attribute.indicator(u, ["b", "c"])
    chi_ab = Attribute.indicator(u, ["a", "b"])
    assert eigenkets([chi_bc, chi_ab]) == {
        "a": (0, 1),
        "b": (1, 1),
        "c": (1, 0),
    }
    assert eigenkets([ordinal(u)]) == {"a": (1,), "b": (2,), "c": (3,)}
    with pytest.raises(NotComplete):
        eigenkets([chi_bc])


def test_eigenkets_distinct_whenever_complete():
    u = universe_abc()
    families = [
        [Attribute.indicator(u, ["b", "c"]), Attribute.indicator(u, ["a", "b"])],
        [Attribute.indicator(u, ["b", "c"]), Attribute.indicator(u, ["b"])],
        [ordinal(u)],
    ]
    for fam in families:
        if is_complete(fam):
            kets = eigenkets(fam)
            assert len(set(kets.values())) == u.size


def test_spectral_apply():
    u = universe_abc()
    f = ordinal(u)
    assert [(r, s.labels) for r, s in spectral_apply(f, u.subset(["a", "c"]))] == [
        (1, ("a",)),
        (3, ("c",)),
    ]
    constant = Attribute.from_values(u, {x: Fraction(5, 2) for x in u.labels})
    assert spectral_apply(constant, u.subset(["a", "b"])) == [
        (Fraction(5, 2), u.subset(["a", "b"]))
    ]


def test_spectral_completeness_and_orthogonality():
    u = universe_abc()
    chi_bc = Attribute.indicator(u, ["b", "c"])
    for s in u.all_subsets():
        total = u.empty()
        for _, component in spectral_apply(chi_bc, s):
            total = total + component
        assert total == s
    # distinct level sets project disjointly
    f = ordinal(u)
    for s in u.all_subsets():
        for r in f.spectrum():
            for r2 in f.spectrum():
                if r != r2:
                    assert project(f, r, s).intersect(project(f, r2, s)).is_zero


def test_projection_cardinalities_sum():
    u = universe_abc()
    chi_bc = Attribute.indicator(u, ["b", "c"])
    for s in u.all_subsets():
        assert sum(project(chi_bc, r, s).cardinality for r in chi_bc.spectrum()) == s.cardinality


def test_measure_matches_probabilities_statistically():
    u = universe_abc()
    chi_bc = Attribute.indicator(u, ["b", "c"])
    s = u.full()
    rng = random.Random(42)
    trials = 10_000
    counts = {}
    for _ in range(trials):
        out = measure(chi_bc, s, rng)
        counts[out.eigenvalue] = counts.get(out.eigenvalue, 0) + 1
    for r, p in measure_probs(chi_bc, s).items():
        expected = trials * float(p)
        sigma = math.sqrt(trials * float(p) * (1 - float(p)))
        assert abs(counts.get(r, 0) - expected) <= 5 * sigma


def test_attribute_json():
    u = universe_abc()
    f = Attribute.from_values(u, {"a": Fraction(1, 2), "b": 2, "c": "3/4"})
    assert f.to_json() == {"a": "1/2", "b": "2/1", "c": "3/4"}


def test_indicator_rejects_unknown_labels():
    u = universe_abc()
    with pytest.raises(UnknownLabel):
        Attribute.indicator(u, ["z"])
    assert Attribute.indicator(u, ["c", "a", "c"]).values == (1, 0, 1)  # repeats do not cancel


# ---- level masks against the per-eigenvalue label walks they replaced

LABELS = tuple("abcdefg")
# equal values in different forms (2, F(2), F(4, 2)) must land in one level
VALUES = (0, 1, 2, -1, Fraction(1, 2), Fraction(-3), Fraction(2), Fraction(4, 2))
ABSENT = Fraction(99)


def ref_spectrum(f):
    return tuple(sorted(set(f.values)))


def ref_level_labels(f, r):
    r = Fraction(r)
    return tuple(x for x, v in zip(f.universe.labels, f.values) if v == r)


def ref_project_labels(f, r, s):
    return tuple(x for x in ref_level_labels(f, r) if x in s.labels)


def ref_partition(f):
    return Partition.from_blocks(f.universe, [ref_level_labels(f, r) for r in ref_spectrum(f)])


def ref_is_complete(fs):
    joined = ref_partition(fs[0])
    for g in fs[1:]:
        joined = join(joined, ref_partition(g))
    return all(b.cardinality == 1 for b in joined.blocks)


@st.composite
def universes(draw):
    return Universe(LABELS[: draw(st.integers(1, len(LABELS)))])


@st.composite
def attributes_on(draw, u):
    return Attribute(u, tuple(draw(st.sampled_from(VALUES)) for _ in range(u.size)))


@st.composite
def states_on(draw, u, nonzero=False):
    return SubsetKet(u, BitVec(u.size, draw(st.integers(int(nonzero), (1 << u.size) - 1))))


@given(st.data())
def test_level_masks_match_label_walk(data):
    u = data.draw(universes())
    f = data.draw(attributes_on(u))
    assert f.spectrum() == ref_spectrum(f)
    assert tuple(f.levels) == ref_spectrum(f)
    for r in ref_spectrum(f) + (ABSENT,):
        assert f.level_set(r).labels == ref_level_labels(f, r)
    assert inverse_image_partition(f) == ref_partition(f)


@given(st.data())
def test_projections_match_label_walk(data):
    u = data.draw(universes())
    f = data.draw(attributes_on(u))
    s = data.draw(states_on(u))
    for r in ref_spectrum(f) + (ABSENT,):
        assert project(f, r, s).labels == ref_project_labels(f, r, s)
    parts = [(r, ref_project_labels(f, r, s)) for r in ref_spectrum(f)]
    parts = [(r, labels) for r, labels in parts if labels]
    assert spectral_apply(f, s) == [(r, u.subset(labels)) for r, labels in parts]
    if s.is_zero:
        with pytest.raises(ZeroState):
            measure_probs(f, s)
    else:
        want = [(r, Fraction(len(labels), s.cardinality)) for r, labels in parts]
        assert list(measure_probs(f, s).items()) == want
    other = Attribute(Universe(tuple(x + "'" for x in u.labels)), f.values)
    with pytest.raises(UniverseMismatch):
        spectral_apply(other, s)


@given(st.data())
def test_completeness_matches_join(data):
    u = data.draw(universes())
    fs = [data.draw(attributes_on(u)) for _ in range(data.draw(st.integers(1, 3)))]
    assert is_complete(fs) == ref_is_complete(fs)
    if ref_is_complete(fs):
        want = {x: tuple(f.values[u.labels.index(x)] for f in fs) for x in u.labels}
        assert eigenkets(fs) == want
    else:
        with pytest.raises(NotComplete):
            eigenkets(fs)
    primed = Attribute(Universe(tuple(x + "'" for x in u.labels)), fs[0].values)
    with pytest.raises(IncompatibleAttributes):
        is_complete(fs + [primed])


def test_completeness_of_no_attributes():
    with pytest.raises(IncompatibleAttributes):
        is_complete([])


@given(st.data(), st.integers(0, 2**32))
def test_measure_draws_like_the_label_walk(data, seed):
    u = data.draw(universes())
    f = data.draw(attributes_on(u))
    s = data.draw(states_on(u, nonzero=True))
    rng, ref_rng = random.Random(seed), random.Random(seed)
    out = measure(f, s, rng)
    label = s.labels[ref_rng.randrange(s.cardinality)]
    assert out == measure_given(f, s, f.values[u.labels.index(label)])
    assert rng.getstate() == ref_rng.getstate()


@given(st.data())
def test_indicator_matches_label_walk(data):
    u = data.draw(universes())
    labels = data.draw(st.lists(st.sampled_from(u.labels), max_size=2 * u.size))
    chosen = set(labels)
    assert Attribute.indicator(u, labels).values == tuple(
        Fraction(1 if x in chosen else 0) for x in u.labels
    )
