import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setqm.dynamics import (
    Dynamics,
    SlitConfig,
    double_slit,
    double_slit_sample,
    evolve,
    evolved_frame,
    interference_coefficients,
)
from setqm.errors import DimMismatch, Singular, ZeroState
from setqm.gf2 import BitVec, GF2Matrix, invert, is_nonsingular, mat_apply, mat_mul, transpose
from setqm.presets import double_slit_setup, universe_abc
from setqm.space import BasisFrame, SubsetKet, Universe, born, bracket, from_basis, to_basis

F = Fraction


def all_nonsingular(n):
    for bits in range(1 << (n * n)):
        rows = tuple((bits >> (i * n)) & ((1 << n) - 1) for i in range(n))
        m = GF2Matrix(n, n, rows)
        if is_nonsingular(m):
            yield m


def test_dynamics_rejects_singular():
    with pytest.raises(Singular):
        Dynamics(GF2Matrix.from_rows([[1, 1], [1, 1]]))


def test_evolve_examples():
    cfg = double_slit_setup()
    u = universe_abc()
    assert evolve(cfg.dynamics, u.subset(["a"])).labels == ("a", "b")
    # the superposition at b cancels: {a,b} + {b,c} = {a,c}
    assert evolve(cfg.dynamics, u.subset(["a", "c"])).labels == ("a", "c")
    identity = Dynamics(GF2Matrix.identity(3))
    s = u.subset(["b", "c"])
    assert evolve(identity, s) == s


def test_evolve_linearity():
    cfg = double_slit_setup()
    u = universe_abc()
    for s in u.all_subsets():
        for t in u.all_subsets():
            assert evolve(cfg.dynamics, s + t) == evolve(cfg.dynamics, s) + evolve(cfg.dynamics, t)


def test_evolve_injective():
    cfg = double_slit_setup()
    u = universe_abc()
    images = {evolve(cfg.dynamics, s).bits.bits for s in u.all_subsets()}
    assert len(images) == 8


def test_evolved_frame_columns():
    cfg = double_slit_setup()
    frame = evolved_frame(cfg.dynamics, cfg.position_frame)
    assert frame.labels == ("a'", "b'", "c'")
    cols = [frame.matrix.column(j).indices() for j in range(3)]
    assert cols == [(0, 1), (0, 1, 2), (1, 2)]  # {a,b}, {a,b,c}, {b,c}


def test_bracket_preserved_for_all_nonsingular_maps():
    # <T|S> in the source frame equals <AT|AS> in the evolved frame, dims 1..3
    for n in (1, 2, 3):
        universe = Universe(tuple("abc"[:n]))
        frame = universe.canonical_frame()
        kets = list(universe.all_subsets())
        for m in all_nonsingular(n):
            d = Dynamics(m)
            moved = evolved_frame(d, frame)
            for s in kets:
                for t in kets:
                    lhs = bracket(t, s)
                    at = to_basis(evolve(d, t), moved)
                    as_ = to_basis(evolve(d, s), moved)
                    assert lhs == bracket(at, as_)


def test_interference_coefficients_cancellation():
    cfg = double_slit_setup()
    canonical = cfg.position_frame
    via = evolved_frame(cfg.dynamics, canonical)
    # coords (1,0,1) in the evolved frame, i.e. the evolved slit state
    s = SubsetKet(via.universe, cfg.slit_state.bits)
    coeffs = interference_coefficients(s, via, canonical)
    assert coeffs == {"a": 1, "b": 0, "c": 1}


def test_interference_coefficients_singleton():
    cfg = double_slit_setup()
    canonical = cfg.position_frame
    via = evolved_frame(cfg.dynamics, canonical)
    s = via.universe.singleton("a'")
    assert interference_coefficients(s, via, canonical) == {"a": 1, "b": 1, "c": 0}


def test_interference_agrees_with_to_basis():
    cfg = double_slit_setup()
    universe = universe_abc()
    canonical = cfg.position_frame
    via = evolved_frame(cfg.dynamics, canonical)
    for coords in universe.all_subsets():
        s = SubsetKet(via.universe, coords.bits)
        summed = interference_coefficients(s, via, canonical)
        direct = to_basis(from_basis(s, via, universe), canonical)
        assert summed == {
            label: (1 if label in direct else 0) for label in canonical.labels
        }


def test_double_slit_distributions():
    cfg = double_slit_setup()
    with_meas = double_slit(cfg, measure_at_slits=True)
    assert with_meas == {"a": F(1, 4), "b": F(1, 2), "c": F(1, 4)}
    without = double_slit(cfg, measure_at_slits=False)
    assert without == {"a": F(1, 2), "b": F(0), "c": F(1, 2)}
    assert sum(with_meas.values()) == 1
    assert sum(without.values()) == 1


def test_double_slit_singleton_agrees():
    base = double_slit_setup()
    u = universe_abc()
    cfg = SlitConfig(base.dynamics, base.position_frame, u.subset(["a"]))
    assert double_slit(cfg, True) == double_slit(cfg, False)


def test_double_slit_zero_state():
    base = double_slit_setup()
    with pytest.raises(ZeroState):
        SlitConfig(base.dynamics, base.position_frame, universe_abc().empty())


def test_double_slit_sampling_matches_support():
    cfg = double_slit_setup()
    rng = random.Random(0)
    seen = {double_slit_sample(cfg, False, rng) for _ in range(200)}
    assert seen == {"a", "c"}
    rng = random.Random(0)
    seen = {double_slit_sample(cfg, True, rng) for _ in range(200)}
    assert seen == {"a", "b", "c"}


def reference_sample(cfg, measure_at_slits, rng):
    """A run drawn from the Born distribution as Fractions over their common denominator."""

    def sample(probs):
        support = [(label, p) for label, p in probs.items() if p > 0]
        denom = math.lcm(*(p.denominator for _, p in support))
        pick, acc = rng.randrange(denom), 0
        for label, p in support:
            acc += p.numerator * (denom // p.denominator)
            if pick < acc:
                return label
        raise AssertionError("probabilities sum to less than 1")

    frame, state = cfg.position_frame, cfg.slit_state
    if measure_at_slits:
        state = frame.basis_ket(sample(born(state, frame)), state.universe)
    return sample(born(evolve(cfg.dynamics, state), frame))


@pytest.mark.parametrize("measure_at_slits", [False, True])
def test_sampling_draws_as_the_fraction_distribution_does(measure_at_slits):
    cfg = double_slit_setup()
    for seed in range(200):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        labels = [double_slit_sample(cfg, measure_at_slits, rng) for _ in range(10)]
        assert labels == [reference_sample(cfg, measure_at_slits, ref_rng) for _ in range(10)]
        assert rng.getstate() == ref_rng.getstate()


def test_dimension_checks():
    cfg = double_slit_setup()
    small = Universe(("a", "b"))
    with pytest.raises(DimMismatch):
        evolve(cfg.dynamics, small.subset(["a"]))
    with pytest.raises(DimMismatch):
        evolved_frame(cfg.dynamics, small.canonical_frame())


# -- frames derived from kept inverses, against the elimination they skip --


def random_nonsingular(n, rng):
    """P*L*U with L, U random unitriangular and P a random row order: full rank by construction."""
    lower = GF2Matrix(n, n, tuple(1 << i | rng.getrandbits(i) for i in range(n)))
    upper = GF2Matrix(n, n, tuple(1 << i | rng.getrandbits(n - i - 1) << (i + 1) for i in range(n)))
    rows = list(mat_mul(lower, upper).row_bits)
    rng.shuffle(rows)
    return GF2Matrix(n, n, tuple(rows))


def random_frame(name, n, rng):
    return BasisFrame(name, tuple(f"{name}{j}" for j in range(n)), random_nonsingular(n, rng))


def reference_interference(s, via, target):
    """Each via-basis component of `s` expanded in `target` on its own, the expansions XORed."""
    acc = 0
    for j in s.bits.indices():
        acc ^= mat_apply(invert(target.matrix), via.matrix.column(j)).bits
    return {label: (acc >> k) & 1 for k, label in enumerate(target.labels)}


FRAME_SIZES = st.one_of(st.integers(1, 256), st.sampled_from([63, 64, 65, 128, 256]))


@settings(max_examples=25)
@given(FRAME_SIZES, st.integers(0, 2**32 - 1))
def test_dynamics_keeps_the_inverse(n, seed):
    m = random_nonsingular(n, random.Random(seed))
    d = Dynamics(m)
    assert d._preimages == transpose(invert(m))
    # row j is the preimage of the singleton {u_j}
    assert [mat_apply(m, BitVec(n, row)).bits for row in d._preimages.row_bits] == [
        1 << j for j in range(n)]
    assert d == Dynamics(m) and hash(d) == hash(Dynamics(m))


@settings(max_examples=25)
@given(FRAME_SIZES, st.integers(0, 2**32 - 1))
def test_evolved_frame_equals_the_eliminated_frame(n, seed):
    rng = random.Random(seed)
    d, frame = Dynamics(random_nonsingular(n, rng)), random_frame("F", n, rng)
    got = evolved_frame(d, frame)
    want = BasisFrame("F'", tuple(x + "'" for x in frame.labels), mat_mul(d.matrix, frame.matrix))
    assert got.name == want.name and got.labels == want.labels
    assert got.matrix == want.matrix
    assert got._expansions == want._expansions == transpose(invert(got.matrix))
    assert got.universe == want.universe
    assert got == want and hash(got) == hash(want)


@settings(max_examples=25)
@given(FRAME_SIZES, st.integers(0, 2**32 - 1))
def test_interference_coefficients_match_the_per_component_sum(n, seed):
    rng = random.Random(seed)
    via, target = random_frame("V", n, rng), random_frame("T", n, rng)
    s = SubsetKet(via.universe, BitVec(n, rng.getrandbits(n)))
    assert interference_coefficients(s, via, target) == reference_interference(s, via, target)
