"""Acceptance suite: one test per shipped guarantee, all values exact.

Every probability comparison is an exact rational equality (tolerance 0);
the only floats in the package are Shannon entropies, which are not used
here. Each test prints its own pass line (visible with pytest -s).
"""

import itertools
import random
from fractions import Fraction
from pathlib import Path

from setqm.attributes import Attribute, eigenkets, measure_given, measure_probs
from setqm.density import (
    entropy_increase,
    logical_entropy_rho,
    measure_density,
    rho_of_partition,
    rho_of_subset,
)
from setqm.dsl import parse, run
from setqm.dynamics import Dynamics, double_slit, evolve, evolved_frame
from setqm.entangle import (
    ProductUniverse,
    bell_basis_frames,
    bell_violation,
    counterfactual_joint,
    is_independent,
    is_separated,
    joint,
    sequential_pair_prob,
)
from setqm.errors import ParseError
from setqm.gf2 import GF2Matrix, is_nonsingular
from setqm.partitions import Partition, iter_partitions, logical_entropy
from setqm.presets import (
    bell_state,
    double_slit_setup,
    frames_ab,
    frames_abc,
    other_bell_state,
    pair_space,
    universe_ab,
    universe_abc,
)
from setqm.qc import BooleanFunction, parity_sat, teleport
from setqm.space import born, bracket, ket_table, to_basis

F = Fraction
CIRCUITS = Path(__file__).resolve().parent.parent / "circuits"

KET_TABLE_3 = [
    # (U, U', U'') row for row
    (("a", "b", "c"), ("c'",), ("a''", "b''", "c''")),
    (("a", "b"), ("a'",), ("b''",)),
    (("b", "c"), ("b'",), ("b''", "c''")),
    (("a", "c"), ("a'", "b'"), ("c''",)),
    (("a",), ("b'", "c'"), ("a''",)),
    (("b",), ("a'", "b'", "c'"), ("a''", "b''")),
    (("c",), ("a'", "c'"), ("a''", "c''")),
    ((), (), ()),
]

KET_TABLE_2 = [
    (("a", "b"), ("a'",), ("a''",)),
    (("b",), ("b'",), ("a''", "b''")),
    (("a",), ("a'", "b'"), ("b''",)),
    ((), (), ()),
]


def _ok(n: int, label: str) -> None:
    print(f"criterion {n:02d} PASS - {label}")


def test_criterion_01_ket_tables():
    table3 = ket_table(3, frames_abc())
    assert len(table3.rows) == 8
    for u_labels, u1_labels, u2_labels in KET_TABLE_3:
        row = table3.row_for("U", u_labels)
        assert row["U'"] == u1_labels
        assert row["U''"] == u2_labels
    table2 = ket_table(2, frames_ab())
    assert len(table2.rows) == 4
    for u_labels, u1_labels, u2_labels in KET_TABLE_2:
        row = table2.row_for("U", u_labels)
        assert row["U'"] == u1_labels
        assert row["U''"] == u2_labels
    _ok(1, "both ket tables reproduced row for row")


def test_criterion_02_contextuality():
    universe = universe_abc()
    u0, _, u2 = frames_abc()
    same_ket = universe.subset(["a", "b"])  # equals {b''}
    assert born(same_ket, u0)["a"] == F(1, 2)
    assert to_basis(same_ket, u2).labels == ("b''",)
    assert born(same_ket, u2)["a''"] == F(0)
    _ok(2, "outcome probability depends on the measurement basis")


def test_criterion_03_measurement_chain():
    universe = universe_abc()
    ordinal = Attribute.from_values(universe, {"a": 1, "b": 2, "c": 3})
    full = universe.full()
    assert measure_probs(ordinal, full) == {F(1): F(1, 3), F(2): F(1, 3), F(3): F(1, 3)}
    chi_bc = Attribute.indicator(universe, ["b", "c"])
    assert measure_probs(chi_bc, full) == {F(0): F(1, 3), F(1): F(2, 3)}
    first = measure_given(chi_bc, full, 1)
    assert first.post_state.labels == ("b", "c")
    chi_ab = Attribute.indicator(universe, ["a", "b"])
    assert measure_probs(chi_ab, first.post_state) == {F(0): F(1, 2), F(1): F(1, 2)}
    second = measure_given(chi_ab, first.post_state, 0)
    assert second.post_state.labels == ("c",)
    assert eigenkets([chi_bc, chi_ab])["c"] == (1, 0)
    _ok(3, "nondegenerate and degenerate measurement chain collapses to {c}")


def test_criterion_04_double_slit():
    cfg = double_slit_setup()
    assert double_slit(cfg, measure_at_slits=True) == {
        "a": F(1, 4), "b": F(1, 2), "c": F(1, 4),
    }
    assert double_slit(cfg, measure_at_slits=False) == {
        "a": F(1, 2), "b": F(0), "c": F(1, 2),
    }
    _ok(4, "two-slit distributions with and without slit measurement")


def test_criterion_05_entanglement_census_and_proposition():
    space = pair_space()
    entangled = {frozenset(s.pairs) for s in space.all_states() if not is_separated(s)}
    assert len(entangled) == 6
    assert sum(1 for s in space.all_states() if is_separated(s)) == 9
    assert entangled == {
        frozenset({("a", "a"), ("b", "b")}),
        frozenset({("a", "b"), ("b", "a")}),
        frozenset({("a", "a"), ("a", "b"), ("b", "a")}),
        frozenset({("a", "a"), ("a", "b"), ("b", "b")}),
        frozenset({("a", "b"), ("b", "a"), ("b", "b")}),
        frozenset({("a", "a"), ("b", "a"), ("b", "b")}),
    }
    for labels in (("a", "b"), ("a", "b", "c")):
        from setqm.space import Universe

        u = Universe(labels)
        prod = ProductUniverse(u, u)
        for s in prod.all_states():
            assert is_separated(s) == is_independent(joint(s))
    _ok(5, "9 separated / 6 entangled, separation equals independence")


def test_criterion_06_bell_violation():
    u, u1, u2 = bell_basis_frames(universe_ab())
    state = bell_state()
    assert sequential_pair_prob(state, u, "a", u1, "a'") == F(1, 4)
    assert sequential_pair_prob(state, u1, "b'", u2, "b''") == F(0)
    assert sequential_pair_prob(state, u, "a", u2, "b''") == F(1, 2)
    report = bell_violation(state)
    assert report.lhs == F(1, 4) and report.rhs == F(1, 2) and report.violated
    assert bell_violation(other_bell_state()).violated
    cf = counterfactual_joint(state, (u, u1, u2))
    assert cf.probs[("a", "a'", "a''")] == F(2, 9)
    _ok(6, "both Bell states violate the inequality; counterfactual joint is 2/9")


def test_criterion_07_density_equivalence():
    from setqm.space import Universe

    for n in range(1, 6):
        universe = Universe(tuple("abcde"[:n]))
        for p in iter_partitions(universe):
            assert logical_entropy(p) == logical_entropy_rho(rho_of_partition(p))
    universe = universe_abc()
    example = rho_of_partition(Partition.from_blocks(universe, [["a", "b"], ["c"]]))
    third = F(1, 3)
    assert example.entries == (
        (third, third, F(0)),
        (third, third, F(0)),
        (F(0), F(0), third),
    )
    ordinal = Attribute.from_values(universe, {"a": 1, "b": 2, "c": 3})
    before = rho_of_subset(universe.full())
    after = measure_density(ordinal, before)
    assert after.entries == (
        (third, F(0), F(0)),
        (F(0), third, F(0)),
        (F(0), F(0), third),
    )
    assert entropy_increase(before, after) == F(2, 3)
    _ok(7, "h(p) = 1 - tr[rho^2] up to size 5; measurement matrices entrywise")


def test_criterion_08_bracket_preservation():
    from setqm.space import Universe

    for n in (1, 2, 3):
        universe = Universe(tuple("abc"[:n]))
        frame = universe.canonical_frame()
        kets = list(universe.all_subsets())
        count = 0
        for bits in range(1 << (n * n)):
            rows = tuple((bits >> (i * n)) & ((1 << n) - 1) for i in range(n))
            m = GF2Matrix(n, n, rows)
            if not is_nonsingular(m):
                continue
            count += 1
            d = Dynamics(m)
            moved = evolved_frame(d, frame)
            for s in kets:
                for t in kets:
                    assert bracket(t, s) == bracket(
                        to_basis(evolve(d, t), moved), to_basis(evolve(d, s), moved)
                    )
        assert count == {1: 1, 2: 6, 3: 168}[n]
    _ok(8, "brackets preserved by every nonsingular map in dimensions 1..3")


def test_criterion_09_qc2():
    for alpha, beta in ((0, 1), (1, 0), (1, 1)):
        for branch in (0, 1):  # the first seed, from 0 up, whose measurement gives the branch
            trace = next(t for seed in itertools.count()
                         if (t := teleport(alpha, beta, random.Random(seed))).measured == branch)
            assert trace.phi1.coefficients() == (alpha, alpha, beta, beta)
            assert trace.phi2.coefficients() == (alpha, beta, beta, alpha)
            assert trace.bob == (alpha, beta)
    counts = {1: 4, 2: 16, 3: 256}
    for arity, expected_count in counts.items():
        seen = 0
        for table in itertools.product((0, 1), repeat=1 << arity):
            f = BooleanFunction(arity, table)
            result = parity_sat(f)
            assert result.parity == sum(table) % 2  # classical XOR oracle
            assert result.oracle_calls == 1
            seen += 1
        assert seen == expected_count
    for table in itertools.product((0, 1), repeat=2):
        f = BooleanFunction(1, table)
        state = parity_sat(f).state
        f0, f1 = table
        assert state.coefficients() == ((f0 + f1 + 1) % 2, (f0 + f1) % 2)
    _ok(9, "teleportation 6/6 with exact intermediates; parity matches the oracle")


def test_criterion_10_dsl_circuits():
    deutsch_files = {
        "deutsch_const0.qc2": ("00", 0),
        "deutsch_const1.qc2": ("11", 0),
        "deutsch_identity.qc2": ("01", 1),
        "deutsch_negation.qc2": ("10", 1),
    }
    for name, (table, parity) in deutsch_files.items():
        text = (CIRCUITS / name).read_text()
        ast = parse(text)
        for seed in (0, 1):
            result = run(ast, seed=seed)
            assert [m.outcome for m in result.measurements] == [parity]
        assert parity_sat(BooleanFunction.from_bits(table)).parity == parity

    parity2 = run(parse((CIRCUITS / "parity_sat2.qc2").read_text()), seed=0)
    assert parity2.final.bitstrings() == ("01",)
    assert [m.outcome for m in parity2.measurements] == [0, 1]
    assert parity_sat(BooleanFunction.from_bits("1101")).measured_bits == "01"

    teleport_text = (CIRCUITS / "teleport.qc2").read_text()
    for seed in (0, 1, 2):
        result = run(parse(teleport_text), seed=seed)
        m = result.measurements[0].outcome
        final = result.final
        assert (final.coefficient(2 * m), final.coefficient(2 * m + 1)) == (1, 1)

    try:
        parse("lines 1\ngate H9 0\n")
    except ParseError as err:
        assert err.line == 2 and err.column == 6
    else:
        raise AssertionError("malformed circuit must raise a positioned ParseError")
    _ok(10, "shipped circuits reproduce the algorithm outcomes deterministically")
