import itertools
import random
import time
from fractions import Fraction

import pytest

from setqm import qc
from setqm.errors import (
    ImpossibleOutcome,
    InvalidArgument,
    RegisterTooWide,
    SizeMismatch,
    TooLarge,
    UnknownGate,
    WrongArity,
    ZeroState,
)
from setqm.gf2 import GF2Matrix, is_nonsingular
from setqm.qc import (
    MAX_EF_GATE_LINES,
    BooleanFunction,
    Register,
    apply,
    apply_ef,
    deutsch,
    ef_gate,
    line_probs,
    measure_line,
    measure_line_given,
    parity_sat,
    standard_gate,
    teleport,
    unambiguous_sat,
)

F = Fraction

NONZERO_QUBITS = [(0, 1), (1, 0), (1, 1)]


def all_functions(arity):
    for table in itertools.product((0, 1), repeat=1 << arity):
        yield BooleanFunction(arity, table)


def test_standard_gate_matrices():
    assert standard_gate("H0").matrix.to_lists() == [[1, 0], [1, 1]]
    assert standard_gate("H1").matrix.to_lists() == [[1, 1], [0, 1]]
    assert standard_gate("XH0").matrix.to_lists() == [[1, 1], [1, 0]]
    assert standard_gate("XH1").matrix.to_lists() == [[0, 1], [1, 1]]
    assert standard_gate("CNOT_A").matrix.to_lists() == [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ]
    assert standard_gate("CNOT_B").matrix.to_lists() == [
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
    ]
    with pytest.raises(UnknownGate):
        standard_gate("H9")


def test_one_line_gates_are_all_nonsingular_2x2():
    named = {
        tuple(tuple(r) for r in standard_gate(n).matrix.to_lists())
        for n in ("I", "X", "H0", "H1", "XH0", "XH1")
    }
    every = set()
    for bits in range(16):
        m = GF2Matrix(2, 2, (bits & 3, bits >> 2))
        if is_nonsingular(m):
            every.add(tuple(tuple(r) for r in m.to_lists()))
    assert named == every
    assert len(named) == 6


def test_apply_identity_padding():
    # I (x) H0 sends alpha|00> + beta|10> to [alpha, alpha, beta, beta]
    h0 = standard_gate("H0")
    for alpha, beta in NONZERO_QUBITS:
        reg = Register.from_indices(2, [k for k, amp in ((0, alpha), (2, beta)) if amp])
        out = apply(h0, reg, line=1)
        assert out.coefficients() == (alpha, alpha, beta, beta)
        # Cnot_B then maps it to [alpha, beta, beta, alpha]
        swapped = apply(standard_gate("CNOT_B"), out)
        assert swapped.coefficients() == (alpha, beta, beta, alpha)


def test_apply_identity_is_noop():
    reg = Register.from_indices(2, [1, 2])
    assert apply(standard_gate("I"), reg, 0) == reg
    assert apply(standard_gate("I"), reg, 1) == reg


def test_apply_never_zeroes_state():
    gates = [standard_gate(n) for n in ("I", "X", "H0", "H1", "XH0", "XH1")]
    for bits in range(1, 16):
        reg = Register.from_indices(2, [k for k in range(4) if (bits >> k) & 1])
        for g in gates:
            for line in (0, 1):
                assert not apply(g, reg, line).state.is_zero


def test_apply_size_mismatch():
    with pytest.raises(SizeMismatch):
        apply(standard_gate("CNOT_A"), Register.basis(1, 0))


def test_line_probs_and_collapse():
    # phi2 with alpha = beta = 1 is [1,1,1,1]
    reg = Register.from_indices(2, [0, 1, 2, 3])
    assert line_probs(reg, 0) == {0: F(1, 2), 1: F(1, 2)}
    outcome, collapsed = measure_line_given(reg, 0, 0)
    assert outcome == 0 and collapsed.support() == (0, 1)
    outcome, collapsed = measure_line_given(reg, 0, 1)
    assert collapsed.support() == (2, 3)


def test_measure_line_bob_states():
    # measuring Alice of [alpha, beta, beta, alpha] leaves Bob with
    # (alpha, beta) on outcome 0 and (beta, alpha) on outcome 1
    for alpha, beta in NONZERO_QUBITS:
        reg = Register.from_indices(
            2, [k for k, amp in ((0, alpha), (1, beta), (2, beta), (3, alpha)) if amp]
        )
        _, collapsed = measure_line_given(reg, 0, 0)
        assert (collapsed.coefficient(0), collapsed.coefficient(1)) == (alpha, beta)
        _, collapsed = measure_line_given(reg, 0, 1)
        assert (collapsed.coefficient(2), collapsed.coefficient(3)) == (beta, alpha)


def test_measure_line_basis_ket_is_certain():
    reg = Register.basis(2, 2)
    rng = random.Random(0)
    outcome, after = measure_line(reg, 0, rng)
    assert outcome == 1 and after == reg
    assert line_probs(reg, 0) == {0: F(0), 1: F(1)}


def test_measure_impossible_outcome():
    reg = Register.basis(2, 0)
    with pytest.raises(ImpossibleOutcome):
        measure_line_given(reg, 0, 1)


def first_seed_trace(alpha, beta, branch):
    """The teleport trace of the first seed, from 0 up, whose measurement gives `branch`."""
    for seed in itertools.count():
        trace = teleport(alpha, beta, random.Random(seed))
        if trace.measured == branch:
            return trace


def test_teleport_all_inputs_both_branches():
    for alpha, beta in NONZERO_QUBITS:
        for branch in (0, 1):
            trace = first_seed_trace(alpha, beta, branch)
            assert trace.measured == branch
            assert trace.bob == (alpha, beta)
            assert trace.phi1.coefficients() == (alpha, alpha, beta, beta)
            assert trace.phi2.coefficients() == (alpha, beta, beta, alpha)


def test_teleport_seeded():
    trace = teleport(1, 1, rng=random.Random(5))
    assert trace.bob == (1, 1)
    with pytest.raises(ZeroState):
        teleport(0, 0, random.Random(0))
    with pytest.raises(InvalidArgument):  # the draw needs an explicit Random
        teleport(1, 1, None)


def test_ef_gate_unary():
    # f = negation: f(0)=1, f(1)=0
    assert ef_gate(BooleanFunction.from_bits("10")).matrix.to_lists() == [[1, 1], [0, 1]]
    # f = constant 0
    assert ef_gate(BooleanFunction.from_bits("00")).matrix.to_lists() == [[1, 0], [1, 1]]
    # f = identity: X^1 H0
    assert ef_gate(BooleanFunction.from_bits("01")).matrix.to_lists() == [[1, 1], [1, 0]]
    # f = constant 1: X^1 H1
    assert ef_gate(BooleanFunction.from_bits("11")).matrix.to_lists() == [[0, 1], [1, 1]]


def test_ef_gate_implication():
    from setqm.gf2 import kron

    xh1 = standard_gate("XH1").matrix
    xh0 = standard_gate("XH0").matrix
    assert ef_gate(BooleanFunction.from_bits("1101")).matrix == kron(xh1, xh0)


def test_ef_row_sums_closed_form():
    # row sums of the evaluation matrix only depend on the slice parities
    for f in all_functions(2):
        f00, f01, f10, f11 = f.table
        expected = [
            (f00 + f01 + 1) * (f10 + f11 + 1) % 2,
            (f00 + f01 + 1) * (f10 + f11) % 2,
            (f00 + f01) * (f10 + f11 + 1) % 2,
            (f00 + f01) * (f10 + f11) % 2,
        ]
        matrix = ef_gate(f).matrix
        row_sums = [row.bit_count() & 1 for row in matrix.row_bits]
        assert row_sums == [e % 2 for e in expected]


def test_ef_gate_is_bounded():
    # arity 4 spans the 8-line limit; arity 5 would be a 65536 x 65536 matrix
    assert MAX_EF_GATE_LINES == 8
    assert ef_gate(BooleanFunction(4, (0,) * 16)).matrix.rows == 256
    for arity in (5, 6, 10):
        f = BooleanFunction(arity, (1,) + (0,) * ((1 << arity) - 1))
        start = time.perf_counter()
        with pytest.raises(TooLarge):
            ef_gate(f)
        assert time.perf_counter() - start < 1
    # the factor path needs no full gate, so arity 5 still applies to a 16-line register
    f = BooleanFunction(5, (1,) + (0,) * 31)
    assert apply_ef(f, Register.from_bitstrings(16, ["0" * 16])).bitstrings()


def test_parity_sat_unary_result_vector():
    for f in all_functions(1):
        result = parity_sat(f)
        f0, f1 = f.table
        assert result.state.coefficients() == ((f0 + f1 + 1) % 2, (f0 + f1) % 2)
        assert result.parity == (f0 + f1) % 2


def test_parity_sat_implication():
    result = parity_sat(BooleanFunction.from_bits("1101"))
    assert result.measured_bits == "01"
    assert result.slice_parities == (0, 1)  # f(0,-) even, f(1,-) odd
    assert result.parity == 1


def test_parity_sat_matches_classical_oracle():
    # classical oracle: parity is the XOR over the whole truth table
    for arity in (1, 2, 3):
        for f in all_functions(arity):
            result = parity_sat(f)
            assert result.parity == sum(f.table) % 2
            assert result.oracle_calls == 1
            assert len(result.state.support()) == 1


def test_parity_sat_slice_decoding():
    for arity in (2, 3):
        for f in all_functions(arity):
            result = parity_sat(f)
            for p, slice_parity in enumerate(result.slice_parities):
                assert slice_parity == (f.table[2 * p] + f.table[2 * p + 1]) % 2


def test_parity_sat_matches_h0_on_every_line_then_the_evaluation_gate():
    # reference: H0 applied line by line to |0...0>, then the factors of the gate
    rng = random.Random(5)
    h0 = standard_gate("H0")
    for arity in range(1, 6):
        lines = 1 << (arity - 1)
        start = Register.basis(lines, 0)
        for line in range(lines):
            start = apply(h0, start, line)
        functions = list(all_functions(arity)) if arity <= 3 else [
            BooleanFunction(arity, tuple(rng.randrange(2) for _ in range(1 << arity)))
            for _ in range(40)
        ]
        for f in functions:
            assert parity_sat(f).state == apply_ef(f, start)


def test_parity_sat_applies_only_the_evaluation_factors(monkeypatch):
    applied = []
    real_apply = qc.apply
    monkeypatch.setattr(qc, "apply", lambda g, r, line=0: applied.append(g) or real_apply(g, r, line))
    f = BooleanFunction.from_bits("0110100110010110")
    parity_sat(f)
    assert applied == list(qc._ef_factors(f))
    # arity 6 spans 32 lines: refused before a 2^32-bit state is built
    start = time.perf_counter()
    with pytest.raises(RegisterTooWide):
        parity_sat(BooleanFunction(6, (0,) * 64))
    assert time.perf_counter() - start < 1 and applied == list(qc._ef_factors(f))


def test_deutsch():
    assert deutsch(BooleanFunction.from_bits("01")) == "balanced"
    assert deutsch(BooleanFunction.from_bits("10")) == "balanced"
    assert deutsch(BooleanFunction.from_bits("00")) == "constant"
    assert deutsch(BooleanFunction.from_bits("11")) == "constant"
    # classical two-evaluation check
    for f in all_functions(1):
        expected = "balanced" if f.value(0) != f.value(1) else "constant"
        assert deutsch(f) == expected
    with pytest.raises(WrongArity):
        deutsch(BooleanFunction.from_bits("1101"))


def test_unambiguous_sat():
    assert unambiguous_sat(BooleanFunction.from_bits("00")) == "unsatisfiable"
    assert unambiguous_sat(BooleanFunction.from_bits("0010")) == "satisfiable"
    # all promise-respecting tables (at most one satisfying input) up to arity 3
    for arity in (1, 2, 3):
        size = 1 << arity
        tables = [tuple(0 for _ in range(size))]
        tables += [tuple(1 if i == j else 0 for i in range(size)) for j in range(size)]
        for table in tables:
            f = BooleanFunction(arity, table)
            expected = "satisfiable" if sum(table) else "unsatisfiable"
            assert unambiguous_sat(f) == expected


def test_register_bitstrings():
    reg = Register.from_bitstrings(2, ["00", "10"])
    assert reg.bitstrings() == ("00", "10")
    assert str(reg) == "|00>+|10>"
    # duplicates cancel mod 2
    with pytest.raises(ZeroState):
        Register.from_bitstrings(2, ["01", "01"])


def test_boolean_function_validation():
    with pytest.raises(WrongArity):
        BooleanFunction(0, ())
    with pytest.raises(ValueError):
        BooleanFunction(2, (0, 1, 1))
