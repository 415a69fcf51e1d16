"""The local gate kernels and popcount measurement against the full-width references."""

import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from setqm import dsl, qc
from setqm.errors import (
    ImpossibleOutcome,
    InvalidArgument,
    LineOutOfRange,
    RegisterTooWide,
    SizeMismatch,
    ZeroState,
)
from setqm.gf2 import BitVec, GF2Matrix, kron, mat_apply
from setqm.qc import (
    MAX_LINES,
    BooleanFunction,
    Gate,
    Register,
    apply,
    apply_ef,
    ef_gate,
    line_probs,
    measure_line,
    measure_line_given,
    parity_sat,
    standard_gate,
    teleport,
)

ONE_LINE = ("I", "X", "H0", "H1", "XH0", "XH1")
LIBRARY = ONE_LINE + ("CNOT_A", "CNOT_B")


def reference_apply(g: Gate, r: Register, line: int) -> Register:
    """mat_apply of I (x) g (x) I: the full-width matrix the kernel replaces."""
    full = g.matrix
    if line > 0:
        full = kron(GF2Matrix.identity(1 << line), full)
    after = r.lines - line - g.width
    if after > 0:
        full = kron(full, GF2Matrix.identity(1 << after))
    return Register(r.lines, mat_apply(full, r.state))


@st.composite
def registers(draw, min_lines=1, max_lines=10):
    lines = draw(st.integers(min_lines, max_lines))
    bits = draw(st.integers(1, (1 << (1 << lines)) - 1))
    return Register(lines, BitVec(1 << lines, bits))


@st.composite
def nonsingular(draw, width):
    """A random nonsingular 2^width matrix: the identity under random row additions."""
    n = 1 << width
    rows = [1 << i for i in range(n)]
    for _ in range(draw(st.integers(0, 4 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            rows[i] ^= rows[j]
    return Gate("random", GF2Matrix(n, n, tuple(rows)))


def column_loop_apply(g: Gate, r: Register, line: int) -> Register:
    """The general column loop on its own: every local value j moved to each row i of column j."""
    pos = r.lines - line - g.width
    block = qc._block_mask(r.lines, pos, g.width)
    out = 0
    for j, column in enumerate(g.columns):
        part = (r.state.bits >> (j << pos)) & block
        for i in column:
            out ^= part << (i << pos)
    return Register(r.lines, BitVec(r.state.length, out))


@given(registers(max_lines=12))
def test_library_kernels_match_kron_and_column_loop_on_every_line(r):
    for name in LIBRARY:
        g = standard_gate(name)
        for line in range(r.lines - g.width + 1):
            got = apply(g, r, line)
            assert got == reference_apply(g, r, line)
            assert got == column_loop_apply(g, r, line)


def test_every_library_matrix_has_a_kernel():
    for name in LIBRARY:
        kernel = standard_gate(name)._kernel
        assert (kernel is None) == (name == "I")
        assert not isinstance(kernel, partial)


@given(registers(max_lines=8))
def test_kernel_follows_the_matrix_not_the_name(r):
    for name in LIBRARY:
        lib = standard_gate(name)
        mine = Gate("mine", GF2Matrix(lib.matrix.rows, lib.matrix.cols, lib.matrix.row_bits))
        assert mine._kernel is lib._kernel
        for line in range(r.lines - lib.width + 1):
            assert apply(mine, r, line) == apply(lib, r, line)


# a 4x4 gate that is no permutation: local value 00 goes to 00 and 11
MIXING = Gate("mixing", GF2Matrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                                              [1, 0, 0, 1]]))


@given(registers(min_lines=2, max_lines=10))
def test_other_gates_take_the_column_loop(r):
    assert isinstance(MIXING._kernel, partial) and MIXING._kernel.func is qc._column_loop
    for line in range(r.lines - 1):
        assert apply(MIXING, r, line) == reference_apply(MIXING, r, line)


def test_identity_of_any_width_returns_its_input():
    r = Register.from_indices(4, [1, 6, 11])
    assert apply(standard_gate("I"), r, 2) is r
    for width in (1, 2, 3):
        g = Gate("id", GF2Matrix.identity(1 << width))
        assert apply(g, r, 4 - width) is r


@given(registers())
def test_derived_register_equals_and_hashes_like_a_checked_one(r):
    derived = Register._derived(r.lines, r.state.bits)
    assert derived == r and hash(derived) == hash(r)
    assert derived.state == r.state and hash(derived.state) == hash(r.state)
    assert type(derived.state) is BitVec and derived.state.length == 1 << r.lines


@given(st.integers(1, 6), st.data())
def test_from_bitstrings_is_the_sum_of_its_kets(lines, data):
    strings = data.draw(st.lists(st.integers(0, (1 << lines) - 1), min_size=1, max_size=6))
    strings = [format(k, f"0{lines}b") for k in strings]
    bits = 0
    for s in strings:
        bits ^= 1 << int(s, 2)
    if bits:
        assert Register.from_bitstrings(lines, strings) == Register(lines, BitVec(1 << lines, bits))
    else:
        with pytest.raises(ZeroState):
            Register.from_bitstrings(lines, strings)


def test_a_line_that_is_not_an_int_is_rejected():
    r = Register.from_indices(3, [1, 6])
    for line in (0.5, 1.0, "1", None):
        with pytest.raises(SizeMismatch):
            apply(standard_gate("H0"), r, line)
        with pytest.raises(LineOutOfRange):
            line_probs(r, line)
        with pytest.raises(LineOutOfRange):
            measure_line_given(r, line, 0)
        with pytest.raises(LineOutOfRange):
            measure_line(r, line, random.Random(0))


def test_teleport_amplitudes_are_bits():
    for alpha, beta in ((1, 3), (2, 0), (-1, 1), (0.5, 1), (1.0, 0), ("1", 0)):
        with pytest.raises(InvalidArgument):
            teleport(alpha, beta, random.Random(0))
    assert teleport(True, False, random.Random(0)).bob == (1, 0)


def test_from_bitstrings_rejects_terms_that_are_not_bitstrings():
    for term in (5, None, b"01", ["0", "1"], "0 1", "1_0", "+01", "012", "0", "0000"):
        with pytest.raises(InvalidArgument, match="bad basis bitstring"):
            Register.from_bitstrings(3, ["010", term])
    with pytest.raises(InvalidArgument):
        Register.from_bitstrings(0, [""])


@given(st.data())
def test_wide_gate_on_dense_and_sparse_states(data):
    # a 3-line gate has 8 local values; states with fewer than 8 kets leave
    # some of them absent
    g = data.draw(nonsingular(3))
    lines = data.draw(st.integers(3, 8))
    weight = data.draw(st.sampled_from((1, 2, 5, 40)))
    kets = data.draw(st.sets(st.integers(0, (1 << lines) - 1), min_size=1, max_size=weight))
    r = Register.from_indices(lines, kets)
    for line in range(lines - 2):
        assert apply(g, r, line) == reference_apply(g, r, line)


@given(st.integers(1, 3), st.data())
def test_ef_factor_path_matches_full_ef_gate(arity, data):
    f = BooleanFunction(arity, tuple(data.draw(st.lists(st.integers(0, 1), min_size=1 << arity,
                                                       max_size=1 << arity))))
    width = 1 << (arity - 1)
    r = data.draw(registers(min_lines=width, max_lines=width + 2))
    want = reference_apply(ef_gate(f), r, 0)
    assert apply_ef(f, r) == want
    assert apply(ef_gate(f), r) == want


def test_ef_factor_path_checks_the_span():
    with pytest.raises(SizeMismatch):
        apply_ef(BooleanFunction.from_bits("1101"), Register.basis(1, 0))


@given(registers(), st.data())
def test_line_probs_and_collapse_match_support_walk(r, data):
    line = data.draw(st.integers(0, r.lines - 1))
    support = r.support()
    ones = [k for k in support if r.line_value(k, line)]
    zeros = [k for k in support if not r.line_value(k, line)]
    assert line_probs(r, line) == {0: Fraction(len(zeros), len(support)),
                                   1: Fraction(len(ones), len(support))}
    for outcome, kept in ((0, zeros), (1, ones)):
        if kept:
            assert measure_line_given(r, line, outcome) == (
                outcome, Register.from_indices(r.lines, kept))
        else:
            with pytest.raises(ImpossibleOutcome):
                measure_line_given(r, line, outcome)


@given(registers(), st.data(), st.integers(0, 2**32))
def test_measure_line_makes_the_same_single_draw(r, data, seed):
    line = data.draw(st.integers(0, r.lines - 1))
    rng = random.Random(seed)
    outcome, after = measure_line(r, line, rng)
    reference = random.Random(seed)
    support = r.support()
    k = support[reference.randrange(len(support))]
    assert outcome == r.line_value(k, line)
    assert after == measure_line_given(r, line, outcome)[1]
    assert rng.getstate() == reference.getstate()


def test_measure_checks_line_and_outcome():
    r = Register.from_indices(2, [0, 3])
    with pytest.raises(LineOutOfRange):
        line_probs(r, 2)
    with pytest.raises(LineOutOfRange):
        measure_line(r, -1, random.Random(0))
    with pytest.raises(ImpossibleOutcome):
        measure_line_given(r, 0, 2)


def test_library_gates_are_built_once():
    assert standard_gate("H0") is standard_gate("H0")
    assert standard_gate("CNOT_B").columns == ((0,), (3,), (2,), (1,))
    assert standard_gate("CNOT_B").width == 2 and "width" in vars(standard_gate("CNOT_B"))


def test_register_width_limit():
    assert MAX_LINES == 20
    for build in (
        lambda: Register.basis(MAX_LINES + 1, (1 << (MAX_LINES + 1)) - 1),
        lambda: Register.from_indices(40, [(1 << 40) - 1]),
        lambda: Register.from_bitstrings(40, ["1" * 40]),
        lambda: Register(40, BitVec(1 << 40, 1)),
    ):
        with pytest.raises(RegisterTooWide):
            build()
    assert issubclass(RegisterTooWide, ValueError)
    assert Register.basis(MAX_LINES, 0).state.length == 1 << MAX_LINES


def test_parity_sat_arity_5_on_16_lines():
    rng = random.Random(5)
    table = tuple(rng.randrange(2) for _ in range(32))
    result = parity_sat(BooleanFunction(5, table))
    slices = tuple((table[2 * p] + table[2 * p + 1]) % 2 for p in range(16))
    assert result.lines == 16
    assert result.slice_parities == slices
    assert result.parity == sum(table) % 2
    assert result.state.state.bits == 1 << result.measured_index
    with pytest.raises(RegisterTooWide):
        parity_sat(BooleanFunction(6, (0,) * 64))


def test_a_sweep_of_6_to_12_line_circuits_runs_again_without_a_mask_cache_miss():
    # every one-line position and every adjacent Cnot of each width: 119 masks
    texts = []
    for lines in range(6, 13):
        body = [f"gate H0 {i}" for i in range(lines)]
        body += [f"gate CNOT {i} {i + 1}" for i in range(lines - 1)]
        texts.append("\n".join([f"lines {lines}", "init ket " + "0" * lines, *body, "measure all"]))
    circuits = [dsl.parse(t) for t in texts]
    for ast in circuits:
        dsl.run(ast, seed=1)
    misses = qc._block_mask.cache_info().misses
    for ast in circuits:
        dsl.run(ast, seed=1)
    assert qc._block_mask.cache_info().misses == misses
