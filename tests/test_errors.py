from types import ModuleType

import pytest

import setqm
from setqm import dsl
from setqm.dynamics import Dynamics, evolve, evolved_frame, interference_coefficients
from setqm.entangle import (
    ProductState, ProductUniverse, is_separated, joint, marginals, product_to_frame, supports,
)
from setqm.errors import DimMismatch, InvalidArgument, SetQMError, Singular, UnknownGate
from setqm.gf2 import (
    BitVec, GF2Matrix, add, invert, is_nonsingular, kron, mat_apply, mat_mul, solve, transpose,
)
from setqm.partitions import block_entropy_relation, dit_set
from setqm.qc import (
    BooleanFunction, Gate, Register, deutsch, parity_sat, standard_gate, unambiguous_sat,
)
from setqm.space import BasisFrame, SubsetKet, Universe, born, from_basis, ket_table, to_basis

M, V = GF2Matrix.identity(2), BitVec(2, 1)
U = Universe(("a", "b"))
KET, FRAME, DYN = U.subset(["a"]), U.canonical_frame(), Dynamics(M)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: BitVec(0, 0), "positive length"),
        (lambda: BitVec(2, 0b100), "outside the declared length"),
        (lambda: BitVec.from_coords([0, 2]), "must be 0 or 1"),
        (lambda: BitVec.from_indices(2, [2]), "outside 0..1"),
        (lambda: GF2Matrix(0, 1, ()), "positive dimensions"),
        (lambda: GF2Matrix(2, 2, (1,)), "row count"),
        (lambda: GF2Matrix(1, 1, (0b10,)), "outside the declared width"),
        (lambda: GF2Matrix.from_rows([[0, 2]]), "must be 0 or 1"),
        (lambda: GF2Matrix.from_rows([[1, 0], [1]]), "same length"),
        (lambda: GF2Matrix.from_rows([]), "positive dimensions"),
        (lambda: Register(0, BitVec(1, 1)), "at least one line"),
        (lambda: Register.from_bitstrings(2, ["0a"]), "bad basis bitstring"),
        (lambda: BooleanFunction(2, (0, 1, 0)), "2\\^arity bits"),
        (lambda: Universe(()), "at least one element"),
        (lambda: Universe(("a", "a")), "distinct"),
    ],
)
def test_bad_constructor_arguments_raise_a_domain_value_error(call, message):
    with pytest.raises(InvalidArgument, match=message) as exc:
        call()
    assert isinstance(exc.value, SetQMError) and isinstance(exc.value, ValueError)


@pytest.mark.parametrize(
    "call",
    [
        lambda: Register.basis(2, 0.5),
        lambda: Register.from_indices(2, [1.5]),
        lambda: BitVec(2, 1.0),
        lambda: BitVec.from_indices(4, ["1"]),
        lambda: BooleanFunction.from_bits("1x"),
        lambda: BooleanFunction(1, (0, 1.0)),
        lambda: GF2Matrix(2, 2, (1.0, 2)),
        lambda: GF2Matrix("2", 2, (1, 2)),
        lambda: GF2Matrix(2, 2, [1, 2]),
        lambda: GF2Matrix.identity(2).column(0.5),
        lambda: Dynamics("x"),
        lambda: BasisFrame("F", ("a",), "x"),
        lambda: invert("x"),
        lambda: is_nonsingular("x"),
        lambda: mat_apply("x", V),
        lambda: mat_apply(M, "x"),
        lambda: mat_mul(M, "x"),
        lambda: mat_mul("x", M),
        lambda: solve("x", V),
        lambda: solve(M, "x"),
        lambda: kron(M, "x"),
        lambda: kron("x", M),
        lambda: add(V, "x"),
        lambda: add("x", V),
        lambda: Gate("g", "m"),
        lambda: SubsetKet(U, "x"),
        lambda: ProductState(ProductUniverse(U, U), "x"),
        lambda: Register(2, "x"),
        lambda: Register("2", BitVec(4, 1)),
        lambda: Register.basis(None, 0),
        lambda: Universe(3),
        lambda: Universe((["a"], "b")),
        lambda: block_entropy_relation("x"),
        lambda: block_entropy_relation(None),
        lambda: born(KET, "U"),
        lambda: to_basis(KET, None),
        lambda: from_basis(KET, FRAME, "U"),
        lambda: evolve(DYN, "x"),
        lambda: evolved_frame(DYN, "x"),
        lambda: interference_coefficients(KET, FRAME, None),
        lambda: ket_table(3, [None]),
        lambda: product_to_frame(None, FRAME, FRAME),
        lambda: transpose("x"),
        lambda: dit_set(None),
        lambda: joint(None),
        lambda: parity_sat("01"),
        lambda: deutsch("0"),
        lambda: unambiguous_sat(None),
        lambda: dsl.run("lines 2"),
        lambda: dsl.render("x"),
        lambda: dsl.parse(None),
        lambda: supports(None),
        lambda: is_separated(None),
        lambda: marginals(None),
    ],
    ids=["basis-float-index", "from-indices-float", "bitvec-float-bits",
         "from-indices-str", "from-bits-letter", "table-float-entry",
         "matrix-float-row", "matrix-str-rows", "matrix-list-rows", "matrix-float-column",
         "dynamics-str", "frame-str-matrix", "invert-str", "nonsingular-str",
         "mat-apply-str-matrix", "mat-apply-str-vector", "mat-mul-str-right",
         "mat-mul-str-left", "solve-str-matrix", "solve-str-vector", "kron-str-right",
         "kron-str-left", "add-str-right", "add-str-left", "gate-str-matrix", "ket-str-bits",
         "product-state-str-bits", "register-str-state", "register-str-lines",
         "basis-none-lines", "universe-int", "universe-unhashable-label",
         "entropy-relation-str", "entropy-relation-none", "born-str-frame",
         "to-basis-none-frame", "from-basis-str-universe", "evolve-str-ket",
         "evolved-frame-str-frame", "interference-none-target", "ket-table-none-frame",
         "product-to-frame-none-state", "transpose-str", "dit-set-none", "joint-none",
         "parity-sat-str", "deutsch-str", "unambiguous-sat-none", "run-str-ast",
         "render-str-ast", "parse-none-text", "supports-none", "is-separated-none",
         "marginals-none"],
)
def test_wrongly_typed_arguments_raise_invalid_argument(call):
    with pytest.raises(InvalidArgument):
        call()


def test_an_unhashable_gate_name_is_an_unknown_gate():
    with pytest.raises(UnknownGate):
        standard_gate(["H0"])


SINGULAR = GF2Matrix.from_rows([[1, 1], [1, 1]])
WIDE = GF2Matrix.from_rows([[1, 0, 0], [0, 1, 0]])


@pytest.mark.parametrize(
    "labels,matrix,error,message",
    [
        (("a", "b"), "x", InvalidArgument, "GF2Matrix"),
        (("a",), None, InvalidArgument, "GF2Matrix"),  # a non-matrix before the label count
        (("a", "b", "c"), WIDE, DimMismatch, "square"),
        (("a", "b"), WIDE, DimMismatch, None),  # not square and the wrong label count
        (("a", "b", "c"), M, DimMismatch, "one label per basis ket"),
        (("a", "b", "c"), SINGULAR, DimMismatch, "one label per basis ket"),  # count first
        (("a", "b"), SINGULAR, Singular, "frame must be nonsingular"),
    ],
    ids=["non-matrix", "non-matrix-wrong-count", "non-square", "non-square-wrong-count",
         "wrong-count", "wrong-count-singular", "singular"],
)
def test_frame_errors_keep_their_precedence(labels, matrix, error, message):
    with pytest.raises(error, match=message):
        BasisFrame("F", labels, matrix)


@pytest.mark.parametrize(
    "matrix,error,message",
    [("x", InvalidArgument, "GF2Matrix"), (WIDE, DimMismatch, "dynamics matrix must be square"),
     (SINGULAR, Singular, "dynamics must be nonsingular")],
    ids=["non-matrix", "non-square", "singular"],
)
def test_dynamics_errors_keep_their_precedence(matrix, error, message):
    with pytest.raises(error, match=message):
        Dynamics(matrix)


def test_checked_matrices_keep_the_valid_path():
    m = GF2Matrix.from_rows([[1, 0], [1, 1]])
    assert m == GF2Matrix(2, 2, (0b01, 0b11)) and hash(m) == hash(GF2Matrix(2, 2, (1, 3)))
    assert m.column(0).bits == 0b11 and invert(m) == m
    # m is its own inverse; both keep its transpose, the singletons' preimages and expansions
    assert Dynamics(m)._preimages == transpose(m) == GF2Matrix.from_rows([[1, 1], [0, 1]])
    assert BasisFrame("F", ("a", "b"), m)._expansions == transpose(m)



def test_star_import_binds_no_module():
    assert not [n for n in setqm.__all__ if isinstance(getattr(setqm, n), ModuleType)]
    namespace = {}
    exec("from setqm import *", namespace)
    assert {"Universe", "Partition", "SetQMError", "MAX_LINES", "run"} <= set(namespace)
    assert not [v for v in namespace.values() if isinstance(v, ModuleType)]
