import inspect
import itertools
import operator
import random
from types import ModuleType

import pytest

import setqm
from setqm import cli, dsl, presets
from setqm.dynamics import (
    Dynamics, SlitConfig, double_slit, double_slit_sample, evolve, evolved_frame,
    interference_coefficients,
)
from setqm.entangle import (
    JointDistribution, ProductState, ProductUniverse, bell_basis_frames, bell_violation,
    counterfactual_joint, is_separated, joint, marginals, product_to_frame, supports,
)
from setqm.errors import (
    DimMismatch, ImpossibleOutcome, IncompatibleAttributes, InvalidArgument, NotTotal, ParseError,
    SetQMError, ShapeMismatch, SizeMismatch, Singular, UnknownGate, UniverseMismatch, ZeroState,
)
from setqm.gf2 import (
    BitVec, GF2Matrix, add, invert, is_nonsingular, kron, mat_apply, mat_mul, solve, transpose,
)
from setqm.attributes import (
    Attribute, eigenkets, is_complete, measure, measure_given, measure_probs, project,
    spectral_apply,
)
from setqm.density import (
    DensityMatrix, entropy_increase, expectation, measure_density, purity, rho_of_partition,
)
from setqm.partitions import (
    Partition, block_entropy_relation, dit_set, iter_partitions, join, logical_entropy, refines,
    shannon_entropy,
)
from setqm.qc import (
    BooleanFunction, Gate, Register, deutsch, ef_gate, line_probs, measure_line,
    measure_line_given, parity_sat, standard_gate, teleport, unambiguous_sat,
)
from setqm.space import (
    BasisFrame, SubsetKet, Universe, bracket, born, from_basis, ket_table, norm_sq, resolve, to_basis,
)

M, V = GF2Matrix.identity(2), BitVec(2, 1)
U = Universe(("a", "b"))
KET, FRAME, DYN = U.subset(["a"]), U.canonical_frame(), Dynamics(M)
PART = Partition(U, (0b01, 0b10))
F = Attribute(U, (1, 2))


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
        lambda: BooleanFunction.from_bits("\u0661\u0660"),  # int() reads these as 1 and 0
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
        lambda: dsl.run("lines 2", 0),
        lambda: dsl.render("x"),
        lambda: dsl.parse(None),
        lambda: supports(None),
        lambda: is_separated(None),
        lambda: marginals(None),
        lambda: join(PART, "x"),
        lambda: refines(PART, None),
        lambda: bracket(None, None),
        lambda: norm_sq(None),
        lambda: resolve(None),
        lambda: logical_entropy(None),
        lambda: shannon_entropy(None),
        lambda: purity(None),
        lambda: rho_of_partition(None),
        lambda: measure_probs(None, None),
        lambda: cli.main(["bracket", None, "{a}"]),
        lambda: cli.main([b"bracket"]),
        lambda: Attribute(None, None),
        lambda: BooleanFunction(None, None),
        lambda: DensityMatrix(None, ()),
        lambda: Partition(None, None),
        lambda: SlitConfig(None, None, None),
        lambda: bell_basis_frames(None),
        lambda: bell_violation(None),
        lambda: counterfactual_joint(None, None),
        lambda: double_slit(None, None),
        lambda: double_slit_sample(None, None, None),
        lambda: ef_gate(None),
        lambda: eigenkets("x"),
        lambda: ket_table(-1, None),
        lambda: line_probs(None, None),
        lambda: measure(None, None, None),
        lambda: project(None, None, None),
        lambda: spectral_apply(None, None),
        # a valid first argument with a bad later one, which the sweep below never pairs
        lambda: measure(F, KET, None),
        lambda: measure_line(Register.basis(1, 0), 0, None),
        lambda: double_slit_sample(presets.double_slit_setup(), False, None),
        lambda: Attribute.from_values(U, None),
        lambda: project(F, [1], KET),
        lambda: measure_given(F, KET, [1]),
        lambda: GF2Matrix.from_rows([iter([1])]),
        # a classmethod or method with a non-iterable argument
        lambda: Partition.from_blocks(U, None),
        lambda: U.subset(None),
        lambda: Attribute.indicator(U, None),
        lambda: ket_table(2, [FRAME]).row_for("U", None),
        lambda: GF2Matrix.from_rows(5),
        lambda: Register.from_bitstrings(1, None),
        lambda: BooleanFunction.from_bits(None),
        # a universe that is not a Universe
        lambda: SubsetKet(None, BitVec(2, 1)),
        lambda: ProductState(None, BitVec(4, 1)),
        lambda: ProductUniverse(None, U).state([("a", "a")]),
        lambda: Partition.discrete(None),
        lambda: list(iter_partitions(None)),
        lambda: JointDistribution(None).prob(("a", "a")),
        # a seed that is not an int: every draw of a run is seeded
        lambda: dsl.run(dsl.parse("lines 1\nmeasure 0\n"), [1]),
        lambda: dsl.run(dsl.parse("lines 1\nmeasure 0\n"), None),
        # a hand-built AST that `parse` never builds
        lambda: dsl.CircuitAst(2, ("00",), None),
        lambda: dsl.CircuitAst(2, ("00",), (dsl.CnotStep("0", 1),)),
        lambda: dsl.CircuitAst(2, ("00",), (dsl.EfStep("01"),)),
        lambda: dsl.CircuitAst(2, ("00",), (None,)),
        lambda: dsl.CircuitAst(2, "00", ()),
        lambda: dsl.CircuitAst(2, (0,), ()),
        # a bool where a count, basis index or line goes: True == 1, but a register of
        # True lines formats its kets with "0Trueb"
        lambda: Register.from_indices(True, [0]),
        lambda: Register.basis(2, True),
        lambda: measure_line(Register.basis(2, 1), True, random.Random(0)),
    ],
    ids=["basis-float-index", "from-indices-float", "bitvec-float-bits",
         "from-indices-str", "from-bits-letter", "from-bits-other-digits", "table-float-entry",
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
         "marginals-none", "join-str-right", "refines-none-fine", "bracket-none",
         "norm-sq-none", "resolve-none", "logical-entropy-none", "shannon-entropy-none",
         "purity-none", "rho-of-partition-none", "measure-probs-none", "cli-main-none-arg",
         "cli-main-bytes-arg", "attribute-none", "boolean-function-none", "density-matrix-none",
         "partition-none", "slit-config-none", "bell-basis-frames-none", "bell-violation-none",
         "counterfactual-joint-none", "double-slit-none", "double-slit-sample-none",
         "ef-gate-none", "eigenkets-str", "ket-table-none-frames", "line-probs-none",
         "measure-none", "project-none", "spectral-apply-none", "measure-none-rng",
         "measure-line-none-rng", "double-slit-sample-none-rng", "from-values-none-values",
         "project-list-eigenvalue", "measure-given-list-eigenvalue", "from-rows-iterator-row",
         "from-blocks-none-blocks", "subset-none-labels", "indicator-none-labels",
         "row-for-none-labels", "from-rows-int", "from-bitstrings-none-strings",
         "from-bits-none", "ket-none-universe", "product-state-none-space",
         "product-universe-none-left", "discrete-none", "iter-partitions-none",
         "joint-distribution-none", "run-list-seed", "run-none-seed", "ast-none-steps",
         "ast-str-cnot-line", "ast-narrow-ef-table", "ast-none-step", "ast-str-initial",
         "ast-int-initial", "from-indices-bool-lines", "basis-bool-index",
         "measure-line-bool-line"],
)
def test_wrongly_typed_arguments_raise_invalid_argument(call):
    with pytest.raises(InvalidArgument):
        call()


@pytest.mark.parametrize("outcome", [1.0, "1", None, 2, -1],
                         ids=["float", "str", "none", "two", "minus-one"])
def test_only_the_ints_0_and_1_are_line_outcomes(outcome):
    with pytest.raises(ImpossibleOutcome):
        measure_line_given(Register.basis(1, 1), 0, outcome)


SINGULAR = GF2Matrix.from_rows([[1, 1], [1, 1]])
WIDE = GF2Matrix.from_rows([[1, 0, 0], [0, 1, 0]])
U3 = Universe(("a", "b", "c"))
FRAME3 = U3.canonical_frame()


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: Gate("g", WIDE), SizeMismatch, "must be square"),
        (lambda: Gate("g", GF2Matrix.identity(3)), SizeMismatch, "power of two"),
        (lambda: Gate("g", SINGULAR), Singular, "must be nonsingular"),
        (lambda: Register(1, BitVec(4, 1)), SizeMismatch, "2\\^lines"),
        (lambda: Register(1, BitVec(2, 0)), ZeroState, "must be nonzero"),
        (lambda: SubsetKet(U, BitVec(3, 1)), DimMismatch, "does not match universe size"),
        (lambda: ProductState(ProductUniverse(U, U), BitVec(3, 1)), DimMismatch,
         "product size"),
        (lambda: to_basis(KET, FRAME3), DimMismatch, "does not match the ket"),
        (lambda: from_basis(KET, FRAME, U3), DimMismatch, "does not match the universe"),
        (lambda: interference_coefficients(KET, FRAME, FRAME3), DimMismatch, "do not agree"),
        (lambda: SlitConfig(DYN, FRAME3, KET), DimMismatch, "position frame"),
        (lambda: SlitConfig(DYN, FRAME, U3.subset(["a"])), DimMismatch, "slit state"),
        (lambda: product_to_frame(presets.bell_state(), FRAME3, FRAME), DimMismatch,
         "do not match the factors"),
        (lambda: bell_basis_frames(U3), DimMismatch, "two-element universe"),
        (lambda: solve(M, BitVec(3, 1)), DimMismatch, "2 rows, vector has length 3"),
        (lambda: Attribute(U, (1,)), NotTotal, "every element"),
        (lambda: measure(F, U.empty(), random.Random(0)), ZeroState, "zero ket"),
        (lambda: measure_given(F, U.empty(), 1), ZeroState, "zero ket"),
        (lambda: dsl.parse("lines 1\ninit 0\ninit 1\ngate X 0\n"), ParseError,
         "only one init"),
        (lambda: dsl.parse("lines 1\ngate X 0\ninit 0\n"), ParseError, "init must come before"),
        (lambda: dsl.parse("lines 1\ngate EF\n"), ParseError, "one truth-table bitstring"),
        (lambda: dsl.parse("lines 1\ngate EF 0x\n"), ParseError, "must be 0/1 bits"),
    ],
    ids=["gate-not-square", "gate-not-power-of-two", "gate-singular", "register-length",
         "register-zero", "ket-length", "product-state-length", "to-basis-dim", "from-basis-dim",
         "interference-dims", "slit-frame-dim", "slit-state-dim", "product-to-frame-dims",
         "bell-frames-universe", "solve-dims", "attribute-not-total", "measure-zero",
         "measure-given-zero", "parse-two-inits", "parse-late-init", "parse-ef-arity",
         "parse-ef-table"],
)
def test_each_checked_fault_raises_its_own_error(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_an_unhashable_gate_name_is_an_unknown_gate():
    with pytest.raises(UnknownGate):
        standard_gate(["H0"])


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


FOREIGN = Universe(("v0", "v1"))  # the same size as U, other labels
TWIN = Universe(U.labels)  # equal labels, a distinct object
RHO = rho_of_partition(PART)


def second_operands(u: Universe):
    """A ket {u_0}, the discrete partition and its density matrix, all on `u`."""
    part = Partition.discrete(u)
    return SubsetKet(u, BitVec(2, 0b01)), part, rho_of_partition(part)


# Every two-operand call that checks its operands' universes, given its second operand.
DOOR_CALLS = {
    "add": lambda ket, part, rho: KET + ket,
    "intersect": lambda ket, part, rho: KET.intersect(ket),
    "bracket": lambda ket, part, rho: bracket(KET, ket),
    "project": lambda ket, part, rho: project(F, 1, ket),
    "measure-probs": lambda ket, part, rho: measure_probs(F, ket),
    "measure": lambda ket, part, rho: measure(F, ket, random.Random(0)),
    "measure-given": lambda ket, part, rho: measure_given(F, ket, 1),
    "spectral-apply": lambda ket, part, rho: spectral_apply(F, ket),
    "expectation": lambda ket, part, rho: expectation(F, rho),
    "measure-density": lambda ket, part, rho: measure_density(F, rho),
    "entropy-increase": lambda ket, part, rho: entropy_increase(RHO, rho),
    "join": lambda ket, part, rho: join(PART, part),
    "refines": lambda ket, part, rho: refines(PART, part),
}


@pytest.mark.parametrize("name", DOOR_CALLS)
def test_operands_of_equal_size_foreign_universes_raise_universe_mismatch(name):
    # one message, naming the operand types and none of the labels
    with pytest.raises(UniverseMismatch, match=r"^\w+ and \w+ live on different universes$") as exc:
        DOOR_CALLS[name](*second_operands(FOREIGN))
    assert "v0" not in str(exc.value)


@pytest.mark.parametrize("name", DOOR_CALLS)
def test_operands_on_an_equal_universe_object_act_as_on_the_shared_one(name):
    call = DOOR_CALLS[name]
    assert TWIN is not U and call(*second_operands(TWIN)) == call(*second_operands(U))


FOREIGN_KET, FOREIGN_PART, FOREIGN_RHO = second_operands(FOREIGN)


@pytest.mark.parametrize(
    "call,error,message",
    [
        # a wrong type that lives on a foreign universe, on either side
        (lambda: KET + FOREIGN_PART, InvalidArgument, "expected a SubsetKet, got Partition"),
        (lambda: bracket(FOREIGN_RHO, KET), InvalidArgument, "expected a SubsetKet, got Density"),
        (lambda: measure_probs(F, FOREIGN_PART), InvalidArgument, "got Partition"),
        (lambda: project(FOREIGN_RHO, 1, KET), InvalidArgument,
         "expected a Attribute, got DensityMatrix"),
        (lambda: expectation(F, FOREIGN_KET), InvalidArgument, "got SubsetKet"),
        (lambda: entropy_increase(FOREIGN_PART, RHO), InvalidArgument, "got Partition"),
        (lambda: join(PART, FOREIGN_RHO), InvalidArgument, "got DensityMatrix"),
        (lambda: refines(FOREIGN_KET, PART), InvalidArgument, "got SubsetKet"),
        # a zero ket on a foreign universe
        (lambda: measure_probs(F, FOREIGN.empty()), ZeroState, "zero ket"),
        (lambda: measure(F, FOREIGN.empty(), random.Random(0)), ZeroState, "zero ket"),
        (lambda: measure_given(F, FOREIGN.empty(), 1), ZeroState, "zero ket"),
        # density matrices of different sizes, so on different universes too
        (lambda: entropy_increase(RHO, rho_of_partition(Partition.discrete(U3))), ShapeMismatch,
         "differ in dimension"),
    ],
    ids=["add", "bracket", "measure-probs", "project", "expectation", "entropy-increase", "join",
         "refines", "measure-probs-zero", "measure-zero", "measure-given-zero",
         "entropy-increase-size"],
)
def test_a_two_operand_call_with_two_faults_raises_the_first_in_order(call, error, message):
    # the wrong type first, then the zero state or the size, then the universe
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("fn", [eigenkets, is_complete], ids=["eigenkets", "is-complete"])
@pytest.mark.parametrize(
    "fs,error",
    [(None, InvalidArgument), ([F, None], InvalidArgument), ([None, F], InvalidArgument),
     ([F, Attribute(FOREIGN, (1, 2)), None], InvalidArgument), ([], IncompatibleAttributes),
     ([F, Attribute(FOREIGN, (1, 2))], IncompatibleAttributes)],
    ids=["none", "non-attribute-last", "non-attribute-first", "foreign-then-non-attribute",
         "empty", "foreign"],
)
def test_an_attribute_family_raises_the_wrong_type_first(fn, fs, error):
    with pytest.raises(error):
        fn(fs)


SWEEP_VALUES = (None, "x", -1, 1.5, (), [1], object())
BELL = presets.bell_state()
# One instance of each public class, whose public bound methods the sweep calls.
SAMPLES = [
    F, FRAME, BitVec(2, 1), BooleanFunction.from_bits("0110"), dsl.parse("lines 1\nmeasure 0\n"),
    RHO, dit_set(PART), DYN, M, standard_gate("H0"), joint(BELL), ket_table(2, [FRAME]),
    measure(F, KET, random.Random(0)), parity_sat(BooleanFunction.from_bits("01")), PART, BELL,
    BELL.space, Register.basis(2, 1), dsl.run(dsl.parse("lines 1\nmeasure 0\n"), 0),
    presets.double_slit_setup(), KET, teleport(1, 0, random.Random(0)), U,
    bell_violation(BELL), counterfactual_joint(BELL, presets.frames_ab()),
]


def sweep_targets():
    """Each public function and class, and the public classmethods and sample methods of a class."""
    samples = {type(v): v for v in SAMPLES}
    for name in setqm.__all__:
        fn = getattr(setqm, name)
        # SetQMError takes any arguments and has no signature to read
        if not callable(fn) or isinstance(fn, type) and issubclass(fn, BaseException):
            continue
        yield name, fn
        if isinstance(fn, type):
            sample = samples[fn]  # a KeyError: a public class without a sample
            for attr in dir(sample):  # its classmethods come bound to the class
                method = getattr(sample, attr)
                if not attr.startswith("_") and inspect.ismethod(method):
                    yield f"{name}.{attr}", method


def required(fn) -> list[inspect.Parameter]:
    """The parameters every call must fill: the positional ones without a default."""
    return [p for p in inspect.signature(fn).parameters.values()
            if p.default is p.empty and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]


def sweep_arguments(slots: int):
    """Every combination of SWEEP_VALUES for up to two slots, else one value in all."""
    if slots <= 2:
        return itertools.product(SWEEP_VALUES, repeat=slots)
    return ((v,) * slots for v in SWEEP_VALUES)


def escapes(calls) -> str:
    """For each (name, fn, args) call, the first per name to raise outside SetQMError."""
    found = {}
    for name, fn, args in calls:
        try:
            out = fn(*args)
            if inspect.isgenerator(out):  # a lazy generator raises on its first item
                list(out)
        except SetQMError:
            pass
        except Exception as exc:  # any other type escapes the contract
            found.setdefault(name, f"{name}{args!r}: {type(exc).__name__}: {exc}")
    return "\n".join(found.values())


def test_every_public_callable_returns_or_raises_a_domain_error():
    found = escapes((name, fn, args) for name, fn in sweep_targets()
                    for args in sweep_arguments(len(required(fn))))
    assert not found, "escape the SetQMError hierarchy:\n" + found


def held_first_targets():
    """Each public function of two or more required parameters whose first is annotated with
    a sample's class, with that sample and the number of parameters left. setqm's modules
    postpone annotations, so each annotation is its source text, such as "SubsetKet"."""
    samples = {type(v).__name__: v for v in SAMPLES}
    for name in setqm.__all__:
        fn = getattr(setqm, name)
        if callable(fn) and not isinstance(fn, type):
            params = required(fn)
            if len(params) >= 2 and params[0].annotation in samples:
                yield name, fn, samples[params[0].annotation], len(params) - 1


AB, AB1, AB2 = presets.frames_ab()
# A valid call of each public function of three or more required parameters. A class of as
# many takes its sample's fields.
VALID_CALLS = {
    "double_slit_sample": (presets.double_slit_setup(), False, random.Random(0)),
    "from_basis": (KET, FRAME, U),
    "interference_coefficients": (KET, FRAME, FRAME),
    "left_measure_prob": (BELL, AB1, "a'"),
    "measure": (F, KET, random.Random(0)),
    "measure_given": (F, KET, 1),
    "measure_line": (Register.basis(2, 1), 0, random.Random(0)),
    "measure_line_given": (Register.basis(2, 1), 1, 1),
    "product_to_frame": (BELL, AB1, AB2),
    "project": (F, 1, KET),
    "right_measure_prob": (BELL, AB1, "b'"),
    "sequential_pair_prob": (BELL, AB, "a", AB1, "a'"),
    "teleport": (1, 0, random.Random(0)),
}


def valid_calls():
    """(name, fn, valid arguments) for each sweep target of three or more required parameters."""
    samples = {type(v): v for v in SAMPLES}
    for name, fn in sweep_targets():
        params = required(fn)
        if len(params) >= 3:  # KeyError: a function without a valid call, a class without a sample
            yield name, fn, VALID_CALLS.get(name) or [getattr(samples[fn], p.name) for p in params]


def test_one_bad_argument_among_valid_ones_raises_a_domain_error():
    calls = list(valid_calls())
    assert set(VALID_CALLS) <= {name for name, _, _ in calls}
    for name, fn, valid in calls:
        fn(*valid)  # each valid call returns, so each swept position is the one at fault
    found = escapes((name, fn, (*valid[:k], v, *valid[k + 1:])) for name, fn, valid in calls
                    for k in range(len(valid)) for v in SWEEP_VALUES)
    assert not found, "escape the SetQMError hierarchy:\n" + found


def test_a_valid_first_argument_with_bad_later_ones_raises_a_domain_error():
    targets = list(held_first_targets())
    assert {"apply", "born", "join", "measure_line", "entropy_increase"} <= {t[0] for t in targets}
    found = escapes((name, fn, (sample, *rest)) for name, fn, sample, slots in targets
                    for rest in sweep_arguments(slots))
    assert not found, "escape the SetQMError hierarchy:\n" + found


@pytest.mark.parametrize(
    "op, operand",
    [(operator.add, KET), (operator.xor, V), (operator.contains, KET),
     (operator.contains, dit_set(PART))],
    ids=["ket-add", "bitvec-xor", "ket-in", "dit-set-in"],
)
def test_operators_return_or_raise_a_domain_error(op, operand):
    # operator.contains(a, v) is `v in a`
    found = escapes((op.__name__, op, (operand, v)) for v in (*SWEEP_VALUES, (["a"], "b")))
    assert not found, "escape the SetQMError hierarchy:\n" + found
