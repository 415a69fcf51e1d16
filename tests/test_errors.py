import pytest

from setqm.errors import InvalidArgument, SetQMError
from setqm.gf2 import BitVec, GF2Matrix
from setqm.qc import BooleanFunction, Register
from setqm.space import Universe


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
