"""Exception types shared across the package."""

from __future__ import annotations


class SetQMError(Exception):
    """Base class for all domain errors raised by this package."""


class LengthMismatch(SetQMError):
    """Vectors of different lengths live in different spaces."""


class DimMismatch(SetQMError):
    """Matrix or frame dimensions do not agree."""


class NotSquare(SetQMError):
    """Operation defined only for square matrices."""


class Singular(SetQMError):
    """Matrix has no inverse over GF(2)."""


class UnknownLabel(SetQMError, KeyError):
    """Label is not an element of the universe."""

    __str__ = Exception.__str__  # KeyError would print the message's repr


class InvalidArgument(SetQMError, ValueError):
    """Constructor argument has a value no instance can hold, such as a length below 1."""


class InvalidBlocks(SetQMError, ValueError):
    """Blocks are empty or overlap, miss part of the universe, or carry a bad weight."""


class NotTotal(SetQMError, ValueError):
    """Attribute does not assign one value to each element of its universe."""


class UniverseMismatch(SetQMError):
    """Operands belong to different universes; set operations between them are undefined."""


class ZeroState(SetQMError):
    """The zero vector is a legal ket but an illegal state to measure or normalize."""


class OutOfRange(SetQMError):
    """Numeric argument outside its legal interval."""


class ImpossibleOutcome(SetQMError):
    """Requested measurement outcome has probability zero."""


class IncompatibleAttributes(SetQMError):
    """Attributes on different universes cannot be combined."""


class NotComplete(SetQMError):
    """Attribute set does not resolve the universe down to singletons."""


class ShapeMismatch(SetQMError):
    """Matrices of different shapes cannot be compared entrywise."""


class UnknownGate(SetQMError):
    """No gate with the given name."""


class SizeMismatch(SetQMError):
    """Gate size does not match the targeted register lines."""


class WrongArity(SetQMError):
    """Boolean function has the wrong number of arguments for this algorithm."""


class RegisterTooWide(SetQMError, ValueError):
    """Register has more lines than the simulator's width limit."""


class TooLarge(SetQMError, ValueError):
    """Input would make the library allocate more than its stated size limit."""


class DuplicateTerms(SetQMError, ValueError):
    """Two terms of a report would share one key, so one of them would be lost."""


class LineOutOfRange(SetQMError):
    """Register line index outside 0..lines-1."""


class ZeroInitial(SetQMError):
    """Circuit initial ket cancels to the zero vector."""


class ParseError(SetQMError):
    """Positioned syntax error in a circuit file. Positions are 1-based."""

    def __init__(self, line: int, column: int, message: str, token: str = ""):
        self.line = line
        self.column = column
        self.message = message
        self.token = token
        where = f"line {line}, col {column}"
        detail = f" near {token!r}" if token else ""
        super().__init__(f"{where}: {message}{detail}")
