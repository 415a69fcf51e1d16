"""The class decorator behind every setqm record type.

`@record` makes a frozen dataclass that behaves as `@dataclass(frozen=True)`
does: the same `__init__` signature, repr text, `==`, hash, `fields` and
`FrozenInstanceError` messages. `tests/test_record.py` checks each record
against such a twin. The stdlib compiles about six methods per class
through `exec`; for setqm's 31 records that was most of the import when
bytecode is cached. This decorator compiles one, and `_derived` (below)
only when it is first read.

- `dataclass(cls, init=False, repr=False, eq=False)` builds only the
  `Field` metadata, so `dataclasses.fields`, `replace` and `is_dataclass`
  work as before, and compiles nothing. `__dataclass_params__` reports
  those flags, and `frozen` as False. Every record has a docstring:
  without one, `dataclass()` writes `__doc__` from `inspect.signature`,
  which before `__init__` exists parses `object.__init__`'s text
  signature, one more compile and the tokenizer's import.
- `__init__` is the one method compiled per class, from one short `exec`:
  `_set(self, 'x', x)` for each field, with `_set` bound once to
  `object.__setattr__`, then `self.__post_init__()` if the class has one.
  Records are built in hot loops (`dsl.parse` builds one per step), so
  this stays per class: a shared `__init__(self, *args)` would loop over
  the names and be slower than the stdlib's, while this one skips the
  stdlib's per-field attribute lookup (GateStep("H0", 1): about 0.42
  against 0.49 us). It does not write to `self.__dict__`: on CPython 3.11
  that builds the instance dict, after which every read of a field takes
  about 26 ns in place of about 9. A class that defines its own
  `__init__`, such as `DensityMatrix`, keeps it. No field may be named
  `self` or `_set` or take a default.
- `__eq__`, `__hash__`, `__repr__`, `__setattr__` and `__delattr__` are the
  shared functions below. They read two class attributes set once here:
  `_record_key`, from an instance to the tuple of its `compare=True`
  fields (what the stdlib compares and hashes), and `_record_repr`, the
  names of its `repr=True` fields. That read costs about 0.1 us a call
  over a generated method, which no workload calls often enough to show.
- `_derived` is the unchecked builder for values that setqm derives from
  checked ones. Every record holds the shared `_BUILDER` descriptor; its
  first read per class compiles `_derived(cls, <every field, in fields()
  order>)`, which writes each field to `o.__dict__` and runs no
  `__init__`, `__post_init__` or check, and installs it on the class. A
  caller passes exactly what the checked constructor would store,
  `init=False` fields included, each of the type the record holds (a
  `BitVec`, not its mask); `tests/conftest.py` checks every build that
  the tests make. Unlike `__init__` it writes `__dict__`: later field reads
  cost about 17 ns more, but `object.__setattr__` costs about 28 ns more
  a build, and `circuits`, which builds a `Register` and a `TraceEntry`
  per step, ran 5-6% slower with it. Only 9 of the 31 records are ever
  derived, so compiling on first read keeps the rest out of the import.
  No field may be named `cls`, `o`, `d` or `_new`.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, fields
from operator import attrgetter


def _eq(self, other):
    if other.__class__ is self.__class__:
        key = self._record_key
        return key(self) == key(other)
    return NotImplemented


def _hash(self):
    return hash(self._record_key(self))


def _repr(self):
    shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._record_repr])
    return f"{self.__class__.__qualname__}({shown})"


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


_SHARED = {"__eq__": _eq, "__hash__": _hash, "__repr__": _repr,
           "__setattr__": _setattr, "__delattr__": _delattr}


def _key(names: tuple[str, ...]):
    """The function from an instance to the tuple of its `names` fields."""
    if len(names) == 1:
        one = attrgetter(*names)
        return lambda self: (one(self),)
    return attrgetter(*names)


def _compile(cls, name: str, params: list, body: list[str], bound: dict):
    """The function `name(<params>)` of `body` lines, with the `bound` names as globals."""
    lines = [f"def {name}({', '.join(params)}):", *body]
    namespace = {}
    exec("\n".join(lines), {"__name__": cls.__module__, **bound}, namespace)
    fn = namespace[name]
    fn.__qualname__ = f"{cls.__qualname__}.{name}"
    return fn


def _init(cls, params: list) -> None:
    """Compile and install the straight-line `__init__` over the init fields."""
    names = [f.name for f in params]
    body = [f" _set(self, {name!r}, {name})" for name in names]
    if hasattr(cls, "__post_init__"):
        body.append(" self.__post_init__()")
    init = _compile(cls, "__init__", ["self", *names], body, {"_set": object.__setattr__})
    init.__annotations__ = {f.name: f.type for f in params} | {"return": None}
    cls.__init__ = init


class _Builder:
    """The descriptor behind every record's `_derived`; see the module docstring."""

    def __get__(self, obj, cls):
        names = [f.name for f in fields(cls)]
        body = [" o = _new(cls)", " d = o.__dict__", *[f" d[{name!r}] = {name}" for name in names],
                " return o"]
        build = classmethod(_compile(cls, "_derived", ["cls", *names], body, {"_new": object.__new__}))
        cls._derived = build
        return build.__get__(obj, cls)


_BUILDER = _Builder()


def record(cls):
    """Make `cls` a frozen dataclass; see the module docstring for how."""
    dataclass(cls, init=False, repr=False, eq=False)
    every = fields(cls)
    if "__init__" not in vars(cls):
        _init(cls, [f for f in every if f.init])
    cls._record_key = staticmethod(_key(tuple(f.name for f in every if f.compare)))
    cls._record_repr = tuple(f.name for f in every if f.repr)
    cls._derived = _BUILDER
    for name, fn in _SHARED.items():
        setattr(cls, name, fn)
    return cls
