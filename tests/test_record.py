"""Every record class against the stdlib frozen dataclass it replaces, its unchecked builder,
and the import it costs."""

import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import setqm
from setqm import _record, dsl
from setqm.density import DensityMatrix
from setqm.gf2 import BitVec
from setqm.partitions import Partition
from setqm.space import SubsetKet, Universe
from test_errors import SAMPLES

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = [importlib.import_module(f"setqm.{m.name}") for m in pkgutil.iter_modules(setqm.__path__)]
RECORDS = sorted(
    {obj for module in MODULES for obj in vars(module).values()
     if isinstance(obj, type) and obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj)},
    key=lambda cls: f"{cls.__module__}.{cls.__qualname__}",
)
OWN_INIT = {DensityMatrix}  # the records that define their own __init__

# A run through every kind of step gives the dsl records that SAMPLES holds only inside others.
RUN = dsl.run(dsl.parse("lines 2\ninit 01\ngate H0 0\ngate CNOT 0 1\ngate EF 0110\nmeasure all\n"), 0)
SAMPLE_OF = {type(s): s for s in [*SAMPLES, *RUN.ast.steps, *RUN.trace, *RUN.measurements]}


def values(record) -> dict:
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def twin(cls, record=False):
    """A class of `cls`'s name, annotations, field options, own `__init__` and `__post_init__`:
    the stdlib frozen dataclass, or with `record` one more class made by the helper.
    Either has the generated `_derived`, which the audit in conftest.py does not wrap."""
    ns = {"__module__": cls.__module__, "__qualname__": cls.__qualname__,
          "__annotations__": dict(cls.__annotations__), "_derived": _record._BUILDER}
    for f in dataclasses.fields(cls):
        if not (f.init and f.repr and f.compare):
            ns[f.name] = dataclasses.field(init=f.init, repr=f.repr, compare=f.compare)
    if cls in OWN_INIT:
        ns["__init__"] = cls.__init__
    if hasattr(cls, "__post_init__"):
        ns["__post_init__"] = cls.__post_init__
    made = type(cls.__name__, (), ns)
    if record:
        return _record.record(made)
    return dataclasses.dataclass(frozen=True, init=cls not in OWN_INIT)(made)


def outcome(fn, *args, **kwargs):
    """What the call gives: its result's repr, or its exception's type and message."""
    try:
        return repr(fn(*args, **kwargs))
    except Exception as exc:
        return type(exc), str(exc)


def field_options(cls) -> list[tuple]:
    return [(f.name, f.type, f.init, f.repr, f.compare, f.hash, f.default, f.default_factory, f.kw_only)
            for f in dataclasses.fields(cls)]


def qualname(cls) -> str:
    return cls.__qualname__


def test_every_record_is_made_by_the_helper_and_has_a_sample():
    decorated = sum(p.read_text(encoding="utf-8").count("\n@record\nclass ") for p in SRC.glob("setqm/*.py"))
    assert len(RECORDS) == decorated > 0
    assert [c.__name__ for c in RECORDS
            if any(vars(c).get(name) is not fn for name, fn in _record._SHARED.items())] == []
    assert [c.__name__ for c in RECORDS if c not in SAMPLE_OF] == []


@pytest.mark.parametrize("cls", RECORDS, ids=qualname)
def test_records_are_frozen(cls):
    sample = SAMPLE_OF[cls]
    name, before = dataclasses.fields(cls)[0].name, repr(sample)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
        setattr(sample, name, 0)
    with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot assign to field 'extra'$"):
        sample.extra = 0
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
        delattr(sample, name)
    assert repr(sample) == before and "extra" not in vars(sample)


@pytest.mark.parametrize("cls", RECORDS, ids=qualname)
def test_record_matches_its_stdlib_twin(cls):
    reference, fields = twin(cls), values(SAMPLE_OF[cls])
    a, b = cls._derived(**fields), cls._derived(**fields)
    ta, tb = reference._derived(**fields), reference._derived(**fields)
    assert repr(a) == repr(ta)
    assert outcome(hash, a) == outcome(hash, ta)
    assert (a == b, a != b) == (ta == tb, ta != tb) == (True, False)
    # another record class, and another stdlib one, with equal fields
    other, other_twin = twin(cls, record=True)._derived(**fields), twin(cls)._derived(**fields)
    assert (a == other, a != other) == (ta == other_twin, ta != other_twin) == (False, True)
    # a field value no constructor takes: built on the record twin, as the audit rejects it on `cls`
    for f in dataclasses.fields(cls):
        changed = {**fields, f.name: object()}
        c, tc = type(other)._derived(**changed), reference._derived(**changed)
        assert (other == c, other != c, repr(c)) == (ta == tc, ta != tc, repr(tc))
        assert (outcome(hash, c) == outcome(hash, other)) == (outcome(hash, tc) == outcome(hash, ta))
    assert str(inspect.signature(cls)) == str(inspect.signature(reference))
    assert inspect.signature(cls) == inspect.signature(reference)
    assert field_options(cls) == field_options(reference)
    assert cls.__match_args__ == reference.__match_args__
    first = next(f.name for f in dataclasses.fields(cls) if f.init)
    for value in (fields[first], object()):
        assert (outcome(dataclasses.replace, a, **{first: value})
                == outcome(dataclasses.replace, ta, **{first: value}))
    for attr, act in (("setattr", lambda x: setattr(x, first, 0)), ("delattr", lambda x: delattr(x, first)),
                      ("new attribute", lambda x: setattr(x, "extra", 0))):
        assert outcome(act, a) == outcome(act, ta), attr


@pytest.mark.parametrize("cls", RECORDS, ids=qualname)
def test_derived_takes_every_field_in_order_and_stores_each_as_given(cls):
    sample = values(SAMPLE_OF[cls])
    assert list(inspect.signature(cls._derived).parameters) == list(sample)
    built = cls._derived(*sample.values())
    assert type(built) is cls and built == SAMPLE_OF[cls]
    assert vars(built).keys() == sample.keys()
    assert all(vars(built)[name] is value for name, value in sample.items())


def test_every_record_builder_is_audited():
    import conftest

    assert [cls.__qualname__ for cls in RECORDS
            if vars(cls).get("_derived") is not conftest.AUDITED.get(cls)] == []


U2 = Universe(("a", "b"))
BAD_BUILDS = {
    "bits beyond the length": (lambda: BitVec._derived(2, 4),
                               "^BitVec._derived stores what the constructor rejects"),
    "a bare mask for a BitVec": (lambda: SubsetKet._derived(U2, 1),
                                 "^SubsetKet._derived stores what the constructor rejects"),
    "a list for a tuple": (lambda: Partition._derived(U2, [1, 2]),
                           r"^Partition._derived stores masks=\[1, 2\], the constructor \(1, 2\)$"),
    "unsorted masks": (lambda: Partition._derived(U2, (2, 1)),
                       r"^Partition._derived stores masks=\(2, 1\), the constructor \(1, 2\)$"),
}


@pytest.mark.parametrize("build, problem", BAD_BUILDS.values(), ids=BAD_BUILDS.keys())
def test_the_audit_rejects_a_build_the_constructor_would_not_make(build, problem):
    import conftest

    before = len(conftest.MISMATCHES)
    with pytest.raises(AssertionError, match=problem):
        build()
    assert len(conftest.MISMATCHES) == before + 1
    del conftest.MISMATCHES[before:]  # an expected mismatch must not fail the session


# Run in a fresh interpreter: import every setqm module, then print the number of records
# and the names of those whose `_derived` is no longer the shared descriptor.
FRESH_BUILDERS = """
import dataclasses, importlib, json, pkgutil, setqm
from setqm._record import _BUILDER
records = {obj for m in pkgutil.iter_modules(setqm.__path__)
           for obj in vars(importlib.import_module(f"setqm.{m.name}")).values()
           if isinstance(obj, type) and dataclasses.is_dataclass(obj)}
print(json.dumps([len(records), [c.__qualname__ for c in records if vars(c)["_derived"] is not _BUILDER]]))
"""


def test_a_fresh_import_compiles_no_builder():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", FRESH_BUILDERS], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == [len(RECORDS), []]


# Run in a fresh interpreter with src/setqm's directory as argv[1]: import every module that
# a setqm source imports by absolute name, then count the compile audit events of the import.
COUNT_COMPILES = """
import ast, importlib, json, sys
from pathlib import Path
for path in Path(sys.argv[1]).glob("*.py"):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            importlib.import_module(node.module)
compiled = []
sys.addaudithook(lambda event, args: event == "compile" and compiled.append(str(args[1])))
import setqm, setqm.cli
print(json.dumps(compiled))
"""


def test_import_compiles_at_most_each_module_and_one_init_per_record():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", COUNT_COMPILES, str(SRC / "setqm")], env=env,
                         capture_output=True, text=True, check=True).stdout
    compiled = json.loads(out)
    assert len(compiled) <= len(MODULES) + 1 + len(RECORDS), compiled
