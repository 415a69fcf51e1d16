"""One hypothesis profile for every property suite, and an audit of every unchecked record build.

`_record` gives each record an unchecked builder, `_derived`, for values
that setqm derives from checked ones. Here every record's `_derived` is
wrapped for the whole session: each object it builds is built again
through the record's checked constructor, and every field of the two,
`init=False` ones included, must be equal and of the same type. A
mismatch raises AssertionError where the build happens and, should a
caller swallow that, still fails the session. The summary line gives the
number of builds checked per record.
"""

import dataclasses
import functools
import importlib
import pkgutil
from collections import Counter
from fractions import Fraction

from hypothesis import settings

import setqm
from setqm.density import DensityMatrix

settings.register_profile("setqm", max_examples=40, deadline=None, derandomize=True)
settings.load_profile("setqm")

# The checked constructor of a record whose `__init__` takes other arguments than its fields.
CHECKED = {
    DensityMatrix: lambda rho: DensityMatrix(
        rho.universe, [(m, Fraction(a, rho._den)) for m, a in zip(rho.masks, rho._nums)]),
}
MISSING = object()

AUDITED = {}  # record class -> the audited `_derived` installed on it
BUILDS = Counter()  # record name -> builds checked
MISMATCHES = []


def mismatch(cls, names, derived, checked) -> str | None:
    """The first of the `names` fields that differs between a derived object and the checked one."""
    for name in names:
        got, want = vars(derived).get(name, MISSING), getattr(checked, name)
        if got is MISSING or type(got) is not type(want) or got != want:
            return f"{cls.__qualname__}._derived stores {name}={got!r}, the constructor {want!r}"
    return None


def audited(cls):
    """`cls._derived`, compiled now, that checks each object it builds against the constructor."""
    build = cls._derived.__func__
    names = [f.name for f in dataclasses.fields(cls)]
    init = [f.name for f in dataclasses.fields(cls) if f.init]
    checked = CHECKED.get(cls, lambda o: cls(**{name: vars(o).get(name, MISSING) for name in init}))

    @functools.wraps(build)
    def _derived(cls, *args, **kwargs):
        derived = build(cls, *args, **kwargs)
        try:
            problem = mismatch(cls, names, derived, checked(derived))
        except Exception as exc:  # the constructor rejects what the builder stored
            problem = f"{cls.__qualname__}._derived stores what the constructor rejects: {exc!r}"
        if problem:
            MISMATCHES.append(problem)
            raise AssertionError(problem)
        BUILDS[cls.__qualname__] += 1
        return derived

    return classmethod(_derived)


for info in pkgutil.iter_modules(setqm.__path__):
    module = importlib.import_module(f"setqm.{info.name}")
    for record in vars(module).values():
        if isinstance(record, type) and record.__module__ == module.__name__ \
                and dataclasses.is_dataclass(record):
            AUDITED[record] = record._derived = audited(record)


def pytest_sessionfinish(session):
    if MISMATCHES:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter):
    counts = "".join(f", {name} {n}" for name, n in BUILDS.most_common())
    terminalreporter.write_line(f"record audit: {sum(BUILDS.values())} builds checked{counts}; "
                                f"{len(MISMATCHES)} mismatches")
    for problem in dict.fromkeys(MISMATCHES):
        terminalreporter.write_line(f"record audit: {problem}")
