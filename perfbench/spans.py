"""Span tracing around setqm's public callables, installed only for traced runs.

`Tracer.install` replaces every module attribute that binds a public
function of a traced layer (so both `setqm.gf2.kron` and `setqm.qc.kron`)
with a timing wrapper, and wraps the `__init__` of each public class the
layer defines. `Tracer.remove` puts the originals back. Spans are kept in
memory as [name, start, end, parent, op, size] and written out by `dump`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("gf2", "space", "partitions", "attributes", "density", "dynamics",
          "entangle", "qc", "dsl", "cli")

_MARK = "__perfbench_original__"


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


def _public_classes(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isclass(obj)
                and obj.__module__ == module.__name__ and "__init__" in vars(obj)):
            yield name, obj


def _setqm_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "setqm" or name.startswith("setqm."))]


def installed_wrappers() -> list[str]:
    """Names of every setqm binding that currently holds a tracing wrapper."""
    found = []
    for module in _setqm_modules():
        for name, obj in vars(module).items():
            if hasattr(obj, _MARK):
                found.append(f"{module.__name__}.{name}")
            elif inspect.isclass(obj) and hasattr(vars(obj).get("__init__"), _MARK):
                found.append(f"{module.__name__}.{name}.__init__")
    return found


def assert_untraced() -> None:
    left = installed_wrappers()
    if left:
        raise RuntimeError(f"tracing wrappers still installed: {left[:5]}")


class Tracer:
    """In-memory span recorder for one process; install, run ops, remove."""

    def __init__(self, hooks):
        # hooks: span name -> fn(args, kwargs, result) -> (size tag or None, {counter: n})
        self.hooks = hooks
        self.spans: list[list] = []
        self.stack = [-1]
        self.op_id = None
        self.ops = 0
        self.pending: list = []
        self.counters: dict[str, float] = defaultdict(float)
        self._restore: list = []

    def _wrap(self, name, fn):
        hook = self.hooks.get(name)
        spans, stack, pending = self.spans, self.stack, self.pending

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], self.op_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None and rec[4] is not None:
                pending.append((rec, hook, args, kwargs, result))
            return result

        setattr(traced, _MARK, fn)
        return traced

    def install(self) -> None:
        assert_untraced()
        modules = _setqm_modules()
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"setqm.{layer}"]
            for name, fn in _public_functions(module):
                wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
            for name, cls in _public_classes(module):
                init = vars(cls)["__init__"]
                self._restore.append((cls, "__init__", init))
                type.__setattr__(cls, "__init__", self._wrap(f"{layer}.{name}", init))
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((module, name, obj))
                    setattr(module, name, wrappers[obj])

    def remove(self) -> None:
        for owner, name, original in reversed(self._restore):
            if inspect.isclass(owner):
                type.__setattr__(owner, name, original)
            else:
                setattr(owner, name, original)
        self._restore.clear()
        assert_untraced()

    def run_op(self, name: str, fn, arg):
        """Call fn(arg) inside a root span `op.<name>`; returns (result, error, seconds).

        The seconds are the root span's duration. Counter hooks run after
        the span has ended, so they count toward no span.
        """
        self.ops += 1
        rec = [f"op.{name}", 0.0, 0.0, -1, self.ops, None]
        self.op_id = self.ops
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        result = error = None
        rec[1] = perf_counter()
        try:
            result = fn(arg)
        except Exception as exc:  # the harness counts it as a failed op
            error = exc
        rec[2] = perf_counter()
        self.stack.pop()
        self.op_id = None
        self._flush()
        return result, error, rec[2] - rec[1]

    def _flush(self) -> None:
        for rec, hook, args, kwargs, result in self.pending:
            size, counts = hook(args, kwargs, result)
            rec[5] = size
            for key, n in counts.items():
                self.counters[key] += n
        self.pending.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, size in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "size": size}) + "\n")


def self_times(spans) -> list[float]:
    """Per-span duration minus the time its direct children cover."""
    out = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
