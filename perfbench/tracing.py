"""Tracing of bihkit from outside its source.

`Tracer.install()` wraps every public function, and every public method of
every class, in the traced modules.  A wrapped function records a span
(name, start, end, parent) in memory.  `Jet` arithmetic and `Composer.apply`
get counters only: they cost a few microseconds each and run millions of
times, so a span apiece would swamp the run.

Modules import names from each other (`from .residuals import
theorem_residual`), so a function is replaced in every module that binds it
and in module-level dicts that hold it (`cli.COMMANDS`), not only where it is
defined.  `Tracer.remove()` puts every original object back.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from functools import cached_property

# Layer names are the module names.  `report` is left unwrapped, so report
# rendering counts in `cli` self time.
LAYERS = ("scenario", "expr", "jets", "spaces", "calculus", "residuals",
          "audits", "props", "variational", "cli")

# Jet operations that get a counter instead of a span.
JET_COUNTERS = {
    "Jet": {"__mul__": "mul", "__rmul__": "mul",
            "__add__": "add", "__radd__": "add", "__sub__": "add",
            "__rsub__": "add", "__neg__": "add",
            "truncate": "truncate", "deriv": "deriv"},
    "Composer": {"apply": "compose"},
}

# Private functions that mark a layer boundary of their own.
EXTRA_SPANS = {"scenario._validate"}


def self_times(spans):
    """Self time per layer: each span's duration minus the part of its
    interval covered by its direct children.

    `spans` is a sequence of (name, start, end, parent_index) with parent
    index -1 for a root.
    """
    children = {}
    for _name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = Counter()
    for i, (name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[name.split(".", 1)[0]] += (end - start) - covered
    return out


class Tracer:
    """Spans and counters for one traced pass over bihkit."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()

        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_descriptor(self, descriptor, make):
        """Wrapped copy of a class attribute, or None if it is not code."""
        if isinstance(descriptor, staticmethod):
            return staticmethod(make(descriptor.__func__))
        if isinstance(descriptor, cached_property):
            wrapped = cached_property(make(descriptor.func))
            wrapped.attrname = descriptor.attrname
            return wrapped
        if inspect.isfunction(descriptor):
            return make(descriptor)
        return None

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- install / remove --------------------------------------------------

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [getattr(self.package, layer) for layer in LAYERS]
        replaced = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj) and (
                    not attr.startswith("_") or name in EXTRA_SPANS
                ):
                    replaced[obj] = self._span(name, obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._set(module, attr, replaced[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in replaced:
                            self._undo.append((obj, key, value))
                            obj[key] = replaced[value]

    def _wrap_class(self, layer, cls):
        counters = JET_COUNTERS.get(cls.__name__) if layer == "jets" else None
        if layer == "jets" and counters is None:
            return
        for attr, descriptor in list(vars(cls).items()):
            if counters is not None:
                key = counters.get(attr)
                make = key and (lambda fn, key=key: self._counter(key, fn))
            elif attr == "__init__" or not attr.startswith("_"):
                name = f"{layer}.{cls.__name__}.{attr}"
                make = lambda fn, name=name: self._span(name, fn)
            else:
                make = None
            wrapped = make and self._wrap_descriptor(descriptor, make)
            if wrapped is not None:
                self._set(cls, attr, wrapped)

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- queries -----------------------------------------------------------

    def calls(self, name):
        return sum(1 for span in self.spans if span[0] == name)

    def busy(self, name):
        """Total inclusive time of the outermost spans called `name`."""
        total = 0.0
        open_until = -1.0
        for span_name, start, end, _parent in self.spans:
            if span_name == name and start >= open_until:
                total += end - start
                open_until = end
        return total

    def calls_under(self, name, ancestor_test):
        """Spans called `name` that have an ancestor passing `ancestor_test`."""
        spans = self.spans
        count = 0
        for span_name, _start, _end, parent in spans:
            if span_name != name:
                continue
            while parent >= 0 and not ancestor_test(spans[parent][0]):
                parent = spans[parent][3]
            count += parent >= 0
        return count
