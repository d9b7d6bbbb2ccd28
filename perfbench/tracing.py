"""Span tracing of the program's layers, from outside the program.

`Tracer` wraps the public functions of each openbilliards module, plus the
methods and private writers that the per-layer metrics name, and installs
each wrapper at every module attribute that holds the original function.
The modules import one another by name (`openstats.step_batch`,
`dynamics.locate_batch`, ...), so a wrapper installed only at its home
module would miss most calls.  Spans stay in memory as tuples
(name, parent span, start, end, amount) and are written out at the end.

A function that a later refactor removes is simply not wrapped: its metrics
read 0.  Untraced runs never construct a Tracer.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from collections import defaultdict

import numpy as np

MODULES = ("cli", "geometry", "dynamics", "measure", "cones", "inducing",
           "openstats")
# (module, class, method) wrapped in place on the class
METHODS = (("geometry", "Hole", "contains"), ("measure", "SrbSampler", "sample"))
# private functions that per-layer metrics name; amount = bytes written
WRITERS = (("cli", "_write_csv"), ("cli", "_write_json"))


def _lanes(args):
    """Size of the first array argument: the lanes of a kernel call."""
    for a in args:
        if isinstance(a, np.ndarray):
            return a.size
    return 0


def _bytes_written(args):
    try:
        return os.path.getsize(args[0])
    except (OSError, IndexError, TypeError):
        return 0


class Tracer:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        # return values kept for metrics read off results (censor counts)
        self.results = {"openstats.collect_hitting": []}
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, amount):
        spans, stack = self.spans, self._stack
        keep = self.results.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, parent, t0, t1, amount(args))
            if keep is not None:
                keep.append(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        pkg = self.package
        mods = {m: getattr(pkg, m) for m in MODULES if hasattr(pkg, m)}
        originals = {}
        for mname, mod in mods.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and not attr.startswith("_") \
                        and obj.__module__ == mod.__name__:
                    originals[obj] = f"{mname}.{attr}"
        for mname, attr in WRITERS:
            obj = getattr(mods.get(mname), attr, None)
            if inspect.isfunction(obj):
                originals[obj] = f"{mname}.write"
        wrappers = {}
        for fn, name in originals.items():
            amount = _bytes_written if name.endswith(".write") else _lanes
            wrappers[fn] = self._wrap(name, fn, amount)
        # install at every name a caller may look the function up by
        for mod in (pkg, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for mname, cls_name, meth in METHODS:
            cls = getattr(mods.get(mname), cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if inspect.isfunction(fn):
                self._restore.append((cls, meth, fn))
                setattr(cls, meth,
                        self._wrap(f"{mname}.{cls_name}.{meth}", fn, _lanes))
        return self

    def __exit__(self, *exc):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()
        return False

    def summary(self, start, stop):
        """name -> {calls, amount, total_s, self_s, in_step_amount} over the
        spans start..stop-1, which must hold whole trees of calls."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1, _ in self.spans[start:stop]:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "amount": 0, "total_s": 0.0,
                                   "self_s": 0.0, "in_step_amount": 0})
        for i in range(start, stop):
            name, parent, t0, t1, amount = self.spans[i]
            agg = out[name]
            agg["calls"] += 1
            agg["amount"] += amount
            agg["total_s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child[i]
            if self._under(parent, "dynamics.step_batch"):
                agg["in_step_amount"] += amount
        return out

    def _under(self, idx, name):
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][1]
        return False

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "parent", "start", "end", "amount"],
                       "spans": self.spans}, f)
