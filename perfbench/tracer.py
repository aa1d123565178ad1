"""Spans around every call into bcspec's public functions, installed from outside.

The traced child (``traced_cli.py``) wraps each public module-level function
of the package, plus a few methods and the verify suites, and rebinds every
module attribute that refers to the original, because ``from .linalg import
nullspace`` gives ``spectra`` and ``operators`` their own binding.  A span
records its name, start, end, parent span and op id; spans stay in memory
and are written to one file when the child exits.

The parent (``run.py``) reads those files and aggregates them into the
per-layer metrics.  Self time is a span's duration minus the durations of
its direct children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = ("core", "linalg", "operators", "spectra", "oracle", "verify", "jsonio", "cli")

#: Methods traced under a module-level span name.
METHODS = {
    "core.classify": [("core", "Bicomplex", "classify")],
    "oracle.generator": [("oracle", "Rng", "generator")],
    "spectra.max_residual": [("spectra", "ModifiedEigenspace", "max_residual")],
    # Each construction re-validates finiteness of its arrays.
    "operators.construct": [
        ("operators", "BicomplexVector", "__post_init__"),
        ("operators", "BicomplexMatrix", "__post_init__"),
        ("operators", "BicomplexOperator", "__post_init__"),
    ],
}


class Tracer:
    """Span recorder for one process: parallel lists, appended in start order."""

    def __init__(self, op: int):
        self.op = op
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack = [-1]

    def wrap(self, span: str, fn):
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def save(self, path, **extra):
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            op=np.int64(self.op),
            **extra,
        )


def _package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "bcspec" or n.startswith("bcspec.")]


def instrument(tracer: Tracer) -> list[str]:
    """Wrap the package's public functions, methods and suites.

    Returns the bindings left unwrapped; an empty list means full coverage.
    """
    mods = {short: sys.modules[f"bcspec.{short}"] for short in MODULES}
    wrapped: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                wrapped[id(obj)] = (obj, tracer.wrap(f"{short}.{attr}", obj))

    def original(obj) -> bool:
        entry = wrapped.get(id(obj))
        return entry is not None and entry[0] is obj

    for mod in _package_modules():
        for attr, obj in list(vars(mod).items()):
            if original(obj):
                setattr(mod, attr, wrapped[id(obj)][1])

    method_wrappers = []
    for span, targets in METHODS.items():
        for short, cls_name, attr in targets:
            cls = getattr(mods[short], cls_name)
            wrapper = tracer.wrap(span, vars(cls)[attr])
            setattr(cls, attr, wrapper)
            method_wrappers.append((cls, attr, wrapper))

    suites = mods["verify"].SUITES
    suites[:] = [(n, s, tracer.wrap(f"verify.suite.{n}", fn)) for n, s, fn in suites]

    missing = [
        f"{mod.__name__}.{attr}"
        for mod in _package_modules()
        for attr, obj in vars(mod).items()
        if original(obj)
    ]
    missing += [f"{cls.__name__}.{attr}" for cls, attr, w in method_wrappers if vars(cls)[attr] is not w]
    missing += [f"verify.SUITES[{n}]" for n, _, fn in suites if not hasattr(fn, "__wrapped__")]
    return missing


# -- parent side ----------------------------------------------------------------


class Layers:
    """Per-layer totals over a run's traced ops.

    A metric group is a set of span names: ``calls`` counts its spans,
    ``total_s`` sums the spans whose parent is outside the group (so nested
    calls inside the group are not counted twice) and ``self_s`` sums self
    times.
    """

    def __init__(self, groups: dict[str, tuple[str, ...]]):
        self.groups = groups
        self.calls = dict.fromkeys(groups, 0)
        self.total = dict.fromkeys(groups, 0.0)
        self.self = dict.fromkeys(groups, 0.0)
        self.spans = 0
        self.bad_nesting = 0

    def add(self, trace, scale: float = 1.0) -> None:
        """Add one op's spans, their durations multiplied by scale."""
        import numpy as np

        names = [str(s) for s in trace["names"]]
        name, parent = trace["name"], trace["parent"]
        dur = (trace["end"] - trace["start"]) * scale
        has_parent = parent >= 0
        p = parent[has_parent]
        child_sum = np.bincount(p, weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child_sum
        outside = (trace["start"][has_parent] < trace["start"][p]) | (trace["end"][has_parent] > trace["end"][p])
        self.bad_nesting += int(np.count_nonzero(outside))
        self.spans += len(dur)
        for group, members in self.groups.items():
            ids = [i for i, s in enumerate(names) if s in members]
            if not ids:
                continue
            inside = np.isin(name, ids)
            parent_inside = np.zeros_like(inside)
            parent_inside[has_parent] = inside[p]
            self.calls[group] += int(np.count_nonzero(inside))
            self.total[group] += float(dur[inside & ~parent_inside].sum())
            self.self[group] += float(self_time[inside].sum())
