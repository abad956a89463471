"""Span tracing of the flashlife package from outside the package.

The package modules import each other's functions by name (allocation
binds ``mutual_information``, infotheory binds ``log_conditional_density``,
and so on), so patching a function in its home module alone would miss
most calls. ``Tracer`` therefore replaces every public function at every
binding site in every loaded ``flashlife`` module with one shared wrapper,
and puts the original back on exit.

Spans are kept in memory as ``[name, start, end, parent, points]`` rows,
where ``parent`` is the index of the enclosing span (-1 at the top) and
``points`` is the length of the first argument for the density kernels
that take a voltage array (0 elsewhere).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

import numpy as np

# Functions whose first argument is the array of read voltages evaluated.
POINT_FUNCTIONS = frozenset(
    {
        "channel.log_conditional_density",
        "channel.output_log_density",
        "channel.conditional_cdf",
        "channel.conditional_sf",
    }
)

_MARK = "__perfbench_traced__"


def package_modules() -> list:
    """Every loaded module of the flashlife package, the package itself
    included (it re-exports functions, so it is a binding site too)."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "flashlife" or name.startswith("flashlife."))
    ]


def public_functions(modules) -> dict:
    """Map each public function object to its short name, e.g.
    ``infotheory.mutual_information``."""
    found = {}
    for mod in modules:
        for attr, value in vars(mod).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == mod.__name__
            ):
                found[value] = f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}"
    return found


def surviving_wrappers(modules) -> list[str]:
    """Bindings that still hold a tracing wrapper; empty after a clean
    restore."""
    return [
        f"{mod.__name__}.{attr}"
        for mod in modules
        for attr, value in vars(mod).items()
        if getattr(value, _MARK, False)
    ]


class NullTracer:
    """Stand-in used for untraced passes: regions cost one no-op call."""

    @contextmanager
    def region(self, name: str):
        yield


class Tracer:
    """Context manager that traces every public flashlife function.

    ``region(name)`` records a span named ``bench.<name>`` from the
    benchmark's own code, so that package spans can be grouped by the
    benchmark operation that caused them.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.modules = package_modules()

    def _open(self, name: str, points: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, points])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def region(self, name: str):
        idx = self._open(f"bench.{name}", 0)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str):
        counts_points = name in POINT_FUNCTIONS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name, int(np.size(args[0])) if counts_points else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        setattr(wrapper, _MARK, True)
        return wrapper

    def __enter__(self):
        functions = public_functions(self.modules)
        # Keyed by identity: a binding site holds the very function object.
        wrappers = {id(fn): self._wrap(fn, name) for fn, name in functions.items()}
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, value in self._saved:
            setattr(mod, attr, value)
        self._saved.clear()
        return False


def layer_table(spans: list[list]) -> dict:
    """Per-name totals: calls, inclusive seconds, self seconds, points.

    Self time is a span's duration minus the time its direct children
    cover; spans of one thread nest, so the children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, dict] = {}
    for i, (name, start, end, _, points) in enumerate(spans):
        row = table.setdefault(
            name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "points": 0, "durations": []}
        )
        row["calls"] += 1
        row["incl_s"] += end - start
        row["self_s"] += end - start - child_time[i]
        row["points"] += points
        row["durations"].append(end - start)
    return table


def under(spans: list[list], ancestor: str) -> list[bool]:
    """For each span, whether some enclosing span is named ``ancestor``.
    Parents precede their children in the list, so one forward pass
    suffices."""
    flags = [False] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            flags[i] = flags[parent] or spans[parent][0] == ancestor
    return flags
