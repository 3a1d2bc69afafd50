"""In-memory span recording around l2okit's layer functions.

A layer function is wrapped by rebinding its name: for a module-level
function, in every loaded ``l2okit`` module that holds the same object
(``from .model import l2o_step_np`` binds a second name in ``metatrain``);
for a method, on the class that defines it. Nothing in the package is
edited, and ``Patches.undo`` restores every original binding.

Spans stay in memory while the work runs. A span's self time is its
duration minus the durations of the spans it directly contains, so self
times of nested spans add up to the outermost span's duration.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class Patches:
    """Rebinds layer functions and remembers the originals."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def function(self, module, attr: str, make_wrapper) -> None:
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("l2okit"):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def method(self, cls, attr: str, make_wrapper) -> None:
        original = vars(cls)[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, make_wrapper(original))

    def undo(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


class CallCounter:
    """Counts calls to one layer without timing them."""

    def __init__(self):
        self.calls = 0

    def wrap(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.calls += 1
            return fn(*args, **kwargs)
        return counted


class Tracer:
    """Records (id, parent id, name, start, duration, self) per call.

    ``observe(args, result)`` hooks attach a number to a span name, such
    as the tape length handed to ``backward``.
    """

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.observed: dict[str, list[float]] = defaultdict(list)
        self._stack: list[list[int]] = []   # [span id, ns spent in children]
        self._next_id = 0

    def wrap(self, name: str, fn, observe=None):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                spans.append((sid, parent, name, start, dur, dur - frame[1]))
            if observe is not None:
                self.observed[name].append(observe(args, result))
            return result
        return traced

