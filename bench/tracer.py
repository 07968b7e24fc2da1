"""Span recorder that times calls into gamemac from outside the library.

A :class:`Tracer` wraps public functions and installs each wrapper in every
gamemac module namespace that holds the original function, so calls made
inside the library (``inner_bound`` calling ``pentagon``, ``cli.main``
calling ``games.omega_uniform_bruteforce``) are recorded as child spans.
Spans stay in memory until :meth:`Tracer.dump`.  :class:`NullTracer` is
the untraced stand-in with the same interface.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import time
from collections import defaultdict


class Tracer:
    """Records spans ``[name, start, end, parent, op]`` and named counters.

    ``parent`` is the index of the enclosing span or -1; ``op`` is the
    benchmark operation that was running when the span opened.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []
        self._suspended = False
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    @contextlib.contextmanager
    def suspended(self):
        """Let wrapped functions run unrecorded, e.g. inside answer checks."""
        self._suspended = True
        try:
            yield
        finally:
            self._suspended = False

    def wrap(self, fn, name, counter=None):
        """Wrapper that runs ``fn`` inside a span.

        ``name`` is a span name or a function of the bound arguments that
        returns one.  ``counter(tracer, bound_args, result)``, if given,
        runs after the call and updates counters.
        """
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            if self._suspended:
                return fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            with self.span(name(bound.arguments) if callable(name) else name):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(self, bound.arguments, result)
            return result

        return wrapper

    def install(self, modules, targets) -> None:
        """Replace each target function in every module that references it.

        ``targets`` holds ``(function, name, counter)`` triples.
        """
        for fn, name, counter in targets:
            wrapper = self.wrap(fn, name, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


class NullTracer:
    """Untraced stand-in: spans cost nothing and record nothing."""

    def __init__(self):
        self.op = 0

    def span(self, name: str):
        return contextlib.nullcontext()

    def suspended(self):
        return contextlib.nullcontext()


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def summarize(spans) -> dict[str, dict[str, list[float]]]:
    """Per span name: the duration and the self time of each span.

    Self time is a span's duration minus the part of its interval that its
    child spans cover.
    """
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, dict[str, list[float]]] = defaultdict(
        lambda: {"duration": [], "self": []}
    )
    for idx, (name, start, end, _, _) in enumerate(spans):
        covered = _union_length(
            (max(lo, start), min(hi, end)) for lo, hi in children[idx]
        )
        out[name]["duration"].append(end - start)
        out[name]["self"].append(end - start - covered)
    return out
