"""In-memory spans around calls into the program, and their self time.

A :class:`Recorder` wraps callables so that every call opens a
:class:`Span` (name, layer, start, parent link) and closes it on return.
A span's *self time* is its duration minus the time its child spans
cover; a layer's self time is the sum over its spans, so nested calls
that re-enter the same layer are never counted twice.  Spans are
aggregated as they close -- per name and per (parent, child) pair --
so memory stays flat however many calls a run makes.

This module imports nothing from ``repro``; :mod:`layers` says what
to wrap.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable


class Span:
    """One open call: its name, layer, start, and the time its children
    have covered so far."""

    __slots__ = ("name", "layer", "parent", "start", "covered")

    def __init__(self, name: str, layer: str, parent: "Span | None",
                 start: float):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = start
        self.covered = 0.0


class Recorder:
    """Span stack plus per-name aggregates of closed spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.root = Span("root", "root", None, clock())
        self._open = self.root
        self.layer_of: dict[str, str] = {"root": "root"}
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        #: Inclusive seconds of spans named ``child`` opened directly
        #: under a span named ``parent``.
        self.nested_s: dict[tuple[str, str], float] = defaultdict(float)
        #: Counts taken by result hooks at the same boundaries.
        self.counts: dict[str, int] = defaultdict(int)

    def enter(self, name: str, layer: str) -> Span:
        self.layer_of[name] = layer
        span = Span(name, layer, self._open, self.clock())
        self._open = span
        return span

    def exit(self, span: Span) -> None:
        if span is not self._open:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        duration = self.clock() - span.start
        parent = span.parent
        parent.covered += duration
        self._open = parent
        self.calls[span.name] += 1
        self.self_s[span.name] += duration - span.covered
        self.nested_s[(parent.name, span.name)] += duration

    def wrap(self, fn: Callable, name: str, layer: str,
             on_result: Callable[["Recorder", Any], None] | None = None
             ) -> Callable:
        """``fn`` with every call recorded as a span."""
        enter, leave = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(span)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def layer_self_s(self, layer: str) -> float:
        """Self seconds of every span of ``layer``."""
        return sum(seconds for name, seconds in self.self_s.items()
                   if self.layer_of[name] == layer)

    def layer_calls(self, layer: str) -> int:
        return sum(count for name, count in self.calls.items()
                   if self.layer_of[name] == layer)


@contextmanager
def patched(targets):
    """Temporarily replace attributes: ``targets`` yields
    ``(owner, attribute, replacement)``; the originals come back on
    exit, even when the body raises."""
    saved = []
    try:
        for owner, attribute, replacement in targets:
            saved.append((owner, attribute, owner.__dict__[attribute]))
            setattr(owner, attribute, replacement)
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
