"""In-memory span recorder for the benchmark's traced runs.

A :class:`Tracer` replaces functions and methods at the points where the
program calls them (a module global or a class attribute) with wrappers that
time each call. Spans nest: a span's self time is its duration minus the part
covered by the spans opened inside it. Per-name totals are kept in memory;
individual spans are kept only for names that ask for them. Leaving the
tracer's ``with`` block puts every original back.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    """Totals for one span name, in seconds."""

    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    # (start, duration, extracted result) per call, for names wrapped with keep=True
    samples: list = field(default_factory=list)


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._open: list[list[float]] = []  # child seconds of each open span
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def stat(self, name: str) -> SpanStats:
        return self.stats.get(name) or SpanStats()

    def call(self, name: str, fn, args=(), kwargs=None, keep: bool = False, extract=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``; with
        ``keep`` the span itself is stored, with ``extract(result)``."""
        children = [0.0]
        self._open.append(children)
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            duration = time.perf_counter() - start
            self._open.pop()
            if self._open:
                self._open[-1][0] += duration
            stats = self.stats.setdefault(name, SpanStats())
            stats.calls += 1
            stats.total += duration
            stats.self_time += duration - children[0]
        if keep:
            stats.samples.append((start, duration, extract(result) if extract else None))
        return result

    def wrap(self, owner, attr: str, name, keep: bool = False, extract=None) -> None:
        """Route calls to ``owner.attr`` through a span.

        ``owner`` is a module or a class; ``name`` is the span name or a
        function of the call's ``(args, kwargs)`` that returns it.
        """
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            return tracer.call(span, original, args, kwargs, keep, extract)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
