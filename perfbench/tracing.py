"""Span tracing from outside the package, by wrapping its public functions.

Each wrapped function records one span per call. Spans nest on a stack, so a
span's self time is its duration minus the durations of its direct children.
Totals count only the outermost span of a name, so a name that calls itself
(``make_batch`` under ``mixed_batch``) is not counted twice.

Wrappers replace a name where callers look it up: ``mixlora/__init__.py``
re-exports ``train`` and shadows the submodule, so modules are reached with
``importlib.import_module`` and patched attribute by attribute.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """Aggregated spans: per-name total, self time and call count."""

    def __init__(self):
        self._stack: list[list] = []  # [name, start, child_seconds]
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)

    def take(self) -> "Snapshot":
        """Return the spans recorded so far and start afresh."""
        snap = Snapshot(dict(self.total), dict(self.self_time), dict(self.calls))
        self.reset()
        return snap

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        name, start, child = self._stack.pop()
        dur = end - start
        self.self_time[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if not (self._stack and self._stack[-1][0] == name):
            self.total[name] += dur
            self.calls[name] += 1

    @contextlib.contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def wrap(self, owner, attr: str, name: str, on_call=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper until ``uninstall``.

        ``on_call(*args, **kwargs)`` runs first, inside a bookkeeping span,
        so the tracer's own counting is not charged to any layer.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(name)
            try:
                if on_call is not None:
                    with tracer.span(BOOKKEEPING):
                        on_call(*args, **kwargs)
                return fn(*args, **kwargs)
            finally:
                tracer._exit()

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)


class Snapshot:
    """Frozen span totals of one benchmark phase, in seconds."""

    def __init__(self, total: dict, self_time: dict, calls: dict):
        self._total, self._self, self._calls = total, self_time, calls

    def total(self, name: str) -> float:
        return self._total.get(name, 0.0)

    def self_time(self, name: str) -> float:
        return self._self.get(name, 0.0)

    def calls(self, name: str) -> int:
        return self._calls.get(name, 0)
