"""Layer spans recorded from outside the program, for the traced run.

A :class:`Tracer` replaces a public entry point of one layer *where its
caller looks the name up* (``repro.engine.controller.optimize``, not
``repro.core.optimizer.optimize``) with a shim that records one
wall-clock span per call, and puts every original back on
:meth:`Tracer.uninstall`.  The program's files are not changed.

Spans nest per thread: a span's parent is the innermost span open on the
same thread when it started, so a layer's *self* time is its duration
minus the part covered by its children.  Spans stay in memory and are
written out once, as a Chrome trace, beside the program's own
:class:`~repro.obs.events.EventBus` events.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int  # -1 for a root span
    name: str
    thread: int
    start: float
    end: float


class Tracer:
    """Records spans and counters around patched entry points."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, bool, object]] = []
        self.epoch = time.perf_counter()

    # ------------------------------------------------------------------
    def call(self, name: str, func, args=(), kwargs=None, observe=None):
        """Run ``func`` inside a span; ``observe(args, result)`` may
        add counters once it returns."""
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = func(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(span_id, parent, name, threading.get_ident(),
                        start - self.epoch, end - self.epoch)
            with self._lock:
                self.spans.append(span)
        if observe is not None:
            with self._lock:
                observe(self.counts, args, result)
        return result

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        """Wrap ``owner.attr`` (a module function, a method, or a
        classmethod) in a span named ``name``."""
        had = attr in vars(owner)
        saved = vars(owner).get(attr)
        if isinstance(saved, classmethod):
            bound = getattr(owner, attr)

            def shim(cls, *args, **kwargs):
                return self.call(name, bound, args, kwargs, observe)

            replacement = classmethod(shim)
        else:
            original = getattr(owner, attr)

            def replacement(*args, **kwargs):
                return self.call(name, original, args, kwargs, observe)

        self._patches.append((owner, attr, had, saved))
        setattr(owner, attr, replacement)

    def counter(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without a span (hot methods)."""
        had = attr in vars(owner)
        saved = vars(owner).get(attr)
        original = getattr(owner, attr)

        def replacement(*args, **kwargs):
            self.count(name)
            return original(*args, **kwargs)

        self._patches.append((owner, attr, had, saved))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, had, saved in reversed(self._patches):
            if had:
                setattr(owner, attr, saved)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # ------------------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``seconds`` and ``self``
        seconds (duration minus the time its child spans cover)."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "seconds": 0.0, "self": 0.0})
        for span in self.spans:
            entry = out[span.name]
            duration = span.end - span.start
            entry["calls"] += 1
            entry["seconds"] += duration
            entry["self"] += duration - child_time[span.span_id]
        return out

    def write_chrome_trace(self, path: str, bus_trace: dict) -> None:
        """Write the spans (wall clock, one lane per thread) and the
        program's bus events (``bus_trace``, its logical clock) into
        one Chrome-trace file, as two processes."""
        events = list(bus_trace.get("traceEvents", []))
        bus_pids = {event.get("pid") for event in events}
        pid = max((p for p in bus_pids if isinstance(p, int)),
                  default=0) + 1
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "args": {"name": "benchmark layer spans "
                                        "(wall clock)"}})
        lanes = {}
        for span in self.spans:
            lane = lanes.setdefault(span.thread, len(lanes) + 1)
            events.append({"ph": "X", "name": span.name,
                           "cat": span.name.split(".")[0], "pid": pid,
                           "tid": lane, "ts": span.start * 1e6,
                           "dur": (span.end - span.start) * 1e6})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)
