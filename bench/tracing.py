"""In-memory span and counter recording for the traced benchmark run.

A :class:`Tracer` replaces module attributes (``gapsl.orchestrator.forward_server``,
``gapsl.lgi.angular_deviation``, ...) with wrappers and puts the originals
back on :meth:`Tracer.restore`. Span wrappers record name, start, end,
parent span, thread and trace id (the benchmark sets the trace id to the
current round). Counter wrappers only count calls, and optionally time
them, because they sit on paths with thousands of calls per round where a
span object per call would distort the run.

Counters are kept per thread and each thread only writes its own slots,
so the client threads of the TCP workload need no lock.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable

_MISSING = object()


@dataclass(frozen=True)
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None  # index into the span list
    thread: int
    trace: object
    counted_ns: int = 0  # time in timed counters on this thread during the span


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: list[int] = []
        self.slots: dict[str, list[int]] = {}  # name -> [calls, ns, results]
        self.registered = False
        self.timed_ns = 0


class Tracer:
    """Records spans and counters; owns the wrappers it installs."""

    def __init__(self):
        self.trace_id: object = None
        self.skipped: list[str] = []
        self._records: list[list] = []
        self._local = _ThreadState()
        self._thread_slots: list[dict[str, list[int]]] = []
        self._patched: list[tuple[object, str, object]] = []

    # ---- recording -------------------------------------------------------

    def _slot(self, name: str) -> list[int]:
        local = self._local
        slot = local.slots.get(name)
        if slot is None:
            slot = local.slots[name] = [0, 0, 0]
            if not local.registered:
                local.registered = True
                self._thread_slots.append(local.slots)
        return slot

    def _open(self, name: str) -> list:
        local = self._local
        parent = local.stack[-1] if local.stack else None
        rec = [name, time.perf_counter_ns(), 0, parent, threading.get_ident(), self.trace_id, local.timed_ns]
        self._records.append(rec)
        local.stack.append(len(self._records) - 1)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        rec[6] = self._local.timed_ns - rec[6]
        self._local.stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record one span around benchmark code."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def add(self, name: str, amount: int) -> None:
        """Count one event carrying ``amount`` (e.g. the bytes of a frame)."""
        slot = self._slot(name)
        slot[0] += 1
        slot[2] += amount

    def spans(self) -> list[Span]:
        return [Span(*r) for r in self._records]

    def counter(self, name: str) -> tuple[int, int, int]:
        """(calls, ns, results) summed over every thread.

        ``results`` counts non-None returns for counters and the summed
        amounts for :meth:`add`.
        """
        total = [0, 0, 0]
        for slots in self._thread_slots:
            for k, v in enumerate(slots.get(name, (0, 0, 0))):
                total[k] += v
        return total[0], total[1], total[2]

    # ---- wrapping --------------------------------------------------------

    def _install(self, owner, attr: str, make: Callable) -> None:
        # a program without the name (renamed, vectorized away) is not an
        # error: its metrics read zero and the name is listed as skipped
        original = vars(owner).get(attr, _MISSING)
        if original is _MISSING or not callable(original):
            self.skipped.append(f"{owner.__name__}.{attr}")
            return
        setattr(owner, attr, make(original))
        self._patched.append((owner, attr, original))

    def wrap_span(self, owner, attr: str, name: str, on_result: Callable | None = None) -> None:
        """Record a span per call of ``owner.attr``; ``on_result(result)`` runs after it."""
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                rec = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(rec)
                if on_result is not None:
                    on_result(result)
                return result

            return wrapper

        self._install(owner, attr, make)

    def wrap_counter(self, owner, attr: str, name: str, timed: bool = False) -> None:
        """Count calls of ``owner.attr``; ``timed`` also sums their duration."""
        tracer = self
        local = self._local

        def make(fn):
            def counted(*args, **kwargs):
                # inlined fast path: this wrapper runs ~15k times per round at 100 clients
                slot = local.slots.get(name) or tracer._slot(name)
                slot[0] += 1
                return fn(*args, **kwargs)

            def timed_call(*args, **kwargs):
                slot = tracer._slot(name)
                start = time.perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    took = time.perf_counter_ns() - start
                    slot[0] += 1
                    slot[1] += took
                    tracer._local.timed_ns += took
                if result is not None:
                    slot[2] += 1
                return result

            return timed_call if timed else counted

        self._install(owner, attr, make)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it covered by its children.

    Children are the spans naming it as parent on the same thread; their
    intervals are clipped to the parent and merged, so overlapping
    children are not subtracted twice. Spans on other threads never count.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None and spans[s.parent].thread == s.thread:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = _union_length(
            (max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children.get(i, ())
        )
        out.append(s.end - s.start - covered)
    return out


def _union_length(intervals: Iterable[tuple[int, int]]) -> int:
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
