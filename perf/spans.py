"""In-memory spans for the traced pass.

A span is ``(name, start, end, parent, thread, batch_seq)``; the layer
is the part of ``name`` before the last dot-separated verb (the table
in ``metrics.py`` maps span names to metrics).  Spans are recorded
from ``perf/`` only, around calls into each layer — nothing inside
``repro`` knows it is being traced — kept in a list, and written out
when the run ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.  Children are tracked per thread, so
on the submitting thread the self times of all spans add up to the
root span exactly; spans recorded on other threads (stage threads, the
process lane's apply thread) hang off the root and are reported as
busy time of their own, never subtracted from the submitter's.
"""

from __future__ import annotations

import json
import threading
import time

_clock = time.perf_counter


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The untraced pass: every hook is a no-op."""

    enabled = False

    def span(self, name: str, batch_seq=None):
        return _NULL_SPAN

    def wrap(self, obj, attr: str, name: str) -> None:
        return None

    def unwrap_all(self) -> None:
        return None


NULL = NullTracer()


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer, index):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        tracer.spans[self.index][2] = _clock()
        tracer._stack().pop()


class Tracer:
    """Records spans; one instance per traced rep."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list = []      # [name, start, end, parent, thread, seq]
        self._local = threading.local()
        self._main = threading.get_ident()
        self._wrapped: list = []
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, batch_seq=None) -> _Span:
        stack = self._stack()
        # A span opened on a foreign thread with nothing open there is
        # caused by the root (index 0): the rep that submitted the work.
        parent = stack[-1] if stack else (0 if self.spans else -1)
        thread = 0 if threading.get_ident() == self._main else 1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, _clock(), None, parent, thread,
                               batch_seq])
        stack.append(index)
        return _Span(self, index)

    def wrap(self, obj, attr: str, name: str) -> None:
        """Shadow the public callable ``obj.attr`` with a timed twin.

        The wrapper lives on the instance (or module) only and is
        removed by :meth:`unwrap_all`; the class stays untouched, so no
        other deployment in the process ever sees it.
        """
        inner = getattr(obj, attr)
        span = self.span

        def timed(*args, **kwargs):
            with span(name):
                return inner(*args, **kwargs)

        had_own = attr in getattr(obj, "__dict__", {})
        setattr(obj, attr, timed)
        self._wrapped.append((obj, attr, inner if had_own else None))

    def unwrap_all(self) -> None:
        while self._wrapped:
            obj, attr, original = self._wrapped.pop()
            if original is None:
                delattr(obj, attr)
            else:
                setattr(obj, attr, original)

    # -- analysis --------------------------------------------------------

    def self_times(self) -> dict:
        """``name -> (self_seconds, calls)`` over submitter-thread spans,
        plus ``name -> busy_seconds`` for spans of other threads."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, thread, _seq in spans:
            if parent >= 0 and thread == spans[parent][4]:
                child_time[parent] += end - start
        own: dict = {}
        foreign: dict = {}
        for index, (name, start, end, _parent, thread, _seq) in \
                enumerate(spans):
            if thread == 0:
                total, calls = own.get(name, (0.0, 0))
                own[name] = (total + (end - start) - child_time[index],
                             calls + 1)
            else:
                foreign[name] = foreign.get(name, 0.0) + (end - start)
        return {"own": own, "foreign": foreign}

    def durations(self, name: str) -> list:
        return [end - start for n, start, end, *_rest in self.spans
                if n == name]

    def dump(self, path: str, meta: dict) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {"schema": "perf-trace/1", **meta,
               "fields": ["name", "start_s", "end_s", "parent", "thread",
                          "batch_seq"],
               "spans": [[name, round(start - t0, 7), round(end - t0, 7),
                          parent, thread, seq]
                         for name, start, end, parent, thread, seq
                         in self.spans]}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
            handle.write("\n")
