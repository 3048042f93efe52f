"""Bounded credit queues: the couplings between pipeline stages.

A :class:`CreditQueue` carries report carriers between the streaming
engine's stages (:mod:`repro.runtime.engine`).  Capacity is the credit
pool — a producer that finds no credit left blocks inside :meth:`put`
until the consumer frees a slot, which is the whole backpressure
protocol: nothing is ever dropped between stages, the pressure simply
propagates upstream until it reaches the submitting caller (exactly
the lossless PFC behaviour of the reporter->translator hop,
Section 2.2 of the paper — loss happens on the wire or not at all,
never inside the pipeline).

Shutdown is cooperative: :meth:`close` marks the end of the stream, and
consumers keep draining until they see :data:`CLOSED`.  :meth:`abort`
is the failure path — every blocked producer and consumer wakes up with
:class:`QueueAborted` so a crashed stage can never leave its peers
hanging.

Occupancy and stall metrics register under the ``runtime`` component
(labels ``{"queue": name}``).  They are *observability of the
execution*, not of the computation: stall counts and times depend on
thread scheduling, so the determinism contract
(:func:`repro.runtime.pipeline_digest`) excludes every ``runtime.*``
series from digest comparisons.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro import obs

#: The one monotonic time source every runtime measurement shares:
#: queue stall seconds, the socket lane's drain deadlines and the
#: runtime tests' duration cap all read this callable.
_clock = time.monotonic

#: Sentinel returned by :meth:`CreditQueue.get` once the queue is
#: closed and drained.  An identity check (``item is CLOSED``) is the
#: consumer's termination condition.
CLOSED = object()


class QueueClosed(RuntimeError):
    """Put on a queue whose stream has already ended."""


class QueueAborted(RuntimeError):
    """The pipeline failed; this queue was poisoned to unblock peers."""


class QueueStats(obs.InstrumentedStats):
    """Per-queue transfer and stall counters."""

    component = "runtime"

    enqueued = obs.counter_field()
    dequeued = obs.counter_field()
    put_stalls = obs.counter_field()
    get_stalls = obs.counter_field()
    put_stall_seconds = obs.counter_field()
    get_stall_seconds = obs.counter_field()


class CreditQueue:
    """A bounded FIFO with blocking (credit-based) hand-off.

    Args:
        capacity: Credit pool size; must be >= 1.  A zero-capacity
            queue could never transfer a carrier under credit-based
            backpressure (the producer needs one credit to deposit
            into), so it is rejected outright.
        name: Metric label; also used in error messages.
    """

    def __init__(self, capacity: int, name: str = "queue") -> None:
        if capacity < 1:
            raise ValueError(
                f"queue '{name}' capacity must be >= 1 (got {capacity}): "
                "a zero-capacity credit queue can never transfer a "
                "carrier")
        self.capacity = capacity
        self.name = name
        self._items: deque = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        self._aborted = False
        self.stats = QueueStats(labels={"queue": name})
        registry = obs.get_registry()
        # Bound to the deque, not to ``self``: registry -> gauge ->
        # queue -> stats -> registry would be a cycle.
        self._depth_gauge = registry.declare_gauge(
            "runtime.queue_depth", fn=self._items.__len__, queue=name)
        self._hwm_gauge = registry.declare_gauge(
            "runtime.queue_high_watermark", queue=name)
        self._high_watermark = 0

    # ------------------------------------------------------------------

    def put(self, item) -> None:
        """Deposit one carrier, blocking while no credit is available.

        Raises :class:`QueueClosed` after :meth:`close` (the stream has
        ended — nothing may be appended) and :class:`QueueAborted`
        after :meth:`abort`.
        """
        with self._not_full:
            if len(self._items) >= self.capacity \
                    and not self._closed and not self._aborted:
                self.stats.put_stalls += 1
                started = _clock()
                while len(self._items) >= self.capacity \
                        and not self._closed and not self._aborted:
                    self._not_full.wait()
                self.stats.put_stall_seconds += _clock() - started
            if self._aborted:
                raise QueueAborted(self.name)
            if self._closed:
                raise QueueClosed(self.name)
            self._items.append(item)
            self.stats.enqueued += 1
            depth = len(self._items)
            if depth > self._high_watermark:
                self._high_watermark = depth
                self._hwm_gauge.set(depth)
            self._not_empty.notify()

    def get(self):
        """Take the oldest carrier, blocking while the queue is empty.

        Returns :data:`CLOSED` once the queue is closed *and* drained;
        raises :class:`QueueAborted` immediately if poisoned (pending
        items are abandoned — the pipeline is dead).
        """
        with self._not_empty:
            if not self._items and not self._closed and not self._aborted:
                self.stats.get_stalls += 1
                started = _clock()
                while not self._items \
                        and not self._closed and not self._aborted:
                    self._not_empty.wait()
                self.stats.get_stall_seconds += _clock() - started
            if self._aborted:
                raise QueueAborted(self.name)
            if self._items:
                item = self._items.popleft()
                self.stats.dequeued += 1
                self._not_full.notify()
                return item
            return CLOSED

    # ------------------------------------------------------------------

    def close(self) -> None:
        """End the stream: puts start raising, gets drain then CLOSED.

        Idempotent.
        """
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    def abort(self) -> None:
        """Poison the queue: every blocked or future put/get raises.

        The failure path — used when a stage dies so its peers cannot
        block forever on a pipe nobody is serving.  Idempotent.
        """
        with self._lock:
            self._aborted = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def aborted(self) -> bool:
        return self._aborted

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def high_watermark(self) -> int:
        """Deepest occupancy seen so far."""
        return self._high_watermark
