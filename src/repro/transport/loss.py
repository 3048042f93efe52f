"""Seeded netem-style loss shim at the socket boundary.

The deployment lane's differential gate needs real loss and reorder on
the wire *and* bit-exact reproducibility, so — like ``tc netem`` with a
pinned seed — the impairment is a deterministic function of the
datagram index, applied where the reporter hands datagrams to the
socket.  The socket lane sends exactly what the shim emits; the
in-process reference lane feeds the same workload through a shim built
from the same :class:`LossSpec` and therefore sees the identical
post-impairment stream.  Loss happens on the wire or not at all
(Section 2.2 of the paper); the shim is where "the wire" lives in this
reproduction.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class LossSpec:
    """A seeded drop/reorder schedule, picklable for daemon processes.

    Attributes:
        seed: RNG seed; two shims with equal specs emit equal streams.
        drop_rate: Per-datagram drop probability in ``[0, 1)``.
        reorder_rate: Probability a surviving datagram is held back.
        reorder_span: Most positions a held datagram may slip (the
            netem ``gap``); it re-enters after 1..span later sends.
    """

    seed: int = 0
    drop_rate: float = 0.0
    reorder_rate: float = 0.0
    reorder_span: int = 3

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError("drop_rate must be a probability in [0, 1)")
        if not 0.0 <= self.reorder_rate < 1.0:
            raise ValueError("reorder_rate must be in [0, 1)")
        if self.reorder_span < 1:
            raise ValueError("reorder_span must be >= 1")

    def shim(self) -> "LossShim":
        """A fresh single-use shim for this schedule."""
        return LossShim(self)


class LossShim:
    """One deterministic pass of a :class:`LossSpec` over a stream.

    Feed datagrams in emission order through :meth:`step`; each call
    returns the datagrams that hit the wire *now*, in wire order.
    :meth:`flush` releases anything still held for reordering.  The
    shim is single-use: the RNG advances exactly once per decision, so
    the n-th datagram's fate depends only on ``(spec, n)``.
    """

    def __init__(self, spec: LossSpec) -> None:
        self.spec = spec
        self.dropped = 0
        self.reordered = 0
        self.passed = 0
        self._rng = random.Random(spec.seed)
        self._index = 0
        self._held: list = []   # (release_index, tiebreak, datagram)
        self._tie = 0

    def step(self, datagram) -> list:
        """Decide datagram ``n``'s fate; returns what reaches the wire."""
        index = self._index
        self._index += 1
        out = []
        if self._rng.random() < self.spec.drop_rate:
            self.dropped += 1
        elif (self.spec.reorder_rate
                and self._rng.random() < self.spec.reorder_rate):
            slip = self._rng.randint(1, self.spec.reorder_span)
            self.reordered += 1
            heapq.heappush(self._held, (index + slip, self._tie, datagram))
            self._tie += 1
        else:
            self.passed += 1
            out.append(datagram)
        while self._held and self._held[0][0] <= index:
            out.append(heapq.heappop(self._held)[2])
        return out

    def step_many(self, datagrams) -> list:
        """Bulk :meth:`step`: one hoisted loop over ``datagrams``.

        Decision ``n`` is bit-identical to ``n`` calls of :meth:`step`
        — same RNG draws in the same order — and the returned list is
        the concatenation of what those calls would have returned.
        When the spec configures no impairment at all the stream passes
        through untouched (no RNG is consumed; with both rates zero no
        decision can depend on it).
        """
        spec = self.spec
        if not spec.drop_rate and not spec.reorder_rate:
            self._index += len(datagrams)
            self.passed += len(datagrams)
            return list(datagrams)
        rand = self._rng.random
        randint = self._rng.randint
        drop = spec.drop_rate
        reorder = spec.reorder_rate
        span = spec.reorder_span
        held = self._held
        push = heapq.heappush
        pop = heapq.heappop
        index = self._index
        dropped = reordered = passed = 0
        out = []
        for datagram in datagrams:
            if rand() < drop:
                dropped += 1
            elif reorder and rand() < reorder:
                reordered += 1
                push(held, (index + randint(1, span), self._tie, datagram))
                self._tie += 1
            else:
                passed += 1
                out.append(datagram)
            while held and held[0][0] <= index:
                out.append(pop(held)[2])
            index += 1
        self._index = index
        self.dropped += dropped
        self.reordered += reordered
        self.passed += passed
        return out

    @property
    def holding(self) -> list:
        """The datagrams held for reordering, not yet emitted (at most
        ``reorder_span`` of them)."""
        return [entry[2] for entry in self._held]

    def flush(self) -> list:
        """Release every datagram still held for reordering."""
        out = []
        while self._held:
            out.append(heapq.heappop(self._held)[2])
        return out

    def apply(self, datagrams) -> list:
        """Convenience: the whole post-impairment stream at once."""
        out = []
        for datagram in datagrams:
            out.extend(self.step(datagram))
        out.extend(self.flush())
        return out
