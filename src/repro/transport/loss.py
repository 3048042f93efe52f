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

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial

import numpy as np


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


#: Ordinals the shim decides at a time, ahead of the stream: the
#: array setup of a walk is paid once per this many, not once per call.
_AHEAD = 1 << 15


def _unit(words: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The 53 bits ``random()`` takes from the words at ``at`` and
    ``at + 1`` (``random()`` is these over ``2 ** 53``)."""
    return (words[at].astype(np.uint64) >> 5) << 26 | words[at + 1] >> 6


class LossShim:
    """One deterministic pass of a :class:`LossSpec` over a stream.

    Feed datagrams in emission order through :meth:`step_many` (or
    :meth:`step`, a call of one); each call returns the datagrams that
    hit the wire *now*, in wire order.  :meth:`flush` releases anything
    still held for reordering.  The shim is single-use: decision ``n``
    depends only on ``(spec, n)``, however the stream is cut into calls.

    Decision ``n`` is what a ``random.Random(spec.seed)`` rules on
    datagram ``n``: ``random() < drop_rate`` drops it; otherwise, with
    reordering on, ``random() < reorder_rate`` holds it for
    ``randint(1, reorder_span)`` further sends.  numpy's ``MT19937``
    started from that generator's state yields the same 32-bit words,
    so the shim draws them in bulk: ``random()`` is two words (53
    bits), ``randint`` one ``span.bit_length()``-bit word per try.  A
    datagram that passes takes a fixed stride of words, so the word
    positions where an *event* (a drop or a hold) starts are found for
    a block of ordinals at once, and only the events are walked.
    """

    def __init__(self, spec: LossSpec) -> None:
        self.spec = spec
        self.dropped = 0
        self.reordered = 0
        self.passed = 0
        _version, (*key, pos), _gauss = random.Random(spec.seed).getstate()
        bits = np.random.MT19937()
        bits.state = {"bit_generator": "MT19937", "state": {
            "key": np.array(key, dtype=np.uint32), "pos": pos}}
        # Over the full 32-bit range each draw is one raw word.
        self._draw = partial(np.random.Generator(bits).integers, 0, 1 << 32,
                             dtype=np.uint32)
        self._words = np.zeros(0, dtype=np.uint32)    # drawn, not used
        self._index = 0
        # Decided ahead of the stream: the events among ordinals
        # ``_index .. _decided - 1`` (ordinal, slip; slip 0: a drop).
        self._decided = 0
        self._ahead = (np.zeros(0, dtype=np.int64),) * 2
        self._held: list = []   # (release ordinal, ordinal, datagram)

    def step(self, datagram) -> list:
        """Decide the next datagram's fate; returns what reaches the
        wire."""
        return self.step_many([datagram])

    def step_many(self, datagrams):
        """Decide the fates of ``datagrams`` (the next in emission
        order); returns what reaches the wire now, in wire order — a
        list, or an array when ``datagrams`` is a numpy array.

        Equal to one :meth:`step` per datagram, concatenated.  When the
        spec configures no impairment at all the stream passes through
        untouched (no decision can depend on the RNG).
        """
        base = self._index
        count = len(datagrams)
        end = self._index = base + count
        made, slips = self._decide(end)
        if not len(made) and not (self._held and self._held[0][0] < end):
            # No drop, no hold, nothing due: the call passes whole.
            self.passed += count
            if isinstance(datagrams, np.ndarray):
                return datagrams.copy()
            return list(datagrams)
        kept = np.ones(count, dtype=bool)
        kept[made - base] = False
        rows = np.flatnonzero(kept)
        holds = (made[slips > 0] - base).tolist()
        self.dropped += len(made) - len(holds)
        self.reordered += len(holds)
        self.passed += len(rows)
        held = sorted(self._held + [
            (base + row + slip, base + row, datagrams[row])
            for row, slip in zip(holds, slips[slips > 0].tolist())])
        # Step t releases every hold due at t, after datagram t itself.
        cut = bisect_left(held, (end,))
        released, self._held = held[:cut], held[cut:]
        if released:
            due = np.array([entry[0] for entry in released], dtype=np.int64)
            rows = np.insert(rows, np.searchsorted(rows, due - base, "right"),
                             -1)
        if isinstance(datagrams, np.ndarray):
            out = datagrams[rows]
        else:
            out = list(map(datagrams.__getitem__, rows.tolist()))
        for at, entry in zip(np.flatnonzero(rows < 0).tolist() if released
                             else (), released):
            out[at] = entry[2]
        return out

    def _decide(self, end: int) -> tuple:
        """The events among the ordinals before ``end`` not taken yet,
        off what is decided ahead: ``(ordinals, slips)``."""
        spec = self.spec
        if self._decided < end and (spec.drop_rate or spec.reorder_rate):
            made, slips = self._events(max(end - self._decided, _AHEAD))
            self._ahead = (np.concatenate((self._ahead[0], made)),
                           np.concatenate((self._ahead[1], slips)))
        made, slips = self._ahead
        cut = int(np.searchsorted(made, end))
        self._ahead = made[cut:], slips[cut:]
        return made[:cut], slips[:cut]

    def _events(self, count: int) -> tuple:
        """Decide ``count`` ordinals from ``_decided`` on: the ordinals
        of their events, and each event's slip (0 for a drop).

        Word ``p`` starts an event when the draw there drops, or when
        it does not and the draw at ``p + 2`` holds.  Events are found
        by array ops — the high word alone settles ``random() < rate``
        unless it equals the threshold's — and each is linked to the
        first event at or after the cursor it leaves (same phase modulo
        the pass stride), so the walk only chases those links.
        """
        spec = self.spec
        stride = 4 if spec.reorder_rate else 2    # words a pass takes
        shift = 32 - spec.reorder_span.bit_length()
        # ``random() < rate`` exactly when its 53 bits are below these.
        drop_at = math.ceil(spec.drop_rate * (1 << 53))
        hold_at = math.ceil(spec.reorder_rate * (1 << 53))
        want = int((stride + 3 * spec.reorder_rate) * count) + 64
        while True:
            if len(self._words) < want:
                self._words = np.concatenate((self._words,
                                              self._draw(want)))
            words = self._words
            want *= 2       # if these words fall short, retry with more
            limit = len(words) - 3      # a decision reads 4 words at most
            near = np.flatnonzero(
                (words[:limit] < (drop_at >> 26) + 1 << 5)
                | (words[2:limit + 2] < (hold_at >> 26) + 1 << 5))
            drop = _unit(words, near) < drop_at
            hold = ~drop & (_unit(words, near + 2) < hold_at)
            events = near[drop | hold]
            # A hold's slip is its first accepted try after the draws.
            held = np.flatnonzero(hold[drop | hold])
            tries = events[held] + 4
            todo = np.arange(len(held))
            while len(todo):
                todo = todo[tries[todo] < len(words)]
                todo = todo[words[tries[todo]] >> shift
                            >= spec.reorder_span]
                tries[todo] += 1
            short = np.flatnonzero(tries >= len(words))
            if len(short):      # its slip lies past the drawn words
                limit = int(events[held[short[0]]])
                events = events[:held[short[0]]]
                held, tries = held[:short[0]], tries[:short[0]]
            after = events + 2
            after[held] = tries + 1
            slip = np.zeros(len(events), dtype=np.int64)
            slip[held] = (words[tries] >> shift).astype(np.int64) + 1
            # Sorted by (phase, position), an event's successor is the
            # first key at or after its cursor's.
            span = len(words) + 1
            keys = events % stride * span + events
            order = np.argsort(keys, kind="stable")
            keys, events, after, slip = (keys[order], events[order],
                                         after[order], slip[order])
            link = np.searchsorted(keys, after % stride * span + after)
            inside = np.minimum(link, len(keys) - 1)
            link[(keys[inside] // span != after % stride)
                 | (link == len(keys))] = -1
            chain = []
            at = int(np.searchsorted(keys, 0))
            at = at if at < len(keys) and keys[at] < span else -1
            link = link.tolist()
            while at >= 0:
                chain.append(at)
                at = link[at]
            start, after = events[chain], after[chain]
            made = np.cumsum((start - np.concatenate(([0], after[:-1])))
                             // stride) + np.arange(len(chain))
            # Decisions after the last event pass up to ``limit``.
            decided = int(made[-1]) + 1 if chain else 0
            last = int(after[-1]) if chain else 0
            if (decided > count or decided
                    + max(0, -(-(limit - last) // stride)) >= count):
                break
        stop = int(np.searchsorted(made, count))
        cursor = (int(after[stop - 1]) + (count - 1 - int(made[stop - 1]))
                  * stride if stop else count * stride)
        self._words = words[cursor:]
        made = made[:stop] + self._decided
        self._decided += count
        return made, slip[chain][:stop]

    @property
    def holding(self) -> list:
        """The datagrams held for reordering, not yet emitted (at most
        ``reorder_span`` of them)."""
        return [entry[2] for entry in self._held]

    def flush(self) -> list:
        """Release every datagram still held for reordering."""
        out = self.holding
        self._held = []
        return out

    def apply(self, datagrams) -> list:
        """Convenience: the whole post-impairment stream at once."""
        return [*self.step_many(datagrams), *self.flush()]
