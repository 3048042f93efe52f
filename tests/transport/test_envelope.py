"""Lane envelope codec and the in-order reassembler."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.transport.envelope import (
    KIND_ACK,
    KIND_CTRL,
    KIND_END,
    KIND_FRAME,
    KIND_REPORT,
    MAX_FRAME_REPORTS,
    Reassembler,
    ack_delivered,
    ack_lane,
    end_total,
    unwrap,
    unwrap_frame,
    wrap,
    wrap_ack,
    wrap_end,
    wrap_frame,
    wrap_frames,
)


class TestEnvelopeCodec:
    def test_report_roundtrip(self):
        seq, kind, payload = unwrap(wrap(42, b"payload"))
        assert (seq, kind, payload) == (42, KIND_REPORT, b"payload")

    def test_explicit_kind_roundtrip(self):
        _, kind, payload = unwrap(wrap(0, b"ctrl", KIND_CTRL))
        assert kind == KIND_CTRL
        assert payload == b"ctrl"

    def test_end_carries_total(self):
        seq, kind, payload = unwrap(wrap_end(7, 1234))
        assert (seq, kind) == (7, KIND_END)
        assert end_total(payload) == 1234

    def test_ack_carries_delivered(self):
        _, kind, payload = unwrap(wrap_ack(3, 999))
        assert kind == KIND_ACK
        assert ack_delivered(payload) == 999

    def test_ack_carries_lane(self):
        _, _, payload = unwrap(wrap_ack(3, 999, lane=5))
        assert ack_delivered(payload) == 999
        assert ack_lane(payload) == 5
        # Legacy 8-byte payloads (pre-lane) decode as lane 0.
        assert ack_lane(payload[:8]) == 0

    def test_short_datagram_rejected(self):
        with pytest.raises(ValueError):
            unwrap(b"\x00" * 8)

    def test_truncated_end_payload_rejected(self):
        with pytest.raises(ValueError):
            end_total(b"\x00\x01")
        with pytest.raises(ValueError):
            ack_delivered(b"")


class TestFrameCodec:
    def test_roundtrip_preserves_boundaries(self):
        reports = [b"alpha", b"", b"b", b"gamma-gamma"]
        seq, kind, payload = unwrap(wrap_frame(9, reports))
        assert (seq, kind) == (9, KIND_FRAME)
        assert unwrap_frame(payload) == reports

    def test_empty_frame(self):
        _, kind, payload = unwrap(wrap_frame(0, []))
        assert kind == KIND_FRAME
        assert unwrap_frame(payload) == []

    def test_report_cap_enforced(self):
        with pytest.raises(ValueError):
            wrap_frame(0, [b"x"] * (MAX_FRAME_REPORTS + 1))

    def test_truncations_rejected(self):
        _, _, payload = unwrap(wrap_frame(0, [b"abc", b"defg"]))
        with pytest.raises(ValueError):
            unwrap_frame(b"")                       # no count
        with pytest.raises(ValueError):
            unwrap_frame(b"\x00\x03\x00\x01")       # table truncated
        with pytest.raises(ValueError):
            unwrap_frame(payload[:-1])              # body truncated

    def test_trailing_bytes_ignored(self):
        _, _, payload = unwrap(wrap_frame(0, [b"abc"]))
        assert unwrap_frame(payload + b"\xff\xff") == [b"abc"]


    @pytest.mark.parametrize("seed", range(4))
    def test_wrap_frames_is_wrap_frame_per_frame(self, seed):
        rng = random.Random(seed)
        reports = [rng.randbytes(rng.choice((0, 1, 30, 300)))
                   for _ in range(rng.randrange(1, 400))]
        cuts = rng.sample(range(1, len(reports) + 1),
                          min(len(reports), rng.randrange(1, 30)))
        bounds = [0] + sorted(set(cuts) | {len(reports)})
        sizes = np.fromiter(map(len, reports), dtype=np.int64)
        seq = rng.choice((0, 7, (1 << 64) - 200))
        frames = wrap_frames(seq, reports, sizes, bounds)
        assert [bytes(frame) for frame in frames] == [
            wrap_frame(seq + i, reports[lo:hi])
            for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
        assert wrap_frames(seq, [], sizes[:0], [0]) == []
        with pytest.raises(ValueError):
            wrap_frames(0, [b"x"] * (MAX_FRAME_REPORTS + 1),
                        np.ones(MAX_FRAME_REPORTS + 1, dtype=np.int64),
                        [0, MAX_FRAME_REPORTS + 1])


class TestReassembler:
    def test_in_order_passthrough(self):
        r = Reassembler()
        out = []
        for i in range(10):
            out.extend(r.push(wrap(i, b"p%d" % i)))
        assert [p for _k, p in out] == [b"p%d" % i for i in range(10)]
        assert r.delivered == 10
        assert r.waiting == 0

    def test_restores_order_under_permutation(self):
        n = 200
        datagrams = [wrap(i, b"p%03d" % i) for i in range(n)]
        rng = random.Random(13)
        # Local shuffles, as a kernel might produce.
        for i in range(0, n - 4, 4):
            window = datagrams[i:i + 4]
            rng.shuffle(window)
            datagrams[i:i + 4] = window
        r = Reassembler()
        out = []
        for d in datagrams:
            out.extend(r.push(d))
        assert [p for _k, p in out] == [b"p%03d" % i for i in range(n)]
        assert r.waiting == 0

    def test_duplicates_counted_and_discarded(self):
        r = Reassembler()
        r.push(wrap(0, b"a"))
        r.push(wrap(0, b"a"))              # already delivered
        r.push(wrap(2, b"c"))
        r.push(wrap(2, b"c"))              # already pending
        assert r.duplicates == 2
        assert r.delivered == 1

    def test_malformed_counted_and_discarded(self):
        r = Reassembler()
        assert r.push(b"short") == []
        assert r.malformed == 1
        assert r.push(wrap(0, b"fine"))    # stream unaffected

    def test_waiting_reflects_gap(self):
        r = Reassembler()
        r.push(wrap(1, b"b"))
        r.push(wrap(2, b"c"))
        assert r.waiting == 2
        out = r.push(wrap(0, b"a"))
        assert [p for _k, p in out] == [b"a", b"b", b"c"]
        assert r.waiting == 0
        assert r.delivered == 3

    def test_seqs_past_the_horizon_are_malformed(self):
        r = Reassembler(horizon=4)
        assert r.push(wrap(4, b"e")) == []            # 0 + 4: too far
        assert r.push(wrap(1 << 40, b"x")) == []
        assert r.push(wrap(3, b"d")) == []            # in reach: held
        assert (r.malformed, r.waiting) == (2, 1)
        for seq, payload in enumerate((b"a", b"b", b"c")):
            r.push(wrap(seq, payload))
        assert r.push(wrap(7, b"h")) == []            # 4 + 4 - 1: held
        assert (r.next_seq, r.waiting, r.malformed) == (4, 1, 2)
        with pytest.raises(ValueError):
            Reassembler(horizon=0)

    def test_kinds_survive_reassembly(self):
        r = Reassembler()
        r.push(wrap(0, b"r"))
        out = r.push(wrap_end(1, 1))
        assert out[-1][0] == KIND_END


class _ModelReassembler:
    """The per-datagram reassembly rule, written out plainly: the model
    a burst must reproduce, delivery by delivery and count by count."""

    def __init__(self, horizon):
        self.horizon = horizon
        self.next_seq = self.delivered = 0
        self.duplicates = self.malformed = 0
        self.pending = {}

    def push(self, datagram):
        if len(datagram) < 9:
            self.malformed += 1
            return []
        seq, kind, payload = unwrap(datagram)
        if seq < self.next_seq or seq in self.pending:
            self.duplicates += 1
            return []
        if seq >= self.next_seq + self.horizon:
            self.malformed += 1
            return []
        self.pending[seq] = (kind, payload)
        out = []
        while self.next_seq in self.pending:
            out.append(self.pending.pop(self.next_seq))
            self.next_seq += 1
            self.delivered += 1
        return out


class TestBurstReassembly:
    SLOT = 64

    def _burst(self, ring, datagrams):
        """Write ``datagrams`` into the ring's slots, as a receive does."""
        for index, datagram in enumerate(datagrams):
            at = index * self.SLOT
            ring[at:at + self.SLOT] = bytes(self.SLOT)
            ring[at:at + len(datagram)] = datagram
        starts = self.SLOT * np.arange(len(datagrams), dtype=np.int64)
        return starts, np.array([len(d) for d in datagrams], dtype=np.int64)

    def test_edge_corpus_matches_the_per_datagram_rule(self):
        """One burst with a duplicate, a gap a later burst fills (the
        held datagrams must outlive their ring slots), a seq past the
        horizon, a short datagram, a single and an END mid-burst."""
        bursts = [
            [wrap(0, b"frame-0", KIND_FRAME), wrap(1, b"single"),
             wrap_end(2, 2), wrap(2, b"again"),           # duplicate
             wrap(4, b"held-4", KIND_FRAME),               # gap at 3
             wrap(9, b"far"),                              # past horizon
             b"short", wrap(4, b"held-again"),             # dup, pending
             wrap(5, b"held-5", KIND_FRAME)],
            [wrap(3, b"fills-3", KIND_FRAME), wrap(6, b"then-6")],
            [wrap(8, b"held-8"), wrap(6, b"stale")],
            [wrap(7, b"fills-7", KIND_FRAME), wrap_end(9, 6)],
        ]
        model, reassembler = _ModelReassembler(4), Reassembler(horizon=4)
        ring = bytearray(self.SLOT * 16)
        for burst in bursts:
            want = [pair for datagram in burst
                    for pair in model.push(datagram)]
            kinds, data, starts, lengths = reassembler.push_burst(
                ring, *self._burst(ring, burst))
            got = [(kind, bytes(data[start:start + length]))
                   for kind, start, length in zip(
                       kinds.tolist(), starts.tolist(), lengths.tolist())]
            assert got == want
            assert (reassembler.delivered, reassembler.duplicates,
                    reassembler.malformed, reassembler.waiting) == (
                model.delivered, model.duplicates, model.malformed,
                len(model.pending))
        assert reassembler.next_seq == 10
        assert (model.duplicates, model.malformed) == (3, 2)

    @pytest.mark.parametrize("seed", [2, 19])
    def test_shuffled_bursts_match_the_per_datagram_rule(self, seed):
        rng = random.Random(seed)
        datagrams = [wrap(seq, b"p%d" % seq, rng.choice(
            [KIND_FRAME, KIND_REPORT])) for seq in range(300)]
        datagrams += rng.sample(datagrams, 30) + [b"x" * rng.randrange(9)
                                                  for _ in range(5)]
        # Kernel-style reordering: mostly in order, local swaps.
        for _ in range(60):
            at = rng.randrange(len(datagrams) - 3)
            datagrams[at], datagrams[at + 3] = datagrams[at + 3], \
                datagrams[at]
        model, reassembler = _ModelReassembler(16), Reassembler(horizon=16)
        ring = bytearray(self.SLOT * 32)
        at = 0
        while at < len(datagrams):
            burst = datagrams[at:at + rng.randrange(1, 33)]
            at += len(burst)
            want = [pair for datagram in burst
                    for pair in model.push(datagram)]
            kinds, data, starts, lengths = reassembler.push_burst(
                ring, *self._burst(ring, burst))
            assert [(kind, bytes(data[start:start + length]))
                    for kind, start, length in zip(
                        kinds.tolist(), starts.tolist(),
                        lengths.tolist())] == want
        assert (reassembler.delivered, reassembler.duplicates,
                reassembler.malformed, reassembler.waiting) == (
            model.delivered, model.duplicates, model.malformed,
            len(model.pending))
