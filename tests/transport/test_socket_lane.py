"""The deployment lane over real UDP and real processes.

The heart of the suite is the differential gate: socket-lane store
digests must equal the in-process lane's under the same workload seed
and the same loss plan.  Around it: daemon-crash containment (clean
error, no leaked ``/dev/shm`` segments), codec fuzz (garbage datagrams
must not kill the translator daemon), and a NACK settle round proving
the control channel drives real retransmissions end to end.
"""

from __future__ import annotations

import multiprocessing.shared_memory as shared_memory
import random
import socket as socket_mod
import struct
import time

import pytest

from repro.core import packets
from repro.core.cluster import ClusterMap
from repro.transport.envelope import (
    ENVELOPE,
    KIND_END,
    KIND_FRAME,
    KIND_REPORT,
    end_total,
    unwrap,
    unwrap_frame,
    wrap,
)
from repro.transport.loss import LossSpec
from repro.transport.reporter import SocketReporter
from repro.transport.serve import (
    ServeError,
    ServeSpec,
    SocketLane,
    route_report,
    run_reference,
    run_serve,
)
from repro.workloads import reports

REPORTS = 600
BATCH = 32


def _spec(primitive="key_write", collectors=2, loss=None, reports=REPORTS,
          **kwargs):
    return ServeSpec(primitive=primitive, reports=reports,
                     collectors=collectors, batch_size=BATCH,
                     loss=loss or LossSpec(), **kwargs)


def _passed(doc) -> bool:
    return all(gate["pass"] for gate in doc["gates"])


# ----------------------------------------------------------------------
# Differential gate
# ----------------------------------------------------------------------


class TestDifferentialGate:
    @pytest.mark.parametrize("primitive", ["key_write", "postcarding",
                                           "sketch_merge"])
    def test_lossless_digests_match(self, primitive):
        doc = run_serve(_spec(primitive=primitive))
        assert _passed(doc), doc["gates"]
        assert (doc["socket"]["store_digests"]
                == doc["reference"]["store_digests"])

    def test_seeded_loss_and_reorder_digests_match(self):
        loss = LossSpec(seed=21, drop_rate=0.08, reorder_rate=0.08,
                        reorder_span=5)
        doc = run_serve(_spec(loss=loss))
        assert _passed(doc), doc["gates"]
        assert doc["socket"]["shim"]["dropped"] > 0
        assert doc["socket"]["shim"]["reordered"] > 0

    def test_single_collector_with_loss(self):
        loss = LossSpec(seed=3, drop_rate=0.05)
        doc = run_serve(_spec(primitive="append", collectors=1,
                              loss=loss))
        assert _passed(doc), doc["gates"]

    def test_delivery_conservation_recorded(self):
        doc = run_serve(_spec())
        sock = doc["socket"]
        socket_stats = sock["translator"]
        assert socket_stats["reports"] == sock["reports_sent"]
        assert socket_stats["malformed"] == 0
        assert socket_stats["waiting"] == 0

    def test_document_shape(self):
        doc = run_serve(_spec(reports=200))
        assert [gate["gate"] for gate in doc["gates"]] == [
            "every surviving datagram delivered in order",
            "every delivered report decoded",
            "control channel conserved (ACK/NACK bytes accounted)",
            "socket-lane store digests match in-process lane",
            "socket-lane obs digest matches in-process lane"]
        sock = doc["socket"]
        assert sock["reports_sent"] == 200
        assert sock["frames_sent"] >= 1
        assert sock["datagrams_sent"] < 200    # coalescing bites
        assert len(sock["store_digests"]) == 2
        assert sock["translator"]["ctrl_bytes_sent"] > 0

    def test_multi_translator_digests_match(self):
        loss = LossSpec(seed=17, drop_rate=0.05, reorder_rate=0.05)
        doc = run_serve(_spec(collectors=3, loss=loss, translators=2))
        assert _passed(doc), doc["gates"]
        assert len(doc["socket"]["lane_seqs"]) == 2
        # Both daemons actually carried traffic (shards 0+2 vs shard 1).
        view = doc["socket"]["view"]
        assert all(view.value("transport.reports",
                              role="translator", lane=lane) > 0
                   for lane in (0, 1))

    def test_labelled_view_counts_what_each_lane_was_routed(self):
        """Lane 1's labelled ``translator.reports_in`` is what the
        reporter routed to lane 1 (collector shard 1 of two); lane 0
        never translated for that shard."""
        spec = _spec(translators=2)
        doc = run_serve(spec)
        assert _passed(doc), doc["gates"]
        cmap = ClusterMap(collectors=2)
        routed = sum(route_report(cmap, raw) == 1 for raw in reports.wire(
            spec.primitive, spec.reports, spec.seed))
        view = doc["socket"]["view"]
        assert 0 < routed < spec.reports
        for lane, want in ((1, routed), (0, 0)):
            assert view.value("translator.reports_in", role="translator",
                              lane=lane, node="translator-1") == want

    def test_mmsg_fallback_digests_identical(self, monkeypatch):
        """Forcing the plain send loop + recvmsg_into fallback must not
        change a single store byte relative to the sendmmsg path (the
        forked daemons inherit the cleared ``mmsg.USE_MMSG``)."""
        from repro.transport import mmsg

        loss = LossSpec(seed=9, drop_rate=0.04, reorder_rate=0.04)
        fast = run_serve(_spec(loss=loss, reports=400))
        monkeypatch.setattr(mmsg, "USE_MMSG", False)
        slow = run_serve(_spec(loss=loss, reports=400))
        assert _passed(fast), fast["gates"]
        assert _passed(slow), slow["gates"]
        assert (fast["socket"]["store_digests"]
                == slow["socket"]["store_digests"])

    def test_scalar_translate_digests_match(self):
        doc = run_serve(_spec(reports=300, vectorized=False))
        assert _passed(doc), doc["gates"]


# ----------------------------------------------------------------------
# Frame packing at the reporter
# ----------------------------------------------------------------------


class TestFramePacking:
    def _reporter_and_sink(self, **kwargs):
        sink = socket_mod.socket(socket_mod.AF_INET,
                                 socket_mod.SOCK_DGRAM)
        sink.setsockopt(socket_mod.SOL_SOCKET, socket_mod.SO_RCVBUF, 1 << 22)
        sink.bind(("127.0.0.1", 0))
        sink.settimeout(2.0)
        reporter = SocketReporter("pack-test", 1, shards=1, **kwargs)
        reporter.set_data_addrs([sink.getsockname()])
        return reporter, sink

    def _drain(self, sink, n):
        out = []
        for _ in range(n):
            out.append(unwrap(sink.recv(65535)))
        return out

    def test_frames_respect_budget_and_preserve_order(self):
        reporter, sink = self._reporter_and_sink(frame_bytes=128)
        try:
            raws = [packets.make_report(
                packets.KeyWrite(key=struct.pack(">I", i),
                                 data=struct.pack(">Q", i)),
                reporter_id=1) for i in range(40)]
            for raw in raws:
                reporter.transmit(raw)
            sent = reporter.end_stream()
            assert sent == len(raws)
            frames = self._drain(sink, reporter.lane_seqs[0])
            assert [seq for seq, _k, _p in frames] == list(
                range(len(frames)))
            assert frames[-1][1] == KIND_END
            assert end_total(frames[-1][2]) == len(raws)
            rebuilt = []
            for _seq, kind, payload in frames[:-1]:
                assert kind == KIND_FRAME
                assert len(payload) + ENVELOPE.size <= 128
                reports = unwrap_frame(payload)
                assert len(reports) > 1      # coalescing actually packs
                rebuilt.extend(reports)
            assert rebuilt == raws
        finally:
            reporter.close()
            sink.close()

    def test_retransmit_flag_flushes_frame_and_goes_single(self):
        reporter, sink = self._reporter_and_sink(frame_bytes=1400)
        try:
            plain = packets.make_report(
                packets.KeyWrite(key=b"plain", data=b"d"), reporter_id=1)
            retrans = packets.make_report(
                packets.KeyWrite(key=b"retrans", data=b"d"),
                reporter_id=1, flags=packets.DtaFlags.RETRANSMIT)
            reporter.transmit(plain)
            reporter.transmit(retrans)    # must flush the pending frame
            frames = self._drain(sink, 2)
            assert frames[0][1] == KIND_FRAME
            assert unwrap_frame(frames[0][2]) == [plain]
            assert frames[1][1] == KIND_REPORT
            assert frames[1][2] == retrans
        finally:
            reporter.close()
            sink.close()

    def test_oversize_report_rides_its_own_frame(self):
        reporter, sink = self._reporter_and_sink(frame_bytes=64)
        try:
            big = packets.make_report(
                packets.KeyWrite(key=b"k" * 32, data=b"d" * 200),
                reporter_id=1)
            reporter.transmit(big)
            reporter.flush()
            frames = self._drain(sink, 1)
            assert frames[0][1] == KIND_FRAME
            assert unwrap_frame(frames[0][2]) == [big]
        finally:
            reporter.close()
            sink.close()

    def test_bulk_transmit_frames_identical_to_per_report(self):
        """The searchsorted packer must produce exactly the frames the
        per-report budget check does: variable sizes, an oversize
        report mid-stream, and a pre-existing partial frame."""
        rng = random.Random(5)
        raws = []
        for i in range(300):
            data_len = (200 if i % 97 == 0     # oversize for budget 160
                        else rng.randrange(1, 40))
            raws.append(packets.make_report(
                packets.KeyWrite(key=struct.pack(">I", i),
                                 data=bytes(data_len)),
                reporter_id=1))
        head, tail = raws[:7], raws[7:]
        datagrams = []
        for use_bulk in (False, True):
            reporter, sink = self._reporter_and_sink(frame_bytes=160)
            try:
                for raw in head:       # leave a partial frame pending
                    reporter.transmit(raw)
                if use_bulk:
                    reporter.transmit_many([0] * len(tail), tail)
                else:
                    for raw in tail:
                        reporter.transmit_to(0, raw)
                reporter.end_stream()
                datagrams.append(self._drain(sink,
                                             reporter.lane_seqs[0]))
            finally:
                reporter.close()
                sink.close()
        assert datagrams[0] == datagrams[1]

    @pytest.mark.parametrize("translators", [1, 2])
    def test_bulk_calls_interleaved_with_per_report_transmits(
            self, translators, monkeypatch):
        """Several ``transmit_many`` calls with per-report ``transmit_to``
        between them, then ``end_stream``: reports the shim holds across
        slices and calls, and those its final flush releases, reach the
        lane of their own shard, and every lane's envelopes are the
        per-report path's."""
        from repro.transport import reporter as reporter_mod

        monkeypatch.setattr(reporter_mod, "_TRANSMIT_SLICE", 7)
        loss = LossSpec(seed=23, drop_rate=0.05, reorder_rate=0.3,
                        reorder_span=5)
        rng = random.Random(translators)
        n = 600
        raws = [packets.make_report(
            packets.KeyWrite(key=struct.pack(">I", i),
                             data=bytes(rng.randrange(1, 40))),
            reporter_id=1) for i in range(n)]
        shards = [rng.randrange(3) for _ in range(n)]
        cuts = [0, 5, 6, 90, 91, 92, 300, 301, 577, n]
        streams = []
        for use_bulk in (False, True):
            sinks = [socket_mod.socket(socket_mod.AF_INET,
                                       socket_mod.SOCK_DGRAM)
                     for _ in range(translators)]
            for sink in sinks:
                sink.setsockopt(socket_mod.SOL_SOCKET,
                                socket_mod.SO_RCVBUF, 1 << 22)
                sink.bind(("127.0.0.1", 0))
                sink.settimeout(2.0)
            reporter = SocketReporter(
                "pack-test", 1, shards=3, translators=translators,
                loss=loss, window=1 << 20, frame_bytes=160)
            reporter.set_data_addrs([sink.getsockname() for sink in sinks])
            try:
                for index, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
                    if use_bulk and index % 2:
                        reporter.transmit_many(shards[lo:hi], raws[lo:hi])
                    else:
                        for shard, raw in zip(shards[lo:hi], raws[lo:hi]):
                            reporter.transmit_to(shard, raw)
                reporter.end_stream()
                assert reporter.shim.reordered > 50
                streams.append([self._drain(sink, seqs) for sink, seqs
                                in zip(sinks, reporter.lane_seqs)])
            finally:
                reporter.close()
                for sink in sinks:
                    sink.close()
        assert streams[0] == streams[1]
        # Each lane carries its shards' survivors in the shim's order.
        survivors = loss.shim().apply(range(n))
        for lane, datagrams in enumerate(streams[1]):
            delivered = [report for _seq, kind, payload in datagrams
                         if kind == KIND_FRAME
                         for report in unwrap_frame(payload)]
            assert delivered == [raws[i] for i in survivors
                                 if shards[i] % translators == lane]

    @pytest.mark.parametrize("n", [255, 256, 257, 512, 513, 769])
    def test_sliced_bulk_transmit_streams_the_same_envelopes(
            self, n, monkeypatch):
        """``transmit_many`` works through its input a slice at a time;
        shim holds and the open frame carry across slices, so the
        envelope bytes are those of per-report ``transmit_to`` — and
        sealed envelopes leave between slices, not after the last."""
        from repro.transport import reporter as reporter_mod

        monkeypatch.setattr(reporter_mod, "_TRANSMIT_SLICE", 256)
        slices = -(-n // 256)
        loss = LossSpec(seed=13, drop_rate=0.02, reorder_rate=0.02)
        rng = random.Random(n)
        raws = [packets.make_report(
            packets.KeyWrite(key=struct.pack(">I", i),
                             data=bytes(rng.randrange(1, 40))),
            reporter_id=1) for i in range(n)]
        datagrams = []
        for use_bulk in (False, True):
            reporter, sink = self._reporter_and_sink(
                frame_bytes=160, loss=loss, window=1 << 20)
            sent_before_slice = []
            step_many = reporter.shim.step_many

            def spy(stream):
                sent_before_slice.append(reporter.datagrams_sent)
                return step_many(stream)

            reporter.shim.step_many = spy
            try:
                if use_bulk:
                    reporter.transmit_many([0] * n, raws)
                    assert len(sent_before_slice) == slices
                    if slices > 1:
                        # On the socket before the last slice has been
                        # through the shim.
                        assert sent_before_slice[-1] > 0
                else:
                    for raw in raws:
                        reporter.transmit_to(0, raw)
                reporter.end_stream()
                assert reporter.shim.dropped + reporter.shim.reordered > 0
                datagrams.append(self._drain(sink, reporter.lane_seqs[0]))
            finally:
                reporter.close()
                sink.close()
        assert datagrams[0] == datagrams[1]


# ----------------------------------------------------------------------
# Crash containment
# ----------------------------------------------------------------------


    def test_first_datagram_leaves_after_one_slice_is_read(
            self, monkeypatch):
        """The columns are built a slice at a time: when the first
        datagram reaches the socket the reporter has read at most one
        ``_TRANSMIT_SLICE`` of each input column, not the whole
        stream (the shim's carry lives in the reporter, not the
        input)."""
        from repro.transport import mmsg
        from repro.transport import reporter as reporter_mod

        width = reporter_mod._TRANSMIT_SLICE
        n = 3 * width
        cmap = ClusterMap(collectors=2)
        raws = reports.wire("key_write", n, 17)
        shards = _CountingColumn([route_report(cmap, raw) for raw in raws])
        raws = _CountingColumn(raws)
        read_at_send = []

        def send_many(sock, payloads):
            read_at_send.append((shards.read, raws.read))
            return len(payloads)

        monkeypatch.setattr(mmsg, "send_many", send_many)
        reporter = SocketReporter(
            "first-slice", 1, shards=2, translators=2,
            loss=LossSpec(seed=5, drop_rate=0.02, reorder_rate=0.02),
            window=1 << 30)
        try:
            reporter.transmit_many(shards, raws)
            assert reporter.shim.reordered > 0
        finally:
            reporter.close()
        shards_read, raws_read = read_at_send[0]
        assert 0 < shards_read <= width
        assert 0 < raws_read <= width
        # Every report is read once, one slice after another.
        assert shards.read == raws.read == n
        assert len(read_at_send) > 3


class _CountingColumn:
    """A read-only sequence that counts the elements handed out."""

    def __init__(self, items) -> None:
        self._items = items
        self.read = 0

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index):
        got = self._items[index]
        self.read += len(got) if isinstance(index, slice) else 1
        return got


class TestWindowCheck:
    """A send window below one is refused where it is given, before any
    daemon starts (the translator daemon's reassembler would otherwise
    raise in the child and the run would end in a dead daemon)."""

    @pytest.mark.parametrize("window", [0, -1])
    def test_spec_rejects_a_window_below_one(self, window):
        with pytest.raises(ValueError, match="window must be at least 1"):
            _spec(window=window)

    @pytest.mark.parametrize("window", [0, -1])
    def test_reporter_rejects_a_window_below_one(self, window):
        with pytest.raises(ValueError, match="window must be at least 1"):
            SocketReporter("r", 1, window=window)


class TestCrashContainment:
    def test_dead_collector_daemon_is_a_clean_error(self):
        spec = _spec(reports=200)
        raws = reports.wire(spec.primitive, spec.reports, spec.seed)
        with SocketLane(spec) as lane:
            names = [shm.name for shm in lane._segments]
            lane.send(raws[:50])
            victim = lane._collector_procs[0]
            victim.terminate()
            victim.join(timeout=5)
            with pytest.raises(ServeError, match="died"):
                lane.drain()
        # __exit__ must still unlink every segment the lane created.
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_dead_translator_daemon_is_a_clean_error(self):
        spec = _spec(reports=200)
        with SocketLane(spec) as lane:
            names = [shm.name for shm in lane._segments]
            lane._translator_procs[0].terminate()
            lane._translator_procs[0].join(timeout=5)
            with pytest.raises(ServeError, match="died"):
                lane.drain()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_send_into_dead_translator_raises_instead_of_hanging(
            self, monkeypatch):
        """A full send window whose daemon is gone must not wait forever.

        Small frames and a small window, so ``send`` itself fills the
        window (the tests above only observe death at ``drain``).
        """
        from repro.transport import reporter as reporter_mod

        monkeypatch.setattr(reporter_mod, "_WINDOW_STALL_S", 1.0)
        spec = _spec(reports=2000, window=8, frame_bytes=64)
        raws = reports.wire(spec.primitive, spec.reports, spec.seed)
        with SocketLane(spec) as lane:
            names = [shm.name for shm in lane._segments]
            lane._translator_procs[0].terminate()
            lane._translator_procs[0].join(timeout=5)
            start = time.monotonic()
            with pytest.raises(ServeError, match=r"died .*exitcode"):
                lane.send(raws)
            assert time.monotonic() - start < 5.0
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_end_stream_into_dead_translator_raises_serve_error(
            self, monkeypatch):
        """``end_stream`` flushes through the same window wait as
        ``send``: with the window full and the daemon gone it must
        raise the lane's error, not leak the reporter's
        ``WindowStalled`` (nor wait out the stream).
        """
        from repro.transport import reporter as reporter_mod

        monkeypatch.setattr(reporter_mod, "_WINDOW_STALL_S", 1.0)
        spec = _spec(reports=2000, window=8, frame_bytes=64)
        raws = reports.wire(spec.primitive, spec.reports, spec.seed)
        with SocketLane(spec) as lane:
            names = [shm.name for shm in lane._segments]
            lane._translator_procs[0].terminate()
            lane._translator_procs[0].join(timeout=5)
            # Per-report sends only fill the outbox: nothing has met
            # the window yet when end_stream starts flushing.
            lane.send(raws[:40])
            assert lane.reporter.datagrams_sent == 0
            start = time.monotonic()
            with pytest.raises(ServeError, match=r"died .*exitcode"):
                lane.end_stream()
            assert time.monotonic() - start < 5.0
            assert lane.reporter.datagrams_sent == spec.window
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_clean_run_leaves_no_segments(self):
        spec = _spec(reports=100)
        raws = reports.wire(spec.primitive, spec.reports, spec.seed)
        with SocketLane(spec) as lane:
            names = [shm.name for shm in lane._segments]
            lane.send(raws)
            lane.reporter.end_stream()
            lane.drain()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


# ----------------------------------------------------------------------
# Codec fuzz at the socket boundary
# ----------------------------------------------------------------------


def send_raw_datagram(reporter, datagram: bytes) -> None:
    """Put arbitrary bytes on lane 0's wire, bypassing shim, envelope
    and window accounting alike."""
    reporter._lanes[0].sock.send(datagram)


def send_payload(reporter, payload: bytes) -> None:
    """Envelope arbitrary payload as a ``KIND_REPORT`` single on lane 0,
    after flushing the pending frame so lane order still matches
    emission order."""
    lane = reporter._lanes[0]
    reporter._finalize_frame(lane)
    reporter._append_single(lane, payload)
    reporter._flush_outbox(lane)


class TestDatagramFuzz:
    def test_garbage_datagrams_do_not_kill_the_daemon(self):
        spec = _spec(reports=300)
        raws = reports.wire(spec.primitive, spec.reports, spec.seed)
        garbage = 0
        with SocketLane(spec) as lane:
            for i, raw in enumerate(raws):
                lane.reporter.transmit(raw)
                if i % 23 == 0:
                    # Truncated: shorter than the lane envelope.
                    send_raw_datagram(lane.reporter, b"\x00\x01")
                    garbage += 1
                if i % 31 == 0:
                    # Valid envelope, stale seq: counted as duplicate.
                    # Flush first so the real seq-0 frame is already on
                    # the wire ahead of this replay of it.
                    lane.reporter.flush()
                    send_raw_datagram(lane.reporter, wrap(0, b"\xff" * 12))
                    garbage += 1
            # Garbage *payloads* on live lane seqs: the envelope
            # delivers them, the DTA decoder must reject them.
            for junk in (b"", b"\xff", b"\x01\x63\x00\x00", b"\x00" * 64):
                send_payload(lane.reporter, junk)
                garbage += 1
            lane.reporter.end_stream()
            stats = lane.drain()
            digests = lane.digests()
        assert stats["reports"] == len(raws)
        assert stats["malformed"] >= 4        # the four junk payloads
        assert stats["duplicates"] >= 1
        # Garbage must not have perturbed a single store byte.
        assert digests == run_reference(spec, raws)

    def test_far_future_lane_seqs_are_malformed_not_buffered(self):
        """A well-formed envelope whose seq lies past the reporter's send
        window can never be filled in behind: it counts as malformed
        instead of waiting forever (which failed conservation and, as a
        flood of distinct seqs, grew the daemon without bound)."""
        spec = _spec(reports=300, window=64)
        raws = reports.wire(spec.primitive, spec.reports, spec.seed)
        far = 0
        with SocketLane(spec) as lane:
            for seq in (1 << 40, (1 << 64) - 1, 10 ** 6):
                send_raw_datagram(lane.reporter, wrap(seq, b"x"))
                far += 1
            for i, raw in enumerate(raws):
                lane.reporter.transmit(raw)
                if i % 50 == 0:
                    # A window past everything emitted so far, hence
                    # past the horizon of what is delivered.
                    lane.reporter.flush()
                    send_raw_datagram(lane.reporter, wrap(
                        lane.reporter.lane_seqs[0] + spec.window, b"x"))
                    far += 1
            lane.reporter.end_stream()
            stats = lane.drain()
            digests = lane.digests()
            emitted = sum(lane.reporter.lane_seqs)
        assert stats["waiting"] == 0
        assert stats["malformed"] == far
        assert stats["delivered"] == emitted
        assert stats["reports"] == len(raws)
        assert digests == run_reference(spec, raws)

    def test_truncated_dta_reports_counted_not_fatal(self):
        spec = _spec(reports=200)
        raws = reports.wire(spec.primitive, spec.reports, spec.seed)
        with SocketLane(spec) as lane:
            for i, raw in enumerate(raws):
                lane.reporter.transmit(raw)
                if i % 17 == 0:
                    send_payload(lane.reporter, raw[:5])  # truncated DTA report
            lane.reporter.end_stream()
            stats = lane.drain()
            digests = lane.digests()
        assert stats["malformed"] > 0
        assert digests == run_reference(spec, raws)


    @pytest.mark.parametrize("primitive", ["key_write", "sketch_merge"])
    def test_reports_the_service_cannot_hold_are_rejected_not_fatal(
            self, primitive):
        """Five reports that *decode* but that the provisioned stores
        cannot hold (each used to raise straight out of the daemon's
        receive loop): dropped alone, counted, everything else lands
        exactly as in the reference fed the same bytes.  Sketch 9 is
        "no sketch served" under the Key-Write workload and a foreign
        sketch id under the Sketch-Merge one."""
        spec = _spec(primitive, reports=400, translators=2)
        wide = bytes(reports.KW_DATA_BYTES + 16)
        bad = [packets.make_report(op, reporter_id=1) for op in (
            packets.Postcard(key=b"flow", hop=1, value=7, redundancy=200),
            packets.Append(list_id=reports.AP_LISTS + 5, data=b"x" * 8),
            packets.Append(list_id=1, data=wide),
            packets.KeyWrite(key=b"wide", data=wide),
            packets.SketchColumn(sketch_id=9, column=0,
                                 counters=(1,) * reports.SM_DEPTH))]
        raws = reports.wire(spec.primitive, spec.reports, spec.seed)
        for at, raw in zip((390, 301, 200, 77, 3), bad):
            raws.insert(at, raw)
        cmap = ClusterMap(collectors=spec.collectors)
        with SocketLane(spec) as lane:
            lane.send(raws, [route_report(cmap, raw) for raw in raws])
            lane.end_stream()
            stats = lane.drain()
            digests = lane.digests()
        assert stats["reports"] == len(raws)
        assert stats["rejected"] == len(bad) and stats["malformed"] == 0
        assert digests == run_reference(spec, raws)


# ----------------------------------------------------------------------
# Control channel: NACK -> retransmit -> store repair
# ----------------------------------------------------------------------


class TestNackSettle:
    def test_dropped_essentials_are_repaired_by_nacks(self):
        loss = LossSpec(seed=5, drop_rate=0.12)
        spec = _spec(loss=loss, reports=300)
        n = 300
        keys = [struct.pack(">I", i) for i in range(n)]
        datas = [struct.pack(">QQ", i, i ^ 0xABCD) for i in range(n)]

        # Twin shim: predict exactly which transmissions will drop.
        twin = loss.shim()
        survived = set()
        for i in range(n):
            for marker in twin.step(struct.pack(">I", i)):
                survived.add(struct.unpack(">I", marker)[0])
        for marker in twin.flush():
            survived.add(struct.unpack(">I", marker)[0])
        dropped = [i for i in range(n) if i not in survived]
        assert dropped, "seed must actually drop something"
        # Gap detection is per shard seq stream: a drop is repairable
        # once a later report on the same shard arrives and exposes it.
        cluster = ClusterMap(collectors=spec.collectors)
        shard_of = {i: cluster.for_key(keys[i]) for i in range(n)}
        repairable = [i for i in dropped
                      if any(j > i and shard_of[j] == shard_of[i]
                             for j in survived)]
        assert repairable

        with SocketLane(spec) as lane:
            rep = lane.reporter.cluster
            for key, data in zip(keys, datas):
                rep.key_write(key, data, essential=True)
            lane.reporter.end_stream()
            lane.drain()
            # NACKs may already have been served by drain()'s control
            # polling (frames land in one burst at end_stream, so the
            # daemon's NACKs race the drained reply); settle() sweeps
            # whatever is left and the total counter is the assertion.
            lane.reporter.settle(rounds=5)
            lane.reporter.end_stream()
            lane.drain()

            assert lane.reporter.stats.retransmitted > 0
            assert lane.reporter.stats.nacks_received > 0

            for i in repairable:
                result = lane.query(shard_of[i], "query_value", keys[i])
                assert result.value == datas[i], \
                    f"essential report {i} not repaired"
