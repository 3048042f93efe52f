"""Daemon mains driven in-process: command loops, segment hygiene.

The lane tests exercise the daemons as real forked processes; these
drive the same main functions on threads so their command handling and
teardown paths are directly observable (and measurable by coverage).
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import socket
import struct
import subprocess
import sys
import threading

import pytest

from repro import obs
from repro.core import packets
from repro.core.cluster import ClusterMap
from repro.core.translator import Translator
from repro.runtime.shm import Attached
from repro.transport import mmsg
from repro.transport.assembler import ReportAssembler
from repro.transport.daemons import (
    collector_daemon_main,
    provision_collector,
    segment_plan,
    translator_daemon_main,
)
from repro.transport.serve import DRAIN_SERIES
from repro.transport.envelope import (
    KIND_ACK,
    ack_delivered,
    ack_lane,
    unwrap,
    wrap,
    wrap_end,
    wrap_frame,
)


def _total(snapshot, key: str):
    """One ``SocketLane.drain`` key, read off a daemon's snapshot."""
    return sum(snapshot.total(name) for name in DRAIN_SERIES[key])


@pytest.fixture()
def fresh_registry():
    previous = obs.set_registry(obs.Registry())
    yield
    obs.set_registry(previous)


@pytest.fixture()
def segments():
    from multiprocessing import shared_memory

    plan = segment_plan(0)
    shms = [shared_memory.SharedMemory(create=True, size=max(1, length))
            for _store, length in plan]
    yield [shm.name for shm in shms]
    for shm in shms:
        shm.close()
        shm.unlink()


class TestSegmentPlan:
    def test_plan_covers_all_stores(self):
        assert [store for store, _ in segment_plan(0)] == [
            "keywrite", "keyincrement", "postcarding", "append"]
        assert [store for store, _ in segment_plan(64)][-1] == "sketch"

    def test_plan_lengths_match_provisioned_regions(self, fresh_registry):
        collector = provision_collector("plan-check", sketch_width=64)
        regions = list(collector.nic.pd)
        planned = [length for _store, length in segment_plan(64)]
        assert sorted(r.length for r in regions) == sorted(planned)

    def test_buffer_length_mismatch_rejected(self, fresh_registry):
        buffers = [bytearray(8)] * len(segment_plan(0))
        with pytest.raises(ValueError, match="size mismatch"):
            provision_collector("bad-buffers", buffers=buffers)


class TestReleaseSegments:
    def test_explicit_release_after_real_store_traffic(
            self, fresh_registry, segments):
        """The daemon teardown path: attach, translate real reports
        into the mapped stores, then release — no ``gc.collect()``
        crutch and no ``BufferError`` from a still-exported view."""
        lengths = [length for _store, length in segment_plan(0)]
        attached = Attached(segments, lengths)
        collector = provision_collector("release-check",
                                        buffers=attached.buffers)
        translator = Translator("release-check-t", vectorized=False)
        collector.connect_translator(translator)
        assembler = ReportAssembler([translator],
                                    ClusterMap(collectors=1),
                                    batch_size=4)
        for i in range(12):
            assembler.feed(packets.make_report(
                packets.KeyWrite(key=struct.pack(">I", i),
                                 data=struct.pack(">Q", i)),
                reporter_id=1))
        assembler.finish()
        del assembler, translator, collector
        attached.release()                     # must not raise
        assert attached.buffers == attached.shms == []
        # A second close is the owner's job; attaching again proves the
        # mapping really was released, not leaked.
        Attached(segments, lengths).release()


class TestCollectorDaemonMain:
    def test_command_loop(self, fresh_registry, segments):
        parent_conn, child_conn = multiprocessing.Pipe()
        thread = threading.Thread(
            target=collector_daemon_main, args=(0, 0, segments, child_conn),
            daemon=True)
        thread.start()
        try:
            assert parent_conn.recv() == ("ready", 0)
            parent_conn.send(("digest", None))
            tag, digest = parent_conn.recv()
            assert tag == "digest"
            assert digest.startswith("sha256:")
            parent_conn.send(("query_value", b"\x00\x00\x00\x01"))
            tag, result = parent_conn.recv()
            assert tag == "value"
            assert result.value is None          # nothing stored yet
            parent_conn.send(("query_counter", b"\x00\x00\x00\x01"))
            tag, counter = parent_conn.recv()
            assert (tag, counter) == ("counter", 0)
            parent_conn.send(("nonsense", None))
            tag, message = parent_conn.recv()
            assert tag == "error"
            # The daemon's registry, when asked and when it stops.
            for command, reply in (("snapshot", "snapshot"),
                                   ("stop", "stopped")):
                parent_conn.send((command, None))
                tag, snapshot = parent_conn.recv()
                assert tag == reply
                assert snapshot.value("collector.queries_value",
                                      node="collector-0") == 1
                assert snapshot.total("collector.queries_counter") == 1
        finally:
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_eof_terminates_loop(self, fresh_registry, segments):
        parent_conn, child_conn = multiprocessing.Pipe()
        thread = threading.Thread(
            target=collector_daemon_main, args=(0, 0, segments, child_conn),
            daemon=True)
        thread.start()
        assert parent_conn.recv() == ("ready", 0)
        parent_conn.close()
        thread.join(timeout=10)
        assert not thread.is_alive()


class TestTranslatorDaemonMain:
    def test_receive_translate_drain_stop(self, fresh_registry, segments):
        ctrl_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        ctrl_sock.bind(("127.0.0.1", 0))
        ctrl_sock.settimeout(5.0)
        parent_conn, child_conn = multiprocessing.Pipe()
        thread = threading.Thread(
            target=translator_daemon_main,
            args=([segments], 0, False, 16,
                  ctrl_sock.getsockname(), child_conn),
            daemon=True)
        thread.start()
        try:
            tag, port = parent_conn.recv()
            assert tag == "ready"
            data_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            n = 40
            for i in range(n):
                raw = packets.make_report(
                    packets.KeyWrite(key=struct.pack(">I", i),
                                     data=struct.pack(">QQ", i, i)),
                    reporter_id=1)
                data_sock.sendto(wrap(i, raw), ("127.0.0.1", port))
            data_sock.sendto(b"xx", ("127.0.0.1", port))   # malformed
            data_sock.sendto(wrap_end(n, n), ("127.0.0.1", port))
            tag, stats = parent_conn.recv()
            assert tag == "drained"
            assert _total(stats, "reports") == n
            assert _total(stats, "expected_reports") == n
            assert _total(stats, "malformed") == 1
            assert _total(stats, "rdma_messages") > 0
            # The drain acked cumulative delivery on the control socket.
            acked = 0
            while acked <= n:
                _seq, kind, payload = unwrap(ctrl_sock.recv(65535))
                if kind == KIND_ACK:
                    acked = ack_delivered(payload)
                    assert ack_lane(payload) == 0
            parent_conn.send(("stop", None))
            tag, final_stats = parent_conn.recv()
            assert tag == "stopped"
            assert _total(final_stats, "delivered") == n + 1  # + END
            assert _total(final_stats, "ctrl_datagrams_sent") >= 1
            assert _total(final_stats, "ctrl_bytes_sent") > 0
        finally:
            thread.join(timeout=10)
            ctrl_sock.close()
            data_sock.close()
        assert not thread.is_alive()

    @pytest.mark.parametrize("use_mmsg", [None, False])
    def test_frames_ack_cadence_and_lane_stamp(self, fresh_registry,
                                               segments, use_mmsg,
                                               monkeypatch):
        """Coalesced frames drain like singles; ack_every and the lane
        byte are honoured; the fallback receive path decodes the same
        traffic (``use_mmsg=False`` clears ``mmsg.USE_MMSG``: the
        daemon receives with recvmsg_into)."""
        monkeypatch.setattr(mmsg, "USE_MMSG", use_mmsg is not False)
        ctrl_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        ctrl_sock.bind(("127.0.0.1", 0))
        ctrl_sock.settimeout(5.0)
        parent_conn, child_conn = multiprocessing.Pipe()
        thread = threading.Thread(
            target=translator_daemon_main,
            args=([segments], 0, False, 16,
                  ctrl_sock.getsockname(), child_conn),
            kwargs={"lane": 3, "ack_every": 4},
            daemon=True)
        thread.start()
        try:
            tag, port = parent_conn.recv()
            assert tag == "ready"
            data_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            n_frames, per_frame = 8, 5

            def frame(seq, count):
                reports = []
                for _ in range(per_frame):
                    reports.append(packets.make_report(
                        packets.KeyWrite(key=struct.pack(">I", count),
                                         data=struct.pack(">Q", count)),
                        reporter_id=1))
                    count += 1
                return wrap_frame(seq, reports), count

            count = 0
            for seq in range(4):
                datagram, count = frame(seq, count)
                data_sock.sendto(datagram, ("127.0.0.1", port))
            # ack_every=4: an ACK for the first four envelopes must
            # arrive before any END exists, stamped with our lane.
            acked = 0
            while acked < 4:
                _seq, kind, payload = unwrap(ctrl_sock.recv(65535))
                if kind == KIND_ACK:
                    assert ack_lane(payload) == 3
                    acked = ack_delivered(payload)
            assert acked == 4
            for seq in range(4, n_frames):
                datagram, count = frame(seq, count)
                data_sock.sendto(datagram, ("127.0.0.1", port))
            data_sock.sendto(wrap_end(n_frames, count),
                             ("127.0.0.1", port))
            tag, stats = parent_conn.recv()
            assert tag == "drained"
            assert _total(stats, "reports") == count
            assert _total(stats, "expected_reports") == count
            assert _total(stats, "malformed") == 0
            assert stats.total("translator.reports_in") == count
            while acked <= n_frames:
                _seq, kind, payload = unwrap(ctrl_sock.recv(65535))
                if kind == KIND_ACK:
                    assert ack_lane(payload) == 3
                    acked = ack_delivered(payload)
            parent_conn.send(("stop", None))
            tag, final_stats = parent_conn.recv()
            assert tag == "stopped"
            assert _total(final_stats, "delivered") == n_frames + 1
        finally:
            thread.join(timeout=10)
            ctrl_sock.close()
            data_sock.close()
        assert not thread.is_alive()


#: A fresh interpreter that imports what the translator daemon does,
#: provisions a two-shard assembler, then feeds it one receive burst of
#: Key-Write frames spanning both shards; it prints the modules that
#: burst imported.
_FIRST_BURST = """
import sys

import repro.transport.daemons as daemons
from repro.core.cluster import ClusterMap
from repro.core.translator import Translator
from repro.transport.assembler import ReportAssembler
from repro.transport.envelope import unwrap, wrap_frame
from repro.transport.serve import route_report
from repro.workloads import reports

cmap = ClusterMap(collectors=2)
translators = []
for shard in range(2):
    collector = daemons.provision_collector(f"collector-{shard}")
    translators.append(Translator(f"translator-{shard}"))
    collector.connect_translator(translators[-1])
assembler = ReportAssembler(translators, cmap)
raws = reports.wire("key_write", 400, 7)
assert {route_report(cmap, raw) for raw in raws} == {0, 1}
payloads = [unwrap(wrap_frame(seq, raws[seq * 40:(seq + 1) * 40]))[2]
            for seq in range(10)]
before = set(sys.modules)
assembler.feed_frames(payloads)
assert (assembler.reports, assembler.malformed) == (400, 0)
print(sorted(set(sys.modules) - before))
"""


def test_the_first_receive_burst_imports_nothing():
    """The translator daemon's first burst pays no first-use import: a
    module loaded lazily on the hot path (``numpy.ma``, which
    ``np.unique`` pulls in) would land inside the stream's wall time."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(src), env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", _FIRST_BURST],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
