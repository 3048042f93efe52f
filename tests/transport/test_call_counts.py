"""Calls the socket lane makes per datagram received and per report
sent, and per shim call that decides nothing.

A count, not a clock: ``sys.setprofile`` counts every call that enters
``repro.transport`` or ``repro.kernels`` code, and every builtin such
code calls, while a seeded lossy Key-Write stream goes through the
reporter's bulk transmit (the socket send stubbed) and through the
translator daemon's receive path offline (receive bursts of the
reporter's own datagrams in a ring, reassembled and decoded into
in-process translators).  The counts repeat exactly, whatever the
host's load.
"""

from __future__ import annotations

import os

import numpy as np

import repro.kernels
import repro.transport
from repro.core.cluster import ClusterMap
from repro.core.translator import Translator
from repro.transport import mmsg
from repro.transport import reporter as reporter_mod
from repro.transport.assembler import ReportAssembler
from repro.transport.daemons import provision_collector
from repro.transport.envelope import KIND_FRAME, Reassembler
from repro.transport.loss import LossSpec
from repro.transport.serve import route_report
from repro.workloads import reports
from tests.calls import CallCounter

REPORTS = 40_000
LOSS = LossSpec(seed=5, drop_rate=0.02, reorder_rate=0.02)
#: The daemon's receive burst.
BURST = 256
#: Calls per report sent.  The reporter made 3.04 on this stream
#: (121 444 calls) while the shim ruled on each report in a Python loop
#: (``random()`` once or twice, a heap step) and the packer built
#: object columns; the guard holds it to a tenth of that (0.22 now).
SEND_BOUND = 3.04 / 10
#: Calls per datagram received.  The daemon's path made 6.73 on this
#: stream (6 609 calls for 982 datagrams) while it copied every
#: datagram out of the ring and reassembled them one at a time; the
#: guard holds it to a quarter of that (0.93 now).
RECEIVE_BOUND = 6.73 / 4
#: Calls per :meth:`LossShim.step` that drops, holds and releases
#: nothing: 15 while it built a call's event arrays anyway, 6 now.
QUIET_STEP_BOUND = 8

DIRS = tuple(os.path.dirname(package.__file__) + os.sep
             for package in (repro.transport, repro.kernels))


def _counter() -> CallCounter:
    """Calls into the lane's code and the builtins it calls."""
    return CallCounter(DIRS, ("call", "c_call"))


def _stream() -> tuple:
    raws = reports.wire("key_write", REPORTS, 5)
    cmap = ClusterMap(collectors=2)
    return [route_report(cmap, raw) for raw in raws], raws


def _transmit(monkeypatch, shards, raws, counter=None) -> list:
    """The datagrams ``transmit_many`` + ``end_stream`` send."""
    sent = []
    monkeypatch.setattr(mmsg, "send_many",
                        lambda _sock, payloads: sent.extend(payloads))
    reporter = reporter_mod.SocketReporter(
        "count", 1, shards=2, loss=LOSS, window=1 << 30)
    try:
        if counter is None:
            reporter.transmit_many(shards, raws)
        else:
            with counter:
                reporter.transmit_many(shards, raws)
        reporter.end_stream()
    finally:
        reporter.close()
    return [bytes(datagram) for datagram in sent]


def test_transmit_calls_per_report(monkeypatch):
    shards, raws = _stream()
    counter = _counter()
    datagrams = _transmit(monkeypatch, shards, raws, counter)
    assert len(datagrams) > REPORTS // 50
    assert counter.calls / REPORTS <= SEND_BOUND, (
        f"{counter.calls} calls for {REPORTS} reports: "
        f"{counter.calls / REPORTS:.3f} per report > {SEND_BOUND}")


def test_receive_calls_per_datagram(monkeypatch):
    datagrams = [datagram for datagram in _transmit(monkeypatch, *_stream())
                 if datagram[8] == KIND_FRAME]
    translators = []
    for shard in range(2):
        collector = provision_collector(f"count-{shard}")
        translator = Translator(f"count-t{shard}", vectorized=True)
        collector.connect_translator(translator)
        translators.append(translator)
    assembler = ReportAssembler(translators, ClusterMap(collectors=2),
                                batch_size=256)
    reassembler = Reassembler()
    slot = 2048
    ring = bytearray(BURST * slot)
    counter = _counter()
    for first in range(0, len(datagrams), BURST):
        burst = datagrams[first:first + BURST]
        for index, datagram in enumerate(burst):
            ring[index * slot:index * slot + len(datagram)] = datagram
        starts = slot * np.arange(len(burst), dtype=np.int64)
        lengths = np.array([len(datagram) for datagram in burst],
                           dtype=np.int64)
        with counter:
            assembler.feed_burst(*reassembler.push_burst(
                ring, starts, lengths)[1:])
    assembler.finish()
    assert reassembler.delivered == len(datagrams)
    assert assembler.reports > REPORTS * 0.95 and not assembler.malformed
    assert counter.calls / len(datagrams) <= RECEIVE_BOUND, (
        f"{counter.calls} calls for {len(datagrams)} datagrams: "
        f"{counter.calls / len(datagrams):.2f} per datagram "
        f"> {RECEIVE_BOUND}")


def test_quiet_shim_step_calls():
    """A ``step`` that decides no event and releases no hold (most
    steps of ``transmit_to``'s per-report path) returns its datagram
    without building the event arrays."""
    shim = LOSS.shim()
    shim.step(0)        # decides the first block of ordinals ahead
    quiet = []
    for ordinal in range(1, 400):
        holding = shim.holding
        events = (shim.dropped, shim.reordered)
        with _counter() as counter:
            out = shim.step(ordinal)
        if not holding and events == (shim.dropped, shim.reordered):
            assert out == [ordinal]
            quiet.append(counter.calls)
    assert len(quiet) > 300 and max(quiet) <= QUIET_STEP_BOUND, quiet
