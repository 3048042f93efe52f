"""Batched-syscall layer: fast path vs fallback byte-identity.

The deployment lane's digest gate covers this end to end; here the
bindings are exercised directly — same payload list in, same datagram
list out, whether ``sendmmsg``/``recvmmsg`` are available, disabled,
or absent.
"""

from __future__ import annotations

import socket
import time

import pytest

from repro.transport import mmsg


def _datagrams(burst) -> list:
    """A ``recv_burst`` result as the datagrams' bytes, in order."""
    data, starts, lengths = burst
    return [data[start:start + length]
            for start, length in zip(starts.tolist(), lengths.tolist())]


def _pair():
    a = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    b = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    b.bind(("127.0.0.1", 0))
    a.connect(b.getsockname())
    return a, b


@pytest.fixture
def gate(monkeypatch):
    """``gate(use_mmsg)``: ``False`` forces the fallback through the
    module flag, ``None`` keeps the fast path."""
    return lambda use_mmsg: monkeypatch.setattr(mmsg, "USE_MMSG",
                                                use_mmsg is not False)


def _roundtrip(payloads, max_msgs):
    a, b = _pair()
    try:
        b.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 22)
        receiver = mmsg.DatagramReceiver(b, max_msgs=max_msgs)
        assert mmsg.send_many(a, payloads) == len(payloads)
        got = []
        while len(got) < len(payloads):
            burst = _datagrams(receiver.recv_burst(2.0))
            if not burst:
                break
            assert len(burst) <= max_msgs
            got.extend(burst)
        return got
    finally:
        a.close()
        b.close()


@pytest.mark.parametrize("use_mmsg", [None, False])
def test_roundtrip_fast_and_fallback(use_mmsg, gate):
    gate(use_mmsg)
    payloads = [bytes([i % 256]) * (i % 60 + 1) for i in range(150)]
    assert _roundtrip(payloads, mmsg.BATCH_MSGS) == payloads
    # The daemon's ring width, and every size class a ring slot can
    # hold: empty, one byte, a full frame, the largest UDP payload —
    # each datagram comes back at exactly its own length.
    sizes = (0, 1, 1400, 65507)
    payloads = [bytes([65 + i]) * size for i, size in enumerate(sizes * 3)]
    got = _roundtrip(payloads, 256)
    assert [len(p) for p in got] == list(sizes * 3)
    assert got == payloads


@pytest.mark.skipif(not mmsg.HAVE_MMSG, reason="no mmsg syscalls here")
def test_partial_sendmmsg_continues_where_the_kernel_stopped(monkeypatch):
    """A kernel that takes at most five messages per call: the send
    loop resumes at the first unsent header, so every payload, the
    empty ones included, arrives once and in order."""
    real = mmsg._sendmmsg
    calls = []

    def five_at_most(fd, hdrs, count, flags):
        calls.append(count)
        return real(fd, hdrs, min(count, 5), flags)

    monkeypatch.setattr(mmsg, "_sendmmsg", five_at_most)
    payloads = [bytes([i % 256]) * (i * 37 % 1500) for i in range(150)]
    assert b"" in payloads
    assert _roundtrip(payloads, 256) == payloads
    assert calls == list(range(150, 0, -5))


def test_recv_burst_timeout_returns_empty():
    a, b = _pair()
    try:
        receiver = mmsg.DatagramReceiver(b)
        assert _datagrams(receiver.recv_burst(0.05)) == []
    finally:
        a.close()
        b.close()


def test_recv_burst_returns_when_a_wake_source_is_readable():
    """The translator daemon's ``stop`` must not wait out the receive
    timeout: a readable ``wake`` ends the wait, with no datagram."""
    a, b = _pair()
    wake, poke = socket.socketpair()
    try:
        poke.send(b"!")
        start = time.monotonic()
        assert _datagrams(
            mmsg.DatagramReceiver(b).recv_burst(5.0, wake)) == []
        assert time.monotonic() - start < 1.0
    finally:
        for sock in (a, b, wake, poke):
            sock.close()


def test_empty_send_is_noop():
    a, b = _pair()
    try:
        assert mmsg.send_many(a, []) == 0
    finally:
        a.close()
        b.close()


def test_gate_resolution(monkeypatch):
    # The module flag gates the fast path; missing kernel support
    # beats it.
    monkeypatch.setattr(mmsg, "USE_MMSG", False)
    assert mmsg._fast() is False
    monkeypatch.setattr(mmsg, "USE_MMSG", True)
    assert mmsg._fast() == mmsg.HAVE_MMSG


@pytest.mark.skipif(not mmsg.HAVE_MMSG, reason="no mmsg syscalls here")
def test_fallback_traffic_decodes_on_fast_receiver(gate):
    """Sender on the plain-send loop, receiver on recvmmsg: the wire
    format is the datagram itself, so mixing paths must be invisible."""
    a, b = _pair()
    try:
        payloads = [b"frame-%03d" % i for i in range(40)]
        receiver = mmsg.DatagramReceiver(b)
        gate(False)
        mmsg.send_many(a, payloads)
        gate(None)
        got = []
        while len(got) < 40:
            burst = _datagrams(receiver.recv_burst(2.0))
            if not burst:
                break
            got.extend(burst)
        assert got == payloads
    finally:
        a.close()
        b.close()


@pytest.mark.parametrize("use_mmsg", [None, False])
def test_a_datagram_longer_than_a_ring_slot_is_cut_to_it(use_mmsg, gate):
    """Both receive paths keep the first ``buf_bytes`` of an oversize
    datagram and go on with the next one whole."""
    a, b = _pair()
    try:
        receiver = mmsg.DatagramReceiver(b, max_msgs=4, buf_bytes=64)
        payloads = [bytes(range(100)), b"next", bytes(64)]
        mmsg.send_many(a, payloads)
        gate(use_mmsg)
        got = []
        while len(got) < 3:
            burst = _datagrams(receiver.recv_burst(2.0))
            if not burst:
                break
            got.extend(burst)
        assert got == [bytes(range(64)), b"next", bytes(64)]
    finally:
        a.close()
        b.close()
