"""Batched-syscall layer: fast path vs fallback byte-identity.

The deployment lane's digest gate covers this end to end; here the
bindings are exercised directly — same payload list in, same datagram
list out, whether ``sendmmsg``/``recvmmsg`` are available, disabled,
or absent.
"""

from __future__ import annotations

import socket

import pytest

from repro.transport import mmsg


def _pair():
    a = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    b = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    b.bind(("127.0.0.1", 0))
    a.connect(b.getsockname())
    return a, b


def _roundtrip(payloads, use_mmsg, max_msgs):
    a, b = _pair()
    try:
        b.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 22)
        receiver = mmsg.DatagramReceiver(b, max_msgs=max_msgs,
                                         use_mmsg=use_mmsg)
        assert mmsg.send_many(a, payloads,
                              use_mmsg=use_mmsg) == len(payloads)
        got = []
        while len(got) < len(payloads):
            burst = receiver.recv_burst(2.0)
            if not burst:
                break
            assert len(burst) <= max_msgs
            got.extend(burst)
        return got
    finally:
        a.close()
        b.close()


@pytest.mark.parametrize("use_mmsg", [None, False])
def test_roundtrip_fast_and_fallback(use_mmsg):
    payloads = [bytes([i % 256]) * (i % 60 + 1) for i in range(150)]
    assert _roundtrip(payloads, use_mmsg, mmsg.BATCH_MSGS) == payloads
    # The daemon's ring width, and every size class a ring slot can
    # hold: empty, one byte, a full frame, the largest UDP payload —
    # each datagram comes back at exactly its own length.
    sizes = (0, 1, 1400, 65507)
    payloads = [bytes([65 + i]) * size for i, size in enumerate(sizes * 3)]
    got = _roundtrip(payloads, use_mmsg, 256)
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
    assert _roundtrip(payloads, True, 256) == payloads
    assert calls == list(range(150, 0, -5))


def test_recv_burst_timeout_returns_empty():
    a, b = _pair()
    try:
        receiver = mmsg.DatagramReceiver(b)
        assert receiver.recv_burst(0.05) == []
    finally:
        a.close()
        b.close()


def test_empty_send_is_noop():
    a, b = _pair()
    try:
        assert mmsg.send_many(a, []) == 0
    finally:
        a.close()
        b.close()


def test_gate_resolution(monkeypatch):
    # Per-call override beats the module flag; missing kernel support
    # beats both.
    monkeypatch.setattr(mmsg, "USE_MMSG", False)
    assert mmsg._fast() is False
    assert mmsg._fast(True) == mmsg.HAVE_MMSG
    monkeypatch.setattr(mmsg, "USE_MMSG", True)
    assert mmsg._fast(False) is False
    assert mmsg._fast() == mmsg.HAVE_MMSG


@pytest.mark.skipif(not mmsg.HAVE_MMSG, reason="no mmsg syscalls here")
def test_fallback_traffic_decodes_on_fast_receiver():
    """Sender on the plain-send loop, receiver on recvmmsg: the wire
    format is the datagram itself, so mixing paths must be invisible."""
    a, b = _pair()
    try:
        payloads = [b"frame-%03d" % i for i in range(40)]
        receiver = mmsg.DatagramReceiver(b, use_mmsg=True)
        mmsg.send_many(a, payloads, use_mmsg=False)
        got = []
        while len(got) < 40:
            burst = receiver.recv_burst(2.0)
            if not burst:
                break
            got.extend(burst)
        assert got == payloads
    finally:
        a.close()
        b.close()


@pytest.mark.parametrize("use_mmsg", [None, False])
def test_a_datagram_longer_than_a_ring_slot_is_cut_to_it(use_mmsg):
    """Both receive paths keep the first ``buf_bytes`` of an oversize
    datagram and go on with the next one whole."""
    a, b = _pair()
    try:
        receiver = mmsg.DatagramReceiver(b, max_msgs=4, buf_bytes=64,
                                         use_mmsg=use_mmsg)
        payloads = [bytes(range(100)), b"next", bytes(64)]
        mmsg.send_many(a, payloads)
        got = []
        while len(got) < 3:
            burst = receiver.recv_burst(2.0)
            if not burst:
                break
            got.extend(burst)
        assert got == [bytes(range(64)), b"next", bytes(64)]
    finally:
        a.close()
        b.close()
