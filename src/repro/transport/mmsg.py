"""Batched UDP syscalls: ``sendmmsg``/``recvmmsg`` with graceful fallback.

Python exposes ``sendmsg``/``recvmsg_into`` but not their batched
Linux siblings, so the deployment lane binds ``sendmmsg(2)`` and
``recvmmsg(2)`` through ctypes: one syscall moves up to
:data:`BATCH_MSGS` datagrams, which matters once the datagrams
themselves are coalesced frames and the per-syscall cost is the next
bottleneck.  Both directions work on *connected* UDP sockets so no
per-message sockaddr needs marshalling.  The send side joins a burst
into one buffer, the receive side reads into one anonymous mapping, and
numpy fills their ``iovec`` / ``mmsghdr`` arrays in a few vector
stores, at the offsets ctypes computes for the structs.

Feature detection happens once at import: the symbols must exist in
libc *and* a live loopback probe must round-trip a datagram through
both calls (struct layouts are kernel ABI; a probe is cheaper than
trusting them).  :data:`HAVE_MMSG` records the result.  The module
flag :data:`USE_MMSG` gates the fast path at call time so tests can
force the fallback (plain ``send`` loops, ``recvmsg_into`` into the
same receive ring) and assert digests identical to the fast path.
"""

from __future__ import annotations

import ctypes
import errno
import mmap
import select
import socket

import numpy as np

#: Datagrams moved per syscall on the batched path (and the receive
#: ring's preallocated buffer count).
BATCH_MSGS = 64

#: Linux MSG_DONTWAIT; recvmmsg is only reached when HAVE_MMSG probed
#: true, which implies a Linux-ABI libc.
_MSG_DONTWAIT = 0x40


class _iovec(ctypes.Structure):
    _fields_ = [("iov_base", ctypes.c_void_p),
                ("iov_len", ctypes.c_size_t)]


class _msghdr(ctypes.Structure):
    _fields_ = [("msg_name", ctypes.c_void_p),
                ("msg_namelen", ctypes.c_uint),
                ("msg_iov", ctypes.POINTER(_iovec)),
                ("msg_iovlen", ctypes.c_size_t),
                ("msg_control", ctypes.c_void_p),
                ("msg_controllen", ctypes.c_size_t),
                ("msg_flags", ctypes.c_int)]


class _mmsghdr(ctypes.Structure):
    _fields_ = [("msg_hdr", _msghdr),
                ("msg_len", ctypes.c_uint)]


def _bind_libc():
    libc = ctypes.CDLL(None, use_errno=True)
    sendmmsg = libc.sendmmsg
    sendmmsg.restype = ctypes.c_int
    sendmmsg.argtypes = [ctypes.c_int, ctypes.c_void_p, ctypes.c_uint,
                         ctypes.c_int]
    recvmmsg = libc.recvmmsg
    recvmmsg.restype = ctypes.c_int
    recvmmsg.argtypes = [ctypes.c_int, ctypes.c_void_p, ctypes.c_uint,
                         ctypes.c_int, ctypes.c_void_p]
    return sendmmsg, recvmmsg


def _probe() -> bool:
    """Round-trip one datagram through both batched calls."""
    a = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    b = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        b.bind(("127.0.0.1", 0))
        a.connect(b.getsockname())
        _sendmmsg_raw(a, [b"mmsg-probe"])
        select.select([b], [], [], 1.0)
        ring = _RecvRing(b, buf_bytes=64)
        lengths = ring.recv_now()
        return lengths.tolist() == [10] and ring.data[:10] == b"mmsg-probe"
    except OSError:
        return False
    finally:
        a.close()
        b.close()


def _layout(struct_type, **fields) -> np.dtype:
    """A numpy dtype over ``struct_type``'s memory: each keyword names
    a ``(field, ctypes member path)`` pair, an unsigned integer as wide
    as the member at the offset ctypes computed, itemsize the
    struct's."""
    names, formats, offsets = [], [], []
    for name, path in fields.items():
        offset, owner = 0, struct_type
        for member in path.split("."):
            descriptor = getattr(owner, member)
            offset += descriptor.offset
            owner = dict(owner._fields_)[member]
        names.append(name)
        formats.append(f"u{ctypes.sizeof(owner)}")
        offsets.append(offset)
    return np.dtype({"names": names, "formats": formats,
                     "offsets": offsets,
                     "itemsize": ctypes.sizeof(struct_type)})


#: ``struct iovec`` and the ``msg_iov`` / ``msg_iovlen`` / ``msg_len``
#: of ``struct mmsghdr``, as numpy sees them: both directions fill whole
#: arrays of them with a few vector stores instead of per-datagram
#: ctypes calls, and the receive side reads every length in one.
_IOVEC = _layout(_iovec, base="iov_base", len="iov_len")
_MMSGHDR = _layout(_mmsghdr, iov="msg_hdr.msg_iov",
                   iovlen="msg_hdr.msg_iovlen", len="msg_len")


def _headers(iovecs: np.ndarray) -> np.ndarray:
    """One ``mmsghdr`` per entry of ``iovecs``, each pointing at its
    own single ``iovec``."""
    hdrs = np.zeros(len(iovecs), dtype=_MMSGHDR)
    hdrs["iov"] = iovecs.ctypes.data + _IOVEC.itemsize * np.arange(
        len(iovecs), dtype=np.uintp)
    hdrs["iovlen"] = 1
    return hdrs


def _sendmmsg_raw(sock, payloads) -> None:
    n = len(payloads)
    # One contiguous buffer: datagram i is the lengths[i] bytes that
    # end at the i-th running total of lengths.
    data = np.frombuffer(b"".join(payloads), dtype=np.uint8)
    lengths = np.fromiter(map(len, payloads), dtype=np.uintp, count=n)
    iovecs = np.empty(n, dtype=_IOVEC)
    iovecs["len"] = lengths
    np.cumsum(lengths, out=iovecs["base"])
    iovecs["base"] += data.ctypes.data - lengths
    hdrs = _headers(iovecs)
    sent = 0
    base = hdrs.ctypes.data
    # ``data``, ``iovecs`` and ``hdrs`` stay referenced until the loop
    # ends, so every address the kernel reads is live memory.
    while sent < n:
        rc = _sendmmsg(sock.fileno(), base + sent * _MMSGHDR.itemsize,
                       n - sent, 0)
        if rc < 0:
            err = ctypes.get_errno()
            if err == errno.EINTR:
                continue
            if err in (errno.EAGAIN, errno.EWOULDBLOCK):
                select.select([], [sock], [], 1.0)
                continue
            raise OSError(err, "sendmmsg failed")
        sent += rc


class _RecvRing:
    """Preallocated receive buffer ring over one non-blocking socket.

    Message ``i`` lands in the ``i``-th ``buf_bytes`` stretch of one
    anonymous mapping (:attr:`data`): the kernel hands out its zeroed
    pages as datagrams first touch them, so a ring sized for the
    largest UDP payload costs nothing up front.  A longer datagram is
    cut to ``buf_bytes``, as ``recvmmsg`` always does.
    """

    def __init__(self, sock, *, max_msgs: int = BATCH_MSGS,
                 buf_bytes: int = 65535) -> None:
        self.sock = sock
        self.max_msgs = max_msgs
        self.buf_bytes = buf_bytes
        self.data = mmap.mmap(-1, max_msgs * buf_bytes)
        # The view pins the mapping (no close while the kernel may
        # write into it) and gives its address.
        self._view = np.frombuffer(self.data, dtype=np.uint8)
        self._slots = memoryview(self.data)
        self._iovecs = np.empty(max_msgs, dtype=_IOVEC)
        self._iovecs["base"] = self._view.ctypes.data + buf_bytes * np.arange(
            max_msgs, dtype=np.uintp)
        self._iovecs["len"] = buf_bytes
        self._hdrs = _headers(self._iovecs)

    def recv_now(self) -> np.ndarray:
        """One ``recvmmsg``: the lengths of the datagrams now in slots
        ``0, 1, ...`` (int64; empty when none was waiting)."""
        rc = _recvmmsg(self.sock.fileno(), self._hdrs.ctypes.data,
                       self.max_msgs, _MSG_DONTWAIT, None)
        if rc < 0:
            err = ctypes.get_errno()
            if err in (errno.EAGAIN, errno.EWOULDBLOCK, errno.EINTR):
                rc = 0
            else:
                raise OSError(err, "recvmmsg failed")
        return self._hdrs["len"][:rc].astype(np.int64)

    def recv_each(self) -> np.ndarray:
        """:meth:`recv_now` as one ``recvmsg_into`` per slot."""
        lengths = []
        while len(lengths) < self.max_msgs:
            start = len(lengths) * self.buf_bytes
            try:
                nbytes, _anc, _flags, _addr = self.sock.recvmsg_into(
                    [self._slots[start:start + self.buf_bytes]])
            except BlockingIOError:
                break
            lengths.append(nbytes)
        return np.array(lengths, dtype=np.int64)


try:
    _sendmmsg, _recvmmsg = _bind_libc()
    HAVE_MMSG = _probe()
except (OSError, AttributeError):   # pragma: no cover - non-Linux libc
    _sendmmsg = _recvmmsg = None
    HAVE_MMSG = False

#: Call-time gate over the batched path; tests flip this to force the
#: fallback and diff its digests against the fast path (forked daemons
#: inherit the flag).
USE_MMSG = True


def _fast() -> bool:
    """The fast-path gate: the module flag, and kernel support."""
    return HAVE_MMSG and USE_MMSG


def send_many(sock, payloads) -> int:
    """Send every payload on a *connected* UDP socket; returns count.

    One ``sendmmsg`` per :data:`BATCH_MSGS` datagrams on the fast
    path, a plain ``send`` loop otherwise — byte-identical traffic
    either way.
    """
    if not payloads:
        return 0
    if _fast():
        _sendmmsg_raw(sock, payloads)
    else:
        for payload in payloads:
            sock.send(payload)
    return len(payloads)


class DatagramReceiver:
    """Burst reads from one UDP socket into a preallocated ring.

    ``recv_burst(timeout, *wake)`` waits up to ``timeout`` for
    readability — returning at once, empty-handed, when one of ``wake``
    (a control pipe, say) becomes readable first — then drains up to
    ``max_msgs`` datagrams without further blocking: one ``recvmmsg``
    on the fast path, repeated ``recvmsg_into`` otherwise, into the
    same ring either way.  It returns ``(data, starts, lengths)``:
    datagram ``i`` is the ``lengths[i]`` bytes of ``data`` (the ring)
    from ``starts[i]`` on, valid until the next call.
    """

    def __init__(self, sock, *, max_msgs: int = BATCH_MSGS,
                 buf_bytes: int = 65535) -> None:
        self.sock = sock
        sock.setblocking(False)
        self._ring = _RecvRing(sock, max_msgs=max_msgs, buf_bytes=buf_bytes)
        self._starts = buf_bytes * np.arange(max_msgs, dtype=np.int64)

    def recv_burst(self, timeout: float, *wake) -> tuple:
        readable, _, _ = select.select([self.sock, *wake], [], [], timeout)
        ring = self._ring
        if self.sock not in readable:
            lengths = np.zeros(0, dtype=np.int64)
        elif _fast():
            lengths = ring.recv_now()
        else:
            lengths = ring.recv_each()
        return ring.data, self._starts[:len(lengths)], lengths
