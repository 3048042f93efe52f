"""Whole-burst RDMA execution for the vectorized translator lanes.

A scalar burst applies each work request's memory effect one verb at a
time.  For the homogeneous bursts the vectorized lanes emit — N
identical-size writes, or N fetch-and-adds — the memory effect reduces
to one numpy scatter, which is all this module adds: the accounting of
the N executed messages goes through the same :meth:`Nic.charge`,
:meth:`QueuePair.responder_commit` / :meth:`~QueuePair.requester_commit`
and :meth:`RdmaClient.note_posted` that :meth:`RdmaClient.post_burst`
reaches, so every obs-visible value equals the scalar burst's over the
equivalent request list.  Neither leaves a requester-side
:class:`~repro.rdma.verbs.WorkCompletion` on success: the scalar lanes
post their telemetry verbs unsignaled (``WorkRequest.signaled``) — no
CPU polls for them — and a kernel burst has no requests to complete.
The one difference, invisible to stores and obs exports, is that a
kernel burst draws no ``WorkRequest.wr_id`` from the global counter.

Anything that could take the fault path — stalled NIC, dead/unknown
QP, revoked or missing memory registration, out-of-bounds addressing,
a full send window — makes :func:`resolve_target` (or the bounds check)
decline, and the caller falls back to the scalar lane so NAK/ERROR
semantics stay exactly the reference implementation's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.transport import DirectRdmaTransport
from repro.rdma.memory import (REMOTE_ATOMIC, REMOTE_WRITE, MemoryRegion,
                               RemoteAccessError)
from repro.rdma.nic import Nic
from repro.rdma.qp import QpError, QueuePair
from repro.rdma.verbs import Opcode, WorkRequest


@dataclass
class BurstTarget:
    """A validated direct-mode destination for vectorized bursts."""

    nic: Nic
    server_qp: QueuePair
    region: MemoryRegion


def resolve_target(client, rkey: int, *,
                   atomic: bool = False) -> BurstTarget | None:
    """Validate that a vectorized burst may run; None means fall back.

    Asks what the scalar burst asks — the requester may send
    (:meth:`QueuePair.requester_begin_burst`), the transport may bypass
    the wire (:meth:`DirectRdmaTransport.burst_responder`), the region
    is registered with the needed right — and declines wherever the
    scalar outcome is a drop, an error, or a NAK instead of
    re-implementing the fault machinery.
    """
    qp = getattr(client, "qp", None)
    if qp is None:      # no client, or a verb recorder standing in for one
        return None
    transport = client.send_fn
    if not isinstance(transport, DirectRdmaTransport):
        return None     # fabric mode: every message crosses the wire
    try:
        qp.requester_begin_burst(0)
        region = transport.nic.pd.lookup(rkey)
    except (QpError, RemoteAccessError):
        return None
    server = transport.burst_responder(qp)
    needed = REMOTE_ATOMIC if atomic else REMOTE_WRITE
    if server is None or not region.rights & needed:
        return None
    return BurstTarget(nic=transport.nic, server_qp=server, region=region)


def _commit(target: BurstTarget, client, count: int, payload: int, *,
            atomic: bool = False) -> None:
    """Account ``count`` executed messages of ``payload`` requester bytes.

    An atomic's requester-visible payload is its operand width
    (``WorkRequest.payload_bytes``); on the wire the NIC sees none.
    """
    target.nic.charge(count, 0 if atomic else payload, atomic=atomic)
    if atomic:
        target.server_qp.responder_commit(count, atomics=count)
    else:
        target.server_qp.responder_commit(count, written=count * payload)
    client.qp.requester_commit(count)
    client.note_posted(count, count * payload)


def write_rows(target: BurstTarget, client, row_indices: np.ndarray,
               rows: np.ndarray, stride: int | None = None) -> int | None:
    """Execute N uniform-size RDMA writes as one scatter.

    ``rows`` is an ``(n, row_bytes)`` uint8 matrix; request ``i``
    writes row ``i`` at slot ``row_indices[i]`` (region-relative,
    ``stride`` bytes apart — ``row_bytes`` by default; a wider stride
    leaves each slot's padding alone).  Duplicate slots resolve
    last-write-wins in arrival order — the deterministic outcome of
    executing the burst sequentially — via one sort of ``slot * n +
    arrival`` keys (the last key of each run of equal slots wins)
    instead of relying on numpy's unspecified duplicate-index
    assignment order.

    Returns the message count, or None (nothing touched) when the
    burst does not fit the region — the caller's scalar lane then
    reproduces the precise fault semantics.
    """
    count, row_bytes = rows.shape
    if count == 0:
        return 0
    if stride is None:
        stride = row_bytes
    region = target.region
    slots = region.length // stride
    indices = row_indices.astype(np.int64, copy=False)
    # Read unsigned, a negative index is out of range as well.
    if row_bytes > stride or int(indices.view(np.uint64).max()) >= slots:
        return None
    assert slots * count < 1 << 63, "slot keys would overflow int64"
    # Each slot's first ``row_bytes`` as one record: a row is one copy.
    view = np.ndarray((slots,), dtype=f"V{row_bytes}", buffer=region.buf,
                      strides=(stride,))
    rows = np.ascontiguousarray(rows).view(view.dtype)[:, 0]
    keys = indices * count
    keys += np.arange(count)
    keys.sort()
    sorted_idx = keys // count
    keep = np.empty(count, dtype=bool)
    keep[-1] = True
    np.not_equal(sorted_idx[1:], sorted_idx[:-1], out=keep[:-1])
    if keep.all():
        view[row_indices] = rows
    else:
        winners = keys[keep] - sorted_idx[keep] * count
        view[sorted_idx[keep]] = rows[winners]
    _commit(target, client, count, row_bytes)
    return count


def write_spans(target: BurstTarget, client, slots, payloads,
                stride: int) -> int | None:
    """Execute a few contiguous RDMA writes of differing sizes.

    Write ``i`` lands ``payloads[i]`` (bytes, a whole number of
    ``stride``-byte slots) at slot ``slots[i]``, in order, so a later
    write over the same slots wins as it would in a sequential burst;
    the messages are accounted once per distinct size.  What an Append
    flush or a Sketch-Merge transfer is: too few, too long writes for a
    row scatter to pay.

    Returns the message count, or None (nothing touched) when a write
    does not fit the region.
    """
    region = target.region
    length = region.length
    spans = []
    for slot, payload in zip(slots, payloads):
        start = slot * stride
        end = start + len(payload)
        if start < 0 or end > length:
            return None
        spans.append((start, end))
    buf = region.buf
    for (start, end), payload in zip(spans, payloads):
        buf[start:end] = payload
    for size, count in write_sizes(payloads).items():
        _commit(target, client, count, size)
    return len(payloads)


def write_sizes(payloads) -> dict:
    """``{payload bytes: writes}`` of a :func:`write_spans` burst — the
    distinct message shapes it is accounted by (a handful of writes:
    a plain loop beats building a ``Counter``)."""
    sizes: dict = {}
    for payload in payloads:
        size = len(payload)
        sizes[size] = sizes.get(size, 0) + 1
    return sizes


def fetch_add_many(target: BurstTarget, client,
                   counter_indices: np.ndarray,
                   addends: np.ndarray,
                   counter_bytes: int = 8) -> int | None:
    """Execute N fetch-and-adds as one duplicate-safe scatter-add.

    ``counter_indices`` are region-relative 64-bit counter slots;
    ``addends`` (int64) wrap mod 2**64 exactly like
    :meth:`MemoryRegion.fetch_add`.  Returns the message count, or
    None when the burst falls outside the region or the region is not
    a whole number of counters.
    """
    count = len(counter_indices)
    if count == 0:
        return 0
    region = target.region
    if counter_bytes != 8 or region.length % 8:
        return None
    slots = region.length // 8
    if int(counter_indices.min()) < 0 \
            or int(counter_indices.max()) >= slots:
        return None
    view = np.frombuffer(region.buf, dtype="<u8", count=slots)
    np.add.at(view, counter_indices, addends.astype(np.uint64))
    _commit(target, client, count, 8, atomic=True)
    return count


@dataclass(slots=True)
class VectorPlan:
    """One vector-eligible batch as a single burst-kernel call.

    What :meth:`Translator.plan_batch` returns: the translator counters
    are already charged for ``reports`` reports (and any translator
    state the batch advances is advanced), and the plan is committed —
    :meth:`apply` lands it exactly once, as one burst kernel call or as
    the equivalent scalar burst.  Request ``i`` targets ``base +
    indices[i] * stride``.  ``payload`` is an int64 array of addends
    (``atomic``: Key-Increment), a uint8 matrix of one row per write, at most
    ``stride`` bytes wide (Key-Write, Postcarding), or a list of
    ``bytes``, one contiguous write each, a whole number of slots long
    (Append flushes, Sketch-Merge transfers).  A batch with nothing to
    emit is a plan with zero requests.
    """

    atomic: bool
    rkey: int
    base: int
    stride: int
    indices: object
    payload: object
    reports: int

    def apply(self, client) -> None:
        """Execute against ``client`` (the real RDMA client).

        The burst target is re-resolved first: if the dynamic
        conditions changed since planning (NIC stall, QP error,
        revoked MR, full send window) the equivalent scalar burst goes
        through :meth:`RdmaClient.post_burst`, so the reference fault
        machinery (bounded retry, QP re-handshake) handles it.
        """
        atomic = self.atomic
        target = resolve_target(client, self.rkey, atomic=atomic)
        if target is not None:
            if atomic:
                landed = fetch_add_many(target, client, self.indices,
                                               self.payload)
            elif isinstance(self.payload, list):
                landed = write_spans(target, client, self.indices,
                                            self.payload, self.stride)
            else:
                landed = write_rows(target, client, self.indices,
                                           self.payload, self.stride)
            if landed is not None:
                return
        client.post_burst(self.scalar_burst())

    def scalar_burst(self) -> list:
        """The plan as the (unsignaled) work requests the scalar lane
        would post."""
        base, stride, rkey = self.base, self.stride, self.rkey
        payload = self.payload
        if isinstance(payload, list):
            return [WorkRequest(opcode=Opcode.WRITE,
                                remote_addr=base + slot * stride,
                                rkey=rkey, data=data, signaled=False)
                    for slot, data in zip(self.indices, payload)]
        indices = self.indices.tolist()
        if self.atomic:
            return [WorkRequest(opcode=Opcode.FETCH_ADD,
                                remote_addr=base + index * stride,
                                rkey=rkey, swap=addend, signaled=False)
                    for index, addend in zip(indices, payload.tolist())]
        return [WorkRequest(opcode=Opcode.WRITE,
                            remote_addr=base + index * stride,
                            rkey=rkey, data=row.tobytes(), signaled=False)
                for index, row in zip(indices, payload)]
