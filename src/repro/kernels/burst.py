"""Whole-burst RDMA execution for the vectorized translator lanes.

A scalar burst walks four accounting layers per work request (client,
requester QP, NIC cost model, responder QP) plus a ``WorkRequest``
allocation each.  For the homogeneous bursts the vectorized lanes emit
— N identical-size writes, or N fetch-and-adds — every one of those
layers reduces to closed-form counter bumps, and the memory effect
reduces to one numpy scatter.  This module performs exactly that,
keeping every obs-visible value (QP counters, NIC stats incl. the
sequentially-accumulated ``busy_ns`` float, PSN/MSN state, client
bookkeeping) bit-identical to :meth:`RdmaClient.post_burst` over the
equivalent request list.

Two deliberate divergences, neither obs-visible:

* requester-side :class:`~repro.rdma.verbs.WorkCompletion` records are
  not materialised (they exist only for callers that drain them, which
  the batched telemetry lanes never do), and
* ``WorkRequest.wr_id`` values are never drawn from the global counter.

Anything that could take the fault path — stalled NIC, dead/unknown
QP, revoked or missing memory registration, out-of-bounds addressing,
a full send window — makes :func:`resolve_target` (or the bounds check)
decline, and the caller falls back to the scalar lane so NAK/ERROR
semantics stay exactly the reference implementation's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.rdma.memory import AccessFlags, MemoryRegion, RemoteAccessError
from repro.rdma.nic import Nic
from repro.rdma.qp import PSN_MOD, QpState, QueuePair


@dataclass
class BurstTarget:
    """A validated direct-mode destination for vectorized bursts."""

    nic: Nic
    server_qp: QueuePair
    region: MemoryRegion


def resolve_target(client, rkey: int, *,
                   atomic: bool = False) -> BurstTarget | None:
    """Validate that a vectorized burst may run; None means fall back.

    Mirrors the checks the scalar path performs piecemeal
    (:meth:`DirectRdmaTransport.execute_burst`,
    :meth:`QueuePair.requester_begin_burst`, the responder's region
    lookup/rights check).  Any condition whose scalar outcome is a
    drop, an error, or a NAK declines the fast path instead of
    re-implementing the fault machinery.
    """
    from repro.core.transport import DirectRdmaTransport

    qp = getattr(client, "qp", None)
    if qp is None:      # no client, or a verb recorder standing in for one
        return None
    if qp.state is not QpState.RTS or qp.dest_qpn is None:
        return None
    if len(qp._unacked) >= qp.max_outstanding:
        return None
    transport = client.send_fn
    if not isinstance(transport, DirectRdmaTransport):
        return None
    nic = transport.nic
    if nic.stalled:
        return None
    server = nic.qps.get(qp.dest_qpn)
    if server is None or server.state not in (QpState.RTR, QpState.RTS):
        return None
    try:
        region = nic.pd.lookup(rkey)
    except RemoteAccessError:
        return None
    needed = AccessFlags.REMOTE_ATOMIC if atomic else AccessFlags.REMOTE_WRITE
    if not (region.access & needed):
        return None
    return BurstTarget(nic=nic, server_qp=server, region=region)


def _advance(target: BurstTarget, client, count: int,
             client_payload: int) -> None:
    """Shared PSN/client bookkeeping for an executed burst."""
    server = target.server_qp
    server.expected_psn = (server.expected_psn + count) % PSN_MOD
    server.msn = (server.msn + count) % PSN_MOD
    qp = client.qp
    qp.send_psn = (qp.send_psn + count) % PSN_MOD
    client.posted += count
    client.payload_bytes += client_payload


def _charge_uniform(nic: Nic, count: int, payload: int, *,
                    atomic: bool = False) -> None:
    """NIC cost-model charge for ``count`` identical messages.

    Delegates to :meth:`Nic.charge_uniform` so the sequential
    ``busy_ns`` float accumulation lives next to the per-packet model
    it must stay bit-identical to.
    """
    nic.charge_uniform(count, payload, atomic=atomic)


def write_rows(target: BurstTarget, client, row_indices: np.ndarray,
               rows: np.ndarray) -> int | None:
    """Execute N uniform-size RDMA writes as one scatter.

    ``rows`` is an ``(n, row_bytes)`` uint8 matrix; request ``i``
    writes row ``i`` at slot ``row_indices[i]`` (region-relative,
    stride ``row_bytes``).  Duplicate slots resolve last-write-wins in
    arrival order — the deterministic outcome of executing the burst
    sequentially — via a stable sort instead of relying on numpy's
    unspecified duplicate-index assignment order.

    Returns the message count, or None (nothing touched) when the
    burst does not fit the region — the caller's scalar lane then
    reproduces the precise fault semantics.
    """
    count, row_bytes = rows.shape
    if count == 0:
        return 0
    region = target.region
    slots = region.length // row_bytes
    if int(row_indices.min()) < 0 or int(row_indices.max()) >= slots:
        return None
    view = np.frombuffer(region.buf, dtype=np.uint8,
                         count=slots * row_bytes).reshape(slots, row_bytes)
    order = np.argsort(row_indices, kind="stable")
    sorted_idx = row_indices[order]
    keep = np.empty(count, dtype=bool)
    keep[-1] = True
    keep[:-1] = sorted_idx[1:] != sorted_idx[:-1]
    winners = order[keep]
    view[row_indices[winners]] = rows[winners]

    payload = count * row_bytes
    counters = target.server_qp.counters
    counters.requests_executed += count
    counters.acks_sent += count
    counters.bytes_written += payload
    _charge_uniform(target.nic, count, row_bytes)
    _advance(target, client, count, payload)
    return count


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

    counters = target.server_qp.counters
    counters.requests_executed += count
    counters.acks_sent += count
    counters.atomics += count
    _charge_uniform(target.nic, count, 0, atomic=True)
    # The requester-visible payload of an atomic is its operand width
    # (WorkRequest.payload_bytes); on the wire the NIC sees none.
    _advance(target, client, count, count * 8)
    return count
