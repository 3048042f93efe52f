"""Work requests and completions — the verb-level API surface.

RDMA exposes a deliberately small instruction set (Section 2.2(1) of the
paper): Read, Write, Fetch-and-Add, Compare-and-Swap, plus two-sided
Send/Receive.  DTA's whole point is that this set is too weak to maintain
queryable telemetry structures from many writers, so the translator
extends it; this module is the ground truth those extensions compile to.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field


class Opcode(enum.Enum):
    """RDMA verb opcodes supported by the simulated NIC.

    Each member carries two traits as plain attributes, set once below
    (the verb path reads them per request): ``is_atomic`` — FETCH_ADD
    and CMP_SWAP — and ``needs_response`` — READs and atomics, which
    require a responder-to-requester payload and carry none on the wire
    themselves (a READ's length and an atomic's operands ride in their
    extension headers).
    """

    WRITE = "rdma_write"
    WRITE_IMM = "rdma_write_with_imm"
    READ = "rdma_read"
    FETCH_ADD = "fetch_and_add"
    CMP_SWAP = "compare_and_swap"
    SEND = "send"

    is_atomic: bool
    needs_response: bool


for _op in Opcode:
    _op.is_atomic = _op in (Opcode.FETCH_ADD, Opcode.CMP_SWAP)
    _op.needs_response = _op.is_atomic or _op is Opcode.READ
del _op


class WcStatus(enum.Enum):
    """Work-completion status codes (subset of ``ibv_wc_status``)."""

    SUCCESS = "success"
    REM_ACCESS_ERR = "remote_access_error"
    RETRY_EXC_ERR = "retry_exceeded"
    REM_OP_ERR = "remote_operation_error"
    WR_FLUSH_ERR = "flushed"


_wr_ids = itertools.count(1)

#: Operand width of every atomic: InfiniBand atomics act on one 8-byte
#: word, and the RoCE AtomicETH has no width field.
ATOMIC_BYTES = 8


@dataclass(slots=True)
class WorkRequest:
    """A posted verb: what to do, where, and with which payload.

    Attributes:
        opcode: Which verb.
        remote_addr: Target virtual address in the responder's region.
        rkey: Remote protection key for the target region.
        data: Payload for WRITE/SEND; ignored for READ.
        length: Read length (READ) — for writes, ``len(data)`` governs.
        compare / swap: Operands for atomics (FETCH_ADD uses ``swap`` as
            the addend, matching ``ibv_wr_atomic_fetch_add``'s add field).
        imm: Optional 32-bit immediate (WRITE_IMM) used by DTA's
            "immediate flag" push notifications (Section 6).
        wr_id: Caller-visible identifier echoed in the completion.
        signaled: ``IBV_SEND_SIGNALED``: a successful request leaves a
            :class:`WorkCompletion` on the requester's queue only when
            set.  A request that errors or is flushed always completes,
            signaled or not.  Telemetry verbs are posted unsignaled —
            nothing polls for them.
        fatal_naks: Fatal NAKs this request has drawn as the offender
            (not as an innocent flushed alongside it); recovery abandons
            it at ``RetryPolicy.wr_replay_cap``.
    """

    opcode: Opcode
    remote_addr: int = 0
    rkey: int = 0
    data: bytes = b""
    length: int = 0
    compare: int = 0
    swap: int = 0
    imm: int | None = None
    wr_id: int = field(default_factory=_wr_ids.__next__)
    signaled: bool = True
    fatal_naks: int = 0

    @property
    def payload_bytes(self) -> int:
        """Bytes the requester posts: a write's or send's data, an
        atomic's operand width, none for a READ.  (On the wire an
        atomic's operands ride in its header: the NIC model charges it
        no payload.)"""
        opcode = self.opcode
        if opcode.is_atomic:
            return ATOMIC_BYTES
        return 0 if opcode is Opcode.READ else len(self.data)


@dataclass
class WorkCompletion:
    """Completion record delivered to the requester's completion queue."""

    wr_id: int
    opcode: Opcode
    status: WcStatus
    byte_len: int = 0
    data: bytes = b""
    imm: int | None = None

    @property
    def ok(self) -> bool:
        return self.status == WcStatus.SUCCESS
