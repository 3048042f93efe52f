"""RoCEv2 packet encoding: BTH, RETH, AtomicETH, AETH, ImmDt.

The translator crafts these headers in the Tofino egress pipeline
(Section 4.2, "RoCEv2-header crafting"); we encode/decode the same wire
layout so the simulated fabric carries byte-faithful RoCEv2 frames into
the collector NIC.  RoCEv2 rides UDP destination port 4791.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from repro.rdma.verbs import Opcode

ROCE_UDP_PORT = 4791

# BTH opcode values for the Reliable Connection transport (IBTA spec 9.2).
_RC = 0x00


class BthOpcode(enum.IntEnum):
    """Base Transport Header opcodes (RC subset the simulator speaks)."""

    RC_SEND_ONLY = _RC | 0x04
    RC_SEND_ONLY_WITH_IMMEDIATE = _RC | 0x05
    RC_RDMA_WRITE_ONLY = _RC | 0x0A
    RC_RDMA_WRITE_ONLY_IMM = _RC | 0x0B
    RC_RDMA_READ_REQUEST = _RC | 0x0C
    RC_RDMA_READ_RESPONSE_ONLY = _RC | 0x10
    RC_ACKNOWLEDGE = _RC | 0x11
    RC_ATOMIC_ACKNOWLEDGE = _RC | 0x12
    RC_CMP_SWAP = _RC | 0x13
    RC_FETCH_ADD = _RC | 0x14


_VERB_TO_BTH = {
    Opcode.SEND: BthOpcode.RC_SEND_ONLY,
    Opcode.WRITE: BthOpcode.RC_RDMA_WRITE_ONLY,
    Opcode.WRITE_IMM: BthOpcode.RC_RDMA_WRITE_ONLY_IMM,
    Opcode.READ: BthOpcode.RC_RDMA_READ_REQUEST,
    Opcode.CMP_SWAP: BthOpcode.RC_CMP_SWAP,
    Opcode.FETCH_ADD: BthOpcode.RC_FETCH_ADD,
}
_BTH_TO_VERB = {v: k for k, v in _VERB_TO_BTH.items()}
_BTH_TO_VERB[BthOpcode.RC_SEND_ONLY_WITH_IMMEDIATE] = Opcode.SEND

_BTH_FMT = ">BBHII"       # opcode, se/m/pad/tver, pkey, qpn(24)+rsvd, a+psn
_RETH_FMT = ">QII"        # va, rkey, dma length
_ATOMIC_ETH_FMT = ">QIQQ"  # va, rkey, swap/add, compare
_AETH_FMT = ">I"          # syndrome(8) + msn(24)
_IMMDT_FMT = ">I"

BTH_BYTES = struct.calcsize(_BTH_FMT)
RETH_BYTES = struct.calcsize(_RETH_FMT)
ATOMIC_ETH_BYTES = struct.calcsize(_ATOMIC_ETH_FMT)
AETH_BYTES = struct.calcsize(_AETH_FMT)
IMMDT_BYTES = struct.calcsize(_IMMDT_FMT)
ICRC_BYTES = 4


class RoceDecodeError(Exception):
    """The byte stream is not a well-formed RoCEv2 packet we understand."""


@dataclass
class Bth:
    """Decoded Base Transport Header fields the simulator uses."""

    opcode: BthOpcode
    dest_qp: int
    psn: int
    ack_req: bool = True

    def pack(self) -> bytes:
        word = ((1 << 31) if self.ack_req else 0) | (self.psn & 0xFFFFFF)
        return struct.pack(_BTH_FMT, int(self.opcode), 0, 0xFFFF,
                           self.dest_qp & 0xFFFFFF, word)

    @classmethod
    def unpack(cls, raw: bytes) -> "Bth":
        if len(raw) < BTH_BYTES:
            raise RoceDecodeError("truncated BTH")
        opcode, _flags, _pkey, qpn, word = struct.unpack_from(_BTH_FMT, raw)
        try:
            op = BthOpcode(opcode)
        except ValueError:
            raise RoceDecodeError(f"unsupported BTH opcode {opcode:#x}")
        return cls(opcode=op, dest_qp=qpn & 0xFFFFFF, psn=word & 0xFFFFFF,
                   ack_req=bool(word >> 31))


@dataclass
class RocePacket:
    """A parsed RoCEv2 request/response.

    Requests carry ``verb``/``remote_addr``/``rkey``/``payload`` (+
    atomic operands); ACK/NAK responses carry ``syndrome``/``msn``.
    """

    bth: Bth
    verb: Opcode | None = None
    remote_addr: int = 0
    rkey: int = 0
    dma_length: int = 0
    payload: bytes = b""
    compare: int = 0
    swap: int = 0
    imm: int | None = None
    syndrome: int | None = None   # AETH: 0 = ACK, else NAK code
    msn: int = 0

    @property
    def is_ack(self) -> bool:
        return self.bth.opcode in (BthOpcode.RC_ACKNOWLEDGE,
                                   BthOpcode.RC_ATOMIC_ACKNOWLEDGE)

    @property
    def wire_size(self) -> int:
        """Transport-layer bytes (BTH + ETHs + payload + ICRC)."""
        size = BTH_BYTES + ICRC_BYTES + len(self.payload)
        if self.verb in (Opcode.WRITE, Opcode.WRITE_IMM, Opcode.READ):
            size += RETH_BYTES
        if self.verb in (Opcode.FETCH_ADD, Opcode.CMP_SWAP):
            size += ATOMIC_ETH_BYTES
        if self.imm is not None:
            size += IMMDT_BYTES
        if self.syndrome is not None:
            size += AETH_BYTES
        return size


def encode_request(verb: Opcode, *, dest_qp: int, psn: int,
                   remote_addr: int = 0, rkey: int = 0,
                   payload: bytes = b"", read_length: int = 0,
                   compare: int = 0, swap: int = 0,
                   imm: int | None = None) -> bytes:
    """Serialise a requester-side RoCEv2 packet (what a translator emits)."""
    opcode = _VERB_TO_BTH[verb]
    if verb == Opcode.SEND and imm is not None:
        opcode = BthOpcode.RC_SEND_ONLY_WITH_IMMEDIATE
    bth = Bth(opcode=opcode, dest_qp=dest_qp, psn=psn)
    out = bytearray(bth.pack())
    if verb in (Opcode.WRITE, Opcode.WRITE_IMM):
        out += struct.pack(_RETH_FMT, remote_addr, rkey, len(payload))
        if verb == Opcode.WRITE_IMM:
            out += struct.pack(_IMMDT_FMT, imm or 0)
        out += payload
    elif verb == Opcode.READ:
        out += struct.pack(_RETH_FMT, remote_addr, rkey, read_length)
    elif verb in (Opcode.FETCH_ADD, Opcode.CMP_SWAP):
        out += struct.pack(_ATOMIC_ETH_FMT, remote_addr, rkey, swap, compare)
    elif verb == Opcode.SEND:
        if imm is not None:
            out += struct.pack(_IMMDT_FMT, imm)
        out += payload
    out += b"\x00" * ICRC_BYTES  # placeholder ICRC
    return bytes(out)


def encode_ack(*, dest_qp: int, psn: int, syndrome: int = 0,
               msn: int = 0, payload: bytes = b"",
               atomic: bool = False) -> bytes:
    """Serialise an ACK/NAK (or atomic/read response) packet."""
    if payload and not atomic:
        op = BthOpcode.RC_RDMA_READ_RESPONSE_ONLY
    elif atomic:
        op = BthOpcode.RC_ATOMIC_ACKNOWLEDGE
    else:
        op = BthOpcode.RC_ACKNOWLEDGE
    bth = Bth(opcode=op, dest_qp=dest_qp, psn=psn, ack_req=False)
    out = bytearray(bth.pack())
    out += struct.pack(_AETH_FMT, ((syndrome & 0xFF) << 24) | (msn & 0xFFFFFF))
    out += payload
    out += b"\x00" * ICRC_BYTES
    return bytes(out)


def decode(raw: bytes) -> RocePacket:
    """Parse a RoCEv2 packet produced by :func:`encode_request`/``_ack``."""
    bth = Bth.unpack(raw)
    body = raw[BTH_BYTES:len(raw) - ICRC_BYTES]
    op = bth.opcode

    if op in (BthOpcode.RC_ACKNOWLEDGE, BthOpcode.RC_ATOMIC_ACKNOWLEDGE,
              BthOpcode.RC_RDMA_READ_RESPONSE_ONLY):
        if len(body) < AETH_BYTES:
            raise RoceDecodeError("truncated AETH")
        (word,) = struct.unpack_from(_AETH_FMT, body)
        return RocePacket(bth=bth, syndrome=(word >> 24) & 0xFF,
                          msn=word & 0xFFFFFF, payload=bytes(body[AETH_BYTES:]))

    verb = _BTH_TO_VERB[op]
    pkt = RocePacket(bth=bth, verb=verb)
    if verb in (Opcode.WRITE, Opcode.WRITE_IMM, Opcode.READ):
        if len(body) < RETH_BYTES:
            raise RoceDecodeError("truncated RETH")
        pkt.remote_addr, pkt.rkey, pkt.dma_length = struct.unpack_from(
            _RETH_FMT, body)
        rest = body[RETH_BYTES:]
        if verb == Opcode.WRITE_IMM:
            (pkt.imm,) = struct.unpack_from(_IMMDT_FMT, rest)
            rest = rest[IMMDT_BYTES:]
        pkt.payload = bytes(rest)
    elif verb in (Opcode.FETCH_ADD, Opcode.CMP_SWAP):
        if len(body) < ATOMIC_ETH_BYTES:
            raise RoceDecodeError("truncated AtomicETH")
        pkt.remote_addr, pkt.rkey, pkt.swap, pkt.compare = struct.unpack_from(
            _ATOMIC_ETH_FMT, body)
    else:  # SEND
        if op == BthOpcode.RC_SEND_ONLY_WITH_IMMEDIATE:
            if len(body) < IMMDT_BYTES:
                raise RoceDecodeError("truncated ImmDt")
            (pkt.imm,) = struct.unpack_from(_IMMDT_FMT, body)
            body = body[IMMDT_BYTES:]
        pkt.payload = bytes(body)
    return pkt
