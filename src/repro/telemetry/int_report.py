"""The INT telemetry-report wire format (p4.org spec, reference [22]).

Figure 3 shows DTA encapsulating a "legacy telemetry report" — for INT
that is the Telemetry Report v1 header followed by the INT-MD shim and
the per-hop metadata stack.  This module implements those layouts so
the DTA payload can be the *actual* bytes an INT sink emits:

* :class:`TelemetryReport` — the 16-byte Telemetry Report Header v1.0
  (version, hw_id, sequence number, ingress timestamp).
* :class:`IntShim` — the 4-byte INT-MD shim (type, length, DSCP).
* :class:`IntMetadataHeader` — the 8-byte INT-MD header: instruction
  bitmap, hop metadata length, remaining-hop count.
* :class:`HopMetadata` — one hop's metadata words, driven by the
  instruction bitmap (switch id, ports, latency, queue, timestamps).

The instruction bitmap semantics follow the INT 2.1 spec's first eight
instruction bits; each set bit appends fixed 4-byte words per hop.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field


class IntInstruction(enum.IntFlag):
    """INT instruction bitmap (first byte of the 16-bit bitmap)."""

    NODE_ID = 0x8000
    L1_PORT_IDS = 0x4000          # ingress(2) + egress(2)
    HOP_LATENCY = 0x2000
    QUEUE_OCCUPANCY = 0x1000      # queue id(1)+occupancy(3)
    INGRESS_TSTAMP = 0x0800
    EGRESS_TSTAMP = 0x0400
    L2_PORT_IDS = 0x0200
    EGRESS_TX_UTIL = 0x0100

    @property
    def words(self) -> int:
        """4-byte metadata words this instruction contributes per hop."""
        doubles = (IntInstruction.INGRESS_TSTAMP
                   | IntInstruction.EGRESS_TSTAMP)
        total = 0
        for bit in IntInstruction:
            if self & bit:
                total += 2 if bit & doubles else 1
        return total


@dataclass(frozen=True)
class TelemetryReport:
    """Telemetry Report Header v1.0 (16 bytes).

    Fields: version(4b), hw_id(6b), sequence number(22b), node id(32),
    report type bits, ingress timestamp(32) + pad.
    """

    hw_id: int
    seq: int
    node_id: int
    ingress_tstamp: int
    dropped: bool = False
    congested: bool = False

    VERSION = 1
    HEADER_BYTES = 16

    def pack(self) -> bytes:
        word0 = (self.VERSION << 28) | ((self.hw_id & 0x3F) << 22) \
            | (self.seq & 0x3FFFFF)
        flags = (0x8000_0000 if self.dropped else 0) \
            | (0x4000_0000 if self.congested else 0)
        return struct.pack(">IIII", word0, self.node_id, flags,
                           self.ingress_tstamp & 0xFFFFFFFF)

    @classmethod
    def unpack(cls, raw: bytes) -> "TelemetryReport":
        if len(raw) < cls.HEADER_BYTES:
            raise ValueError("truncated telemetry report header")
        word0, node_id, flags, tstamp = struct.unpack_from(">IIII", raw)
        if word0 >> 28 != cls.VERSION:
            raise ValueError(f"unsupported report version {word0 >> 28}")
        return cls(hw_id=(word0 >> 22) & 0x3F, seq=word0 & 0x3FFFFF,
                   node_id=node_id, ingress_tstamp=tstamp,
                   dropped=bool(flags & 0x8000_0000),
                   congested=bool(flags & 0x4000_0000))


@dataclass(frozen=True)
class IntShim:
    """INT-MD shim (4 bytes): type, total INT length in words, DSCP."""

    length_words: int
    dscp: int = 0

    TYPE_INT_MD = 1
    SHIM_BYTES = 4

    def pack(self) -> bytes:
        return struct.pack(">BBBB", self.TYPE_INT_MD, 0,
                           self.length_words & 0xFF,
                           (self.dscp & 0x3F) << 2)

    @classmethod
    def unpack(cls, raw: bytes) -> "IntShim":
        if len(raw) < cls.SHIM_BYTES:
            raise ValueError("truncated INT shim")
        shim_type, _rsvd, length, dscp = struct.unpack_from(">BBBB", raw)
        if shim_type != cls.TYPE_INT_MD:
            raise ValueError(f"not an INT-MD shim (type {shim_type})")
        return cls(length_words=length, dscp=dscp >> 2)


@dataclass(frozen=True)
class IntMetadataHeader:
    """INT-MD header (8 bytes): flags, hop ML, remaining hops, bitmap."""

    instructions: IntInstruction
    remaining_hops: int
    hop_count: int = 0

    HEADER_BYTES = 8

    def pack(self) -> bytes:
        hop_ml = IntInstruction(self.instructions).words
        return struct.pack(">BBBBHH", 0x20, hop_ml & 0x1F,
                           self.remaining_hops & 0xFF,
                           self.hop_count & 0xFF,
                           int(self.instructions), 0)

    @classmethod
    def unpack(cls, raw: bytes) -> "IntMetadataHeader":
        if len(raw) < cls.HEADER_BYTES:
            raise ValueError("truncated INT-MD header")
        _vf, _hop_ml, remaining, hop_count, bitmap, _rsvd = \
            struct.unpack_from(">BBBBHH", raw)
        return cls(instructions=IntInstruction(bitmap),
                   remaining_hops=remaining, hop_count=hop_count)


@dataclass(frozen=True)
class HopMetadata:
    """One hop's metadata, shaped by the instruction bitmap."""

    node_id: int = 0
    ingress_port: int = 0
    egress_port: int = 0
    hop_latency: int = 0
    queue_id: int = 0
    queue_occupancy: int = 0
    ingress_tstamp: int = 0
    egress_tstamp: int = 0
    l2_ingress_port: int = 0
    l2_egress_port: int = 0
    egress_tx_util: int = 0

    def pack(self, instructions: IntInstruction) -> bytes:
        out = bytearray()
        if instructions & IntInstruction.NODE_ID:
            out += struct.pack(">I", self.node_id)
        if instructions & IntInstruction.L1_PORT_IDS:
            out += struct.pack(">HH", self.ingress_port,
                               self.egress_port)
        if instructions & IntInstruction.HOP_LATENCY:
            out += struct.pack(">I", self.hop_latency)
        if instructions & IntInstruction.QUEUE_OCCUPANCY:
            out += struct.pack(">I", ((self.queue_id & 0xFF) << 24)
                               | (self.queue_occupancy & 0xFFFFFF))
        if instructions & IntInstruction.INGRESS_TSTAMP:
            out += struct.pack(">Q", self.ingress_tstamp)
        if instructions & IntInstruction.EGRESS_TSTAMP:
            out += struct.pack(">Q", self.egress_tstamp)
        if instructions & IntInstruction.L2_PORT_IDS:
            out += struct.pack(">HH", self.l2_ingress_port,
                               self.l2_egress_port)
        if instructions & IntInstruction.EGRESS_TX_UTIL:
            out += struct.pack(">I", self.egress_tx_util)
        return bytes(out)

    @classmethod
    def unpack(cls, raw: bytes,
               instructions: IntInstruction) -> "HopMetadata":
        fields: dict = {}
        offset = 0

        def take(fmt: str):
            nonlocal offset
            size = struct.calcsize(fmt)
            if offset + size > len(raw):
                raise ValueError("truncated hop metadata")
            values = struct.unpack_from(fmt, raw, offset)
            offset += size
            return values

        if instructions & IntInstruction.NODE_ID:
            (fields["node_id"],) = take(">I")
        if instructions & IntInstruction.L1_PORT_IDS:
            fields["ingress_port"], fields["egress_port"] = take(">HH")
        if instructions & IntInstruction.HOP_LATENCY:
            (fields["hop_latency"],) = take(">I")
        if instructions & IntInstruction.QUEUE_OCCUPANCY:
            (word,) = take(">I")
            fields["queue_id"] = word >> 24
            fields["queue_occupancy"] = word & 0xFFFFFF
        if instructions & IntInstruction.INGRESS_TSTAMP:
            (fields["ingress_tstamp"],) = take(">Q")
        if instructions & IntInstruction.EGRESS_TSTAMP:
            (fields["egress_tstamp"],) = take(">Q")
        if instructions & IntInstruction.L2_PORT_IDS:
            fields["l2_ingress_port"], fields["l2_egress_port"] = \
                take(">HH")
        if instructions & IntInstruction.EGRESS_TX_UTIL:
            (fields["egress_tx_util"],) = take(">I")
        return cls(**fields)


@dataclass
class InFlightInt:
    """The INT-MD state riding *inside* a packet: shim + MD + stack.

    This is what transit switches see and mutate — no telemetry-report
    header yet (the sink adds that when exporting).  ``hops`` is kept
    ingress-first; on the wire the stack is last-hop-first because each
    switch pushes at the top.
    """

    instructions: IntInstruction
    remaining_hops: int
    hops: list = field(default_factory=list)

    def push(self, hop: HopMetadata) -> bool:
        """A transit switch adds its metadata; False if budget spent.

        INT 2.1: a switch whose Remaining Hop Count is zero forwards
        the packet untouched (no metadata, no decrement).
        """
        if self.remaining_hops <= 0:
            return False
        self.hops.append(hop)
        self.remaining_hops -= 1
        return True

    def pack(self) -> bytes:
        md = IntMetadataHeader(instructions=self.instructions,
                               remaining_hops=self.remaining_hops,
                               hop_count=len(self.hops))
        stack = b"".join(hop.pack(self.instructions)
                         for hop in reversed(self.hops))
        words = (IntMetadataHeader.HEADER_BYTES + len(stack)) // 4 + 1
        return IntShim(length_words=words).pack() + md.pack() + stack

    @classmethod
    def unpack(cls, raw: bytes) -> "InFlightInt":
        IntShim.unpack(raw)
        offset = IntShim.SHIM_BYTES
        md = IntMetadataHeader.unpack(raw[offset:])
        offset += IntMetadataHeader.HEADER_BYTES
        hop_bytes = IntInstruction(md.instructions).words * 4
        hops = []
        for _ in range(md.hop_count):
            hops.append(HopMetadata.unpack(
                raw[offset:offset + hop_bytes], md.instructions))
            offset += hop_bytes
        hops.reverse()
        return cls(instructions=IntInstruction(md.instructions),
                   remaining_hops=md.remaining_hops, hops=hops)


def int_source(instructions: IntInstruction,
               max_hops: int) -> InFlightInt:
    """The INT source switch: initialise the in-packet MD state."""
    if max_hops <= 0:
        raise ValueError("max_hops must be positive")
    return InFlightInt(instructions=instructions,
                       remaining_hops=max_hops)


@dataclass
class IntReport:
    """A complete INT report: report header + shim + MD header + hops."""

    report: TelemetryReport
    instructions: IntInstruction
    hops: list = field(default_factory=list)   # ingress-first order

    def pack(self) -> bytes:
        md = IntMetadataHeader(instructions=self.instructions,
                               remaining_hops=0,
                               hop_count=len(self.hops))
        # INT stacks push at the front: the last hop's metadata comes
        # first on the wire.
        stack = b"".join(hop.pack(self.instructions)
                         for hop in reversed(self.hops))
        words = (IntMetadataHeader.HEADER_BYTES + len(stack)) // 4 + 1
        shim = IntShim(length_words=words)
        return self.report.pack() + shim.pack() + md.pack() + stack

    @classmethod
    def unpack(cls, raw: bytes) -> "IntReport":
        report = TelemetryReport.unpack(raw)
        offset = TelemetryReport.HEADER_BYTES
        IntShim.unpack(raw[offset:])
        offset += IntShim.SHIM_BYTES
        md = IntMetadataHeader.unpack(raw[offset:])
        offset += IntMetadataHeader.HEADER_BYTES
        hop_bytes = IntInstruction(md.instructions).words * 4
        hops = []
        for _ in range(md.hop_count):
            hops.append(HopMetadata.unpack(raw[offset:offset + hop_bytes],
                                           md.instructions))
            offset += hop_bytes
        hops.reverse()   # back to ingress-first order
        return cls(report=report, instructions=md.instructions,
                   hops=hops)

    @property
    def path(self) -> list:
        """Switch IDs along the path (requires NODE_ID instruction)."""
        return [hop.node_id for hop in self.hops]
