"""The DTA wire protocol: base header, primitive subheaders, control messages.

Figure 3: a DTA report is the telemetry payload (whatever the monitoring
system exports), encapsulated in UDP, preceded by the *DTA header*
(which primitive, flags, reporter identity, the essential-report
sequence counter used for loss detection) and a *primitive subheader*
(the primitive's parameters — key, redundancy, list ID, hop index, ...).

Everything here is plain ``struct`` big-endian encoding, byte-faithful
enough that the simulated fabric carries real packets and header sizes
feed the wire-rate models.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

DTA_UDP_PORT = 40000
DTA_VERSION = 1

MAX_KEY_BYTES = 64
MAX_DATA_BYTES = 1024


class DtaPrimitive(enum.IntEnum):
    """DTA operation codes carried in the base header."""

    KEY_WRITE = 1
    APPEND = 2
    POSTCARDING = 3
    SKETCH_MERGE = 4
    KEY_INCREMENT = 5
    NACK = 14
    CONGESTION = 15


class DtaFlags(enum.IntFlag):
    """Base-header flags."""

    NONE = 0
    ESSENTIAL = 0x1    # retransmittable; counted by the sequence counter
    IMMEDIATE = 0x2    # request an RDMA-immediate CPU interrupt (Section 6)
    RETRANSMIT = 0x4   # a NACK-triggered re-send; bypasses loss detection


class PacketDecodeError(Exception):
    """Malformed DTA bytes."""


_BASE_FMT = ">BBHI"
BASE_HEADER_BYTES = struct.calcsize(_BASE_FMT)


@dataclass(frozen=True)
class DtaHeader:
    """The common DTA header (Figure 3).

    Attributes:
        primitive: Which DTA operation follows.
        flags: Essential/immediate bits.
        reporter_id: Identity of the reporting switch (16 bits).
        seq: Count of *essential* reports this reporter has sent toward
            this translator — the loss-detection counter of Section 3.3.
    """

    primitive: DtaPrimitive
    flags: DtaFlags = DtaFlags.NONE
    reporter_id: int = 0
    seq: int = 0

    def pack(self) -> bytes:
        ver_prim = (DTA_VERSION << 4) | int(self.primitive)
        return struct.pack(_BASE_FMT, ver_prim, int(self.flags),
                           self.reporter_id, self.seq & 0xFFFFFFFF)

    @classmethod
    def unpack(cls, raw: bytes) -> "DtaHeader":
        if len(raw) < BASE_HEADER_BYTES:
            raise PacketDecodeError("truncated DTA header")
        ver_prim, flags, reporter_id, seq = struct.unpack_from(_BASE_FMT, raw)
        if ver_prim >> 4 != DTA_VERSION:
            raise PacketDecodeError(f"bad DTA version {ver_prim >> 4}")
        try:
            primitive = DtaPrimitive(ver_prim & 0xF)
        except ValueError:
            raise PacketDecodeError(
                f"unknown primitive {ver_prim & 0xF}") from None
        return cls(primitive=primitive, flags=DtaFlags(flags),
                   reporter_id=reporter_id, seq=seq)

    @property
    def essential(self) -> bool:
        return bool(self.flags & DtaFlags.ESSENTIAL)


# ---------------------------------------------------------------------------
# Primitive subheaders.  Each knows its own pack/unpack; `decode_report`
# dispatches on the base header.
# ---------------------------------------------------------------------------


def _check_key(key: bytes) -> bytes:
    if not key or len(key) > MAX_KEY_BYTES:
        raise ValueError(f"key must be 1..{MAX_KEY_BYTES} bytes")
    return key


def _check_data(data: bytes) -> bytes:
    if len(data) > MAX_DATA_BYTES:
        raise ValueError(f"data exceeds {MAX_DATA_BYTES} bytes")
    return data


@dataclass(frozen=True)
class KeyWrite:
    """Key-Write: store ``data`` under ``key`` with ``redundancy`` copies.

    Section 3.2: the redundancy field lets switches state per-key
    importance; higher N means longer lifetime before overwrite.
    """

    key: bytes
    data: bytes
    redundancy: int = 2

    _FMT = ">BBH"

    def __post_init__(self) -> None:
        _check_key(self.key)
        _check_data(self.data)
        if not 1 <= self.redundancy <= 16:
            raise ValueError("redundancy must be in [1, 16]")

    def pack(self) -> bytes:
        return struct.pack(self._FMT, self.redundancy, len(self.key),
                           len(self.data)) + self.key + self.data

    @classmethod
    def unpack(cls, raw: bytes) -> "KeyWrite":
        size = struct.calcsize(cls._FMT)
        if len(raw) < size:
            raise PacketDecodeError("truncated Key-Write subheader")
        redundancy, key_len, data_len = struct.unpack_from(cls._FMT, raw)
        body = raw[size:]
        if len(body) < key_len + data_len:
            raise PacketDecodeError("truncated Key-Write body")
        return cls(key=bytes(body[:key_len]),
                   data=bytes(body[key_len:key_len + data_len]),
                   redundancy=redundancy)


@dataclass(frozen=True)
class KeyIncrement:
    """Key-Increment: add ``value`` to the counter stored under ``key``."""

    key: bytes
    value: int
    redundancy: int = 2

    _FMT = ">BBq"

    def __post_init__(self) -> None:
        _check_key(self.key)
        if not 1 <= self.redundancy <= 16:
            raise ValueError("redundancy must be in [1, 16]")

    def pack(self) -> bytes:
        return struct.pack(self._FMT, self.redundancy, len(self.key),
                           self.value) + self.key

    @classmethod
    def unpack(cls, raw: bytes) -> "KeyIncrement":
        size = struct.calcsize(cls._FMT)
        if len(raw) < size:
            raise PacketDecodeError("truncated Key-Increment subheader")
        redundancy, key_len, value = struct.unpack_from(cls._FMT, raw)
        body = raw[size:]
        if len(body) < key_len:
            raise PacketDecodeError("truncated Key-Increment key")
        return cls(key=bytes(body[:key_len]), value=value,
                   redundancy=redundancy)


@dataclass(frozen=True)
class Postcard:
    """Postcarding: the ``hop``'th postcard of flow/packet ``key``.

    ``path_length`` lets egress switches announce the true hop count so
    the translator can emit before the counter reaches B (Section 3.2).
    """

    key: bytes
    hop: int
    value: int
    path_length: int = 0   # 0 = unknown
    redundancy: int = 1

    _FMT = ">BBBBI"

    def __post_init__(self) -> None:
        _check_key(self.key)
        if not 0 <= self.hop < 32:
            raise ValueError("hop must be in [0, 32)")
        if not 0 <= self.value < (1 << 32):
            raise ValueError("postcard value must fit 32 bits")

    def pack(self) -> bytes:
        return struct.pack(self._FMT, self.redundancy, len(self.key),
                           self.hop, self.path_length,
                           self.value) + self.key

    @classmethod
    def unpack(cls, raw: bytes) -> "Postcard":
        size = struct.calcsize(cls._FMT)
        if len(raw) < size:
            raise PacketDecodeError("truncated Postcarding subheader")
        redundancy, key_len, hop, path_length, value = struct.unpack_from(
            cls._FMT, raw)
        body = raw[size:]
        if len(body) < key_len:
            raise PacketDecodeError("truncated Postcarding key")
        return cls(key=bytes(body[:key_len]), hop=hop, value=value,
                   path_length=path_length, redundancy=redundancy)


@dataclass(frozen=True)
class Append:
    """Append: push ``data`` onto list ``list_id`` at the collector."""

    list_id: int
    data: bytes

    _FMT = ">HH"

    def __post_init__(self) -> None:
        if not 0 <= self.list_id < (1 << 16):
            raise ValueError("list_id must fit 16 bits")
        if not self.data:
            raise ValueError("append data must be non-empty")
        _check_data(self.data)

    def pack(self) -> bytes:
        return struct.pack(self._FMT, self.list_id,
                           len(self.data)) + self.data

    @classmethod
    def unpack(cls, raw: bytes) -> "Append":
        size = struct.calcsize(cls._FMT)
        if len(raw) < size:
            raise PacketDecodeError("truncated Append subheader")
        list_id, data_len = struct.unpack_from(cls._FMT, raw)
        body = raw[size:]
        if len(body) < data_len:
            raise PacketDecodeError("truncated Append data")
        return cls(list_id=list_id, data=bytes(body[:data_len]))


@dataclass(frozen=True)
class SketchColumn:
    """Sketch-Merge: one column of a reporter's sketch.

    Columns must arrive in order per reporter (Section 4.2); the
    ``column`` index lets the translator enforce that and NACK gaps.
    """

    sketch_id: int
    column: int
    counters: tuple

    _FMT = ">HHB"

    def __post_init__(self) -> None:
        if not self.counters:
            raise ValueError("a sketch column carries >= 1 counter")
        if len(self.counters) > 255:
            raise ValueError("at most 255 counters per column")

    def pack(self) -> bytes:
        head = struct.pack(self._FMT, self.sketch_id, self.column,
                           len(self.counters))
        body = struct.pack(f">{len(self.counters)}I",
                           *[c & 0xFFFFFFFF for c in self.counters])
        return head + body

    @classmethod
    def unpack(cls, raw: bytes) -> "SketchColumn":
        size = struct.calcsize(cls._FMT)
        if len(raw) < size:
            raise PacketDecodeError("truncated Sketch-Merge subheader")
        sketch_id, column, depth = struct.unpack_from(cls._FMT, raw)
        body = raw[size:]
        need = 4 * depth
        if len(body) < need:
            raise PacketDecodeError("truncated sketch column")
        counters = struct.unpack_from(f">{depth}I", body)
        return cls(sketch_id=sketch_id, column=column, counters=counters)


@dataclass(frozen=True)
class Nack:
    """Translator -> reporter: essential reports were lost; re-send.

    Carries the first missing sequence number and how many are missing
    (Figure 5's retransmission request).
    """

    expected_seq: int
    missing: int = 1

    _FMT = ">II"

    def pack(self) -> bytes:
        return struct.pack(self._FMT, self.expected_seq, self.missing)

    @classmethod
    def unpack(cls, raw: bytes) -> "Nack":
        size = struct.calcsize(cls._FMT)
        if len(raw) < size:
            raise PacketDecodeError("truncated NACK")
        expected_seq, missing = struct.unpack_from(cls._FMT, raw)
        return cls(expected_seq=expected_seq, missing=missing)


@dataclass(frozen=True)
class CongestionSignal:
    """Translator -> reporter: reduce telemetry generation rate.

    ``level`` grades the backpressure (1 = shed low priority,
    2 = essential only, 3 = stop); Section 3.3 leaves the reporter's
    shedding policy open, so the signal just carries severity.
    """

    level: int = 1

    _FMT = ">B"

    def pack(self) -> bytes:
        return struct.pack(self._FMT, self.level)

    @classmethod
    def unpack(cls, raw: bytes) -> "CongestionSignal":
        if len(raw) < 1:
            raise PacketDecodeError("truncated congestion signal")
        (level,) = struct.unpack_from(cls._FMT, raw)
        return cls(level=level)


_SUBHEADERS = {
    DtaPrimitive.KEY_WRITE: KeyWrite,
    DtaPrimitive.KEY_INCREMENT: KeyIncrement,
    DtaPrimitive.POSTCARDING: Postcard,
    DtaPrimitive.APPEND: Append,
    DtaPrimitive.SKETCH_MERGE: SketchColumn,
    DtaPrimitive.NACK: Nack,
    DtaPrimitive.CONGESTION: CongestionSignal,
}

_PRIMITIVE_OF = {cls: prim for prim, cls in _SUBHEADERS.items()}

#: Size of each primitive's fixed sub-header; the variable part (key,
#: data, counters) starts ``BASE_HEADER_BYTES`` + this into a report.
SUBHEADER_BYTES = {prim: struct.calcsize(cls._FMT)
                   for prim, cls in _SUBHEADERS.items()}

Operation = object  # any of the subheader dataclasses above


def encode_report(header: DtaHeader, operation) -> bytes:
    """Serialise header + matching subheader into DTA-over-UDP payload."""
    expected = _SUBHEADERS[header.primitive]
    if type(operation) is not expected:
        raise ValueError(
            f"{header.primitive.name} requires {expected.__name__}, "
            f"got {type(operation).__name__}")
    return header.pack() + operation.pack()


def make_report(operation, *, reporter_id: int = 0, seq: int = 0,
                flags: DtaFlags = DtaFlags.NONE) -> bytes:
    """Convenience: build header from the operation type and serialise."""
    primitive = _PRIMITIVE_OF[type(operation)]
    header = DtaHeader(primitive=primitive, flags=flags,
                       reporter_id=reporter_id, seq=seq)
    return encode_report(header, operation)


def decode_report(raw: bytes) -> tuple:
    """Parse DTA bytes into ``(DtaHeader, operation)``."""
    header = DtaHeader.unpack(raw)
    sub = _SUBHEADERS[header.primitive]
    return header, sub.unpack(raw[BASE_HEADER_BYTES:])


# Hoisted off the per-report hot path: report_wire_bytes runs once per
# report inside ReportBatch.wire_bytes, so the calibration lookup and
# the constant header sum are paid at import time, not per call.  (The
# import is safe here: repro/__init__ binds ``calibration`` before any
# submodule that reaches this module.)
from repro import calibration as _calibration

_WIRE_HEADER_BYTES = (_calibration.ETH_HDR_BYTES
                      + _calibration.IPV4_HDR_BYTES
                      + _calibration.UDP_HDR_BYTES
                      + BASE_HEADER_BYTES)


def report_wire_bytes(operation) -> int:
    """On-wire size of a DTA report (Eth+IP+UDP+DTA headers + payload)."""
    return _WIRE_HEADER_BYTES + len(operation.pack())
