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
# Primitive subheaders.  Each operation declares its sub-header once, as
# a field table (``WIRE``); ``pack`` / ``unpack`` / the range checks here,
# ``ReportBatch.iter_raw`` and ``kernels.wire.decode`` all derive from
# it, and ``repro.core.primitives`` hangs the rest of a primitive's
# description off it.  `decode_report` dispatches on the base header.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Field:
    """One fixed-width sub-header field.

    Attributes:
        name: The operation attribute it carries (and the column name
            :func:`repro.kernels.wire.decode` returns it under).
        code: ``struct`` format character — width and signedness.
        accept: Inclusive ``(lo, hi)`` the operation's constructor and
            the wire decoders hold it to; None accepts whatever the
            width can carry.
        sizes: Name of the variable tail whose item count this field
            is (it then takes the tail's ``accept``, not its own).
    """

    name: str
    code: str
    accept: tuple | None = None
    sizes: str | None = None

    @property
    def width(self) -> int:
        return struct.calcsize(self.code)

    @property
    def natural(self) -> tuple:
        """The range the width itself holds."""
        bits = 8 * self.width
        if self.code.islower():
            return -(1 << bits - 1), (1 << bits - 1) - 1
        return 0, (1 << bits) - 1


@dataclass(frozen=True)
class Tail:
    """A variable-length part after the fixed sub-header: ``accept``
    bounds its item count, ``item`` is bytes per item (1: a byte
    string; 4: a tuple of big-endian ``u32``, masked on the way out)."""

    name: str
    accept: tuple
    item: int = 1


def pack_counters(counters) -> bytes:
    """A 4-byte-item tail on the wire."""
    return struct.pack(f">{len(counters)}I",
                       *[c & 0xFFFFFFFF for c in counters])


class SubHeader:
    """A sub-header format: fixed ``fields``, then ``tails`` in order."""

    def __init__(self, label: str, *fields: Field, tails=()) -> None:
        self.label = label
        self.fields = fields
        self.tails = tuple(tails)
        self.struct = struct.Struct(">" + "".join(f.code for f in fields))
        self.size = self.struct.size
        #: tail name -> the tail; tail name -> its count field's name.
        self.tail_of = {tail.name: tail for tail in self.tails}
        self.counts = {f.sizes: f.name for f in fields if f.sizes}
        #: Every range a report must satisfy, as ``(field, lo, hi)``; a
        #: count field's is its tail's, checked as the tail's length.
        self.ranges = tuple(
            (f, *(self.tail_of[f.sizes].accept if f.sizes else f.accept))
            for f in fields if f.sizes or f.accept)
        #: Where :meth:`peek` finds a field (or a tail's count) in a
        #: whole report: ``(offset, width, signed, is_count)``.
        self.spans = {}
        at = BASE_HEADER_BYTES
        for f in fields:
            self.spans[f.sizes or f.name] = (at, f.width, f.code.islower(),
                                             bool(f.sizes))
            at += f.width
        self._compile()

    def _compile(self) -> None:
        """Generate this table's ``validate(op)``, ``pack(op)`` and
        ``unpack(cls, raw)`` as straight-line code — what one would
        write by hand for the format (the way ``dataclass`` generates
        ``__init__``), not an interpretation of the table per report:
        this is the per-report lane's codec."""
        label, size = self.label, self.size
        value = {f: f"len(op.{f.sizes})" if f.sizes else f"op.{f.name}"
                 for f in self.fields}
        body = "".join(f" + op.{t.name}" if t.item == 1
                       else f" + _counters(op.{t.name})" for t in self.tails)
        lines = [f"def pack(op): return _pack({', '.join(value.values())})"
                 + body, "def validate(op):"]
        for f, lo, hi in self.ranges:
            what = value[f].replace("op.", "")
            lines.append(
                f"    if not {lo} <= {value[f]} <= {hi}: raise ValueError("
                f"{f'{label}: {what} must be in [{lo}, {hi}]'!r})")
        lines += ["    return None", "def unpack(cls, raw):",
                  f"    if len(raw) < {size}: raise Short("
                  f"{f'truncated {label} subheader'!r})",
                  f"    {', '.join(f.name for f in self.fields)}, = "
                  "_unpack(raw)", f"    at = {size}"]
        for t in self.tails:
            lines += [f"    end = at + {self.counts[t.name]} * {t.item}",
                      f"    if len(raw) < end: raise Short("
                      f"{f'truncated {label} {t.name}'!r})",
                      f"    {t.name} = " + (
                          "bytes(raw[at:end])" if t.item == 1 else
                          f"_ints('>%dI' % {self.counts[t.name]}, raw, at)"),
                      "    at = end"]
        kept = [f.name for f in self.fields if not f.sizes] \
            + [t.name for t in self.tails]
        lines.append(f"    return cls({', '.join(f'{n}={n}' for n in kept)})")
        scope = {"_pack": self.struct.pack, "_unpack": self.struct.unpack_from,
                 "_counters": pack_counters, "_ints": struct.unpack_from,
                 "Short": PacketDecodeError}
        exec("\n".join(lines), scope)
        self.validate, self.pack, self.unpack = (
            scope["validate"], scope["pack"], scope["unpack"])

    def peek(self, raw: bytes, name: str):
        """Field ``name`` (an int) or the *first* tail (bytes) of a
        whole report ``raw``, by byte slicing — no validation."""
        at, width, signed, is_count = self.spans[name]
        value = int.from_bytes(raw[at:at + width], "big", signed=signed)
        if not is_count:
            return value
        body = BASE_HEADER_BYTES + self.size
        return raw[body:body + value]


class _Operation:
    """What every sub-header dataclass derives from its ``WIRE`` table:
    ``pack()``, ``unpack(raw)`` and the constructor's range checks."""

    WIRE: SubHeader

    def __init_subclass__(cls) -> None:
        cls.pack, cls.__post_init__ = cls.WIRE.pack, cls.WIRE.validate
        cls.unpack = classmethod(cls.WIRE.unpack)


_KEY = Tail("key", (1, MAX_KEY_BYTES))
_REDUNDANCY = Field("redundancy", "B", (1, 16))


@dataclass(frozen=True)
class KeyWrite(_Operation):
    """Key-Write: store ``data`` under ``key`` with ``redundancy`` copies.

    Section 3.2: the redundancy field lets switches state per-key
    importance; higher N means longer lifetime before overwrite.
    """

    key: bytes
    data: bytes
    redundancy: int = 2

    WIRE = SubHeader("Key-Write", _REDUNDANCY,
                     Field("key_len", "B", sizes="key"),
                     Field("data_len", "H", sizes="data"),
                     tails=(_KEY, Tail("data", (0, MAX_DATA_BYTES))))


@dataclass(frozen=True)
class KeyIncrement(_Operation):
    """Key-Increment: add ``value`` to the counter stored under ``key``."""

    key: bytes
    value: int
    redundancy: int = 2

    WIRE = SubHeader("Key-Increment", _REDUNDANCY,
                     Field("key_len", "B", sizes="key"),
                     Field("value", "q"), tails=(_KEY,))


@dataclass(frozen=True)
class Postcard(_Operation):
    """Postcarding: the ``hop``'th postcard of flow/packet ``key``.

    ``path_length`` lets egress switches announce the true hop count so
    the translator can emit before the counter reaches B (Section 3.2).
    """

    key: bytes
    hop: int
    value: int
    path_length: int = 0   # 0 = unknown
    redundancy: int = 1

    # Redundancy is any byte here (0 means one copy); only
    # ``ReportBatch.postcards`` narrows it — see
    # ``primitives.POSTCARDING.batch_accept``.
    WIRE = SubHeader("Postcarding", Field("redundancy", "B"),
                     Field("key_len", "B", sizes="key"),
                     Field("hop", "B", (0, 31)),
                     Field("path_length", "B"),
                     Field("value", "I", (0, 0xFFFFFFFF)), tails=(_KEY,))


@dataclass(frozen=True)
class Append(_Operation):
    """Append: push ``data`` onto list ``list_id`` at the collector."""

    list_id: int
    data: bytes

    WIRE = SubHeader("Append", Field("list_id", "H", (0, 0xFFFF)),
                     Field("data_len", "H", sizes="data"),
                     tails=(Tail("data", (1, MAX_DATA_BYTES)),))


@dataclass(frozen=True)
class SketchColumn(_Operation):
    """Sketch-Merge: one column of a reporter's sketch.

    Columns must arrive in order per reporter (Section 4.2); the
    ``column`` index lets the translator enforce that and NACK gaps.
    """

    sketch_id: int
    column: int
    counters: tuple

    WIRE = SubHeader("Sketch-Merge", Field("sketch_id", "H", (0, 0xFFFF)),
                     Field("column", "H", (0, 0xFFFF)),
                     Field("depth", "B", sizes="counters"),
                     tails=(Tail("counters", (1, 255), item=4),))


@dataclass(frozen=True)
class Nack(_Operation):
    """Translator -> reporter: essential reports were lost; re-send.

    Carries the first missing sequence number and how many are missing
    (Figure 5's retransmission request).
    """

    expected_seq: int
    missing: int = 1

    WIRE = SubHeader("NACK", Field("expected_seq", "I"),
                     Field("missing", "I"))


@dataclass(frozen=True)
class CongestionSignal(_Operation):
    """Translator -> reporter: reduce telemetry generation rate.

    ``level`` grades the backpressure (1 = shed low priority,
    2 = essential only, 3 = stop); Section 3.3 leaves the reporter's
    shedding policy open, so the signal just carries severity.
    """

    level: int = 1

    WIRE = SubHeader("congestion signal", Field("level", "B"))


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
