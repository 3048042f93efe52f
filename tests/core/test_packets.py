"""DTA wire protocol: round-trips, validation, malformed input."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import packets
from repro.core.packets import (
    Append,
    CongestionSignal,
    DtaFlags,
    DtaHeader,
    DtaPrimitive,
    KeyIncrement,
    KeyWrite,
    Nack,
    PacketDecodeError,
    Postcard,
    SketchColumn,
    decode_report,
    encode_report,
    make_report,
)
from tests import registry_cases


class TestHeader:
    def test_roundtrip(self):
        header = DtaHeader(primitive=DtaPrimitive.KEY_WRITE,
                           flags=DtaFlags.ESSENTIAL, reporter_id=77,
                           seq=123456)
        assert DtaHeader.unpack(header.pack()) == header

    def test_essential_property(self):
        assert DtaHeader(DtaPrimitive.APPEND,
                         flags=DtaFlags.ESSENTIAL).essential
        assert not DtaHeader(DtaPrimitive.APPEND).essential

    def test_truncated_rejected(self):
        with pytest.raises(PacketDecodeError):
            DtaHeader.unpack(b"\x11")

    def test_bad_version_rejected(self):
        raw = bytearray(DtaHeader(DtaPrimitive.APPEND).pack())
        raw[0] = (9 << 4) | 2
        with pytest.raises(PacketDecodeError):
            DtaHeader.unpack(bytes(raw))

    def test_unknown_primitive_rejected(self):
        raw = bytearray(DtaHeader(DtaPrimitive.APPEND).pack())
        raw[0] = (packets.DTA_VERSION << 4) | 0xC
        with pytest.raises(PacketDecodeError):
            DtaHeader.unpack(bytes(raw))

    def test_seq_wraps_32_bits(self):
        header = DtaHeader(DtaPrimitive.APPEND, seq=(1 << 32) + 5)
        assert DtaHeader.unpack(header.pack()).seq == 5


class TestSubheaders:
    """The named cases below pin one hand-picked example each; the two
    parametrised ones walk every operation's wire field table
    (``tests/registry_cases.py``), so a field added to a table is
    round-tripped at both ends of its range, and rejected just outside
    them, without a new test."""

    @pytest.mark.parametrize("op_class", registry_cases.OPERATIONS,
                             ids=lambda op: op.__name__)
    def test_every_field_roundtrips_at_its_bounds(self, op_class):
        rng = random.Random(op_class.__name__)
        for op in registry_cases.boundaries(op_class) \
                + [registry_cases.sample(op_class, rng) for _ in range(20)]:
            header, decoded = decode_report(make_report(op, reporter_id=7))
            assert decoded == op and type(decoded) is op_class
            assert header.primitive == packets._PRIMITIVE_OF[op_class]
            assert len(op.pack()) == op_class.WIRE.size + sum(
                len(getattr(op, tail.name)) * tail.item
                for tail in op_class.WIRE.tails)

    @pytest.mark.parametrize("op_class", registry_cases.OPERATIONS,
                             ids=lambda op: op.__name__)
    def test_every_range_is_enforced_just_outside(self, op_class):
        for name, kwargs in registry_cases.out_of_range(op_class):
            with pytest.raises(ValueError, match=name):
                op_class(**kwargs)
            # ... and the same bytes, put on the wire anyway, are
            # rejected by the decoder.
            raw = make_report(registry_cases.unchecked(op_class, **kwargs))
            with pytest.raises((ValueError, PacketDecodeError)):
                decode_report(raw)

    def test_keywrite_roundtrip(self):
        op = KeyWrite(key=b"5-tuple-bytes", data=b"\x01\x02\x03\x04",
                      redundancy=3)
        raw = make_report(op, reporter_id=5, seq=9,
                          flags=DtaFlags.ESSENTIAL)
        header, decoded = decode_report(raw)
        assert header.primitive == DtaPrimitive.KEY_WRITE
        assert header.reporter_id == 5
        assert decoded == op

    def test_keywrite_validation(self):
        with pytest.raises(ValueError):
            KeyWrite(key=b"", data=b"x")
        with pytest.raises(ValueError):
            KeyWrite(key=b"k", data=b"x", redundancy=0)
        with pytest.raises(ValueError):
            KeyWrite(key=b"k" * 65, data=b"x")

    def test_keyincrement_roundtrip_negative_value(self):
        op = KeyIncrement(key=b"counter", value=-12, redundancy=2)
        _, decoded = decode_report(make_report(op))
        assert decoded.value == -12

    def test_postcard_roundtrip(self):
        op = Postcard(key=b"flowX", hop=3, value=0xDEADBEEF,
                      path_length=5, redundancy=2)
        _, decoded = decode_report(make_report(op))
        assert decoded == op

    def test_postcard_validation(self):
        with pytest.raises(ValueError):
            Postcard(key=b"f", hop=40, value=1)
        with pytest.raises(ValueError):
            Postcard(key=b"f", hop=0, value=1 << 32)

    def test_append_roundtrip(self):
        op = Append(list_id=200, data=b"event-record")
        _, decoded = decode_report(make_report(op))
        assert decoded == op

    def test_append_validation(self):
        with pytest.raises(ValueError):
            Append(list_id=1 << 16, data=b"x")
        with pytest.raises(ValueError):
            Append(list_id=0, data=b"")

    def test_sketch_column_roundtrip(self):
        op = SketchColumn(sketch_id=1, column=7,
                          counters=(1, 2, 3, 0xFFFFFFFF))
        _, decoded = decode_report(make_report(op))
        assert decoded == op

    def test_sketch_column_validation(self):
        with pytest.raises(ValueError):
            SketchColumn(sketch_id=0, column=0, counters=())

    def test_nack_roundtrip(self):
        op = Nack(expected_seq=44, missing=3)
        _, decoded = decode_report(make_report(op, reporter_id=9))
        assert decoded == op

    def test_congestion_roundtrip(self):
        op = CongestionSignal(level=2)
        _, decoded = decode_report(make_report(op))
        assert decoded == op


class TestEncodeDispatch:
    def test_mismatched_operation_rejected(self):
        header = DtaHeader(primitive=DtaPrimitive.APPEND)
        with pytest.raises(ValueError):
            encode_report(header, KeyWrite(key=b"k", data=b"d"))

    def test_truncated_body_rejected(self):
        raw = make_report(KeyWrite(key=b"key", data=b"data!"))
        with pytest.raises(PacketDecodeError):
            decode_report(raw[:-3])

    def test_wire_bytes_includes_all_headers(self):
        op = Append(list_id=0, data=b"\x00" * 4)
        size = packets.report_wire_bytes(op)
        # Eth(14)+IP(20)+UDP(8)+DTA(8)+sub(4)+data(4)
        assert size == 14 + 20 + 8 + 8 + 4 + 4

    @given(key=st.binary(min_size=1, max_size=64),
           data=st.binary(min_size=0, max_size=64),
           redundancy=st.integers(1, 16),
           reporter=st.integers(0, 65535), seq=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_keywrite_roundtrip_property(self, key, data, redundancy,
                                         reporter, seq):
        op = KeyWrite(key=key, data=data, redundancy=redundancy)
        header, decoded = decode_report(
            make_report(op, reporter_id=reporter, seq=seq))
        assert decoded == op
        assert header.reporter_id == reporter
        assert header.seq == seq

    @given(list_id=st.integers(0, 65535),
           data=st.binary(min_size=1, max_size=256))
    @settings(max_examples=100, deadline=None)
    def test_append_roundtrip_property(self, list_id, data):
        op = Append(list_id=list_id, data=data)
        _, decoded = decode_report(make_report(op))
        assert decoded == op


class TestWireBytesHotPath:
    """``report_wire_bytes`` hoists its import and header sum to module
    scope — the translator calls it per report, so re-importing
    ``repro.calibration`` on every call was measurable overhead."""

    def test_header_sum_hoisted_to_module_level(self):
        from repro import calibration

        assert packets._WIRE_HEADER_BYTES == (
            calibration.ETH_HDR_BYTES + calibration.IPV4_HDR_BYTES
            + calibration.UDP_HDR_BYTES + packets.BASE_HEADER_BYTES)

    def test_hoisted_path_not_slower_than_reimporting(self, monkeypatch):
        """What made the old path slow was an import per call; the
        hoisted path performs none.  Counted through ``__import__``,
        not timed: no test asserts a speed."""
        import builtins

        def reimporting(operation):
            # The shape of the old hot path: import + sum per call.
            from repro import calibration

            return (calibration.ETH_HDR_BYTES
                    + calibration.IPV4_HDR_BYTES
                    + calibration.UDP_HDR_BYTES
                    + packets.BASE_HEADER_BYTES
                    + len(operation.pack()))

        op = KeyWrite(key=b"key!", data=b"\x00" * 16)
        assert packets.report_wire_bytes(op) == reimporting(op)
        imports = []
        real_import = builtins.__import__

        def counting_import(name, *args, **kwargs):
            imports.append(name)
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", counting_import)
        counted = {}
        for path in (reimporting, packets.report_wire_bytes):
            imports.clear()
            for _ in range(100):
                path(op)
            counted[path.__name__] = len(imports)
        monkeypatch.undo()
        # The probe sees the old shape's import on every call.
        assert counted == {"reimporting": 100, "report_wire_bytes": 0}
