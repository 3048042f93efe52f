"""Property tests for the DTA wire codecs.

Hypothesis-driven round-trip and rejection properties over every
report type (the five primitives plus the NACK and congestion control
messages).  The suite runs under the ``repro-ci`` profile registered in
``tests/conftest.py`` — ``deadline=None`` (whole-codec examples on a
loaded CI box blow the default 200ms deadline for reasons unrelated to
the code) and ``derandomize=True`` (a red run reproduces exactly).

Rejection properties pin the three malformation classes the decoder
must catch: truncation at *every* byte boundary, a bad version nibble,
and an unknown primitive code.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import packets
from repro.core.batch import ReportBatch
from repro.core.packets import (
    BASE_HEADER_BYTES,
    DTA_VERSION,
    Append,
    DtaFlags,
    KeyWrite,
    PacketDecodeError,
)
from repro.core.primitives import REGISTRY
from tests import registry_cases

keys = st.binary(min_size=1, max_size=packets.MAX_KEY_BYTES)
datas = st.binary(max_size=packets.MAX_DATA_BYTES)
redundancies = st.integers(min_value=1, max_value=16)
u16 = st.integers(min_value=0, max_value=0xFFFF)
u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)

# Every report type, each field drawn from its wire table's accept set
# (tests/registry_cases.py): nothing here names a primitive.
operations = st.one_of(*map(registry_cases.operations,
                            registry_cases.OPERATIONS))

flag_values = st.sampled_from([
    DtaFlags.NONE, DtaFlags.ESSENTIAL, DtaFlags.IMMEDIATE,
    DtaFlags.ESSENTIAL | DtaFlags.IMMEDIATE,
    DtaFlags.ESSENTIAL | DtaFlags.RETRANSMIT,
])


@settings(max_examples=120)
@given(operation=operations, reporter_id=u16, seq=u32, flags=flag_values)
def test_round_trip_every_report_type(operation, reporter_id, seq, flags):
    raw = packets.make_report(operation, reporter_id=reporter_id,
                              seq=seq, flags=flags)
    header, decoded = packets.decode_report(raw)
    assert decoded == operation
    assert header.reporter_id == reporter_id
    assert header.seq == seq
    assert header.flags == flags
    assert type(decoded) is type(operation)


@settings(max_examples=80)
@given(operation=operations)
def test_every_strict_prefix_is_rejected(operation):
    """Reports carry exact sizes: any truncation must raise, never
    silently decode a shorter record."""
    raw = packets.make_report(operation)
    for cut in range(len(raw)):
        with pytest.raises(PacketDecodeError):
            packets.decode_report(raw[:cut])


@settings(max_examples=60)
@given(operation=operations,
       version=st.integers(min_value=0, max_value=15).filter(
           lambda v: v != DTA_VERSION))
def test_bad_version_nibble_is_rejected(operation, version):
    raw = bytearray(packets.make_report(operation))
    raw[0] = (version << 4) | (raw[0] & 0xF)
    with pytest.raises(PacketDecodeError):
        packets.decode_report(bytes(raw))


@settings(max_examples=60)
@given(operation=operations,
       code=st.sampled_from([0, 6, 7, 8, 9, 10, 11, 12, 13]))
def test_unknown_primitive_code_is_rejected(operation, code):
    raw = bytearray(packets.make_report(operation))
    raw[0] = (DTA_VERSION << 4) | code
    with pytest.raises(PacketDecodeError):
        packets.decode_report(bytes(raw))


@settings(max_examples=50)
@given(pairs=st.lists(st.tuples(keys, datas), min_size=1, max_size=16),
       redundancy=redundancies)
def test_batch_iter_raw_matches_per_report_encoding(pairs, redundancy):
    """``ReportBatch.iter_raw`` is byte-identical to ``make_report`` on
    the equivalent per-report operations — the property the batched
    and per-report lanes' digest agreement ultimately rests on."""
    batch = ReportBatch.key_writes([k for k, _ in pairs],
                                   [d for _, d in pairs],
                                   redundancy=redundancy)
    expected = [packets.make_report(
        KeyWrite(key=k, data=d, redundancy=redundancy))
        for k, d in pairs]
    assert list(batch.iter_raw()) == expected


@settings(max_examples=50)
@given(entries=st.lists(st.tuples(u16, st.binary(min_size=1, max_size=64)),
                        min_size=1, max_size=16))
def test_append_batch_iter_raw_matches_per_report_encoding(entries):
    batch = ReportBatch.appends([i for i, _ in entries],
                                [d for _, d in entries])
    expected = [packets.make_report(Append(list_id=i, data=d))
                for i, d in entries]
    assert list(batch.iter_raw()) == expected


@pytest.mark.parametrize("primitive", REGISTRY,
                         ids=registry_cases.PRIMITIVE_IDS)
def test_iter_raw_matches_make_report_for_every_primitive(primitive):
    """The same property for every registry row, at both ends of every
    field's range — for a batch built by the validating constructor
    and for one whose columns were filled in directly."""
    import random
    rng = random.Random(primitive.service)
    ops = registry_cases.boundaries(primitive.op) + [
        registry_cases.sample(primitive.op, rng) for _ in range(30)]
    runs: dict = {}
    for op in ops:      # a batch shares its run-wide extra
        runs.setdefault(primitive.extra_of(op), []).append(op)
    for extra, run in runs.items():
        expected = [packets.make_report(op, reporter_id=3) for op in run]
        direct = registry_cases.batch_of(primitive, run)
        direct.reporter_id = 3
        assert list(direct.iter_raw()) == expected
        assert len(direct) == len(run)
        assert direct.wire_bytes() == sum(42 + len(raw) for raw in expected)
        if primitive.extra in primitive.batch_accept and not (
                primitive.batch_accept[primitive.extra][0] <= extra
                <= primitive.batch_accept[primitive.extra][1]):
            with pytest.raises(ValueError, match=primitive.extra):
                ReportBatch.from_columns(
                    primitive, primitive.columns_of(direct), extra)
            continue
        built = ReportBatch.from_columns(
            primitive, primitive.columns_of(direct), extra)
        built.reporter_id = 3
        assert list(built.iter_raw()) == expected
        assert built.wire_bytes() == direct.wire_bytes()


def _every_batch_kind(rng):
    keys = [rng.randbytes(rng.randrange(1, 17)) for _ in range(9)]
    datas = [rng.randbytes(rng.randrange(1, 33)) for _ in range(9)]
    yield ReportBatch.key_writes(keys, datas, redundancy=3)
    yield ReportBatch.key_writes(keys, [b"four"] * 9)      # equal widths
    yield ReportBatch.key_increments(keys, list(range(9)))
    yield ReportBatch.postcards(keys, [i % 5 for i in range(9)],
                                list(range(9)), path_lengths=[5] * 9)
    yield ReportBatch.appends([i % 3 for i in range(9)], datas)
    yield ReportBatch.sketch_columns(
        2, list(range(9)), [(1,) * rng.randrange(1, 9) for _ in range(9)])


def test_batch_wire_bytes_is_the_sum_over_its_reports():
    """``wire_bytes`` reads the totals the constructors summed while
    validating; a batch whose columns were filled in directly (the
    socket lane's) is summed on the spot.  Both equal framing + the
    encoded length of every report."""
    import random
    for batch in _every_batch_kind(random.Random(4)):
        expected = sum(42 + len(raw) for raw in batch.iter_raw())
        assert batch.wire_bytes() == expected
        bare = ReportBatch(batch.primitive, redundancy=batch.redundancy)
        for column in ("keys", "datas", "values", "hops", "path_lengths",
                       "list_ids", "columns", "counter_rows"):
            setattr(bare, column, getattr(batch, column))
        bare.sketch_id = batch.sketch_id
        assert bare.wire_bytes() == expected


def test_header_length_constant_matches_format():
    assert BASE_HEADER_BYTES == 8
    header = packets.DtaHeader(primitive=packets.DtaPrimitive.KEY_WRITE)
    assert len(header.pack()) == BASE_HEADER_BYTES
