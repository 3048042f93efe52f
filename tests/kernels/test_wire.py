"""Vectorized wire codecs vs the scalar decode path, differentially.

The contract under test (see ``kernels/wire.py``): feeding a
``KIND_FRAME`` payload through :meth:`ReportAssembler.feed_frames` must
be observably identical — per-shard batch stream, per-report
diversions, ``reports``/``malformed``/``per_report``/``batches``
counters — to feeding each sub-frame through the scalar
:meth:`ReportAssembler.feed`, for *any* frame bytes: valid reports,
truncated headers and bodies, out-of-range fields, junk, and
control-plane flags, in arbitrary interleavings.
"""

from __future__ import annotations

import dataclasses
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")

from repro import obs
from repro.core import packets
from repro.core.cluster import ClusterMap
from repro.core.collector import Collector
from repro.core.primitives import REGISTRY
from repro.core.translator import Translator
from repro.kernels import MIN_VECTOR_BATCH, wire
from repro.runtime import pipeline_digest, store_digest
from repro.transport.assembler import ReportAssembler
from repro.transport.envelope import unwrap, unwrap_frame, wrap_frame
from tests import registry_cases


class Sink:
    """Translator stand-in recording exactly what the assembler emits."""

    def __init__(self):
        self.events = []

    def process_batch(self, batch):
        self.events.append((
            "batch", batch.primitive, batch.reporter_id, batch.redundancy,
            batch.sketch_id, list(batch.keys), list(batch.datas),
            list(batch.values), list(batch.hops), list(batch.path_lengths),
            list(batch.list_ids), list(batch.columns),
            list(batch.counter_rows)))

    def handle_report(self, raw):
        self.events.append(("report", bytes(raw)))

    def flush_appends(self):
        self.events.append(("flush",))

    check = plan_columns = staticmethod(lambda *args: None)


def _assembler(collectors, batch_size):
    sinks = [Sink() for _ in range(collectors)]
    return sinks, ReportAssembler(sinks, ClusterMap(collectors=collectors),
                                  batch_size=batch_size)


def _frame_payload(reports):
    _seq, _kind, payload = unwrap(wrap_frame(0, reports))
    return payload


def _counters(asm):
    return (asm.reports, asm.malformed, asm.per_report, asm.batches)


def run_both(frames, collectors=3, batch_size=5, burst=False):
    """Feed frames through both paths; assert identical observables.

    The vector path takes each frame as a burst of its own, or with
    ``burst`` all of them as one."""
    scalar_sinks, scalar_asm = _assembler(collectors, batch_size)
    vector_sinks, vector_asm = _assembler(collectors, batch_size)
    for reports in frames:
        for raw in reports:
            scalar_asm.feed(raw)
        if not burst:
            vector_asm.feed_frames((_frame_payload(reports),))
    if burst:
        vector_asm.feed_frames([_frame_payload(reports)
                                for reports in frames])
    scalar_asm.finish()
    vector_asm.finish()
    assert _counters(vector_asm) == _counters(scalar_asm)
    for shard, (s, v) in enumerate(zip(scalar_sinks, vector_sinks)):
        assert v.events == s.events, f"shard {shard} diverged"
    return scalar_asm


# ----------------------------------------------------------------------
# Corpus generation: valid reports via the real codec, malformed ones
# hand-packed so every reject branch of the scalar decoder is hit.
# ----------------------------------------------------------------------


def _base(prim, flags=0, rid=1, seq=0, version=packets.DTA_VERSION):
    return struct.pack(">BBHI", (version << 4) | prim, flags, rid, seq)


def _valid_report(rng):
    rid = rng.randrange(1, 4)
    flags = rng.choice([packets.DtaFlags.NONE] * 6 + [
        packets.DtaFlags.ESSENTIAL, packets.DtaFlags.IMMEDIATE,
        packets.DtaFlags.RETRANSMIT])
    # Any primitive of the registry, every field from its accept set;
    # the run-wide extra is drawn from three values so runs coalesce.
    primitive = rng.choice(REGISTRY)
    op = registry_cases.sample(primitive.op, rng)
    if primitive.extra:
        op = dataclasses.replace(op, **{primitive.extra: rng.choice(
            [getattr(registry_cases.boundaries(primitive.op)[0],
                     primitive.extra) + i for i in (0, 1, 1)])})
    raw = packets.make_report(op, reporter_id=rid,
                              seq=rng.randrange(1000), flags=flags)
    if rng.random() < 0.1:
        raw += bytes(rng.randrange(256)
                     for _ in range(rng.randrange(1, 5)))   # trailing junk
    return raw


_MALFORMED_MAKERS = [
    # Version nibble 0 / 2.
    lambda rng: _base(1, version=0) + struct.pack(">BBH", 2, 2, 0) + b"ab",
    lambda rng: _base(1, version=2) + struct.pack(">BBH", 2, 2, 0) + b"ab",
    # Unknown primitive code, NACK and CONGESTION on the report socket.
    lambda rng: _base(7) + b"\x00" * 8,
    lambda rng: _base(int(packets.DtaPrimitive.NACK)) + b"\x00" * 12,
    lambda rng: _base(int(packets.DtaPrimitive.CONGESTION)) + b"\x07",
    # Truncated base header / empty.
    lambda rng: b"",
    lambda rng: _base(1)[: rng.randrange(1, 8)],
    # Key-Write: zero key, oversize key claim, redundancy 0 and 17,
    # truncated body.
    lambda rng: _base(1) + struct.pack(">BBH", 2, 0, 2) + b"xy",
    lambda rng: _base(1) + struct.pack(">BBH", 2, 65, 0) + b"k" * 65,
    lambda rng: _base(1) + struct.pack(">BBH", 0, 2, 0) + b"ab",
    lambda rng: _base(1) + struct.pack(">BBH", 17, 2, 0) + b"ab",
    lambda rng: _base(1) + struct.pack(">BBH", 2, 8, 8) + b"short",
    # Key-Increment: truncated key, redundancy 0.
    lambda rng: _base(5) + struct.pack(">BBq", 2, 9, 1) + b"12345",
    lambda rng: _base(5) + struct.pack(">BBq", 0, 2, 1) + b"ab",
    # Postcarding: hop out of range, truncated key.
    lambda rng: _base(3) + struct.pack(">BBBBI", 1, 2, 32, 0, 1) + b"ab",
    lambda rng: _base(3) + struct.pack(">BBBBI", 1, 6, 1, 0, 1) + b"ab",
    # Append: empty data, truncated data.
    lambda rng: _base(2) + struct.pack(">HH", 1, 0),
    lambda rng: _base(2) + struct.pack(">HH", 1, 9) + b"abc",
    # Sketch-Merge: zero depth, truncated counters.
    lambda rng: _base(4) + struct.pack(">HHB", 0, 0, 0),
    lambda rng: _base(4) + struct.pack(">HHB", 0, 0, 3) + b"\x00" * 7,
    # Pure noise.
    lambda rng: bytes(rng.randrange(256)
                      for _ in range(rng.randrange(1, 40))),
]


def _corpus(rng, n):
    out = []
    for _ in range(n):
        if rng.random() < 0.25:
            out.append(rng.choice(_MALFORMED_MAKERS)(rng))
        else:
            out.append(_valid_report(rng))
    return out


def _frames(rng, reports):
    frames = []
    i = 0
    while i < len(reports):
        width = rng.randrange(MIN_VECTOR_BATCH, 40)
        frames.append(reports[i:i + width])
        i += width
    return frames


# ----------------------------------------------------------------------
# The differential itself
# ----------------------------------------------------------------------


class TestFrameDifferential:
    @pytest.mark.parametrize("seed", [1, 7, 23, 99])
    def test_fuzz_corpus_bit_exact(self, seed):
        rng = random.Random(seed)
        frames = _frames(rng, _corpus(rng, 600))
        asm = run_both(frames)
        assert asm.reports > 100          # corpus actually exercised
        assert asm.malformed > 20
        assert asm.per_report > 0

    def test_homogeneous_runs_chunk_like_scalar(self):
        reports = [packets.make_report(
            packets.KeyWrite(key=b"same-key", data=struct.pack(">I", i)),
            reporter_id=1) for i in range(64)]
        asm = run_both([reports], collectors=1, batch_size=16)
        assert asm.batches == 4           # exact batch_size chunks

    @pytest.mark.parametrize("seed", [5, 17])
    def test_small_frames_take_scalar_fallback(self, seed):
        rng = random.Random(seed)
        reports = _corpus(rng, 30)
        frames = [reports[i:i + MIN_VECTOR_BATCH - 1]
                  for i in range(0, len(reports), MIN_VECTOR_BATCH - 1)]
        run_both(frames)

    def test_empty_frame_is_a_noop(self):
        run_both([[]])

    @pytest.mark.parametrize("primitive", REGISTRY,
                             ids=registry_cases.PRIMITIVE_IDS)
    def test_accept_sets_over_the_registry(self, primitive):
        # Every field at both ends of its range (accepted), one step
        # outside (malformed), and every accepted report cut short at
        # each tail boundary (malformed) — the same verdicts and the
        # same batches from both decoders, read off the field table.
        good = registry_cases.boundaries(primitive.op)
        bad = [registry_cases.unchecked(primitive.op, **kwargs)
               for _name, kwargs in registry_cases.out_of_range(primitive.op)]
        raws = [packets.make_report(op, reporter_id=1) for op in good + bad]
        cut = [raw[:-1] for raw in raws[:len(good)]] \
            + [raw[:wire.BASE + primitive.wire.size - 1]
               for raw in raws[:len(good)]]
        frames = [raws, cut, (raws + cut)[::-1]]
        asm = run_both(frames, collectors=2, batch_size=4)
        assert asm.reports == 2 * len(good)
        assert asm.malformed == 2 * (len(bad) + len(cut))

    @pytest.mark.parametrize("burst", [False, True])
    def test_buffer_end_edges_and_mixed_key_lengths(self, burst):
        """Reads that run to the buffer's end: the last report ending
        exactly there with the burst's shortest key as its tail, a
        truncated last report, and a key matrix of mixed lengths."""
        def report(key, value=1):
            return packets.make_report(
                packets.KeyIncrement(key=key, value=value, redundancy=2),
                reporter_id=1)

        mixed = [report(bytes([i + 1]) * (1 + i * 7 % 13), i)
                 for i in range(24)]
        ends_short = mixed + [report(b"k")]
        truncated = mixed + [report(b"truncated")[:-1]]
        cut_header = mixed + [report(b"key")[:wire.BASE + 3]]
        frames = [ends_short, truncated, cut_header]
        asm = run_both(frames, collectors=3, batch_size=4, burst=burst)
        assert asm.reports == 3 * len(mixed) + 1
        assert asm.malformed == 2

    def test_postcard_redundancy_zero_is_accepted(self):
        # Postcard.__post_init__ validates key/hop/value but NOT
        # redundancy, so the scalar decoder accepts red=0 — the
        # vectorized mask must agree rather than reject it.
        raw = (_base(int(packets.DtaPrimitive.POSTCARDING))
               + struct.pack(">BBBBI", 0, 2, 1, 0, 5) + b"ab")
        frames = [[raw] * MIN_VECTOR_BATCH]
        asm = run_both(frames, collectors=1, batch_size=2)
        assert asm.reports == MIN_VECTOR_BATCH
        assert asm.malformed == 0


def _mutated(draw, primitive) -> bytes:
    """A report of ``primitive``: valid, or damaged in one of the ways
    the decoders must agree on (cut short, a byte overwritten, junk
    appended), or noise behind a well-formed first byte."""
    op = draw(registry_cases.operations(primitive.op))
    raw = bytearray(packets.make_report(
        op, reporter_id=draw(st.integers(0, 0xFFFF)),
        flags=draw(st.sampled_from(list(packets.DtaFlags)))))
    how = draw(st.sampled_from(["valid", "cut", "poke", "poke", "junk",
                                "noise"]))
    if how == "cut":
        del raw[draw(st.integers(0, len(raw) - 1)):]
    elif how == "poke":
        raw[draw(st.integers(1, len(raw) - 1))] = draw(st.integers(0, 255))
    elif how == "junk":
        raw += draw(st.binary(min_size=1, max_size=6))
    elif how == "noise":
        raw[1:] = draw(st.binary(max_size=40))
    return bytes(raw)


class TestDecodersAgreeOnAnyBytes:
    """``packets.decode_report`` and ``wire.decode`` read the same field
    table: on any bytes they accept or reject together, and where they
    accept they agree on every field and every tail."""

    @pytest.mark.parametrize("primitive", REGISTRY,
                             ids=registry_cases.PRIMITIVE_IDS)
    @settings(max_examples=60)
    @given(data=st.data())
    def test_same_verdict_and_same_fields(self, primitive, data):
        raws = [_mutated(data.draw, primitive)
                for _ in range(data.draw(st.integers(1, 6)))]
        joined = b"".join(raws)
        lengths = np.array([len(raw) for raw in raws], dtype=np.int64)
        offsets = np.cumsum(lengths) - lengths
        if not joined:
            return
        buf = np.frombuffer(joined, dtype=np.uint8)
        prims, flags, rids, valid = wire.parse_headers(buf, offsets, lengths)
        cols = wire.decode(primitive, buf, offsets, lengths)
        rows = np.arange(len(raws))
        columns = {name: wire.column(primitive, name, joined, buf, cols, rows)
                   for name in primitive.fields}
        for i, raw in enumerate(raws):
            try:
                header, op = packets.decode_report(raw)
            except (packets.PacketDecodeError, ValueError, KeyError):
                header = None
            accepted = bool(valid[i] and cols["valid"][i]
                            and prims[i] == primitive.code)
            assert accepted == (header is not None
                                and header.primitive == primitive.code), raw
            if not accepted:
                continue
            assert (int(flags[i]), int(rids[i])) == (int(header.flags),
                                                     header.reporter_id)
            for name in primitive.fields:
                assert columns[name][i] == getattr(op, name), (name, raw)
            if primitive.extra:
                assert int(cols[primitive.extra][i]) == getattr(
                    op, primitive.extra)


class TestFrameStructure:
    def test_truncated_frames_count_one_malformed_unit(self):
        reports = [_valid_report(random.Random(1)) for _ in range(6)]
        payload = _frame_payload(reports)
        for broken in (b"", b"\x00",                 # truncated count
                       b"\x00\x04\x00\x08",          # truncated table
                       payload[:-1]):                # truncated body
            with pytest.raises(ValueError):
                unwrap_frame(broken)
            assert wire.split_frame(broken) is None
            _sinks, asm = _assembler(2, 8)
            asm.feed_frames((broken,))
            assert (asm.reports, asm.malformed) == (0, 1)

    def test_split_frame_boundaries_match_scalar_unwrap(self):
        rng = random.Random(11)
        reports = _corpus(rng, 12)
        payload = _frame_payload(reports)
        buf, offsets, lengths = wire.split_frame(payload)
        rebuilt = [payload[o:o + n] for o, n in
                   zip(offsets.tolist(), lengths.tolist())]
        assert rebuilt == unwrap_frame(payload)
        assert rebuilt == reports

    def test_trailing_bytes_after_body_tolerated(self):
        reports = [_valid_report(random.Random(2)) for _ in range(5)]
        payload = _frame_payload(reports) + b"\xee" * 7
        assert unwrap_frame(payload) == reports
        _buf, offsets, lengths = wire.split_frame(payload)
        assert len(offsets) == len(reports)


    @pytest.mark.parametrize("seed", [3, 41])
    def test_burst_split_matches_per_frame_split(self, seed):
        """One pass over a burst == ``split_frame`` per payload, rebased
        — truncated frames included, each one malformed unit."""
        rng = random.Random(seed)
        payloads = [_frame_payload(frame)
                    for frame in _frames(rng, _corpus(rng, 300))]
        payloads[2] = payloads[2][:-1]              # truncated body
        payloads[5] = payloads[5][:3]               # truncated table
        payloads.insert(7, b"\x00")                 # truncated count
        payloads.insert(9, b"")
        payloads.append(_frame_payload([]))         # sound, no rows
        for burst in (payloads, payloads[:1], payloads[7:8], [b""], []):
            # Joined end to end, and spaced out in fixed slots the way
            # the receive ring holds them (stale bytes between).
            for slot in (None, 1 << 12):
                if slot is None:
                    data = b"".join(burst)
                    placed = np.cumsum([0] + [len(p) for p in burst])[:-1]
                else:
                    data = bytearray(b"\xee" * (slot * len(burst)))
                    placed = slot * np.arange(len(burst))
                    for at, payload in zip(placed.tolist(), burst):
                        data[at:at + len(payload)] = payload
                    data = bytes(data)
                starts = np.asarray(placed, dtype=np.int64)
                totals = np.array([len(p) for p in burst], dtype=np.int64)
                buf, offsets, lengths, truncated = \
                    wire.split_frames(data, starts, totals)
                assert buf.tobytes() == data
                want_off, want_len, bad = [], [], 0
                for payload, base in zip(burst, starts.tolist()):
                    parts = wire.split_frame(payload)
                    if parts is None:
                        bad += 1
                    else:
                        want_off.extend((parts[1] + base).tolist())
                        want_len.extend(parts[2].tolist())
                assert truncated == bad
                assert offsets.tolist() == want_off
                assert lengths.tolist() == want_len


# ----------------------------------------------------------------------
# Plan width is not observable: the daemon plans a Key-Write /
# Key-Increment segment at whatever width the receive burst delivered,
# so every width — including per-report ``feed``, whose runs are cut at
# ``batch_size`` — must leave the same stores and the same obs series.
# ----------------------------------------------------------------------

WIDTH_DATA_BYTES = 16


def _width_stream(primitive, seed):
    """``(frames, tail)``: a seeded plain stream with duplicate keys in
    every burst and one ESSENTIAL report in the middle, cut into
    frames of 2 to 40 reports; Key-Increment adds that wrap a counter;
    and, for
    Key-Write, a last frame whose run (own redundancy, so it never
    joins another) holds one report with data wider than the slot."""
    rng = random.Random(seed)
    pool = [rng.randbytes(rng.randrange(3, 9)) for _ in range(150)]

    def report(i, flags=packets.DtaFlags.NONE):
        key = rng.choice(pool)
        if primitive == "postcarding":
            # Five-hop flows, four in flight at a time over sixteen
            # cache rows: collisions, and now and then a repeated hop.
            flow = 4 * (i // 20) + i % 4
            op = packets.Postcard(
                key=struct.pack(">I", flow),
                hop=(i % 20) // 4 if i % 97 else 0,
                value=rng.randrange(64), path_length=5, redundancy=2)
        elif primitive == "append":
            op = packets.Append(
                list_id=rng.choice((0, 1, 1, 2, 3)),
                data=rng.randbytes(rng.randrange(1, WIDTH_DATA_BYTES + 1)))
        elif primitive == "sketch_merge":
            # One in-order sweep in which three columns arrive twice
            # (the repeat is NACKed, not merged): most runs are clean
            # and planned, a few go to the scalar lane for the NACK.
            repeats = (700, 1400, 2100)
            op = packets.SketchColumn(
                sketch_id=0,
                column=i - sum(at < i for at in repeats) - (i in repeats),
                counters=tuple(rng.getrandbits(31) for _ in range(4)))
        elif primitive == "key_write":
            op = packets.KeyWrite(
                key=key, data=rng.randbytes(rng.randrange(0, 17)),
                redundancy=2)
        elif i % 500 < 3:
            # Three of these in one frame carry a counter past 2**64.
            op = packets.KeyIncrement(key=pool[0], value=(1 << 63) - 1,
                                      redundancy=2)
        else:
            op = packets.KeyIncrement(
                key=key, value=rng.randrange(-2**40, 2**40), redundancy=2)
        return packets.make_report(op, reporter_id=1, seq=0, flags=flags)

    raws = [report(i) for i in range(3000)]
    raws[1500] = report(1500, packets.DtaFlags.ESSENTIAL)
    # Frames of 2 or 3 reports stay below the vector threshold at
    # narrow widths and leave a pending list run the next plan must
    # not overtake.
    frames, at = [], 0
    while at < len(raws):
        size = rng.choice((2, 3, 24, 24, 40))
        frames.append(raws[at:at + size])
        at += size
    tail = []
    if primitive == "key_write":
        tail = [packets.make_report(packets.KeyWrite(
            key=rng.choice(pool), redundancy=3,
            data=bytes(WIDTH_DATA_BYTES + 4 if i == 5 else 8)),
            reporter_id=1) for i in range(8)]
    return frames, tail


def _run_width(frames, tail, width, vectorized=True):
    """Feed the stream at one burst width (None: report by report)."""
    previous = obs.set_registry(obs.Registry())
    try:
        collectors, translators = [], []
        for shard in range(2):
            collector = Collector(f"width-c{shard}")
            collector.serve_keywrite(slots=256,
                                     data_bytes=WIDTH_DATA_BYTES)
            collector.serve_keyincrement(slots_per_row=64, rows=4)
            collector.serve_postcarding(chunks=128, value_set=range(64),
                                        cache_slots=16)
            collector.serve_append(lists=4, capacity=100,
                                   data_bytes=WIDTH_DATA_BYTES, batch_size=8)
            collector.serve_sketch(width=3000, depth=4,
                                   expected_reporters=1, batch_columns=16)
            translator = Translator(f"width-t{shard}",
                                    vectorized=vectorized)
            collector.connect_translator(translator)
            collectors.append(collector)
            translators.append(translator)
        asm = ReportAssembler(translators, ClusterMap(collectors=2),
                              batch_size=256)
        frames = frames + ([tail] if tail else [])
        if width is None:
            for frame in frames:
                for raw in frame:
                    asm.feed(raw)
        else:
            payloads = [_frame_payload(frame) for frame in frames]
            for i in range(0, len(payloads), width):
                asm.feed_frames(payloads[i:i + width])
        # The tail's oversize report is pending in a run of its own in
        # every lane; the flush drops it alone (``rejected``) and lands
        # the other seven.
        asm.finish()
        return {"stores": [store_digest(c) for c in collectors],
                "obs": pipeline_digest(obs.get_registry().snapshot()),
                "counts": (asm.reports, asm.malformed, asm.per_report,
                           asm.rejected),
                "batches": asm.batches}
    finally:
        obs.set_registry(previous)


class TestPlanWidthIndependence:
    @pytest.mark.parametrize("primitive", ["key_write", "key_increment"])
    def test_any_burst_width_leaves_the_same_stores_and_series(
            self, primitive):
        frames, tail = _width_stream(primitive, seed=12)
        per_report = _run_width(frames, tail, None)
        assert per_report["counts"] == (3000 + len(tail), 0, 1, bool(tail))
        scalar = _run_width(frames, tail, None, vectorized=False)
        widths = {w: _run_width(frames, tail, w) for w in (1, 3, 64, 256)}
        for lane in [scalar, *widths.values()]:
            assert lane["stores"] == per_report["stores"]
            assert lane["obs"] == per_report["obs"]
            assert lane["counts"] == per_report["counts"]
        # The widths really differed: a wide burst is a few plans.
        assert widths[256]["batches"] < widths[3]["batches"] \
            < widths[1]["batches"]
        assert widths[256]["batches"] < per_report["batches"]

    @pytest.mark.parametrize("primitive", ["postcarding", "append",
                                           "sketch_merge"])
    def test_stateful_plans_at_any_burst_width(self, primitive):
        # These reach the translator as batches cut from the pending
        # run, at whatever the burst and ``batch_size`` make of it; the
        # plans advance cache rows, pending lists and column cursors,
        # and must leave them where the per-report lane does.
        frames, tail = _width_stream(primitive, seed=13)
        per_report = _run_width(frames, tail, None)
        assert per_report["counts"] == (3000, 0, 1, 0)
        scalar = _run_width(frames, tail, None, vectorized=False)
        for lane in [scalar, *(_run_width(frames, tail, w)
                               for w in (1, 3, 64, 256))]:
            assert lane["stores"] == per_report["stores"]
            assert lane["obs"] == per_report["obs"]
            assert lane["counts"] == per_report["counts"]


class TestRoutingKernel:
    @pytest.mark.parametrize("collectors", [1, 2, 3, 7])
    def test_shards_match_cluster_map(self, collectors):
        rng = random.Random(31)
        keys = [bytes(rng.randrange(256)
                      for _ in range(rng.randrange(1, 17)))
                for _ in range(200)]
        cmap = ClusterMap(collectors=collectors)
        blob = b"".join(keys)
        offsets, lengths, pos = [], [], 0
        for key in keys:
            offsets.append(pos)
            lengths.append(len(key))
            pos += len(key)
        buf = np.frombuffer(blob, dtype=np.uint8)
        packed, lens = wire.pack_column(
            buf, np.array(offsets, dtype=np.int64),
            np.array(lengths, dtype=np.int64))
        got = wire.shards_for_keys(packed, lens, collectors).tolist()
        assert got == [cmap.for_key(key) for key in keys]

    def test_uniform_length_fast_path(self):
        keys = [struct.pack(">Q", i * 2654435761) for i in range(64)]
        cmap = ClusterMap(collectors=5)
        buf = np.frombuffer(b"".join(keys), dtype=np.uint8)
        offsets = np.arange(0, 8 * 64, 8, dtype=np.int64)
        lengths = np.full(64, 8, dtype=np.int64)
        packed, lens = wire.pack_column(buf, offsets, lengths)
        got = wire.shards_for_keys(packed, lens, 5).tolist()
        assert got == [cmap.for_key(key) for key in keys]
