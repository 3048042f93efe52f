"""``handle_report`` x N == ``process_batch`` x 1, for all five primitives.

The per-report entry point feeds one-row column sets through the same
scalar lanes ``process_batch`` runs over N rows, so the two must agree
on collector memory and on the whole obs snapshot — including when the
reports carry the immediate flag, whose first-WRITE -> WRITE_WITH_IMM
conversion (and Append's flush-on-immediate) only the per-report entry
point performs; ``process_batch`` routes such a batch through it.
"""

from __future__ import annotations

import random
import struct

from repro.core.batch import ReportBatch
from tests import conformance

N = 40
HOPS = 5
SKETCH_WIDTH = 32


def _batches() -> list:
    rng = random.Random(13)
    keys = [struct.pack(">I", rng.getrandbits(32)) for _ in range(N)]
    datas = [struct.pack(">Q", rng.getrandbits(63)) for _ in range(N)]
    flows = [struct.pack(">I", i // HOPS) for i in range(N)]
    hops = [i % HOPS for i in range(N)]
    values = [rng.randrange(64) for _ in range(N)]
    lists = [i % 3 for i in range(N)]
    plain = [
        ReportBatch.key_writes(keys, datas, redundancy=2),
        ReportBatch.key_increments(keys, values, redundancy=3),
        ReportBatch.postcards(flows, hops, values,
                              path_lengths=[HOPS] * N),
        ReportBatch.appends(lists, datas),
        ReportBatch.sketch_columns(
            0, list(range(SKETCH_WIDTH)),
            [(i, i + 1, i + 2, i + 3) for i in range(SKETCH_WIDTH)]),
    ]
    immediate = [
        ReportBatch.key_writes(keys[:7], datas[:7], redundancy=2,
                               immediate=True),
        ReportBatch.postcards(flows[:2 * HOPS], hops[:2 * HOPS],
                              values[:2 * HOPS],
                              path_lengths=[HOPS] * (2 * HOPS),
                              immediate=True),
        # Seven entries into batch-of-16 lists: without the
        # flush-on-immediate nothing would reach the store.
        ReportBatch.appends([0] * 7, datas[:7], immediate=True),
    ]
    batches = plain + immediate
    for batch in batches:
        batch.reporter_id = 4
    return batches


def test_per_report_equals_batched_including_immediates():
    got, immediate_writes = {}, {}
    for per_report in (True, False):
        def feed(translator, _reporter, per_report=per_report):
            for batch in _batches():
                if per_report:
                    for raw in batch.iter_raw():
                        translator.handle_report(raw)
                else:
                    translator.process_batch(batch)
            # Before the end-of-stream flush the rig runs.
            immediate_writes[per_report] = translator.stats.immediate_writes

        got[per_report], _refs = conformance.direct(
            feed, vectorized=False, sketch_width=SKETCH_WIDTH)
    assert got[True]["store"] == got[False]["store"]
    assert got[True]["obs"] == got[False]["obs"]
    # The immediates really converted: 7 Key-Writes, 2 completed
    # postcard chunks, 7 flushed Appends — one WRITE_WITH_IMM each.
    assert immediate_writes[True] == immediate_writes[False] == 7 + 2 + 7
