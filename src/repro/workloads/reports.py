"""The one seeded DTA report workload, and the stores it is sized for.

The paper evaluates every primitive with one traffic source —
TRex-generated DTA reports (§7) — against one collector set-up.  This
module is that set-up for the reproduction: the gating commands
(``repro serve`` / ``query``) and every differential test draw their
reports from :func:`columns` and land them in stores provisioned by
:func:`provision_collector`.

One seeded stream, three views:

* :func:`columns` — struct-of-arrays, one list per field;
* :func:`batch` — a slice of the columns as a
  :class:`~repro.core.batch.ReportBatch`;
* :func:`wire` — the whole stream as DTA wire bytes
  (``ReportBatch.iter_raw``, byte-identical to
  :func:`repro.core.packets.make_report`).

:func:`emit` is the per-report twin of :func:`batch`: the same columns
through ``Reporter.key_write()`` and friends, one report per call.

Recorded digests depend on the exact RNG draws of :func:`columns` and
on the store geometry below; ``tests/workloads/test_reports.py`` pins
both.
"""

from __future__ import annotations

import random
import struct

from repro.core.batch import ReportBatch
from repro.core.collector import Collector
from repro.core.primitives import (APPEND, BY_SERVICE, KEY_INCREMENT,
                                   KEY_WRITE, POSTCARDING, SKETCH_MERGE)

PRIMITIVES = tuple(BY_SERVICE)

# Store geometry — sized so quick (2 k) and full (200 k) streams both
# fit without ring wrap-around dominating a run (served as
# :func:`serve_params`).
KW_SLOTS = 1 << 16
KW_DATA_BYTES = 16
KI_SLOTS_PER_ROW = 1 << 12
KI_ROWS = 4
PC_CHUNKS = 1 << 14
PC_HOPS = 5
PC_VALUES = range(256)
AP_LISTS = 4
AP_CAPACITY = 1 << 15
AP_DATA_BYTES = 16
AP_BATCH = 16
SM_DEPTH = 4
SM_BATCH_COLUMNS = 16

#: The run-wide field every report of a stream carries: redundancy N
#: for the keyed primitives, the sketch id for Sketch-Merge.
EXTRA = {"key_write": 2, "key_increment": 2, "postcarding": 1,
         "sketch_merge": 0}


def columns(primitive: str, reports: int, seed: int) -> dict:
    """Seeded struct-of-arrays columns for one primitive.

    Not prefix-stable across ``reports`` (the RNG is drained column by
    column): take a prefix by slicing one generated workload, never by
    generating a smaller one.
    """
    rng = random.Random(seed)
    if primitive == "key_write":
        return {
            "keys": [struct.pack(">I", rng.getrandbits(32))
                     for _ in range(reports)],
            "datas": [struct.pack(">QQ", i, rng.getrandbits(63))
                      for i in range(reports)],
        }
    if primitive == "key_increment":
        return {
            "keys": [struct.pack(">I", rng.getrandbits(32))
                     for _ in range(reports)],
            "values": [rng.randrange(1, 100) for _ in range(reports)],
        }
    if primitive == "postcarding":
        flows = max(1, reports // PC_HOPS)
        keys = []
        hops = []
        values = []
        for i in range(reports):
            keys.append(struct.pack(">I", (i // PC_HOPS) % flows))
            hops.append(i % PC_HOPS)
            values.append(rng.choice(PC_VALUES))
        return {"keys": keys, "hops": hops, "values": values,
                "path_lengths": [PC_HOPS] * reports}
    if primitive == "append":
        return {
            "list_ids": [i % AP_LISTS for i in range(reports)],
            "datas": [struct.pack(">QQ", i, rng.getrandbits(63))
                      for i in range(reports)],
        }
    if primitive == "sketch_merge":
        return {
            "columns": list(range(reports)),
            "counter_rows": [tuple(rng.getrandbits(31)
                                   for _ in range(SM_DEPTH))
                             for _ in range(reports)],
        }
    raise ValueError(f"unknown workload primitive '{primitive}'")


def size(work: dict) -> int:
    """Reports in a column set."""
    return len(next(iter(work.values())))


def sketch_width(primitive: str, reports: int) -> int:
    """Sketch columns to provision: one per report of a Sketch-Merge
    stream (it sweeps columns ``0..reports-1`` in order), else none."""
    return reports if primitive == "sketch_merge" else 0


def _primitive(name: str):
    try:
        return BY_SERVICE[name]
    except KeyError:
        raise ValueError(f"unknown workload primitive '{name}'") from None


def batch(primitive: str, work: dict, start: int, stop: int) -> ReportBatch:
    """Rows ``start:stop`` of the columns as one batch."""
    spec = _primitive(primitive)
    return ReportBatch.from_columns(
        spec, [work[column][start:stop] for column in spec.columns],
        EXTRA.get(primitive))


def emit(reporter, primitive: str, work: dict) -> None:
    """The columns through ``reporter``, one report per call."""
    spec = _primitive(primitive)
    send = getattr(reporter, spec.reporter)
    extra = {spec.extra: EXTRA[primitive]} if spec.extra else {}
    for row in zip(*(work[column] for column in spec.columns)):
        send(**dict(zip(spec.fields, row)), **extra)


def wire(primitive: str, reports: int, seed: int) -> list:
    """The seeded stream as DTA wire bytes, one report per element.

    Stamped with reporter id 1 (what every harness reporter uses) and
    non-essential by construction: a differential gate over these
    bytes must not depend on NACK retransmission timing.
    """
    work = columns(primitive, reports, seed)
    whole = batch(primitive, work, 0, reports)
    whole.reporter_id = 1
    return list(whole.iter_raw())


def serve_params(sketch_width: int = 0) -> dict:
    """``{primitive: Collector.serve_<store> keywords}`` for every
    primitive :func:`provision_collector` serves, in serve order — the
    table ``transport.daemons.segment_plan`` sizes its segments from."""
    params = {
        KEY_WRITE: {"slots": KW_SLOTS, "data_bytes": KW_DATA_BYTES},
        KEY_INCREMENT: {"slots_per_row": KI_SLOTS_PER_ROW, "rows": KI_ROWS},
        POSTCARDING: {"chunks": PC_CHUNKS, "value_set": PC_VALUES,
                      "hops": PC_HOPS},
        APPEND: {"lists": AP_LISTS, "capacity": AP_CAPACITY,
                 "data_bytes": AP_DATA_BYTES, "batch_size": AP_BATCH},
    }
    if sketch_width:
        params[SKETCH_MERGE] = {
            "width": sketch_width, "depth": SM_DEPTH,
            "expected_reporters": 1, "batch_columns": SM_BATCH_COLUMNS}
    return params


def provision_collector(name: str, *, sketch_width: int = 0,
                        buffers=None) -> Collector:
    """A collector serving every primitive at the workload's geometry.

    ``buffers`` (when given) must match
    :func:`repro.transport.daemons.segment_plan` — one writable buffer
    per store, consumed in serve order through the protection domain's
    ``buffer_factory`` seam.
    """
    collector = Collector(name)
    if buffers is not None:
        remaining = list(buffers)

        def factory(length: int):
            buf = remaining.pop(0)
            if len(buf) != length:
                raise ValueError(
                    f"segment/store size mismatch: {len(buf)} != {length}")
            return buf

        collector.nic.pd.buffer_factory = factory
    params = serve_params(sketch_width)
    collector.serve_keywrite(**params[KEY_WRITE])
    collector.serve_keyincrement(**params[KEY_INCREMENT])
    collector.serve_postcarding(**params[POSTCARDING])
    collector.serve_append(**params[APPEND])
    if sketch_width:
        collector.serve_sketch(**params[SKETCH_MERGE])
    collector.nic.pd.buffer_factory = None
    return collector
