"""Seeded inputs and deployment constants of the benchmark.

``perf/`` owns its generator and its store geometry: the private
helpers the older harnesses share (``bench._workload``,
``bench._deploy``, ``soak._make_batch``) are slated for removal, and a
benchmark that imports them would move with the code it measures.
Everything here is a pure function of ``(primitive, count, seed)``;
the program under test only ever sees the generated columns, batches
or wire bytes.
"""

from __future__ import annotations

import numpy as np

from repro.core.batch import ReportBatch
from repro.core.collector import Collector
from repro.core.reporter import Reporter
from repro.core.translator import Translator

# Store geometry of the in-process deployment.  Equal to the socket
# lane's daemon geometry (``repro.transport.daemons``) on purpose, so
# rates are comparable across lanes — but fixed here, so a change to
# the daemon defaults does not silently resize the in-process runs.
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
#: Sketch width of deployments whose workload streams no sketch
#: columns (the store is still served, so the catalog's sketch plan
#: and the five-region checkpoint run everywhere).
SM_IDLE_WIDTH = 1024

PRIMITIVES = ("key_write", "key_increment", "postcarding", "append",
              "sketch_merge")
REPORTER_ID = 1


def _rng(seed: int, primitive: str) -> np.random.Generator:
    return np.random.default_rng([seed, PRIMITIVES.index(primitive)])


def _chunks(buf: bytes, width: int) -> list:
    return [buf[i:i + width] for i in range(0, len(buf), width)]


def _keys(rng, n: int) -> list:
    raw = rng.integers(0, 1 << 32, n, dtype=np.uint64).astype(">u4")
    return _chunks(raw.tobytes(), 4)


def _datas(rng, n: int) -> list:
    pairs = np.empty((n, 2), dtype=">u8")
    pairs[:, 0] = np.arange(n)
    pairs[:, 1] = rng.integers(0, 1 << 63, n, dtype=np.uint64)
    return _chunks(pairs.tobytes(), 16)


def columns(primitive: str, n: int, seed: int) -> dict:
    """``n`` reports of one primitive as parallel Python columns."""
    rng = _rng(seed, primitive)
    if primitive == "key_write":
        return {"keys": _keys(rng, n), "datas": _datas(rng, n)}
    if primitive == "key_increment":
        return {"keys": _keys(rng, n),
                "values": rng.integers(1, 100, n).tolist()}
    if primitive == "postcarding":
        index = np.arange(n)
        flows = (index // PC_HOPS).astype(">u4")
        return {"keys": _chunks(flows.tobytes(), 4),
                "hops": (index % PC_HOPS).tolist(),
                "values": rng.integers(0, 256, n).tolist(),
                "path_lengths": [PC_HOPS] * n}
    if primitive == "append":
        return {"list_ids": (np.arange(n) % AP_LISTS).tolist(),
                "datas": _datas(rng, n)}
    if primitive == "sketch_merge":
        if n > 1 << 16:
            raise ValueError("sketch columns are 16-bit: one sweep per run")
        rows = rng.integers(0, 1 << 31, (n, SM_DEPTH)).tolist()
        return {"columns": list(range(n)),
                "counter_rows": [tuple(row) for row in rows]}
    raise ValueError(f"unknown primitive '{primitive}'")


def make_batch(primitive: str, cols: dict, s: int, e: int) -> ReportBatch:
    """Rows ``[s, e)`` of ``cols`` as one homogeneous batch."""
    if primitive == "key_write":
        return ReportBatch.key_writes(cols["keys"][s:e], cols["datas"][s:e],
                                      redundancy=2)
    if primitive == "key_increment":
        return ReportBatch.key_increments(cols["keys"][s:e],
                                          cols["values"][s:e], redundancy=2)
    if primitive == "postcarding":
        return ReportBatch.postcards(
            cols["keys"][s:e], cols["hops"][s:e], cols["values"][s:e],
            path_lengths=cols["path_lengths"][s:e], redundancy=1)
    if primitive == "append":
        return ReportBatch.appends(cols["list_ids"][s:e], cols["datas"][s:e])
    return ReportBatch.sketch_columns(0, cols["columns"][s:e],
                                      cols["counter_rows"][s:e])


def wire_reports(primitive: str, cols: dict) -> list:
    """The column set as DTA wire bytes (what a reporter would emit)."""
    n = len(next(iter(cols.values())))
    batch = make_batch(primitive, cols, 0, n)
    batch.reporter_id = REPORTER_ID
    return list(batch.iter_raw())


def mixed_works(sizes: dict, seed: int) -> dict:
    """Per-primitive columns for a mixed stream (``sizes``: name -> n)."""
    return {primitive: columns(primitive, n, seed)
            for primitive, n in sizes.items() if n}


def schedule(sizes: dict, batch: int) -> list:
    """The interleaved submission order: ``(primitive, s, e)`` slices.

    Round-robin, one batch per primitive per round; a primitive with a
    quarter of the others' reports (the sketch sweep) joins every
    fourth round, so the 4:4:4:4:1 ratio holds along the whole stream
    and any prefix of the schedule is itself a mixed stream.
    """
    names = [p for p in PRIMITIVES if sizes.get(p)]
    largest = max(sizes[p] for p in names)
    rounds = -(-largest // batch)
    stride = {p: max(1, round(largest / sizes[p])) for p in names}
    cursor = dict.fromkeys(names, 0)
    out = []
    for rnd in range(rounds):
        for p in names:
            if rnd % stride[p] or cursor[p] >= sizes[p]:
                continue
            s = cursor[p]
            e = min(s + batch, sizes[p])
            cursor[p] = e
            out.append((p, s, e))
    for p in names:                       # rounding leftovers, if any
        while cursor[p] < sizes[p]:
            s = cursor[p]
            e = min(s + batch, sizes[p])
            cursor[p] = e
            out.append((p, s, e))
    return out


def catalog_works(works: dict, seed: int) -> dict:
    """Key columns for every primitive, as the shipped catalog wants.

    A primitive the workload does not stream contributes a small
    seeded column set of its own: the catalog's plan then probes keys
    that never landed, which is what a dashboard over an idle service
    does.
    """
    out = {}
    for primitive in PRIMITIVES:
        cols = works.get(primitive)
        out[primitive] = cols if cols else columns(primitive, 512, seed)
    return out


def provision(sketch_width: int = 0, name: str = "collector") -> Collector:
    """A five-store collector at the benchmark's fixed geometry."""
    collector = Collector(name)
    collector.serve_keywrite(slots=KW_SLOTS, data_bytes=KW_DATA_BYTES)
    collector.serve_keyincrement(slots_per_row=KI_SLOTS_PER_ROW,
                                 rows=KI_ROWS)
    collector.serve_postcarding(chunks=PC_CHUNKS, value_set=PC_VALUES,
                                hops=PC_HOPS)
    collector.serve_append(lists=AP_LISTS, capacity=AP_CAPACITY,
                           data_bytes=AP_DATA_BYTES, batch_size=AP_BATCH)
    collector.serve_sketch(width=sketch_width or SM_IDLE_WIDTH,
                           depth=SM_DEPTH, expected_reporters=1,
                           batch_columns=SM_BATCH_COLUMNS)
    return collector


def deploy(sketch_width: int = 0) -> tuple:
    """Direct-mode ``(collector, translator, reporter)``, wired."""
    collector = provision(sketch_width)
    translator = Translator(vectorized=False)
    collector.connect_translator(translator)
    reporter = Reporter("perf", REPORTER_ID,
                        transmit=translator.handle_report,
                        transmit_batch=translator.process_batch)
    return collector, translator, reporter
