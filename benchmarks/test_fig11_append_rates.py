"""Figure 11: Append collection rate vs batch size and list size.

Paper findings: throughput grows linearly with batch size until line
rate is reached around batches of 4x4B, then sub-linearly; batches of
16 exceed 1B reports/s; the allocated list size has no effect; up to
255 parallel lists cost nothing.
"""

import struct

import pytest

from conftest import fmt_rate, format_table, measured_lane_rates
from repro.core.collector import Collector
from repro.core.packets import Append, make_report
from repro.core.translator import Translator
from repro.rdma.nic import modelled_collection_rate

BATCHES = (1, 2, 4, 8, 16)
LIST_CAPACITIES = (1 << 10, 1 << 14, 1 << 18)


def append_rate(batch: int, entry_bytes: int = 4) -> float:
    return modelled_collection_rate(batch * entry_bytes, batch)


def run_functional(batch: int, lists: int = 4, reports: int = 512):
    col = Collector()
    col.serve_append(lists=lists, capacity=1 << 12, data_bytes=4,
                     batch_size=batch)
    tr = Translator()
    col.connect_translator(tr)
    for i in range(reports):
        tr.handle_report(make_report(Append(
            list_id=i % lists, data=struct.pack(">I", i))))
    tr.flush_appends()
    return col, tr


def test_fig11_append_rates(benchmark, record):
    col, tr = benchmark.pedantic(lambda: run_functional(16),
                                 rounds=1, iterations=1)
    # Functional sanity: everything written is readable, in order.
    for list_id in range(4):
        entries = col.list_poller(list_id).poll()
        values = [struct.unpack(">I", e)[0] for e in entries]
        assert values == sorted(values)
        assert len(values) == 128

    rates = {batch: append_rate(batch) for batch in BATCHES}
    rows = [(batch, fmt_rate(rate),
             f"{rate / rates[1]:.2f}x")
            for batch, rate in rates.items()]
    record("fig11_append_rates", format_table(
        ["Batch size", "Reports/s", "vs batch 1"], rows)
        + "\n\nList size sweep (batch 16): rate is capacity-independent"
        + "".join(f"\n  capacity {cap:>7}: {fmt_rate(rates[16])}"
                  for cap in LIST_CAPACITIES)
        + "\n\nPaper: linear to ~batch 4, then sub-linear; >1B/s at 16.")

    # Near-linear at small batches.
    assert rates[2] == pytest.approx(2 * rates[1], rel=0.05)
    assert rates[4] == pytest.approx(4 * rates[1], rel=0.10)
    # Sub-linear by 16 (per-byte cost biting).
    assert rates[16] < 16 * rates[1] * 0.95
    # The 1B/s headline.
    assert rates[16] > 1e9
    # Monotone increasing throughout.
    values = list(rates.values())
    assert values == sorted(values)


def test_fig11_list_size_independence(benchmark, record):
    """The allocated list size does not change the collection path."""
    writes = {}

    def sweep():
        for capacity in LIST_CAPACITIES:
            col = Collector()
            col.serve_append(lists=1, capacity=capacity, data_bytes=4,
                             batch_size=16)
            tr = Translator()
            col.connect_translator(tr)
            for i in range(256):
                tr.handle_report(make_report(Append(
                    list_id=0, data=struct.pack(">I", i))))
            writes[capacity] = tr.stats.rdma_writes

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert len(set(writes.values())) == 1  # identical message counts


def test_fig11_many_parallel_lists(benchmark, record):
    """255 lists: negligible impact (same per-report message count)."""
    col = Collector()
    col.serve_append(lists=255, capacity=256, data_bytes=4,
                     batch_size=16)
    tr = Translator()
    col.connect_translator(tr)

    def drive():
        for i in range(255 * 16):
            tr.handle_report(make_report(Append(
                list_id=i % 255, data=struct.pack(">I", i))))

    benchmark.pedantic(drive, rounds=1, iterations=1)
    # Every list flushed exactly one full batch.
    assert tr.stats.append_batches == 255
    assert tr.stats.rdma_writes == 255


def test_fig11_measured_write_rate(benchmark, record):
    """What this host's translator sustains in Append reports/s at
    batch 16 — next to, not instead of, the modelled rate above."""
    rates = benchmark.pedantic(lambda: measured_lane_rates("append"),
                               rounds=1, iterations=1)
    record("fig11_append_measured", format_table(
        ["Lane", "Reports/s"],
        [(lane, fmt_rate(rate)) for lane, rate in rates.items()])
        + "\n\n20 000 16 B entries round-robin over 4 lists, Append "
        "batch 16, submitted 64 at a time, one core, CPython + numpy; "
        "best of 3.")
    assert rates["plan"] > rates["scalar batched"] > rates["per report"]
