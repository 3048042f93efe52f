"""HyperLogLog over Sketch-Merge: register-wise max end to end.

Section 3.2: "Programmable switches support merging procedures that
RDMA do not, such as max" — the argument for merging at the translator.
This test ships per-switch HLLs through the real Sketch-Merge path with
``merge="max"`` and checks the collector-side estimate matches a local
union merge.
"""

import pytest

from repro.core.collector import Collector
from repro.core.packets import DtaPrimitive
from repro.core.reporter import Reporter
from repro.core.translator import Translator
from tests.table2.hyperloglog import HyperLogLog

PRECISION = 9                     # 512 registers
COLUMN = HyperLogLog.COLUMN_REGISTERS
SWITCHES = 3


def deploy():
    m = 1 << PRECISION
    col = Collector()
    col.serve_sketch(width=m // COLUMN, depth=COLUMN,
                     expected_reporters=SWITCHES, batch_columns=2,
                     merge="max")
    tr = Translator()
    col.connect_translator(tr)
    return col, tr


class TestHllOverSketchMerge:
    def test_network_wide_estimate(self):
        col, tr = deploy()
        local = [HyperLogLog(PRECISION) for _ in range(SWITCHES)]
        union = HyperLogLog(PRECISION)
        for switch in range(SWITCHES):
            for i in range(1500):
                item = f"sw{switch}-item{i}".encode()
                local[switch].update(item)
                union.update(item)

        for switch, sketch in enumerate(local):
            rep = Reporter(f"sw{switch}", switch,
                           transmit=tr.handle_report)
            for index, column in sketch.columns():
                rep.sketch_column(0, index, column)

        # Reconstruct the merged registers from collector memory.
        merged = HyperLogLog(PRECISION)
        matrix_registers = []
        for c in range(merged.m // COLUMN):
            matrix_registers.extend(col.sketch.column(c))
        merged.registers = list(matrix_registers)

        expected = [max(s.registers[i] for s in local)
                    for i in range(merged.m)]
        assert merged.registers == expected
        assert merged.estimate() == pytest.approx(union.estimate())
        true_count = SWITCHES * 1500
        assert abs(merged.estimate() - true_count) / true_count < 0.12

    def test_max_merge_is_idempotent_per_reporter(self):
        """Each reporter contributes each column once (in-order rule);
        duplicate columns would be NACKed, not double-merged."""
        col, tr = deploy()
        nacks = []
        tr.control_sink = lambda src, raw: nacks.append(raw)
        rep = Reporter("sw0", 0, transmit=tr.handle_report)
        rep.sketch_column(0, 0, tuple([3] * COLUMN))
        rep.sketch_column(0, 0, tuple([9] * COLUMN))  # replay: rejected
        assert tr.stats.sketch_column_nacks == 1
        assert tr._lanes[DtaPrimitive.SKETCH_MERGE].columns[0] == [3] * COLUMN
