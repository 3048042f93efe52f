"""A BTrDB-like time-series collector (Andersen & Culler, FAST'16).

BTrDB stores fixed-resolution time series in a copy-on-write tree with
pre-computed statistical aggregates per internal node, giving fast
windowed queries at the cost of per-insert aggregate maintenance.  The
functional model keeps per-stream buffers plus a binary aggregation
tree of (count, min, max, sum) summaries; the rate model places it
between the TSDB-backed INTCollector and Confluo.
"""

from __future__ import annotations

import struct
from collections import defaultdict
from dataclasses import dataclass

from repro import calibration
from repro.baselines.cpu_model import CpuCollector

_BTRDB_SHARES = {"io": 0.05, "parsing": 0.05, "wrangling": 0.25,
                 "storing": 0.65}


@dataclass
class _Aggregate:
    count: int = 0
    minimum: float = float("inf")
    maximum: float = float("-inf")
    total: float = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value


class BtrdbCollector(CpuCollector):
    """Per-stream buffers with power-of-two windowed aggregates.

    Args:
        window: Leaf window size in points; each level above aggregates
            two windows of the level below.
        levels: Aggregation tree depth.
    """

    def __init__(self, window: int = 64, levels: int = 4,
                 cores: int = calibration.BASELINE_CORES) -> None:
        super().__init__(name="btrdb",
                         rate_16_cores=calibration.BTRDB_RATE_PER_16_CORES,
                         stage_shares=_BTRDB_SHARES, cores=cores)
        self.window = window
        self.levels = levels
        self.streams: dict[bytes, list] = defaultdict(list)
        # aggregates[stream][level][window_index]
        self.aggregates: dict[bytes, list] = defaultdict(
            lambda: [defaultdict(_Aggregate) for _ in range(levels)])

    def _parse(self, raw: bytes):
        if len(raw) < 8:
            raise ValueError("BTrDB expects >= 8B reports")
        return raw[:4], struct.unpack(">I", raw[4:8])[0]

    def _wrangle(self, record):
        key, value = record
        index = len(self.streams[key])
        return key, index, float(value)

    def _store(self, record) -> None:
        key, index, value = record
        self.streams[key].append(value)
        span = self.window
        for level in range(self.levels):
            self.aggregates[key][level][index // span].add(value)
            span *= 2

    # -- queries -------------------------------------------------------------

    def series(self, key: bytes) -> list:
        return list(self.streams.get(key, []))
