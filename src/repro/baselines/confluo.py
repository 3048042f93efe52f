"""A Confluo-like collector (Khandelwal et al., NSDI'19).

Confluo ingests telemetry into an append-only *atomic multilog* and
maintains *filters* — materialised index views selecting reports by
user criteria (e.g. event type, flow).  Its throughput depends strongly
on the filter count; the paper's comparison tracks 64 active flows
(footnote 4).  Our functional model keeps the same two structures: a
log of raw records plus per-filter sorted indexes, and the calibrated
rate model places it at ~7.5 M reports/s on 16 cores — which makes DTA
Key-Write "at least 13x" faster and Append "~143x" (Section 8).
"""

from __future__ import annotations

import struct
from collections import defaultdict

from repro import calibration
from repro.baselines.cpu_model import CpuCollector


class ConfluoCollector(CpuCollector):
    """Atomic-multilog collector with materialised filters.

    Args:
        filters: Filter/index count (64 tracked flows in the paper's
            configuration; more filters slow real Confluo further, which
            the rate model reflects with a mild logarithmic penalty).
        cores: Ingest cores (16 in Fig. 6).
    """

    BASE_FILTERS = 64

    def __init__(self, filters: int = BASE_FILTERS,
                 cores: int = calibration.BASELINE_CORES) -> None:
        import math

        penalty = 1.0 + 0.15 * max(
            0.0, math.log2(filters / self.BASE_FILTERS)) \
            if filters >= self.BASE_FILTERS else 1.0
        super().__init__(
            name="confluo",
            rate_16_cores=calibration.CONFLUO_RATE_PER_16_CORES / penalty,
            stage_shares=calibration.CONFLUO_CYCLE_SHARES,
            cores=cores)
        self.filters = filters
        self.log: list[tuple] = []
        self.index: dict[bytes, list[int]] = defaultdict(list)

    def _parse(self, raw: bytes):
        if len(raw) < 8:
            raise ValueError("Confluo expects >= 8B reports (key+value)")
        return raw[:4], raw[4:8]

    def _wrangle(self, record):
        key, value = record
        # Filter evaluation: records are routed to the filter matching
        # their key (hash-partitioned across the configured filters).
        filter_id = struct.unpack(">I", key)[0] % self.filters
        return key, value, filter_id

    def _store(self, record) -> None:
        key, value, filter_id = record
        offset = len(self.log)
        self.log.append((key, value, filter_id))
        self.index[key].append(offset)

    # -- queries -------------------------------------------------------------

    def latest(self, key: bytes):
        """Most recent value for a key, or None."""
        offsets = self.index.get(key)
        return self.log[offsets[-1]][1] if offsets else None
