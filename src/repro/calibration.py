"""Model calibration constants for the DTA reproduction.

Every tunable constant of the performance models lives here, with a note
on where it comes from.  The protocol logic never depends on these numbers;
they only shape the throughput/latency/resource figures that the benchmark
harness reports, so that the *shape* of the paper's evaluation (who wins,
by what factor, where crossovers fall) reproduces on a laptop.

Paper setup (Section 5): two Xeon Silver 4114 servers, a BF2556X-1T
Tofino 1 switch, 100G links, and a Mellanox BlueField-2 RDMA NIC at the
collector.  TRex generates DTA report traffic.
"""

from __future__ import annotations

import dataclasses

# --------------------------------------------------------------------------
# RDMA NIC performance model (BlueField-2 class, 100 GbE)
#
# The collector NIC is modelled with a classic linear cost model:
#
#     time_per_message = NIC_T_MSG_NS + payload_bytes * NIC_T_BYTE_NS
#
# Calibrated against the paper's measurements:
#   * Key-Write with N=1 ingests ~100-105M 4B reports/s (Fig. 8), i.e. a
#     small-write message rate of ~105M ops/s  ->  t_msg ~ 9.52 ns.
#   * Append with batches of 16x4B reaches just over 1B reports/s
#     (Fig. 11), i.e. ~66M 64B-payload messages/s  ->  t_byte ~ 0.088 ns/B
#     (~91 Gbps of payload streaming, consistent with a 100G port).
#
# Constants are nanoseconds; repro.rdma.nic accumulates each message's cost
# rounded to a whole femtosecond (FS_PER_NS), a <= 5.3e-8 relative error.
# --------------------------------------------------------------------------

NIC_T_MSG_NS: float = 9.52
"""Fixed per-RDMA-message cost on the collector NIC, nanoseconds."""

NIC_T_BYTE_NS: float = 0.088
"""Per-payload-byte cost on the collector NIC, nanoseconds."""

NIC_FETCH_ADD_PENALTY: float = 2.0
"""Fetch-and-Add (and other atomics) cost multiplier over plain writes.

RDMA atomics serialise in the NIC and are known to run at roughly half
the write rate (Kalia et al., "Design Guidelines for High Performance
RDMA Systems", ATC'16).
"""

NIC_QP_CACHE_SIZE: int = 32
"""Number of queue pairs the NIC can serve before its on-chip connection
cache starts thrashing (FaRM, NSDI'14 reports degradation beyond a few
tens of QPs)."""

NIC_QP_MAX_DEGRADATION: float = 5.0
"""Throughput degradation factor once the QP working set far exceeds the
connection cache.  Section 2.2(2): "Increasing the number of queue pairs
degrades RDMA performance by up to 5x [16]"."""

NIC_QP_DEGRADATION_SCALE: int = 512
"""QP count at which degradation saturates at NIC_QP_MAX_DEGRADATION."""

# --------------------------------------------------------------------------
# Link / wire model (100 GbE)
# --------------------------------------------------------------------------

LINE_RATE_GBPS: float = 100.0
"""Port rate of every link in the testbed."""

ETHERNET_OVERHEAD_BYTES: int = 24
"""Preamble (8) + FCS (4) + minimum inter-packet gap (12)."""

MIN_FRAME_BYTES: int = 64
"""Minimum Ethernet frame size."""

# Header sizes used when computing on-wire packet sizes for DTA traffic.
ETH_HDR_BYTES: int = 14
IPV4_HDR_BYTES: int = 20
UDP_HDR_BYTES: int = 8

# --------------------------------------------------------------------------
# CPU-based baseline collectors (16 ingest cores, Xeon Silver 4114 class)
#
# Figure 2 measures Confluo's per-report work split: I/O ~8%, parsing ~6%,
# data wrangling + storing ~86% ("almost 11x the cost of its I/O").
# The absolute ingest rates are set to reproduce the paper's ratios:
# DTA Key-Write (100M/s) is "at least 13x" Confluo, Append (1B/s) is
# "~143x", Postcarding path-aggregation is "up to 55x" the per-path rate.
# --------------------------------------------------------------------------

BASELINE_CORES: int = 16
"""Ingest cores given to every CPU baseline in Fig. 6 (Section 5.1)."""

CPU_GHZ: float = 2.2
"""Clock of the Xeon Silver 4114."""

CONFLUO_RATE_PER_16_CORES: float = 7.5e6
"""Confluo ingest rate (reports/s) with 16 cores and 64 filters."""

CONFLUO_CYCLE_SHARES = {
    "io": 0.08,
    "parsing": 0.06,
    "wrangling": 0.40,
    "storing": 0.46,
}
"""Fig. 2 work breakdown.  wrangling+storing = 86%, ~10.75x the I/O share."""

BTRDB_RATE_PER_16_CORES: float = 1.5e6
"""BTrDB-style timeseries store ingest rate (reports/s, 16 cores)."""

INTCOLLECTOR_INFLUX_RATE: float = 3.2e5
"""INTCollector with InfluxDB backend (reports/s, 16 cores)."""

INTCOLLECTOR_PROMETHEUS_RATE: float = 1.2e5
"""INTCollector with Prometheus backend (reports/s, 16 cores)."""

# --------------------------------------------------------------------------
# Collector-side query engine (Key-Write store, Section 5.4.1)
#
# Fig. 9a: a single core answers ~3.6M queries/s at N=1 falling with N
# (4 cores -> 7.1M q/s at N=2, i.e. ~1.78M q/s/core).  Fig. 9b: most time
# in CRC work (Get Slot + Checksum).
# --------------------------------------------------------------------------

QUERY_T_CRC_SLOT_NS: float = 125.0
"""Cost of computing one redundancy slot address (CRC over the key), ns."""

QUERY_T_CRC_CSUM_NS: float = 100.0
"""Cost of computing the key checksum (CRC), ns (done once per query)."""

QUERY_T_MEM_READ_NS: float = 85.0
"""Random-access DRAM read of one slot, ns."""

QUERY_T_OVERHEAD_NS: float = 35.0
"""Fixed per-query bookkeeping (candidate voting etc.), ns."""

# Append list polling (Fig. 12): a pointer increment + sequential read.
POLL_T_ENTRY_NS: float = 6.5
"""Per-entry cost of draining an Append list on one core, ns.  Sequential
access, so ~150M entries/s/core; 8 cores ≈ 1.2B/s, enough to drain the
maximum collection rate (Fig. 12's takeaway)."""

# --------------------------------------------------------------------------
# Table 1 — per-switch report-rate models (6.4 Tbps switches, 40% load)
# --------------------------------------------------------------------------

SWITCH_CAPACITY_TBPS: float = 6.4
SWITCH_LOAD: float = 0.40
AVG_PACKET_BYTES: int = 850
"""Average DC packet size used to turn load into packet rate; chosen so a
6.4 Tbps switch at 40% load forwards ~376 Mpps and 0.5% INT-postcard
sampling with 10 postcard-hops yields Table 1's ~19 Mpps."""

INT_POSTCARD_SAMPLING: float = 0.005
INT_POSTCARD_HOPS: int = 10
MARPLE_TCP_OOS_RATE: float = 6.72e6
MARPLE_PKT_COUNTER_RATE: float = 4.29e6
NETSEER_FLOW_EVENT_RATE: float = 0.95e6

# --------------------------------------------------------------------------
# Tofino-like switch resource model (Fig. 7, Table 3)
#
# Unit costs are abstract "resource points" normalised to the ASIC's total
# per-resource budget; programs declare their features and the accounting
# model in repro.switch.resources turns them into utilisation percentages.
# Calibrated so that the reporter comparison (Fig. 7: DTA within a couple
# of percent of UDP, RDMA ~2x DTA) and the translator budget (Table 3)
# reproduce.
# --------------------------------------------------------------------------

TOFINO_STAGES: int = 12
TOFINO_SRAM_BLOCKS: int = 960          # 80 blocks/stage x 12 stages
TOFINO_TCAM_BLOCKS: int = 288
TOFINO_SALU_PER_STAGE: int = 4
TOFINO_TABLE_IDS_PER_STAGE: int = 16
TOFINO_CROSSBAR_BYTES_PER_STAGE: int = 128
TOFINO_TERNARY_BUS_PER_STAGE: int = 2

# --------------------------------------------------------------------------
# DTA protocol defaults
# --------------------------------------------------------------------------

DEFAULT_REDUNDANCY: int = 2
"""Default Key-Write redundancy; §A.8.1 concludes N=2 is a good compromise."""

DEFAULT_CHECKSUM_BITS: int = 32
"""Key-Write checksum width (the paper stores a 4B concatenated CRC)."""

DEFAULT_BATCH_SIZE: int = 16
"""Append batch size used in the headline experiments."""

POSTCARDING_CACHE_SLOTS: int = 32 * 1024
"""Translator postcard-cache rows in the hardware implementation (§4.2)."""

POSTCARDING_MAX_HOPS: int = 5
"""B — bound on path length (fat-tree: 5 hops)."""

POSTCARDING_SLOT_PAD_BYTES: int = 32
"""Chunks padded from 5*4B=20B to 32B for bitshift addressing (§4.2)."""

POSTCARD_REPORT_PAYLOAD_BYTES: int = 72
"""On-wire payload of one INT-XD postcard DTA report, past Eth/IP/UDP:
DTA base header (8) + Postcarding subheader (9) + flow key (13) + the
INT telemetry-report header stack the postcard carries (~42).  Used for
ingest-side wire accounting in the fabric experiments."""

MAX_APPEND_LISTS: int = 255
"""Lists configured in the evaluation (§5.3 notes more are possible)."""

RETRANSMIT_MAX_REPORTERS: int = 65536
"""Per-reporter sequence trackers provisioned at the translator (§5.3)."""


@dataclasses.dataclass(frozen=True)
class NicModel:
    """A bundle of NIC model constants, overridable for what-if studies."""

    t_msg_ns: float = NIC_T_MSG_NS
    t_byte_ns: float = NIC_T_BYTE_NS
    fetch_add_penalty: float = NIC_FETCH_ADD_PENALTY
    qp_cache_size: int = NIC_QP_CACHE_SIZE
    qp_max_degradation: float = NIC_QP_MAX_DEGRADATION
    qp_degradation_scale: int = NIC_QP_DEGRADATION_SCALE

    def message_rate(self, payload_bytes: int, *, atomic: bool = False,
                     active_qps: int = 1) -> float:
        """Messages/s the NIC sustains for a given payload size.

        Applies the atomic penalty and the QP-count degradation curve.
        """
        t = self.t_msg_ns + payload_bytes * self.t_byte_ns
        if atomic:
            t *= self.fetch_add_penalty
        t *= self.qp_degradation(active_qps)
        return 1e9 / t

    def qp_degradation(self, active_qps: int) -> float:
        """Multiplicative slowdown from maintaining ``active_qps`` QPs.

        1.0 while the connection state fits the NIC cache, then rising
        linearly (in log-space of QP count) to ``qp_max_degradation``.
        """
        if active_qps <= self.qp_cache_size:
            return 1.0
        import math

        span = math.log(self.qp_degradation_scale / self.qp_cache_size)
        excess = math.log(min(active_qps, self.qp_degradation_scale)
                          / self.qp_cache_size)
        return 1.0 + (self.qp_max_degradation - 1.0) * excess / span


DEFAULT_NIC_MODEL = NicModel()


def wire_packet_rate(payload_bytes: int,
                     header_bytes: int = ETH_HDR_BYTES + IPV4_HDR_BYTES
                     + UDP_HDR_BYTES,
                     line_rate_gbps: float = LINE_RATE_GBPS) -> float:
    """Packets/s a line-rate port can carry for a given payload size."""
    frame = max(header_bytes + payload_bytes, MIN_FRAME_BYTES)
    on_wire_bits = (frame + ETHERNET_OVERHEAD_BYTES) * 8
    return line_rate_gbps * 1e9 / on_wire_bits
