"""DTA protocol core: the paper's primary contribution.

The pieces mirror Figure 1's data flow:

* :mod:`repro.core.packets` — the DTA wire protocol (base header +
  per-primitive subheaders, NACK and congestion-signal messages).
* :mod:`repro.core.primitives` — the registry: one record per
  primitive (wire table, batch columns, routing, counters, store) that
  every layer of the write path reads, and the lane protocol a
  primitive's translator half implements next to its store.
* :mod:`repro.core.reporter` — telemetry-generating switches: wrap
  monitoring-system output in DTA reports, keep backups of essential
  reports, honour NACKs and congestion signals.
* :mod:`repro.core.translator` — the collector's ToR switch: converts
  DTA reports into standard RDMA verbs, owning all aggregation state
  (Key-Write redundancy fan-out, the Postcarding hop cache, Append
  batching, sketch merging, per-reporter loss detection, rate meters).
* :mod:`repro.core.collector` — the collector host: registers memory,
  accepts the translator's RDMA connection, and answers queries against
  the primitive stores without having touched a single report with its
  CPU.
* :mod:`repro.core.stores` — the queryable data structures living in
  collector memory, shared layout knowledge between translator (writer)
  and collector (reader).
* :mod:`repro.core.analysis` — closed-form success/error bounds
  (Equations 1-12 and Appendix A.6/A.7).
* :mod:`repro.core.flow_control` — sequence tracking and NACK logic
  (Figure 5).
* :mod:`repro.core.batch` — the struct-of-arrays
  :class:`~repro.core.batch.ReportBatch` carrier driving the batched
  hot path through reporter, translator, fabric, and NIC.
"""

from repro.core.batch import ReportBatch
from repro.core.collector import Collector
from repro.core.packets import (
    CongestionSignal,
    DtaHeader,
    DtaPrimitive,
    Nack,
    decode_report,
)
from repro.core.reporter import Reporter
from repro.core.translator import Translator

__all__ = [
    "Collector",
    "CongestionSignal",
    "DtaHeader",
    "DtaPrimitive",
    "Nack",
    "decode_report",
    "Reporter",
    "ReportBatch",
    "Translator",
]
