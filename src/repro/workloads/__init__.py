"""Workload generation: flows, packet traces, and report-rate models.

The paper drives its testbed with TRex-generated DTA traffic and, for
the Marple experiments, "real data center traffic [8]" (the Benson et
al. IMC'10 traces).  Those traces are not redistributable, so
:mod:`repro.workloads.flows` synthesises traffic with the same
statistical role: heavy-tailed flow sizes, exponential-ish arrivals,
and realistic 5-tuples.  :mod:`repro.workloads.report_rates` models the
per-switch report rates of Table 1.
"""

from repro.workloads.flows import Flow, FlowGenerator, five_tuple_key
from repro.workloads.report_rates import (
    ReportRateModel,
    int_postcard_rate,
    table1_rows,
)
from repro.workloads.traffic import Packet, PacketTrace

__all__ = [
    "Flow",
    "FlowGenerator",
    "five_tuple_key",
    "ReportRateModel",
    "int_postcard_rate",
    "table1_rows",
    "Packet",
    "PacketTrace",
]
