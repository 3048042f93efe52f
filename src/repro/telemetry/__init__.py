"""Telemetry monitoring systems integrated with DTA (Table 2).

Each module implements a monitoring system's switch-side logic and maps
its reports onto DTA primitives exactly as Table 2 prescribes:

* :mod:`repro.telemetry.inband` — INT: path tracing (INT-MD sinks →
  Key-Write), postcards (INT-XD/MX → Postcarding), congestion events
  (→ Append).
* :mod:`repro.telemetry.marple` — Marple's lossy-connections, TCP
  timeout, and flowlet-size queries (→ Append / Key-Write).
* :mod:`repro.telemetry.netseer` — NetSeer-style loss events
  (→ Append, 18 B records).
* :mod:`repro.telemetry.turboflow` — TurboFlow-style evicted microflow
  records (→ Key-Increment).

The rest of Table 2 (Sonata, PINT, PacketScope, Trajectory Sampling,
event detectors, AROMA) has no entry point that runs it; those mappings
live in ``tests/table2/`` as the fixtures that
``tests/integration/test_table2_coverage.py`` checks the table with.
"""

from repro.telemetry.inband import (
    IntMdSink,
    IntXdSwitch,
    report_from_trace,
    trace_path,
)
from repro.telemetry.int_report import (
    HopMetadata,
    InFlightInt,
    IntInstruction,
    IntReport,
    TelemetryReport,
    int_source,
)
from repro.telemetry.marple import (
    FlowletSizesQuery,
    HostCountersQuery,
    LossyFlowsQuery,
    TcpTimeoutsQuery,
)
from repro.telemetry.netseer import LossEvent, NetSeerSwitch
from repro.telemetry.turboflow import TurboFlowCache

__all__ = [
    "HopMetadata",
    "InFlightInt",
    "IntInstruction",
    "IntReport",
    "TelemetryReport",
    "int_source",
    "report_from_trace",
    "IntMdSink",
    "IntXdSwitch",
    "trace_path",
    "FlowletSizesQuery",
    "HostCountersQuery",
    "LossyFlowsQuery",
    "TcpTimeoutsQuery",
    "LossEvent",
    "NetSeerSwitch",
    "TurboFlowCache",
]
