"""Programmable-switch (Tofino-like) substrate.

The paper's reporter and translator are P4_16 programs on Tofino 1
ASICs.  Their logic runs once, in :mod:`repro.core`; this package
models the ASIC features that logic relies on and what it costs:

* :mod:`repro.switch.crc` — the hardware CRC engine with configurable
  polynomials, used for hashing keys to slots, key checksums, and the
  hop-specific checksums of Postcarding.
* :mod:`repro.switch.meters` — token-bucket rate meters used by DTA's
  telemetry flow control.
* :mod:`repro.switch.resources` — the resource accounting model that
  turns a program description into utilisation percentages (SRAM, match
  crossbar, table IDs, ternary bus, stateful ALUs), reproducing Fig. 7
  and Table 3.
* :mod:`repro.switch.programs` — declarative descriptions of the paper's
  pipelines: UDP/DTA/RDMA reporters and the DTA translator with optional
  batching and retransmission features.
"""

from repro.switch.crc import CrcEngine, CrcPoly
from repro.switch.meters import Meter, MeterColor
from repro.switch.resources import Resource, ResourceBudget, ResourceUsage

__all__ = [
    "CrcEngine",
    "CrcPoly",
    "Meter",
    "MeterColor",
    "Resource",
    "ResourceBudget",
    "ResourceUsage",
]
