"""Real-transport deployment lane: UDP sockets, OS processes, shared
memory — the DTA pipeline deployed rather than simulated.

See :mod:`repro.transport.serve` for the lane's differential gate and
docs/ARCHITECTURE.md ("Deployment lane") for the process topology.
"""

from repro.transport.assembler import ReportAssembler
from repro.transport.envelope import Reassembler
from repro.transport.loss import LossShim, LossSpec
from repro.transport.reporter import SocketReporter
from repro.transport.serve import (
    ServeError,
    ServeSpec,
    SocketLane,
    run_reference,
    run_serve,
)

__all__ = [
    "LossShim",
    "LossSpec",
    "Reassembler",
    "ReportAssembler",
    "ServeError",
    "ServeSpec",
    "SocketLane",
    "SocketReporter",
    "run_reference",
    "run_serve",
]
