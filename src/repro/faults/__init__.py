"""repro.faults — seeded fault injection and recovery machinery.

The reproduction's chaos layer: a :class:`~repro.faults.plan.FaultPlan`
schedules scoped fault events (link loss bursts and blackouts,
translator fail-stop crashes, collector-NIC stalls, memory-region
invalidation, poisoned RDMA writes) on the simulator clock; the
:class:`~repro.faults.injector.FaultInjector` arms them against a live
deployment; and :mod:`repro.faults.recovery` provides the machinery
that brings the system back — QP error recovery through the CM
re-handshake, standby-translator failover, and the controller recovery
sweep that replays every still-recoverable essential report.

Everything is deterministic: a plan plus a topology seed fully fixes
the run, and two identical runs produce identical obs snapshots (the
property :func:`repro.faults.scenarios.run_chaos` digests and the chaos
suite pins).
"""

from repro.faults.injector import FaultInjector, FaultStats
from repro.faults.plan import KINDS, FaultEvent, FaultPlan
from repro.faults.recovery import (
    FailoverManager,
    bind_qp_recovery,
    drain_losses,
    ha_star,
    recover_stream,
)
from repro.faults.scenarios import ChaosResult, default_plan, run_chaos

__all__ = [
    "KINDS",
    "ChaosResult",
    "FailoverManager",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "bind_qp_recovery",
    "default_plan",
    "drain_losses",
    "ha_star",
    "recover_stream",
    "run_chaos",
]
