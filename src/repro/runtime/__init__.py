"""The staged streaming runtime (reporter -> link -> translator -> NIC).

``repro.runtime`` turns a direct-mode deployment into a concurrent
pipeline of the paper's four dataflow stages, coupled by bounded
credit queues whose blocking hand-off *is* the backpressure protocol
(lossless-PFC semantics: pressure propagates, nothing drops).  Two
parallelism substrates share that contract: a FRONT/BACK thread pair
over an in-process :class:`CreditQueue` hand-off, and plan worker
*processes* (:class:`PlanWorkerPool`) that take requests in slots of a
parent-owned shared segment and signal over pipes — the same idiom the
socket lane's daemons use (:mod:`repro.runtime.shm`).  See
``docs/CONCURRENCY.md`` for the full determinism-and-concurrency
contract, ``docs/ARCHITECTURE.md`` ("One reference, one fast path")
for the plan/apply pair and the stage diagram.  Outside the tests the
engine runs under ``repro retain`` and ``repro query`` (inline and the
thread pair) and ``perf/run.py`` (the only caller of the process
executor).
"""

from repro.runtime.engine import (
    STAGES,
    StageError,
    StageStalled,
    StageStats,
    StreamEngine,
    pipeline_digest,
    store_digest,
)
from repro.runtime.queues import (
    CLOSED,
    CreditQueue,
    QueueAborted,
    QueueClosed,
    QueueStats,
)
from repro.runtime.shm import (
    Attached,
    PlanResult,
    PlanWorkerPool,
    RingPeerDead,
)

__all__ = [
    "Attached",
    "CLOSED",
    "CreditQueue",
    "PlanResult",
    "PlanWorkerPool",
    "QueueAborted",
    "QueueClosed",
    "QueueStats",
    "RingPeerDead",
    "STAGES",
    "StageError",
    "StageStalled",
    "StageStats",
    "StreamEngine",
    "pipeline_digest",
    "store_digest",
]
