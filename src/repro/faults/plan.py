"""Fault plans: seeded, declarative schedules of fault events.

A plan is data, not behaviour — a sorted list of
:class:`FaultEvent` records saying *what* breaks, *when*, for *how
long*, and *how badly*.  The same plan armed against the same seeded
topology reproduces the same run bit for bit, which is what lets the
chaos suite pin obs-snapshot digests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

#: Every fault kind the injector can dispatch.
#:
#: ``link_loss``         — loss burst/blackout on a named fabric link
#:                         (``severity`` = loss probability, 1.0 = down)
#: ``translator_crash``  — fail-stop crash of a named translator
#: ``nic_stall``         — collector NIC drops all inbound unanswered
#: ``mr_invalidate``     — a registered memory region loses all access
#:                         rights (writes fatal-NAK until recovery)
#: ``poison_write``      — a named translator posts one bad-rkey write
#:                         (responder fatal NAK; one-shot, no duration)
KINDS = frozenset({
    "link_loss",
    "translator_crash",
    "nic_stall",
    "mr_invalidate",
    "poison_write",
})


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One scheduled fault.

    Attributes:
        at: Injection time (simulator seconds).
        kind: One of :data:`KINDS`.
        target: Name of the faulted object — a link name
            (``"r0->translator"``), a translator/NIC node name, or a
            region key the injector was given.
        duration: Seconds until automatic recovery; ``0`` means the
            fault is one-shot (``poison_write``) or recovered manually.
        severity: Loss probability for ``link_loss`` windows; ignored
            by the other kinds.
    """

    at: float
    kind: str
    target: str
    duration: float = 0.0
    severity: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind '{self.kind}' "
                             f"(expected one of {sorted(KINDS)})")
        if self.at < 0:
            raise ValueError("fault time must be >= 0")
        if self.duration < 0:
            raise ValueError("fault duration must be >= 0")
        if not 0.0 < self.severity <= 1.0:
            raise ValueError("severity must be in (0, 1]")

    @property
    def until(self) -> float:
        """Automatic recovery time (``at`` for one-shot events)."""
        return self.at + self.duration


class FaultPlan:
    """An ordered, validated schedule of fault events.

    Events sort by ``(at, kind, target, ...)`` — dataclass field order —
    so plans built from unordered input are still deterministic.
    """

    def __init__(self, events: Iterable[FaultEvent], *, seed: int = 0,
                 name: str = "plan") -> None:
        self.events: list[FaultEvent] = sorted(events)
        self.seed = seed
        self.name = name

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def horizon(self) -> float:
        """Latest injection-or-recovery time in the plan."""
        return max((ev.until for ev in self.events), default=0.0)

    def of_kind(self, kind: str) -> list[FaultEvent]:
        return [ev for ev in self.events if ev.kind == kind]

    def describe(self) -> str:
        """Human-readable one-line-per-event rendering."""
        lines = [f"fault plan '{self.name}' (seed={self.seed}, "
                 f"{len(self.events)} events, horizon={self.horizon:g}s)"]
        for ev in self.events:
            span = (f" for {ev.duration:g}s" if ev.duration > 0 else
                    " (one-shot)")
            sev = (f" severity={ev.severity:g}" if ev.kind == "link_loss"
                   else "")
            lines.append(
                f"  t={ev.at:g}s {ev.kind} -> {ev.target}{span}{sev}")
        return "\n".join(lines)
