"""The fault injector: arms a plan against a live deployment.

The injector holds name->object maps for everything a plan can target
(links, translators, NICs, memory regions) and schedules each event's
injection — and, when the event has a duration, its recovery — on the
simulator clock.  Every transition is emitted through ``repro.obs`` so
chaos runs leave an auditable, deterministic trace.

Direct-mode tests can skip the simulator and drive
:meth:`FaultInjector.inject` / :meth:`FaultInjector.recover` by hand.
"""

from __future__ import annotations

from repro import obs
from repro.core.primitives import served
from repro.core.translator import Translator
from repro.fabric.link import Link
from repro.fabric.simulator import Simulator
from repro.faults.plan import FaultEvent, FaultPlan
from repro.rdma.memory import MemoryRegion
from repro.rdma.nic import Nic
from repro.rdma.verbs import Opcode, WorkRequest


class FaultStats(obs.InstrumentedStats):
    """Injection bookkeeping (`faults.*` series)."""

    component = "faults"

    injected = obs.counter_field()
    recovered = obs.counter_field()


class FaultInjector:
    """Dispatches a :class:`FaultPlan` onto concrete fault hooks.

    Args:
        plan: The schedule to execute.
        sim: Simulator whose clock drives :meth:`arm`; optional when
            events are injected manually.
        links / translators / nics / regions: Name-keyed maps of the
            targetable objects.  Targets are resolved eagerly by
            :meth:`arm` so a typo fails before the run, not mid-chaos.
    """

    def __init__(self, plan: FaultPlan, *, sim: Simulator | None = None,
                 links: dict[str, Link] | None = None,
                 translators: dict[str, Translator] | None = None,
                 nics: dict[str, Nic] | None = None,
                 regions: dict[str, MemoryRegion] | None = None) -> None:
        self.plan = plan
        self.sim = sim
        self.links = dict(links or {})
        self.translators = dict(translators or {})
        self.nics = dict(nics or {})
        self.regions = dict(regions or {})
        self.stats = FaultStats(labels={"plan": plan.name})
        # Event -> recovery token (currently only revoked AccessFlags).
        self._tokens: dict[FaultEvent, object] = {}

    @classmethod
    def for_star(cls, plan: FaultPlan, topo, collector,
                 translators) -> "FaultInjector":
        """Wire an injector for a (ha-)star deployment.

        Links are addressable by their ``src->dst`` names, translators
        by node name, the collector NIC by its NIC name, and every
        provisioned store's region by its primitive name
        (``"key_write"``, ``"append"``, ...).
        """
        regions = {primitive.service: store.region
                   for primitive, store in served(collector)}
        return cls(plan, sim=topo.sim,
                   links={link.name: link for link in topo.links},
                   translators={t.name: t for t in translators},
                   nics={collector.nic.name: collector.nic},
                   regions=regions)

    # ------------------------------------------------------------------

    def _pool(self, event: FaultEvent) -> dict:
        return {
            "link_loss": self.links,
            "translator_crash": self.translators,
            "nic_stall": self.nics,
            "mr_invalidate": self.regions,
            "poison_write": self.translators,
        }[event.kind]

    def _resolve(self, event: FaultEvent):
        pool = self._pool(event)
        try:
            return pool[event.target]
        except KeyError:
            raise KeyError(
                f"{event.kind} target '{event.target}' unknown "
                f"(have: {sorted(pool)})") from None

    def arm(self) -> int:
        """Schedule every plan event (and recovery) on the simulator.

        Returns the number of simulator events scheduled.  All targets
        are resolved up front.
        """
        if self.sim is None:
            raise RuntimeError("injector has no simulator to arm against")
        scheduled = 0
        for event in self.plan:
            self._resolve(event)
            self.sim.at(event.at, lambda ev=event: self.inject(ev))
            scheduled += 1
            if event.duration > 0:
                self.sim.at(event.until, lambda ev=event: self.recover(ev))
                scheduled += 1
        return scheduled

    # ------------------------------------------------------------------

    def inject(self, event: FaultEvent) -> None:
        """Apply one fault right now."""
        target = self._resolve(event)
        if event.kind == "link_loss":
            target.begin_fault(event.severity)
        elif event.kind == "translator_crash":
            target.crash()
        elif event.kind == "nic_stall":
            target.stall()
        elif event.kind == "mr_invalidate":
            self._tokens[event] = target.invalidate()
        elif event.kind == "poison_write":
            self._poison(target)
        self.stats.injected += 1
        obs.emit("faults", "injected", kind=event.kind,
                 target=event.target, at=event.at,
                 duration=event.duration, severity=event.severity)

    def recover(self, event: FaultEvent) -> None:
        """Undo one fault right now (no-op for one-shot kinds)."""
        target = self._resolve(event)
        if event.kind == "link_loss":
            target.end_fault()
        elif event.kind == "translator_crash":
            target.restart()
        elif event.kind == "nic_stall":
            target.resume()
        elif event.kind == "mr_invalidate":
            token = self._tokens.pop(event, None)
            if token is not None:
                target.restore(token)
        elif event.kind == "poison_write":
            return  # one-shot; the QP recovery path is the "recovery"
        self.stats.recovered += 1
        obs.emit("faults", "recovered", kind=event.kind,
                 target=event.target, at=event.until)

    @staticmethod
    def _poison(translator: Translator) -> None:
        """Post one write with a bogus rkey through the translator.

        The responder fatal-NAKs (``NAK_REMOTE_ACCESS_ERROR``) and the
        client QP lands in ERROR — the fault the Section 4.2 recovery
        path exists for.  Posted via the raw QP, not
        :meth:`RdmaClient.post`, so the client's own retry machinery is
        not consulted about injecting the fault it must later fix.
        """
        client = translator.client
        if client is None:
            raise RuntimeError(
                f"translator {translator.name} has no RDMA connection "
                "to poison")
        raw = client.qp.post_send(WorkRequest(
            opcode=Opcode.WRITE, remote_addr=0xDEAD_0000, rkey=0xBAD,
            data=b"\x00"))
        client.send_fn(raw)
