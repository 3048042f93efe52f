"""Queue-depth processes: the microburst workload substrate.

Zhang et al. (IMC'17) measured DC microbursts: egress queues sit near
empty most of the time and spike to high occupancy for tens to hundreds
of microseconds.  :class:`BurstyQueueProcess` generates that shape —
an ON/OFF modulated arrival process drained at line rate — as the
sampled queue-depth series the Section 3.2 "latency spikes" telemetry
(:class:`tests.table2.events.MicroburstDetector`) consumes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class QueueSample:
    """One queue-depth observation."""

    time_us: int
    depth: int


class BurstyQueueProcess:
    """An ON/OFF queue: idle trickle punctuated by bursts.

    Args:
        seed: RNG seed (deterministic series).
        service_per_us: Packets drained per microsecond (line rate).
        idle_arrival_per_us: Mean arrivals while OFF (< service rate).
        burst_arrival_per_us: Mean arrivals while ON (> service rate).
        burst_duration_us: Mean burst length.
        burst_gap_us: Mean gap between bursts.
    """

    def __init__(self, *, seed: int = 0, service_per_us: float = 10.0,
                 idle_arrival_per_us: float = 3.0,
                 burst_arrival_per_us: float = 40.0,
                 burst_duration_us: float = 20.0,
                 burst_gap_us: float = 800.0) -> None:
        if burst_arrival_per_us <= service_per_us:
            raise ValueError("bursts must exceed the service rate")
        if idle_arrival_per_us >= service_per_us:
            raise ValueError("idle load must be under the service rate")
        self._rng = random.Random(seed)
        self.service = service_per_us
        self.idle_rate = idle_arrival_per_us
        self.burst_rate = burst_arrival_per_us
        self.burst_duration = burst_duration_us
        self.burst_gap = burst_gap_us

    def samples(self, duration_us: int):
        """Yield one :class:`QueueSample` per microsecond."""
        rng = self._rng
        depth = 0.0
        bursting = False
        phase_left = rng.expovariate(1.0 / self.burst_gap)
        for t in range(duration_us):
            phase_left -= 1
            if phase_left <= 0:
                bursting = not bursting
                mean = self.burst_duration if bursting \
                    else self.burst_gap
                phase_left = rng.expovariate(1.0 / mean)
            rate = self.burst_rate if bursting else self.idle_rate
            # Normal approximation to Poisson arrivals: fast, and the
            # mean/variance are right for rates of a few per microsecond.
            drawn = max(0.0, rng.gauss(rate, rate ** 0.5))
            depth = max(0.0, depth + drawn - self.service)
            yield QueueSample(time_us=t, depth=int(depth))

    def burst_fraction(self, duration_us: int, threshold: int) -> float:
        """Fraction of samples above a depth threshold."""
        over = total = 0
        for sample in self.samples(duration_us):
            total += 1
            if sample.depth >= threshold:
                over += 1
        return over / total if total else 0.0
