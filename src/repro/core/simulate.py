"""Vectorised Monte Carlo of the Key-Write overwrite process.

The Fig. 18 (redundancy vs load) and Fig. 20 (longevity) experiments
need query-success statistics over millions of inserted keys — far too
many to push through the byte-level store.  This module simulates just
the part that matters: N uniformly random slot choices per key, last
writer wins, then query success for keys of every age.  NumPy keeps it
fast; results cross-validate the closed-form bounds in
:mod:`repro.core.analysis` (and the byte-level store, via the tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MonteCarloResult:
    """Success statistics from one simulated fill."""

    slots: int
    keys: int
    redundancy: int
    success_rate: float          # over all inserted keys
    success_by_age: np.ndarray   # per age-decile success rates

    @property
    def load_factor(self) -> float:
        return self.keys / self.slots


def simulate_keywrite(slots: int, keys: int, redundancy: int, *,
                      seed: int = 0, consensus: int = 1,
                      age_deciles: int = 10) -> MonteCarloResult:
    """Fill a store with ``keys`` sequential inserts and query them all.

    Each insert writes its key id into ``redundancy`` uniformly random
    slots (modelling the N global hash functions on distinct keys);
    later writes overwrite earlier ones.  A query succeeds when at
    least ``consensus`` of the key's slots still hold its id —
    checksum collisions are negligible at b=32 and are ignored here
    (the closed-form bounds cover them).

    Returns success overall and per age decile (decile 0 = oldest).
    """
    if slots <= 0 or keys <= 0 or redundancy <= 0:
        raise ValueError("slots, keys, redundancy must be positive")
    rng = np.random.default_rng(seed)
    # choices[k, n] = slot hit by key k's n'th copy.
    choices = rng.integers(0, slots, size=(keys, redundancy),
                           dtype=np.int64)
    owner = np.full(slots, -1, dtype=np.int64)
    key_ids = np.repeat(np.arange(keys, dtype=np.int64), redundancy)
    # Row-major flatten preserves insert order, and NumPy fancy
    # assignment applies duplicates in order: the last write wins.
    owner[choices.reshape(-1)] = key_ids

    surviving = owner[choices] == np.arange(keys)[:, None]
    hits = surviving.sum(axis=1) >= consensus
    success = float(hits.mean())

    deciles = np.array_split(hits, age_deciles)
    by_age = np.array([float(part.mean()) for part in deciles])
    return MonteCarloResult(slots=slots, keys=keys, redundancy=redundancy,
                            success_rate=success, success_by_age=by_age)


def success_at_age(slots: int, age: int, redundancy: int, *,
                   seed: int = 0, probes: int = 2000) -> float:
    """P(success | exactly ``age`` keys written after ours) — Fig. 20.

    Direct simulation of the conditional: write the probe key, then
    ``age`` more keys, and query.  Vectorised over ``probes``
    independent trials sharing one overwrite stream (each probe key
    gets its own slots and observes the same subsequent writes, which
    is exactly the Poisson-approximation regime).
    """
    if age < 0:
        raise ValueError("age must be >= 0")
    rng = np.random.default_rng(seed)
    probe_slots = rng.integers(0, slots, size=(probes, redundancy))
    # Subsequent writes: age keys x redundancy slots.
    later = rng.integers(0, slots, size=age * redundancy)
    overwritten = np.zeros(slots, dtype=bool)
    overwritten[later] = True
    survived = ~overwritten[probe_slots]
    return float((survived.any(axis=1)).mean())
