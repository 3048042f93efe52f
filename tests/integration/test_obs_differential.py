"""Differential check: translator counters vs collector store contents.

A seeded-random mixed-primitive workload is pushed through a direct
(lossless) reporter -> translator -> collector pipeline; afterwards the
translator's per-primitive counters must agree with what the collector
stores actually hold.  The counters and the stores are maintained by
completely different code paths, so agreement is strong evidence
neither side drops, duplicates, or misroutes reports.
"""

import random
import struct

import pytest

from repro import obs
from tests import conformance

LISTS = 4
REDUNDANCY = 4


def serve(collector) -> None:
    collector.serve_keywrite(slots=1 << 16, data_bytes=4)
    collector.serve_append(lists=LISTS, capacity=4096, data_bytes=4,
                           batch_size=8)
    collector.serve_keyincrement(slots_per_row=1 << 14, rows=4)


def run_workload(reporter, rng, ops=600):
    """Random primitive mix; returns the ground-truth model."""
    writes = {}           # key -> latest data
    increments = {}       # key -> exact total
    appended = {i: [] for i in range(LISTS)}
    for i in range(ops):
        op = rng.choice(("keywrite", "keyincrement", "append"))
        if op == "keywrite":
            key = struct.pack(">I", rng.randrange(1 << 30))
            data = struct.pack(">I", rng.randrange(1 << 32))
            reporter.key_write(key, data, redundancy=REDUNDANCY)
            writes[key] = data
        elif op == "keyincrement":
            key = struct.pack(">I", rng.randrange(64))  # heavy hitters
            amount = rng.randrange(1, 100)
            reporter.key_increment(key, amount, redundancy=REDUNDANCY)
            increments[key] = increments.get(key, 0) + amount
        else:
            list_id = rng.randrange(LISTS)
            data = struct.pack(">I", i)
            reporter.append(list_id, data)
            appended[list_id].append(data)
    return writes, increments, appended


@pytest.mark.parametrize("seed", (0, 1, 2))
class TestCountersMatchStores:
    def test_per_primitive_counters_match_ground_truth(self, seed):
        with conformance.deploy(serve=serve) as (
                registry, _collector, translator, reporter), \
                obs.ObsProbe(registry) as p:
            writes, increments, appended = run_workload(
                reporter, random.Random(seed))
            translator.flush_appends()
        # Counters must equal the driven op counts exactly.
        keywrites = p["translator.keywrites"]
        keyincrements = p["translator.keyincrements"]
        appends = p["translator.appends"]
        assert appends == sum(len(v) for v in appended.values())
        assert keywrites + keyincrements + appends == 600
        # Per-primitive RDMA fan-out is deterministic: N slot writes
        # per Key-Write, N fetch-and-adds per Key-Increment.
        assert p["translator.rdma_atomics"] == (keyincrements
                                                * REDUNDANCY)
        assert p["translator.rdma_writes"] >= keywrites * REDUNDANCY

    def test_append_lists_hold_exactly_what_was_sent(self, seed):
        with conformance.deploy(serve=serve) as (
                registry, collector, translator, reporter), \
                obs.ObsProbe(registry) as p:
            _, _, appended = run_workload(reporter, random.Random(seed))
            translator.flush_appends()
            polled = {list_id: collector.list_poller(list_id).poll()
                      for list_id in range(LISTS)}
        # Order and content preserved per list, across random batching.
        for list_id, expect in appended.items():
            assert polled[list_id] == expect
        assert (sum(len(v) for v in polled.values())
                == p["translator.appends"])

    def test_keywrite_store_serves_every_write_back(self, seed):
        with conformance.deploy(serve=serve) as (
                registry, collector, _translator, reporter), \
                obs.ObsProbe(registry) as p:
            writes, _, _ = run_workload(reporter, random.Random(seed))
            hits = sum(
                collector.query_value(key, redundancy=REDUNDANCY).value
                == data for key, data in writes.items())
        # Key-Write is probabilistic: a key can lose all N replicas to
        # later collisions.  At N=4 into 64K slots the per-key failure
        # odds are ~(writes*N/slots)^N ~ 1e-8 ... but the *latest*
        # writes also overwrite earlier ones that share slots, so allow
        # the modelled handful while insisting on near-total recall.
        assert hits >= 0.98 * len(writes)
        assert p["collector.queries_value"] == len(writes)

    def test_keyincrement_estimates_bound_ground_truth(self, seed):
        with conformance.deploy(serve=serve) as (
                registry, collector, _translator, reporter), \
                obs.ObsProbe(registry) as p:
            _, increments, _ = run_workload(reporter, random.Random(seed))
            total = sum(increments.values())
            for key, exact in increments.items():
                estimate = collector.query_counter(key,
                                                   redundancy=REDUNDANCY)
                # Count-min sketch: never undercounts; overcount is
                # bounded by everything else in the same counters.
                assert exact <= estimate <= total
        assert p["collector.queries_counter"] == len(increments)
