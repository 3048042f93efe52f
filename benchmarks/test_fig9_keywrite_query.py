"""Figure 9: Key-Write query performance and its time breakdown.

Paper findings: (a) query rate falls with redundancy N (more CRC slot
computations + reads per query); 4 cores answer ~7.1M queries/s at N=2
and 8 cores ~14.2M (near-linear core scaling); (b) most query time goes
to CRC work — Get Slot and Checksum dominate (Fig. 9b).

The third test is not a model: it times ``KeyWriteStore.query_many``
on this host, one core, and records the rate beside the modelled one.
"""

import struct
import time

import pytest

from conftest import fmt_rate, format_table
from repro.core.stores.keywrite import KeyWriteLayout, KeyWriteStore
from repro.rdma.memory import ProtectionDomain

QUERIES = 2000


def make_store(slots=1 << 14):
    pd = ProtectionDomain()
    probe = KeyWriteLayout(base_addr=0, slots=slots, data_bytes=4)
    region = pd.register(probe.region_bytes)
    layout = KeyWriteLayout(base_addr=region.addr, slots=slots,
                            data_bytes=4)
    return KeyWriteStore(region, layout)


def run_queries(store, redundancy):
    store.reset_stats()
    for i in range(QUERIES):
        store.query(struct.pack(">I", i), redundancy=redundancy)
    return store.stats


def test_fig9a_query_rates(benchmark, record):
    store = make_store()
    for i in range(QUERIES):
        store.local_insert(struct.pack(">I", i), struct.pack(">I", i),
                           redundancy=4)

    stats = benchmark.pedantic(lambda: run_queries(store, 2),
                               rounds=1, iterations=1)

    rows = []
    rates = {}
    for n in (1, 2, 3, 4):
        s = run_queries(store, n)
        for cores in (1, 4, 8):
            rates[(n, cores)] = s.modelled_rate(cores)
        rows.append((n, fmt_rate(rates[(n, 1)]), fmt_rate(rates[(n, 4)]),
                     fmt_rate(rates[(n, 8)])))
    record("fig9a_keywrite_query_rates", format_table(
        ["N", "1 core", "4 cores", "8 cores"], rows)
        + "\n\nPaper: 4 cores -> 7.1M q/s at N=2; 8 cores -> 14.2M; "
        "rate falls with N.")

    # Paper's calibration points.
    assert rates[(2, 4)] == pytest.approx(7.1e6, rel=0.15)
    assert rates[(2, 8)] == pytest.approx(14.2e6, rel=0.15)
    # Monotone decrease in N; near-linear core scaling.
    assert rates[(1, 1)] > rates[(2, 1)] > rates[(3, 1)] > rates[(4, 1)]
    assert rates[(2, 8)] == pytest.approx(2 * rates[(2, 4)], rel=0.01)


def test_fig9b_query_breakdown(benchmark, record):
    store = make_store()
    for i in range(500):
        store.local_insert(struct.pack(">I", i), struct.pack(">I", i),
                           redundancy=2)
    benchmark.pedantic(lambda: run_queries(store, 2), rounds=1,
                       iterations=1)
    breakdown = store.stats.breakdown()

    rows = [(part, f"{share * 100:.1f}%")
            for part, share in sorted(breakdown.items(),
                                      key=lambda kv: -kv[1])]
    record("fig9b_keywrite_query_breakdown", format_table(
        ["Component", "Share of query time"], rows)
        + "\n\nPaper: CRC work (Get Slot + Checksum) dominates.")

    assert breakdown["get_slot"] + breakdown["checksum"] > 0.5
    assert breakdown["get_slot"] > breakdown["checksum"] > 0
    assert sum(breakdown.values()) == pytest.approx(1.0)


MEASURED_KEYS = 1 << 16


def test_fig9c_query_many_measured_on_this_host(benchmark, record):
    """Wall-clock Key-Write query rate of the batched probe, one core.

    The keys are packed once (as a plan's source does) and hashed every
    time — hashing is the query.  The answers come back as columns
    (found, values, matched slots); the scalar loop's rate is measured
    on a sample for scale; the modelled column is Fig. 9a's.
    """
    from repro.kernels.crc import pack_keys

    store = make_store(slots=1 << 18)
    keys = [struct.pack(">I", i) for i in range(MEASURED_KEYS)]
    for key in keys:
        store.local_insert(key, key, redundancy=4)
    packed = pack_keys(keys)
    sample = keys[:QUERIES]

    def best_of(fn, rounds=3):
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    benchmark.pedantic(
        lambda: store.query_many(keys, redundancy=2, packed=packed),
        rounds=1, iterations=1)
    rows = []
    for n in (1, 2, 3, 4):
        # Same answers and same instrumented work as the oracle loop.
        store.reset_stats()
        looped = [store.query(key, redundancy=n) for key in sample]
        loop_stats = store.stats
        store.reset_stats()
        found, values, matched = store.query_many(sample, redundancy=n)
        assert found.tolist() == [result.found for result in looped]
        assert [value if hit else None for value, hit
                in zip(values.tolist(), found.tolist())] \
            == [result.value for result in looped]
        assert matched.tolist() == [result.matched_slots
                                    for result in looped]
        assert store.stats == loop_stats

        batched_s = best_of(lambda: store.query_many(
            keys, redundancy=n, packed=packed))
        scalar_s = best_of(lambda: [store.query(key, redundancy=n)
                                    for key in sample])
        found, values, _matched = store.query_many(keys, redundancy=n,
                                                   packed=packed)
        assert found.all() and values.tolist() == keys
        rows.append((n, fmt_rate(MEASURED_KEYS / batched_s),
                     fmt_rate(len(sample) / scalar_s),
                     fmt_rate(loop_stats.modelled_rate(1))))
    record("fig9c_keywrite_query_many_measured", format_table(
        ["N", "query_many (measured, 1 core)",
         "query loop (measured, 1 core)", "modelled, 1 core"], rows)
        + f"\n\n{MEASURED_KEYS} resident keys queried back per call, "
        "4 B values, keys packed once; best of 3.")
