"""Figure 10: Postcarding collection vs concurrent flows & cache size.

Paper findings: max collection ~90.5 Mpps (postcards/s); more
concurrent flows at the translator cause cache collisions and premature
(early) emissions, which count as failures; bigger caches push the
knee out.  Compared with Key-Write, full-path aggregation gains up to
4.3x for 5-hop collection.
"""

import random

import pytest

from conftest import fmt_rate, format_table, measured_lane_rates
from repro import calibration
from repro.core.postcard_cache import PostcardCache
from repro.rdma.nic import modelled_collection_rate

HOPS = 5
CACHE_SIZES = (8 * 1024, 32 * 1024, 128 * 1024)
FLOW_COUNTS = (1_000, 10_000, 50_000, 100_000)
POSTCARDS = 120_000  # measured (post-warmup) inserts per point


def aggregation_fraction(cache_slots: int, concurrent_flows: int,
                         seed: int = 0) -> float:
    """Steady-state fraction of paths fully aggregated.

    Flows emit their hops in order, but arrivals interleave uniformly
    across a window of ``concurrent_flows`` active flows.  After a
    warm-up that fills the window, the measured fraction is
    complete / (complete + early) over the emissions of the
    measurement phase — exactly Fig. 10's success criterion ("early
    emissions ... are counted as failures").
    """
    rng = random.Random(seed)
    cache = PostcardCache(slots=cache_slots, hops=HOPS)
    flows: list[int] = []       # active flow ids (swap-remove list)
    next_hop: list[int] = []
    next_flow = 0

    def step() -> None:
        nonlocal next_flow
        if len(flows) < concurrent_flows:
            flows.append(next_flow)
            next_hop.append(0)
            next_flow += 1
        index = rng.randrange(len(flows))
        flow, hop = flows[index], next_hop[index]
        cache.insert(flow, hop, hop, path_len=HOPS)
        cache.pending_evicted.clear()
        if hop + 1 >= HOPS:
            flows[index] = flows[-1]
            next_hop[index] = next_hop[-1]
            flows.pop()
            next_hop.pop()
        else:
            next_hop[index] = hop + 1

    for _ in range(2 * concurrent_flows):   # warm-up: fill the window
        step()
    base_complete = cache.stats.emissions_complete
    base_early = cache.stats.emissions_early
    for _ in range(POSTCARDS):
        step()
    complete = cache.stats.emissions_complete - base_complete
    early = cache.stats.emissions_early - base_early
    if complete + early == 0:
        return 0.0
    return complete / (complete + early)


def max_path_rate() -> float:
    """The aggregation-phase bound: one padded 32B chunk write per
    fully aggregated path (Fig. 10 counts *paths*, not postcards)."""
    return modelled_collection_rate(32, 1)


def test_fig10_postcarding(benchmark, record):
    peak = max_path_rate()

    grid = {}

    def sweep():
        for cache_slots in CACHE_SIZES:
            for flows in FLOW_COUNTS:
                grid[(cache_slots, flows)] = aggregation_fraction(
                    cache_slots, flows, seed=cache_slots + flows)
        return grid

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for cache_slots in CACHE_SIZES:
        for flows in FLOW_COUNTS:
            fraction = grid[(cache_slots, flows)]
            rows.append((f"{cache_slots // 1024}K", flows,
                         f"{fraction * 100:.1f}%",
                         fmt_rate(peak * fraction)))
    record("fig10_postcarding", format_table(
        ["Cache", "Concurrent flows", "Aggregated", "Collection rate"],
        rows) + f"\n\nPeak (few flows): {fmt_rate(peak)} 5-hop path "
        "reports/s (paper: 90.5 Mpps max).")

    # Peak tracks the paper's 90.5M path reports/s within 15%.
    assert peak == pytest.approx(90.5e6, rel=0.15)
    # Few concurrent flows -> nearly everything aggregates.
    assert grid[(32 * 1024, 1_000)] > 0.85
    assert grid[(128 * 1024, 1_000)] > 0.95
    # Aggregation degrades as concurrency grows...
    for cache_slots in CACHE_SIZES:
        series = [grid[(cache_slots, f)] for f in FLOW_COUNTS]
        assert series == sorted(series, reverse=True)
    # ...and bigger caches help at high concurrency.
    assert grid[(128 * 1024, 100_000)] > grid[(8 * 1024, 100_000)]

    # Postcarding vs best-case Key-Write for 5-hop collection: KW needs
    # 5 separate writes per path.  Paper: up to 4.3x.
    keywrite_paths = modelled_collection_rate(8, 1) / HOPS
    gain = peak / keywrite_paths
    assert 3.5 <= gain <= 5.0


def test_fig10_measured_write_rate(benchmark, record):
    """What this host's translator sustains in postcards/s — next to,
    not instead of, the modelled hardware rate above."""
    rates = benchmark.pedantic(lambda: measured_lane_rates("postcarding"),
                               rounds=1, iterations=1)
    record("fig10_postcarding_measured", format_table(
        ["Lane", "Postcards/s", "5-hop paths/s"],
        [(lane, fmt_rate(rate), fmt_rate(rate / HOPS))
         for lane, rate in rates.items()])
        + "\n\n20 000 postcards of 4 000 five-hop flows in arrival "
        "order, batch 64, one core, CPython + numpy; best of 3.")
    # The plan aggregates in the translator, as the hardware does.
    assert rates["plan"] > rates["scalar batched"] > rates["per report"]
