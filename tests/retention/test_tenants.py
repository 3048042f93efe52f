"""The translator's ingress meter, the one admission path there is.

Every report is marked by one trTCM meter (RFC 2698): GREEN admits;
an essential report over the rate defers to the switch-CPU backlog and
re-injects once the meter cools; a low-priority one is shed; RED also
signals congestion to the reporter.  The test names come from the
per-keyspace quota tables, since removed, that shared this verdict
mapping.
"""

from __future__ import annotations

import pytest

from repro.core import packets
from repro.core.reporter import Reporter
from repro.core.translator import Translator
from repro.retention.manager import RetentionManager
from repro.switch.meters import Meter, MeterColor, MeterConfig

#: Two committed units, two more peak units, no refill: reports 1-2
#: GREEN, 3-4 YELLOW, everything after RED.
TINY = MeterConfig(committed_rate=0.0, committed_burst=2.0,
                   peak_rate=0.0, peak_burst=4.0)


def _metered_deployment(collector, config=TINY):
    """A translator whose ingress meter is ``config``, the reporter
    feeding it directly, and the control messages it sends back."""
    tr = Translator(rate_limit_mps=1.0)
    tr._meter = Meter(config, name="ingress")
    collector.connect_translator(tr)
    control = []
    tr.control_sink = lambda _src, raw: control.append(
        packets.decode_report(raw)[1])
    rep = Reporter("tn", 1, transmit=tr.handle_report)
    return tr, rep, control


def _send(rep, keys, **kwargs) -> None:
    for i, key in enumerate(keys):
        rep.key_write(key, bytes([i] * 4), redundancy=2, **kwargs)


def test_longest_prefix_wins_and_duplicates_rejected(collector):
    """One meter for every key: the verdict follows arrival order,
    whatever keyspace a report's key is in; a malformed rate is
    rejected when the meter is configured."""
    tr, rep, _control = _metered_deployment(collector)
    _send(rep, [b"acme/k0", b"zeta/k1", b"acme/gold/k2", b"other", b"z"])
    assert tr._meter.marked == {MeterColor.GREEN: 2, MeterColor.YELLOW: 2,
                                MeterColor.RED: 1}
    with pytest.raises(ValueError):
        MeterConfig(committed_rate=-1.0, committed_burst=2.0,
                    peak_rate=0.0, peak_burst=4.0)
    with pytest.raises(ValueError):
        MeterConfig(committed_rate=2.0, committed_burst=2.0,
                    peak_rate=1.0, peak_burst=4.0)


def test_quota_meter_colors_and_strictness():
    meter = Meter(TINY)
    colors = [meter.mark(0.0) for _ in range(5)]
    assert colors == [MeterColor.GREEN, MeterColor.GREEN,
                      MeterColor.YELLOW, MeterColor.YELLOW,
                      MeterColor.RED]
    assert meter.marked[MeterColor.RED] == 1
    # An administratively closed meter marks everything RED.
    closed = Meter(MeterConfig(committed_rate=0.0, committed_burst=0.0,
                               peak_rate=0.0, peak_burst=0.0))
    assert closed.mark(0.0) is MeterColor.RED


def test_over_quota_essential_reports_defer_to_cpu_backlog(collector):
    tr, rep, _control = _metered_deployment(collector)
    _send(rep, [f"acme/k{i}".encode() for i in range(6)], essential=True)
    # 2 GREEN + 2 YELLOW-deferred + 2 RED (RED defers essentials too).
    assert len(tr.cpu_backlog) == 4
    assert tr.stats.rerouted_to_cpu == 4
    assert tr.stats.low_priority_dropped == 0
    assert tr.stats.reports_in == 6
    # Admitted reports landed; deferred ones have not (yet).
    assert collector.keywrite.query(b"acme/k0", redundancy=2).found
    assert not collector.keywrite.query(b"acme/k5", redundancy=2).found


def test_over_quota_low_priority_reports_shed(collector):
    tr, rep, _control = _metered_deployment(collector)
    _send(rep, [f"acme/k{i}".encode() for i in range(6)])
    assert tr.stats.low_priority_dropped == 4
    assert tr.stats.rerouted_to_cpu == 0
    assert len(tr.cpu_backlog) == 0
    assert collector.keywrite.query(b"acme/k1", redundancy=2).found
    assert not collector.keywrite.query(b"acme/k2", redundancy=2).found


def test_tenants_partition_quota_blame(collector):
    """RED, and only RED, signals congestion back to the reporter."""
    tr, rep, control = _metered_deployment(collector)
    _send(rep, [f"noisy/k{i}".encode() for i in range(6)])
    assert tr.stats.congestion_signals == 2
    assert control == [packets.CongestionSignal(level=2)] * 2
    for signal in control:
        rep.handle_congestion(signal)
    assert rep.congestion_level == 2


def test_tenant_table_requires_translator(collector):
    """The retention tier adds no admission state: the meter verdicts
    are the same with a manager rotating the stores in between, and
    the manager takes no quota table."""
    tr, rep, _control = _metered_deployment(collector)
    manager = RetentionManager(collector, translator=tr)
    for i in range(6):
        _send(rep, [f"acme/k{i}".encode()])
        manager.rotate()
    assert tr._meter.marked == {MeterColor.GREEN: 2, MeterColor.YELLOW: 2,
                                MeterColor.RED: 2}
    assert tr.stats.low_priority_dropped == 4
    with pytest.raises(TypeError):
        RetentionManager(collector, translator=tr, tenants=None)


def test_deferred_reports_reinject_after_meter_cools(collector):
    """The backlog drains through the same meter once it refills — the
    switch-CPU re-injection path."""
    refill = MeterConfig(committed_rate=100.0, committed_burst=2.0,
                         peak_rate=100.0, peak_burst=2.0)
    tr, rep, _control = _metered_deployment(collector, refill)
    _send(rep, [f"acme/k{i}".encode() for i in range(4)], essential=True)
    assert len(tr.cpu_backlog) == 2
    drained = tr.reinject_cpu_backlog(now=1.0)
    assert drained == 2
    for i in range(4):
        assert collector.keywrite.query(f"acme/k{i}".encode(),
                                        redundancy=2).found
