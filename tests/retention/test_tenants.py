"""Admission: the translator admits every report it can hold.

There is no ingress meter and no quota table: the translator
translates each report on arrival, the retention tier adds no
admission state, and shedding happens only at a reporter that a
congestion signal reached.  The test names come from the per-keyspace
quota tables, and then the ingress meter, that once sat here.
"""

from __future__ import annotations

import pytest

from repro.core import packets
from repro.core.packets import CongestionSignal
from repro.core.reporter import Reporter
from repro.core.translator import Translator
from repro.retention.manager import RetentionManager


def _deployment(collector):
    """A translator, the reporter feeding it directly, and the control
    messages it sends back."""
    tr = Translator()
    collector.connect_translator(tr)
    control = []
    tr.control_sink = lambda _src, raw: control.append(
        packets.decode_report(raw)[1])
    rep = Reporter("tn", 1, transmit=tr.handle_report)
    return tr, rep, control


def _send(rep, keys, **kwargs) -> None:
    for i, key in enumerate(keys):
        rep.key_write(key, bytes([i] * 4), redundancy=2, **kwargs)


def _found(collector, keys) -> list:
    return [collector.keywrite.query(key, redundancy=2).found
            for key in keys]


def test_longest_prefix_wins_and_duplicates_rejected(collector):
    """Every keyspace lands alike, and a rate limit is no option."""
    keys = [b"acme/k0", b"zeta/k1", b"acme/gold/k2", b"other", b"z"]
    tr, rep, _control = _deployment(collector)
    _send(rep, keys)
    assert all(_found(collector, keys)) and tr.stats.keywrites == 5
    with pytest.raises(TypeError):
        Translator(rate_limit_mps=1.0)


def test_quota_meter_colors_and_strictness(collector):
    """A signal mid-stream sheds what the reporter sends after it."""
    keys = [f"acme/k{i}".encode() for i in range(5)]
    tr, rep, _control = _deployment(collector)
    _send(rep, keys[:2])
    rep.handle_congestion(CongestionSignal(level=2))
    _send(rep, keys[2:])
    assert _found(collector, keys) == [True, True, False, False, False]
    assert rep.stats.shed_by_congestion == 3 and tr.stats.reports_in == 2


def test_over_quota_essential_reports_defer_to_cpu_backlog(collector):
    keys = [f"acme/k{i}".encode() for i in range(6)]
    tr, rep, _control = _deployment(collector)
    rep.handle_congestion(CongestionSignal(level=2))
    _send(rep, keys, essential=True)
    assert tr.stats.reports_in == 6 and all(_found(collector, keys))


def test_over_quota_low_priority_reports_shed(collector):
    keys = [f"acme/k{i}".encode() for i in range(6)]
    tr, rep, _control = _deployment(collector)
    rep.handle_congestion(CongestionSignal(level=1))
    _send(rep, keys)
    assert rep.stats.shed_by_congestion == 6
    assert tr.stats.reports_in == 0 and not any(_found(collector, keys))


def test_tenants_partition_quota_blame(collector):
    """The translator's only control message is a NACK."""
    tr, rep, control = _deployment(collector)
    _send(rep, [f"noisy/k{i}".encode() for i in range(6)], essential=True)
    rep._seq += 2                               # two essential reports lost
    _send(rep, [b"noisy/late"], essential=True)
    # The gap and the report that revealed it (aborted, not written).
    assert control == [packets.Nack(expected_seq=6, missing=3)]
    assert rep.congestion_level == 0


def test_tenant_table_requires_translator(collector):
    """The retention tier adds no admission state: every report lands
    with a manager rotating the stores in between, and the manager
    takes no quota table."""
    keys = [f"acme/k{i}".encode() for i in range(6)]
    tr, rep, _control = _deployment(collector)
    manager = RetentionManager(collector, translator=tr)
    for key in keys:
        _send(rep, [key])
        manager.rotate()
    assert tr.stats.keywrites == 6
    with pytest.raises(TypeError):
        RetentionManager(collector, translator=tr, tenants=None)


def test_deferred_reports_reinject_after_meter_cools(collector):
    """Once relaxed, a reporter's reports land again."""
    keys = [f"acme/k{i}".encode() for i in range(4)]
    tr, rep, _control = _deployment(collector)
    rep.handle_congestion(CongestionSignal(level=1))
    _send(rep, keys[:2])
    rep.relax()
    _send(rep, keys[2:])
    assert _found(collector, keys) == [False, False, True, True]
