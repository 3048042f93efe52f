"""``route_report`` agrees with the assembler, shard for shard.

The reporter picks a translator lane from ``route_report``'s byte
slicing; the daemon behind that lane writes wherever
``ReportAssembler.feed``'s full decode says.  If the two ever disagree
a shard gets a second writer, so the offsets ``route_report`` derives
from the codec are checked against the decode for every primitive.
"""

from __future__ import annotations

import pytest

from repro.core.cluster import ClusterMap
from repro.transport.assembler import ReportAssembler
from repro.transport.serve import route_report
from repro.workloads import reports


class _Sink:
    """Stands in for a shard's translator; counts what reaches it."""

    def __init__(self) -> None:
        self.reports = 0

    def process_batch(self, batch, **_kw) -> None:
        self.reports += len(batch)

    def flush_appends(self) -> None:
        pass

    check = plan_columns = staticmethod(lambda *args: None)


@pytest.mark.parametrize("collectors,sketch_home",
                         [(1, 0), (2, 1), (3, 2)])
@pytest.mark.parametrize("primitive", reports.PRIMITIVES)
def test_route_report_is_the_shard_feed_writes_to(primitive, collectors,
                                                  sketch_home):
    cmap = ClusterMap(collectors=collectors, sketch_home=sketch_home)
    routed = set()
    for raw in reports.wire(primitive, 64, 5):
        sinks = [_Sink() for _ in range(collectors)]
        assembler = ReportAssembler(sinks, cmap)
        assembler.feed(raw)
        assembler.finish()
        assert assembler.malformed == 0
        written = [shard for shard, sink in enumerate(sinks)
                   if sink.reports]
        assert written == [route_report(cmap, raw)]
        routed.update(written)
    if primitive == "sketch_merge":
        assert routed == {sketch_home}
    else:
        assert routed == set(range(collectors))
