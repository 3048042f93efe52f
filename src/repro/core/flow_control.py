"""DTA telemetry flow control: loss detection, NACKs, report backup.

Figure 5 / Section 3.3: every DTA report carries a counter of how many
*essential* reports its reporter has sent toward the translator.  The
translator compares the carried counter against its per-reporter state;
a gap means essential reports were lost, triggering a NACK that asks
the reporter to re-send from its local backup.  Reporters keep the most
recent essential reports in a bounded backup buffer (switch SRAM or
switch-CPU memory, Section 4.1) — reports evicted before a NACK arrives
are permanently lost and counted as such.

The on-wire sequence counter is 32 bits (see
:class:`repro.core.packets.DtaHeader`), so all sequence arithmetic here
is modulo :data:`SEQ_MOD` — a long-lived reporter wraps after 4G
essential reports and loss detection must keep working across the wrap,
exactly like RoCE PSNs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import OrderedDict

from repro.core.packets import Nack
from repro.obs.views import InstrumentedStats, counter_field

#: The essential-report counter is a 32-bit wire field; all sequence
#: comparisons are modular with this modulus.
SEQ_MOD = 1 << 32


def seq_distance(seq: int, reference: int) -> int:
    """Forward modular distance from ``reference`` to ``seq``.

    Values above ``SEQ_MOD // 2`` mean ``seq`` is *behind* the
    reference (a stale/duplicate report), mirroring RoCE PSN rules.
    """
    return (seq - reference) % SEQ_MOD


def _holding(runs: list, seq: int) -> int:
    """Index of the ``(start, stop)`` run in sorted ``runs`` that holds
    ``seq``, or -1."""
    i = bisect_right(runs, (seq, SEQ_MOD)) - 1
    return i if i >= 0 and seq < runs[i][1] else -1


class LossDetectorStats(InstrumentedStats):
    """Translator-side loss accounting."""

    component = "loss_detector"

    reports_checked = counter_field()
    losses_detected = counter_field()
    nacks_sent = counter_field()
    retransmits_accepted = counter_field()
    duplicate_retransmits = counter_field()
    stale_duplicates = counter_field()


class LossDetector:
    """Per-reporter essential-sequence tracking at the translator.

    Section 4.2: "Lost reports are detected through per-reporter
    registers, detection of which will abort report processing and
    instead generate a DTA NACK which is bounced back to the reporter."
    """

    def __init__(self, max_reporters: int = 65536, *,
                 labels: dict | None = None) -> None:
        self.max_reporters = max_reporters
        self._expected: dict[int, int] = {}
        # Seqs NACKed and awaiting retransmission, per reporter — the
        # ledger that lets duplicate retransmits be told apart from
        # first-time recoveries (duplicate-accounting fix).  Held as
        # sorted, disjoint ``(start, stop)`` runs within ``SEQ_MOD``,
        # so one gap costs one run whatever it spans.
        self._awaiting: dict[int, list[tuple[int, int]]] = {}
        self.stats = LossDetectorStats(labels=labels)

    def check(self, reporter_id: int, seq: int,
              *, retransmit: bool = False) -> Nack | None:
        """Validate one essential report.

        Returns None when the report should be processed, or a
        :class:`Nack` when a gap was detected (in which case the
        triggering report is aborted and must be re-sent too, matching
        the hardware behaviour).
        """
        self.stats.reports_checked += 1
        if retransmit:
            # Re-sent reports bypass sequencing (they fill old gaps).
            if self._take(reporter_id, seq):
                self.stats.retransmits_accepted += 1
            else:
                # A retransmit nobody asked for (duplicated NACK or a
                # re-send raced with another): count it separately so
                # `retransmits_accepted` balances against actual NACK
                # coverage instead of inflating with every duplicate.
                self.stats.duplicate_retransmits += 1
            # A retransmit landing exactly on the expected counter
            # advances it (and first contact adopts it), so a recovery
            # sweep re-sending a silent tail converges instead of the
            # same seqs reading as "still missing" forever.
            expected = self._expected.get(reporter_id)
            if expected is None or seq_distance(seq, expected) == 0:
                self._expected[reporter_id] = (seq + 1) % SEQ_MOD
            return None
        if reporter_id not in self._expected:
            if len(self._expected) >= self.max_reporters:
                raise OverflowError(
                    f"loss detector provisioned for {self.max_reporters} "
                    "reporters")
            # First contact: accept whatever counter the reporter is at.
            self._expected[reporter_id] = (seq + 1) % SEQ_MOD
            return None
        expected = self._expected[reporter_id]
        distance = seq_distance(seq, expected)
        if distance == 0:
            self._expected[reporter_id] = (seq + 1) % SEQ_MOD
            return None
        if distance > SEQ_MOD // 2:
            # Stale duplicate (e.g. reordering); process it — the data
            # structures tolerate re-writes.
            self.stats.stale_duplicates += 1
            return None
        # Gap: [expected, seq] never arrived (seq itself is aborted).
        missing = distance + 1
        self.stats.losses_detected += missing - 1
        self.stats.nacks_sent += 1
        stop = expected + missing
        self._await(reporter_id, expected, min(stop, SEQ_MOD))
        if stop > SEQ_MOD:
            self._await(reporter_id, 0, stop - SEQ_MOD)
        self._expected[reporter_id] = (seq + 1) % SEQ_MOD
        return Nack(expected_seq=expected, missing=missing)

    def expected_seq(self, reporter_id: int) -> int | None:
        return self._expected.get(reporter_id)

    # -- the awaiting ledger -----------------------------------------------

    def _await(self, reporter_id: int, start: int, stop: int) -> None:
        """Add ``[start, stop)`` to a reporter's runs, merging any run
        it overlaps or touches."""
        runs = self._awaiting.setdefault(reporter_id, [])
        i = bisect_left(runs, (start,))
        if i and runs[i - 1][1] >= start:
            i -= 1
            start = runs[i][0]
        j = i
        while j < len(runs) and runs[j][0] <= stop:
            stop = max(stop, runs[j][1])
            j += 1
        runs[i:j] = [(start, stop)]

    def _take(self, reporter_id: int, seq: int) -> bool:
        """Strike ``seq`` off a reporter's runs; False if not awaited."""
        runs = self._awaiting.get(reporter_id, [])
        i = _holding(runs, seq)
        if i < 0:
            return False
        start, stop = runs[i]
        runs[i:i + 1] = [run for run in ((start, seq), (seq + 1, stop))
                         if run[0] < run[1]]
        if not runs:
            del self._awaiting[reporter_id]
        return True

    # -- recovery support --------------------------------------------------

    def awaiting_runs(self) -> dict[int, list[tuple[int, int]]]:
        """NACKed-but-unfilled seqs per reporter, as ``[start, stop)``
        runs in ascending order (recovery sweep input)."""
        return {rid: list(runs) for rid, runs in self._awaiting.items()}

    def settle(self, reporter_id: int, held) -> list[int]:
        """Keep awaiting only the seqs in ``held`` (what the reporter's
        backup still holds) and give up on the rest of the reporter's
        ledger: their backup copies were evicted.  Returns the seqs
        kept, ascending — the ones a recovery sweep re-sends.

        Walks ``held``, never the runs, so a huge gap costs what the
        backup holds; the loss itself is already accounted by the
        reporter (``lost_forever``).
        """
        runs = self._awaiting.pop(reporter_id, [])
        kept = sorted(seq for seq in held if _holding(runs, seq) >= 0)
        for seq in kept:
            self._await(reporter_id, seq, seq + 1)
        return kept

    def force_expected(self, reporter_id: int, seq: int) -> None:
        """Recovery override: declare everything before ``seq`` settled.

        Used when tail reconciliation finds a sequence that no backup
        still holds — the report is unrecoverable, and leaving the
        expected counter pointing at the hole would make every later
        tail re-send read as "not yet the one we need" forever.
        """
        self._expected[reporter_id] = seq % SEQ_MOD

    def export_state(self) -> dict:
        """Snapshot sequence state for translator failover.

        The standby imports this at takeover (state sync over the
        controller channel) so a stream moves between translators
        without re-running first-contact acceptance — which would
        silently forgive any report lost in the gap.
        """
        return {"expected": dict(self._expected),
                "awaiting": self.awaiting_runs()}

    def import_state(self, state: dict) -> None:
        """Adopt a peer's :meth:`export_state` snapshot (failover)."""
        self._expected = dict(state["expected"])
        self._awaiting = {rid: [tuple(run) for run in runs]
                          for rid, runs in state["awaiting"].items()
                          if runs}


class BackupStats(InstrumentedStats):
    """Reporter-side backup accounting."""

    component = "backup"

    stored = counter_field()
    evicted = counter_field()
    retransmitted = counter_field()
    unavailable = counter_field()


class ReportBackup:
    """Bounded store of recent essential reports, keyed by sequence.

    Section 5.3 provisions "256 essential in-transit reports" per
    reporter; older entries are evicted FIFO.
    """

    def __init__(self, capacity: int = 256, *,
                 labels: dict | None = None) -> None:
        if capacity <= 0:
            raise ValueError("backup capacity must be positive")
        self.capacity = capacity
        self._buf: "OrderedDict[int, bytes]" = OrderedDict()
        self.stats = BackupStats(labels=labels)

    def store(self, seq: int, raw: bytes) -> None:
        """Retain an essential report until it is presumed delivered.

        Re-storing a live sequence refreshes its recency: without the
        ``move_to_end`` the entry would keep its *original* eviction
        slot, so a just-refreshed report could be the next FIFO victim
        while stale neighbours survive.
        """
        key = seq % SEQ_MOD
        self._buf[key] = raw
        self._buf.move_to_end(key)
        self.stats.stored += 1
        while len(self._buf) > self.capacity:
            self._buf.popitem(last=False)
            self.stats.evicted += 1

    def fetch(self, nack: Nack) -> list:
        """Reports to re-send for a NACK; missing ones are counted lost.

        The NACKed range may straddle the 32-bit wrap; order is modular
        from ``expected_seq``, so post-wrap sequences come last.  The
        walk is over the held reports (at most ``capacity``), never the
        range, and the rest of the range is counted unavailable in one
        step.
        """
        def offset(item) -> int:
            return seq_distance(item[0], nack.expected_seq)

        out = sorted((item for item in self._buf.items()
                      if offset(item) < nack.missing), key=offset)
        self.stats.retransmitted += len(out)
        self.stats.unavailable += nack.missing - len(out)
        return out

    def get(self, seq: int) -> bytes | None:
        """The backed-up report for one seq, or None if evicted."""
        return self._buf.get(seq % SEQ_MOD)

    def seqs(self) -> list[int]:
        """Live sequence numbers, oldest first (recovery reconciliation)."""
        return list(self._buf)

    def __len__(self) -> int:
        return len(self._buf)
