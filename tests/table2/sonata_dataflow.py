"""Sonata's dataflow model: composable packet-stream operators.

Sonata (Gupta et al., SIGCOMM'18) expresses queries as chains of
dataflow operators — ``filter``, ``map``, ``distinct``, ``reduce`` —
compiled onto switches, with per-epoch results streamed to the runtime.
:mod:`tests.table2.sonata` implements the paper's Table 2 mapping
for one fixed query shape; this module implements the general operator
model so arbitrary Sonata-style queries run against packet streams and
report through DTA:

* per-epoch **results** (the reduced table, thresholded) via Key-Write
  under the query-ID key, and
* **raw tuples** crossing the threshold via Append, mirroring Sonata's
  "send to the streaming processor" escape hatch.

Example — Sonata's canonical "newly opened TCP connections" query::

    query = DataflowQuery(
        query_id=7, reporter=reporter,
        operators=[
            Filter(lambda p: p.is_syn),
            Map(lambda p: p.flow_key[4:8]),   # dst ip
            Reduce(threshold=40),
        ])
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

from repro.core.reporter import Reporter


class Operator:
    """One dataflow stage; subclasses transform or drop records."""

    def start_epoch(self) -> None:
        """Reset per-epoch state (default: stateless)."""

    def process(self, record):
        """Return the transformed record, or None to drop it."""
        raise NotImplementedError


@dataclass
class Filter(Operator):
    """Keep records satisfying a predicate."""

    predicate: Callable

    def process(self, record):
        return record if self.predicate(record) else None


@dataclass
class Map(Operator):
    """Transform each record (typically: project to a grouping key)."""

    fn: Callable

    def process(self, record):
        return self.fn(record)


class Distinct(Operator):
    """Pass only the first occurrence of each record per epoch.

    Sonata uses distinct before reduce to count *unique* contributors
    (e.g. distinct sources per destination for DDoS detection).

    Args:
        key_fn: Dedup key extractor (default: the record itself).
    """

    def __init__(self, key_fn: Callable | None = None) -> None:
        self.key_fn = key_fn or (lambda record: record)
        self._seen: set = set()

    def start_epoch(self) -> None:
        self._seen.clear()

    def process(self, record):
        key = self.key_fn(record)
        if key in self._seen:
            return None
        self._seen.add(key)
        return record


class Reduce(Operator):
    """Terminal stage: per-key accumulation with a report threshold.

    Args:
        key_fn: Grouping key (default: the record itself — used after a
            Map projected records to keys).
        value_fn: Contribution per record (default 1: counting).
        threshold: Keys whose accumulated value reaches this are part
            of the epoch's reported result.
    """

    def __init__(self, *, key_fn: Callable | None = None,
                 value_fn: Callable | None = None,
                 threshold: int = 1) -> None:
        self.key_fn = key_fn or (lambda record: record)
        self.value_fn = value_fn or (lambda record: 1)
        self.threshold = threshold
        self.table: dict = {}

    def start_epoch(self) -> None:
        self.table.clear()

    def process(self, record):
        key = self.key_fn(record)
        self.table[key] = self.table.get(key, 0) + self.value_fn(record)
        return None   # terminal: nothing flows past a reduce

    def over_threshold(self) -> dict:
        return {key: value for key, value in self.table.items()
                if value >= self.threshold}


@dataclass
class EpochResult:
    """What one epoch produced."""

    query_id: int
    groups: int
    over_threshold: dict


class DataflowQuery:
    """A compiled operator chain reporting through DTA.

    Args:
        query_id: Identity (the Key-Write key is its 4-byte encoding).
        operators: The chain; at most one Reduce, which must be last.
        reporter: DTA reporter.
        raw_list: Append list mirroring over-threshold keys (None
            disables).
    """

    def __init__(self, query_id: int, operators: list,
                 reporter: Reporter, *, raw_list: int | None = None,
                 redundancy: int = 2) -> None:
        if not operators:
            raise ValueError("a query needs at least one operator")
        for op in operators[:-1]:
            if isinstance(op, Reduce):
                raise ValueError("Reduce must be the final operator")
        self.query_id = query_id
        self.operators = operators
        self.reporter = reporter
        self.raw_list = raw_list
        self.redundancy = redundancy
        self.reduce = operators[-1] if isinstance(operators[-1], Reduce) \
            else None
        self.packets_processed = 0
        self.epochs = 0
        for op in operators:
            op.start_epoch()

    @property
    def key(self) -> bytes:
        return struct.pack(">I", self.query_id)

    def process(self, record) -> None:
        """Run one packet/record through the chain."""
        self.packets_processed += 1
        for op in self.operators:
            record = op.process(record)
            if record is None:
                return

    def end_epoch(self) -> EpochResult:
        """Report the epoch result and reset operator state.

        The fixed-size Key-Write result is (distinct groups, groups
        over threshold); over-threshold keys are mirrored raw when a
        list is configured.
        """
        if self.reduce is not None:
            groups = len(self.reduce.table)
            over = self.reduce.over_threshold()
        else:
            groups, over = 0, {}
        payload = struct.pack(">II", groups, len(over))
        self.reporter.key_write(self.key, payload,
                                redundancy=self.redundancy,
                                essential=True)
        if self.raw_list is not None:
            for key in over:
                raw = key if isinstance(key, bytes) \
                    else struct.pack(">I", int(key) & 0xFFFFFFFF)
                self.reporter.append(self.raw_list, raw)
        result = EpochResult(query_id=self.query_id, groups=groups,
                             over_threshold=over)
        for op in self.operators:
            op.start_epoch()
        self.epochs += 1
        return result
