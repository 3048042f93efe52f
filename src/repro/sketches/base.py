"""Common sketch interface: update, query, merge, and column transport.

The column-wise accessors exist because DTA reporters ship sketches to
the translator *one column per DTA packet* (Section 4.2, citing
LightGuardian [82]); the translator re-assembles and merges per column.
"""

from __future__ import annotations

import abc
from typing import Iterable


class MergeError(Exception):
    """Sketches with incompatible shapes/parameters cannot merge."""


class Sketch(abc.ABC):
    """Abstract mergeable sketch."""

    @abc.abstractmethod
    def update(self, key: bytes, weight: int = 1) -> None:
        """Account one observation of ``key``."""

    def update_many(self, keys, weights=None) -> None:
        """Account a batch of observations: :meth:`update` per key, in
        order."""
        if weights is None:
            for key in keys:
                self.update(key)
        else:
            for key, weight in zip(keys, weights):
                self.update(key, weight)

    @abc.abstractmethod
    def merge(self, other: "Sketch") -> None:
        """Fold ``other`` into ``self`` (the network-wide aggregation)."""

    @abc.abstractmethod
    def columns(self) -> Iterable[tuple]:
        """Yield transportable columns (index, counter tuple)."""

    @abc.abstractmethod
    def merge_column(self, index: int, column: tuple) -> None:
        """Merge one received column into this sketch."""

    def check_compatible(self, other: "Sketch") -> None:
        """Raise :class:`MergeError` unless shapes match."""
        if type(self) is not type(other):
            raise MergeError(
                f"cannot merge {type(other).__name__} into "
                f"{type(self).__name__}")
