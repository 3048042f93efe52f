"""Python call counts: a count, not a clock.

:class:`CallCounter` is the ``sys.setprofile`` hook the call-count
tests share (``tests/rdma``, ``tests/transport``, ``tests/retention``).
A count repeats exactly from run to run, whatever the host's load.
"""

from __future__ import annotations

import sys


class CallCounter:
    """Counts the profile ``events`` whose frame runs code from a file
    under one of ``prefixes`` (the default ``""`` is every file), while
    entered as a context manager.

    ``"call"`` is a Python function (or generator) entered; ``"c_call"``
    a builtin called — its frame is the caller's, so it counts the
    builtins that code under ``prefixes`` calls.
    """

    def __init__(self, prefixes: tuple = ("",),
                 events: tuple = ("call",)) -> None:
        self.prefixes = tuple(prefixes)
        self.events = frozenset(events)
        self.calls = 0

    def __call__(self, frame, event, _arg) -> None:
        if event in self.events \
                and frame.f_code.co_filename.startswith(self.prefixes):
            self.calls += 1

    def __enter__(self):
        sys.setprofile(self)
        return self

    def __exit__(self, *_exc) -> None:
        sys.setprofile(None)
