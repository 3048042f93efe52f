"""Shared fixtures: a fully wired DTA deployment in direct mode.

Also the suite's hygiene layer: every test runs against a fresh obs
registry and cleared hash/CRC memo caches (see ``_fresh_globals``), so
no test observes state another test left behind and the suite passes
under any execution order (``pytest -p no:randomly`` not required; try
``--ff`` or a reversed file list — the digests still agree).  A test
that leaves a shared-memory segment, a child process or a file
descriptor behind fails (see ``_no_leaks``), as does one that leaves a
thread it started alive.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import threading
import time
from multiprocessing import resource_tracker, shared_memory

import hypothesis
import pytest

from repro import obs
from repro.core.collector import Collector
from repro.core.reporter import Reporter
from repro.core.translator import Translator

# Explicit no-deadline profile: the property suites drive whole
# deployments per example, whose wall-clock varies too much for
# hypothesis's default 200ms deadline on a loaded CI box; derandomized
# so a red run reproduces from the seed in the failure message.
hypothesis.settings.register_profile(
    "repro-ci", deadline=None, derandomize=True)
hypothesis.settings.load_profile("repro-ci")


@pytest.fixture(autouse=True)
def _fresh_globals():
    """Per-test reset of module-global mutable state.

    Swaps in a fresh metrics registry (components built inside the test
    bind to it; the previous registry — which module/class-scoped
    fixtures may hold components against — comes back untouched
    afterwards) and clears the CRC/hash memo caches, whose content is
    input-deterministic but whose *presence* could mask cold-path bugs
    depending on which test ran first.
    """
    import repro.retention
    from repro.kernels import crc as kernel_crc
    from repro.switch import crc as switch_crc

    previous = obs.set_registry(obs.Registry())
    switch_crc._TABLE_CACHE.clear()
    switch_crc._hash_lane.cache_clear()
    # Retention/epoch module state (checkpoint temp-name sequence):
    # reset so checkpoint directory names are order-independent.
    repro.retention.reset_state()
    kernel_crc._NP_TABLE_CACHE.clear()
    kernel_crc._lane_state.cache_clear()
    try:
        yield
    finally:
        obs.set_registry(previous)


@pytest.fixture(scope="session", autouse=True)
def _created_segments():
    """Names of the shared-memory segments this process creates.

    ``/dev/shm`` is host-wide, so listing it cannot say what a test
    left there while other processes use it; recording this process's
    creations and testing those names afterwards is exact.
    """
    names: list = []
    original = shared_memory.SharedMemory.__init__

    def recording(shm, *args, **kwargs):
        original(shm, *args, **kwargs)
        if kwargs.get("create", args[1] if len(args) > 1 else False):
            names.append(shm.name)

    shared_memory.SharedMemory.__init__ = recording
    try:
        yield names
    finally:
        shared_memory.SharedMemory.__init__ = original


@pytest.fixture(scope="session", autouse=True)
def _resource_tracker():
    """multiprocessing's resource tracker, started before any test.

    The first segment or process a test creates would otherwise start
    it, and its pipe would stay open as that test's fd.
    """
    resource_tracker.ensure_running()


def _open_fds() -> dict:
    """``{fd: what it is open on}`` for this process (empty where there
    is no ``/proc/self/fd``)."""
    fd_dir = "/proc/self/fd"
    try:
        listed = os.listdir(fd_dir)
    except FileNotFoundError:
        return {}
    fds = {}
    for name in listed:
        try:
            fds[int(name)] = os.readlink(os.path.join(fd_dir, name))
        except FileNotFoundError:     # the listing's own, closed since
            pass
    return fds


def _new_fds(before: dict) -> dict:
    """Descriptors opened since ``before`` and still open.  Garbage
    that holds one (a socket in a reference cycle) is collected first,
    only when the set grew."""
    if _open_fds().items() <= before.items():
        return {}
    gc.collect()
    return dict(_open_fds().items() - before.items())


#: How long a thread the test started may take to finish exiting after
#: the test (one already told to stop, not yet joined).
THREAD_GRACE_S = 1.0


def _live_threads(before: set) -> list:
    """Threads started since ``before`` that outlive a short grace."""
    deadline = time.monotonic() + THREAD_GRACE_S
    threads = [thread for thread in threading.enumerate()
               if thread not in before]
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    return [thread for thread in threads if thread.is_alive()]


@pytest.fixture(autouse=True)
def _no_leaks(_created_segments, _resource_tracker):
    """Fail a test that leaves a segment it created in ``/dev/shm``, a
    child process, a file descriptor or a thread it started alive.

    The baseline is taken after every higher-scoped fixture is set up,
    so what those hold is theirs; the test's own function-scoped
    fixtures are torn down before the check.  Leaked segments and
    children are reclaimed before failing, so the next test starts
    clean; a thread cannot be stopped from outside, only named, and an
    fd is only named too (closing it under its owner could close a
    later reuse of the number).
    """
    first = len(_created_segments)
    children = set(multiprocessing.active_children())
    threads = set(threading.enumerate())
    fds = _open_fds()
    yield
    leaked = [name for name in _created_segments[first:]
              if os.path.exists(os.path.join("/dev/shm", name))]
    kids = [kid for kid in multiprocessing.active_children()
            if kid not in children]
    alive = _live_threads(threads)
    opened = _new_fds(fds)
    if not leaked and not kids and not alive and not opened:
        return
    for name in leaked:
        segment = shared_memory.SharedMemory(name=name)
        segment.close()
        segment.unlink()
    for kid in kids:
        kid.terminate()
        kid.join(5.0)
    pytest.fail(f"test leaked /dev/shm segments {leaked}, child "
                f"processes {[kid.name for kid in kids]}, threads "
                f"{[thread.name for thread in alive]} and fds "
                f"{sorted(opened.items())}")


@pytest.fixture
def obs_probe() -> obs.ObsProbe:
    """A delta probe over the metrics registry.

    Usage::

        def test_conservation(obs_probe, deployment):
            with obs_probe as p:
                drive_traffic()
            p.assert_balance("reporter.reports_sent",
                             "translator.reports_in")

    Each test gets a *fresh* registry (swapped back afterwards) so
    deltas never see metrics from other tests.
    """
    previous = obs.set_registry(obs.Registry())
    try:
        yield obs.ObsProbe()
    finally:
        obs.set_registry(previous)


@pytest.fixture
def collector() -> Collector:
    """A collector serving every primitive at small scale."""
    col = Collector()
    col.serve_keywrite(slots=4096, data_bytes=4)
    col.serve_postcarding(chunks=1024, value_set=range(256), cache_slots=256)
    col.serve_append(lists=8, capacity=128, data_bytes=4, batch_size=4)
    col.serve_keyincrement(slots_per_row=512, rows=4)
    col.serve_sketch(width=32, depth=4, expected_reporters=2,
                     batch_columns=8)
    return col


@pytest.fixture
def translator(collector: Collector) -> Translator:
    """A translator connected to the small collector."""
    tr = Translator()
    collector.connect_translator(tr)
    return tr


@pytest.fixture
def reporter(translator: Translator) -> Reporter:
    """A reporter transmitting straight into the translator."""
    return Reporter("r1", 1, transmit=translator.handle_report)


@pytest.fixture
def deployment(collector, translator, reporter):
    """(collector, translator, reporter) triple for integration tests."""
    return collector, translator, reporter
