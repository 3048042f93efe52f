"""Measurement plumbing: clocks, process-tree accounting, guards, stats.

Nothing here knows about DTA; it is what any benchmark on a small
shared host needs — CPU and memory of a whole process tree, a deadline
on every wait, a leak check after every workload, medians with their
sample counts, and a calibration spin that tells host noise from a
code change.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import sys
import threading
import time

_TICK = os.sysconf("SC_CLK_TCK")

clock = time.perf_counter


class BenchError(RuntimeError):
    """The benchmark itself failed (not a measured correctness gate)."""


class BenchDeadline(BenchError):
    """A wait in the benchmark outlived its deadline."""


class LeakError(BenchError):
    """A workload left processes, threads, fds or shm segments behind."""


# -- deadlines ---------------------------------------------------------------

class deadline:
    """``with deadline(seconds, what):`` — raise instead of hanging.

    SIGALRM interrupts lock waits, joins, pipe polls and socket reads
    on the main thread, which is where every blocking call of the
    benchmark (``engine.drain``, ``lane.drain``, child joins) is made.
    """

    def __init__(self, seconds: float, what: str) -> None:
        self.seconds = seconds
        self.what = what

    def _fire(self, signum, frame):
        raise BenchDeadline(
            f"{self.what} did not finish within {self.seconds:.0f}s")

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)


# -- process tree ------------------------------------------------------------

def _proc_cpu(pid: int) -> float | None:
    """utime + stime of one live process, in seconds."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b") ", 1)[1].split()
    except (OSError, IndexError):
        return None
    return (int(fields[11]) + int(fields[12])) / _TICK


def _proc_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def children() -> list:
    """Live child processes this interpreter started."""
    return multiprocessing.active_children()


class TreeCpu:
    """CPU seconds of the whole process tree over an interval.

    The parent's own user+system time, the total of children already
    reaped (plan workers exit inside ``engine.drain``), and every live
    child read from ``/proc/<pid>/stat`` (daemons are still up when a
    socket lane drains).  A child's CPU from before :meth:`start` is
    subtracted whichever way it ends up being counted.
    """

    def start(self) -> "TreeCpu":
        times = os.times()
        self._self0 = time.process_time()
        self._reaped0 = times.children_user + times.children_system
        self._live0 = {}
        for child in children():
            cpu = _proc_cpu(child.pid)
            if cpu is not None:
                self._live0[child.pid] = (cpu, child.name)
        return self

    def stop(self) -> dict:
        """``{"parent", "children", "by_name"}`` CPU seconds since start."""
        live1 = {}
        for child in children():
            cpu = _proc_cpu(child.pid)
            if cpu is not None:
                live1[child.pid] = (cpu, child.name)
        parent = time.process_time() - self._self0
        times = os.times()
        kids = times.children_user + times.children_system - self._reaped0
        by_name: dict = {}
        for pid, (cpu, name) in live1.items():
            delta = cpu - self._live0.get(pid, (0.0, name))[0]
            kids += delta
            by_name[name] = by_name.get(name, 0.0) + delta
        for pid, (cpu, _name) in self._live0.items():
            if pid not in live1:
                kids -= cpu          # reaped: its pre-start share
        return {"parent": parent, "children": max(kids, 0.0),
                "by_name": by_name}


class TreeRss:
    """Peak resident set of the tree, in MiB: the parent's high-water
    mark plus the largest sum, over the samples taken, of the live
    children's high-water marks (forked children share pages with the
    parent, so this over-counts physical memory — consistently)."""

    def __init__(self) -> None:
        self._kids_kb = 0

    def sample(self) -> None:
        total = sum(_proc_hwm_kb(child.pid) for child in children())
        self._kids_kb = max(self._kids_kb, total)

    def peak_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (own + self._kids_kb) / 1024.0


# -- leak guard --------------------------------------------------------------

class ShmLedger:
    """Names of the shared-memory segments this process creates.

    ``/dev/shm`` is host-wide, so "nothing new there" cannot be checked
    by listing it while another benchmark runs next door.  Every
    segment of a run is created in this process (lanes and pools create,
    daemons and workers only attach), so recording creations here and
    testing those names afterwards is exact.
    """

    def __init__(self) -> None:
        from multiprocessing import shared_memory

        self.names: list = []
        original = shared_memory.SharedMemory.__init__
        names = self.names

        def recording(shm, *args, **kwargs):
            original(shm, *args, **kwargs)
            if kwargs.get("create", args[1] if len(args) > 1 else False):
                names.append(shm.name)

        shared_memory.SharedMemory.__init__ = recording

    def leaked(self) -> list:
        return [name for name in self.names
                if os.path.exists(os.path.join("/dev/shm", name))]


def _open_fds() -> int:
    return len(os.listdir(f"/proc/{os.getpid()}/fd"))


class LeakGuard:
    """Snapshot of what exists; :meth:`check` raises on anything new.

    Take the snapshot after the warm-up rep, so one-time residents
    (multiprocessing's resource tracker and its pipe) are in it.
    """

    def __init__(self, ledger: ShmLedger) -> None:
        self.ledger = ledger
        self.threads = {t.ident for t in threading.enumerate()}
        self.fds = _open_fds()

    def check(self, what: str) -> None:
        # Finished engines sit in reference cycles (engine <-> pool <->
        # process handles, two sentinel pipes each) until a collection.
        gc.collect()
        problems = []
        kids = children()
        if kids:
            problems.append("live children: "
                            + ", ".join(k.name for k in kids))
        leaked = self.ledger.leaked()
        if leaked:
            problems.append(f"/dev/shm entries: {leaked[:4]}")
        new_threads = [t.name for t in threading.enumerate()
                       if t.ident not in self.threads]
        if new_threads:
            problems.append(f"threads: {new_threads}")
        fds = _open_fds()
        if fds > self.fds:
            problems.append(f"open fds grew {self.fds} -> {fds}")
        if problems:
            raise LeakError(f"{what} leaked " + "; ".join(problems))


def reap_children(grace: float = 2.0) -> None:
    """Failure path: stop every child we started and wait for it."""
    kids = children()
    for child in kids:
        child.terminate()
    for child in kids:
        child.join(timeout=grace)
        if child.is_alive():
            child.kill()
            child.join(timeout=grace)


_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36


def _prctl(option: int, value: int) -> None:
    """Best effort: without ``prctl`` the containment below is weaker,
    the orderly teardown in :func:`stop_all_processes` is unaffected."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(option, value, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def contain_processes() -> None:
    """Tie every process this interpreter will start to its lifetime.

    * Orphaned descendants re-parent to this process, so
      :func:`stop_all_processes` can wait for a grandchild whose parent
      died (a daemon of a workload interpreter killed on its deadline).
    * Every forked child (daemons, plan workers: all forked from the
      main thread) asks the kernel for SIGKILL when this process dies,
      so even a SIGKILL of the benchmark leaves nothing serving.
    """
    _prctl(_PR_SET_CHILD_SUBREAPER, 1)
    os.register_at_fork(
        after_in_child=lambda: _prctl(_PR_SET_PDEATHSIG, signal.SIGKILL))


def child_pids() -> list:
    """Pids whose parent is this process, zombies included."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                fields = handle.read().rsplit(b") ", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def stop_all_processes() -> None:
    """Every path out of the benchmark ends here: when it returns, no
    process this interpreter started — or inherited — is left, not even
    as a zombie.

    ``multiprocessing``'s resource tracker is the one child nobody
    joins: it is spawned by the first ``SharedMemory`` and ends only
    when its pipe closes at interpreter exit, i.e. *after* the parent
    is gone.  It is stopped (and waited for) here, while the parent can
    still wait; a Python without ``_stop`` gets it killed below, which
    is harmless once every segment is unlinked (the leak guard's job).
    """
    from multiprocessing import resource_tracker

    reap_children()
    stop = getattr(getattr(resource_tracker, "_resource_tracker", None),
                   "_stop", None)
    if stop is not None:
        try:
            stop()
        except (OSError, ChildProcessError):
            pass
    for _round in range(100):           # orphans may arrive as parents die
        pids = child_pids()
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass


# -- statistics --------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def fast(values, *, rate: bool = False) -> float:
    """The fast decile: 10th percentile of times, 90th of rates.

    Interference on a shared host only ever slows a sample down — the
    calibration spin shows a flat ceiling with dips to 60-70 % lasting
    0.1-1 s — so the fast tail of the samples is what the code costs
    and the rest is what the neighbours cost.  A decile rather than the
    extreme, so one freak sample cannot set the result.
    """
    ordered = sorted(values)
    rank = (len(ordered) - 1) * (0.9 if rate else 0.1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def quartiles(values) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        value = float(values[0])
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def tail(values) -> tuple:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``; with fewer than 20 samples no
    percentile above the median qualifies and the median is returned.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return 50.0, median(ordered)
    index = n - 11                      # ten samples lie beyond it
    return round(100.0 * (index + 1) / n, 1), float(ordered[index])


# -- calibration and host facts ----------------------------------------------

def calib_kops() -> float:
    """A fixed pure-Python + numpy spin, in thousand operations/second.

    Has nothing to do with DTA: when two result sets disagree and their
    ``calib_kops`` disagree the same way, the host moved, not the code.
    """
    import numpy as np

    start = clock()
    acc = 0
    for i in range(150_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    data = np.arange(200_000, dtype=np.uint32) * np.uint32(2654435761)
    for _ in range(4):
        data = np.sort(data ^ (data >> np.uint32(13)))
    ops = 150_000 + 4 * 200_000
    return ops / (clock() - start) / 1000.0


def steal_ticks() -> int:
    """Cumulative stolen-time ticks of the host (``/proc/stat``)."""
    try:
        with open("/proc/stat", "rb") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


def host_facts() -> dict:
    import numpy as np

    try:
        load = os.getloadavg()
    except OSError:
        load = (0.0, 0.0, 0.0)
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": sys.platform,
            "loadavg": [round(x, 2) for x in load]}
