"""Work in forked child processes, each reporting through a pipe of its own."""

from __future__ import annotations

import contextlib
import os
import pickle
import select
import signal
import sys
import threading
import warnings

# processes at most that run a sweep's slices, or an oracle run's shards.
# The parent forks them one after another, about 2 ms each on a 2-vCPU host,
# before it works on its own; with the CPU count patched to 4, 8 and 36
# there, the forks of a default oracle run of about 0.1 s took 3-4, 13-36
# and 240-310 ms (the last two with the CPUs oversubscribed)
_MAX_WORKERS = 4

# in a child of Forked, the pid of the process that forked it; None elsewhere
_parent = None


def processes(n: int) -> int:
    """Processes to run ``n`` pieces of work in, forked children included: one
    per usable CPU, at most ``_MAX_WORKERS`` and at most ``n``; 1 where the
    platform cannot fork or another Python thread runs, one that a child could
    inherit in the middle of holding a lock."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(_usable_cpus(), _MAX_WORKERS, n)


# where _cpu_quota finds this process's cgroup v2 and its cpu.max
_PROC_CGROUP = "/proc/self/cgroup"
_CGROUP_ROOT = "/sys/fs/cgroup"


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has
    one, else every CPU, and no more than its cgroup CPU quota allows."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    quota = _cpu_quota()
    return cpus if quota is None else min(cpus, quota)


def _cpu_quota() -> int | None:
    """``ceil(quota / period)`` of the ``cpu.max`` of this process's cgroup v2,
    the ``0::`` path of ``/proc/self/cgroup``; ``None`` for a ``max`` quota and
    where either file is missing or malformed (cgroup v1 has no ``cpu.max``)."""
    try:
        with open(_PROC_CGROUP, encoding="utf-8") as fh:
            path = next(line[3:].strip() for line in fh if line.startswith("0::"))
        with open(os.path.join(_CGROUP_ROOT, path.lstrip("/"), "cpu.max"),
                  encoding="utf-8") as fh:
            quota, period = fh.read().split()
        if quota == "max":
            return None
        quota, period = int(quota), int(period)
    except (OSError, StopIteration, ValueError):
        return None
    return -(-quota // period) if quota > 0 and period > 0 else None


def end_if_orphaned() -> None:
    """In a child of :class:`Forked` whose parent has ended (killed, say), so
    that no one would read its report, end the child at once; elsewhere do
    nothing.  A child's work calls it between its steps."""
    if _parent is not None and os.getppid() != _parent:
        os._exit(1)


class Forked:
    """Child processes forked for ``works``, a sequence of ``(name, work)``:
    ``work`` a callable without arguments, ``name`` what the child runs, with
    ``{pid}`` where its pid goes.

    Entering forks one child per work; each stops tracing memory, takes
    SIGTERM's default action again (it dies of it), calls its work and
    reports ``(result, None)``, or ``(None, exception)`` if it raised, as a
    pickle through a pipe of its own, and always leaves with ``os._exit``,
    so it flushes no buffer it shares with this process.  A work that runs
    long calls :func:`end_if_orphaned` between its steps, so a child outlives
    a parent killed without the chance to kill it by one step at most.
    :meth:`poll` reads what the pipes hold without waiting, and
    :meth:`results` waits on every pipe at once until each child has ended,
    and returns what each work returned, in order.  Both raise as soon as a
    child's report holds an exception, or a child ends without a report
    (killed, crashed; :class:`ChildProcessError`, naming it).  Leaving the
    ``with`` block, by any exception, ``KeyboardInterrupt`` included, or
    normally, kills every child still running and reaps every child first.
    The caller asks :func:`processes` how many it may fork.
    """

    def __init__(self, works):
        self.works = list(works)
        self.done = [None] * len(self.works)
        self.pending = {}  # read end -> (index, pid, name, chunks read)
        self.poller = select.poll()

    def __enter__(self):
        global _parent  # set in each child only
        parent = os.getpid()
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns at a fork whenever the process has other
                # OS threads.  No other Python thread runs (processes), so the
                # others are OpenBLAS's pool, which exists from `import numpy`
                # on.  numpy's bundled OpenBLAS (scipy-openblas 0.3.31, numpy
                # 2.4) stops that pool before a fork and restarts it on the next
                # large product (measured: 2 threads in the parent before, 1
                # after, 1 in the child until a 600x600 product started a second
                # one), so no BLAS lock is held across the fork, and the child's
                # 600x600 product equalled the parent's bit for bit
                warnings.filterwarnings(
                    "ignore", r"This process .* is multi-threaded, use of fork\(\) may lead to deadlocks",
                    DeprecationWarning)
                for k, (name, work) in enumerate(self.works):
                    rfd, wfd = os.pipe()
                    try:
                        pid = os.fork()
                    except BaseException:
                        os.close(rfd)
                        os.close(wfd)
                        raise
                    if pid == 0:
                        _parent = parent
                        _child(work, wfd)
                    os.close(wfd)
                    os.set_blocking(rfd, False)
                    self.pending[rfd] = k, pid, name, []
                    self.poller.register(rfd, select.POLLIN)
        except BaseException:
            self._end()
            raise
        return self

    def __exit__(self, *exc_info):
        self._end()

    def poll(self) -> None:
        """Read what the children have written, without waiting."""
        self._read(0)

    def results(self) -> list:
        """What each work returned, in order, once every child has ended."""
        while self.pending:
            self._read(None)
        return self.done

    def _read(self, timeout) -> None:
        for fd, _ in self.poller.poll(timeout):
            k, pid, name, chunks = self.pending[fd]
            try:  # until the pipe is empty, so a report's end is seen at this poll
                while chunk := os.read(fd, 2**16):
                    chunks.append(chunk)
            except BlockingIOError:
                continue
            _, status = os.waitpid(pid, 0)
            self.poller.unregister(fd)
            os.close(fd)
            del self.pending[fd]
            if not chunks:
                code = os.waitstatus_to_exitcode(status)
                raise ChildProcessError(
                    f"{name.format(pid=pid)} ended without a report ("
                    + (f"killed by signal {-code})" if code < 0 else f"exit status {code})"))
            result, exc = pickle.loads(b"".join(chunks))
            if exc is not None:
                raise exc
            self.done[k] = result

    def _end(self) -> None:
        for fd, (_, pid, _, _) in self.pending.items():
            os.close(fd)
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
        self.pending.clear()


def _child(work, wfd: int):
    """Body of a child of :class:`Forked`; never returns."""
    try:
        # a handler the parent set (the CLI's raises SystemExit) would make a
        # child sent SIGTERM report that exception as its work's
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        # a child forked from a traced process would trace every allocation of
        # its work, which no one reads, at several times the cost of the work.
        # Tracing started through the module is stopped; the module is not
        # imported for it, which took 3-4 ms of a child's start on a 2-vCPU
        # host, so a run traced from its start (-X tracemalloc) stays traced
        tracemalloc = sys.modules.get("tracemalloc")
        if tracemalloc is not None:
            tracemalloc.stop()
        try:
            report = work(), None
        except BaseException as exc:  # reported to the parent, which raises it
            report = None, exc
        # a report that cannot be pickled is not written: the parent then
        # finds none
        data = pickle.dumps(report)
        with open(wfd, "wb") as fh:
            fh.write(data)
    finally:
        os._exit(0)
