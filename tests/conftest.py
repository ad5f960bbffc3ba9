import os
import tracemalloc

import pytest

import optotriplet as ot


class _Forks(list):
    """The pids that ``os.fork`` returned in the test's process, in order."""

    def reaped(self) -> set:
        """The pids, each checked to be reaped: waiting for it without
        blocking raises, where a live or unreaped child would not."""
        for pid in self:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        return set(self)


@pytest.fixture
def forks(monkeypatch):
    """Every child forked in the test's process from now on (:class:`_Forks`).

    A child inherits the list as it was at its fork, so its length there is
    the child's index among those forked.
    """
    pids, real = _Forks(), os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.fixture
def child_peaks(monkeypatch, tmp_path):
    """A callable giving the ``tracemalloc`` peak, in bytes, of the work of
    each child forked through ``_forks.Forked`` since it was last called
    (or since the fixture was set up), in the order the children ended.

    A child stops the tracing it inherits; this starts it again around the
    child's work, so each peak counts what the child's shard allocates and
    nothing it shares with the parent.
    """
    log = tmp_path / "child-peaks"
    real = ot._forks._child

    def child(work, wfd):
        def traced():
            tracemalloc.start()
            try:
                return work()
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                with open(log, "a") as fh:
                    fh.write(f"{peak}\n")

        real(traced, wfd)

    monkeypatch.setattr(ot._forks, "_child", child)

    def peaks() -> list[int]:
        if not log.exists():
            return []
        got = [int(line) for line in log.read_text().split()]
        log.unlink()
        return got

    return peaks
