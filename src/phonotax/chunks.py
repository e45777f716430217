"""Run one piece of work over contiguous chunks of rows, a process per chunk.

``run_chunks`` decides how many processes to use: one per CPU this
process may run on, each with at least ``ROWS_PER_PROCESS`` rows. It
cuts the rows into that many contiguous chunks and calls
``work(chunk, first, link)`` on each: on the first chunk in this
process, and on each other chunk in a worker forked for it. ``first``
is the index of the chunk's first row. A worker gets its rows guarded:
between slices of them it stops if its parent is gone. The results come
back in chunk order; with one chunk nothing forks. Through its ``link``
a chunk's work may hand a value to the others midway (``exchange``),
and walk any other sequence it builds with the same guard (``checked``).
Values cross the pipes pickled.

Every worker is reaped before ``run_chunks`` returns or raises; if
anything fails in this process, the workers are killed first. A worker
that fails raises ChildProcessError, which the commands report as an
error with exit code 1.
"""

from __future__ import annotations

import contextlib
import os
import sys
from collections.abc import Callable, Iterable, Sequence
from itertools import chain, repeat
from typing import Any, BinaryIO

# Rows a worker works through between checks that its parent is still
# alive: about 10 ms of score-wide rows, or 5 ms of lexicon lines, on a
# 2-vCPU host.
ROWS_PER_SLICE = 250

# Rows each process works on at least: stimuli for score, lexicon lines
# for train. On a 2-vCPU host, forking a worker, filling its copy-on-write
# pages and reaping it takes about 3 ms, about 3% of the time this many
# score-wide rows take to score. Training takes about 20 us a line, so
# this many lines take about 50 ms; forking a worker from a process that
# holds a 50k-line lexicon, swapping one value with it and reaping it
# took about 9 ms, so at twice this many lines two processes still beat one.
ROWS_PER_PROCESS = 2_500


def _processes(rows: int) -> int:
    """How many processes ``run_chunks`` cuts its rows among: one per CPU this process may run on.

    Each gets at least ROWS_PER_PROCESS rows. Without ``os.fork``, or
    with a second thread running (fork copies only the calling thread),
    the rows stay in this process.
    """
    threading = sys.modules.get("threading")
    if rows < 2 * ROWS_PER_PROCESS or not hasattr(os, "fork") or (
        threading is not None and threading.active_count() > 1
    ):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, rows // ROWS_PER_PROCESS)


def _send(pipe: BinaryIO, value: Any) -> None:
    import pickle  # here, not at the top: only a run that forks pays for it

    pickle.dump(value, pipe, pickle.HIGHEST_PROTOCOL)
    pipe.flush()


def _receive(pipe: BinaryIO) -> Any:
    """The next value on a pipe; EOFError if its writer left before sending all of it."""
    import pickle

    try:
        return pickle.load(pipe)
    except pickle.UnpicklingError:  # cut off mid-value
        raise EOFError from None


class _Worker:
    """A forked worker as its parent sees it: its pid, its rows and both ends of its pipes."""

    def __init__(self, pid: int, lo: int, hi: int, up: BinaryIO, down: BinaryIO) -> None:
        self.pid, self.lo, self.hi = pid, lo, hi
        self.up, self.down = up, down  # the worker writes up and reads down
        self.status: int | None = None

    def receive(self) -> Any:
        try:
            return _receive(self.up)
        except EOFError:  # it exited before it sent: its exit status says why
            raise ChildProcessError(
                f"the worker on rows {self.lo + 1}-{self.hi} exited with status {self.reap()}") from None

    def reap(self) -> int:
        if self.status is None:
            self.status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.status


class _ParentLink:
    """The link of the chunk this process works on itself."""

    def __init__(self, workers: list[_Worker]) -> None:
        self.workers = workers

    def checked(self, seq: Sequence) -> Iterable:
        return seq

    def exchange(self, value: Any, merge: Callable[[list], Any]) -> Any:
        """``merge`` of every chunk's value, in chunk order; each worker gets it too."""
        merged = merge([value, *(worker.receive() for worker in self.workers)])
        for worker in self.workers:
            _send(worker.down, merged)
        return merged


class _WorkerLink:
    """The link of a worker's chunk: pipes to and from the parent."""

    def __init__(self, parent: int, up: BinaryIO, down: BinaryIO) -> None:
        self.parent, self.up, self.down = parent, up, down

    def checked(self, seq: Sequence) -> Iterable:
        """The items of ``seq``; before each slice of them, the worker stops if its parent is gone."""
        return chain.from_iterable(map(self._slice, repeat(seq), range(0, len(seq), ROWS_PER_SLICE)))

    def _slice(self, seq: Sequence, lo: int) -> Sequence:
        if os.getppid() != self.parent:
            os._exit(1)  # the parent is gone: nobody reads this chunk's result
        return seq[lo : lo + ROWS_PER_SLICE]

    def exchange(self, value: Any, merge: Callable[[list], Any]) -> Any:
        _send(self.up, value)
        return _receive(self.down)  # EOFError once the parent is gone


def _fork(work: Callable, rows: Sequence, lo: int, hi: int, siblings: list[_Worker]) -> _Worker:
    """Fork a worker that sends ``work`` on ``rows[lo:hi]``, guarded, up its pipe."""
    parent = os.getpid()
    up_read, up_write = os.pipe()
    down_read, down_write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(up_write)
        os.close(down_read)
        return _Worker(pid, lo, hi, open(up_read, "rb"), open(down_write, "wb"))
    # The worker leaves only through os._exit: it never returns into the
    # caller's stack, and a failure shows in its exit status. It keeps no
    # end of a sibling's pipes, so once the parent is gone its reads see
    # end of file and its writes fail; between slices of its rows it
    # checks that the parent is still there.
    code = 1
    try:
        os.close(up_read)
        os.close(down_write)
        for sibling in siblings:
            sibling.up.close()
            sibling.down.close()
        with open(up_write, "wb") as up, open(down_read, "rb") as down:
            link = _WorkerLink(parent, up, down)
            _send(up, work(link.checked(rows[lo:hi]), lo, link))
        code = 0
    except (BrokenPipeError, EOFError):
        pass  # the parent is gone: nobody reads this chunk's result
    except BaseException:  # the worker's outermost frame: report, then exit
        import traceback  # here, not at the top: set-up of every command would pay for it

        os.write(2, traceback.format_exc().encode("utf-8", "replace"))
    finally:
        os._exit(code)


def run_chunks(rows: Sequence, work: Callable[[Iterable, int, Any], Any]) -> list:
    """``work(chunk, first, link)`` on each contiguous chunk of the rows, in chunk order."""
    processes = _processes(len(rows))
    cuts = [len(rows) * i // processes for i in range(processes + 1)]
    workers: list[_Worker] = []
    try:
        for lo, hi in zip(cuts[1:], cuts[2:]):
            workers.append(_fork(work, rows, lo, hi, workers))
        results = [work(rows[: cuts[1]], 0, _ParentLink(workers))]
        results += [worker.receive() for worker in workers]
    except BaseException:
        import signal  # here, not at the top: only a run that fails pays for it

        for worker in workers:
            if worker.status is None:
                os.kill(worker.pid, signal.SIGKILL)  # unreaped, so the pid is still this worker's
        raise
    finally:
        for worker in workers:
            worker.up.close()
            with contextlib.suppress(OSError):  # bytes left unsent to a worker that is gone
                worker.down.close()
            worker.reap()
    return results
