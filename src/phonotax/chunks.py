"""Run one piece of work over contiguous chunks of rows, a process per chunk.

``run_chunks`` decides how many processes to use: one per CPU this
process may run on, each with at least ``ROWS_PER_PROCESS`` rows. It
cuts the rows into that many contiguous chunks and calls
``work(chunk, first)`` on each: on the first chunk in this process, and
on each other chunk in a worker forked for it. ``first`` is the index
of the chunk's first row. A worker gets its rows guarded: between
slices of them it stops if its parent is gone. Each worker sends its
result up a pipe, pickled, and nothing goes down to it. The results
come back in chunk order; with one chunk nothing forks. All three
commands cut the lines of their input file, comment and blank lines
included, and each chunk reads its own lines as it works through them.

The cyclic garbage collector is paused for the run, here and in every
worker, then restored: the commands' work makes no reference cycles.
``paused`` is that pause, for a caller whose serial work after the run
makes none either (training's merge and smoothing).

Every worker is reaped before ``run_chunks`` returns or raises; if
anything fails in this process, the workers are killed first. A worker
that fails raises ChildProcessError, which the commands report as an
error with exit code 1. A worker that a SIGINT interrupts exits
without a traceback: Ctrl-C signals the whole process group, so the
parent is interrupted too and reports it.
"""

from __future__ import annotations

import gc
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager
from typing import Any, BinaryIO

# Rows a worker works through between checks that its parent is still
# alive: about 5 ms of score-wide stimulus lines or of lexicon lines, on
# a 2-vCPU host.
ROWS_PER_SLICE = 250

# Rows each process works on at least: stimulus lines for score and
# evaluate, lexicon lines for train. On a 2-vCPU host, forking a worker,
# filling its copy-on-write pages and reaping it takes about 3 ms, about
# 7% of the time this many score-wide lines take to score (about 17 us
# a line in one process). Training takes about
# 14 us a line, so this many lines take about 35 ms; forking a worker
# from a process that holds a 50k-line lexicon, taking its result and
# reaping it took 8-10 ms, and on twice this many lines two processes
# took 50 ms, one 70 ms.
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


class _Worker:
    """A forked worker as its parent sees it: its pid, its rows and the read end of its pipe."""

    def __init__(self, pid: int, lo: int, hi: int, up: BinaryIO) -> None:
        self.pid, self.lo, self.hi, self.up = pid, lo, hi, up
        self.status: int | None = None

    def receive(self) -> Any:
        import pickle

        try:
            return pickle.load(self.up)
        except (EOFError, pickle.UnpicklingError):  # cut off before or mid-value: its exit status says why
            raise ChildProcessError(
                f"the worker on rows {self.lo + 1}-{self.hi} exited with status {self.reap()}") from None

    def reap(self) -> int:
        if self.status is None:
            self.status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.status


def _guarded(rows: Sequence, parent: int) -> Iterator:
    """The items of ``rows``; before each slice of them, the worker stops if its parent is gone."""
    for lo in range(0, len(rows), ROWS_PER_SLICE):
        if os.getppid() != parent:
            os._exit(1)  # the parent is gone: nobody reads this chunk's result
        yield from rows[lo : lo + ROWS_PER_SLICE]


def _fork(work: Callable, rows: Sequence, lo: int, hi: int, siblings: list[_Worker]) -> _Worker:
    """Fork a worker that sends ``work`` on ``rows[lo:hi]``, guarded, up its pipe."""
    parent = os.getpid()
    up_read, up_write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(up_write)
        return _Worker(pid, lo, hi, open(up_read, "rb"))
    # The worker leaves only through os._exit: it never returns into the
    # caller's stack, and a failure shows in its exit status. It keeps no
    # read end of a sibling's pipe, so once the parent is gone its write
    # fails; between slices of its rows it checks that the parent is
    # still there.
    code = 1
    try:
        os.close(up_read)
        for sibling in siblings:
            sibling.up.close()
        with open(up_write, "wb") as up:
            _send(up, work(_guarded(rows[lo:hi], parent), lo))
        code = 0
    except BrokenPipeError:
        pass  # the parent is gone: nobody reads this chunk's result
    except KeyboardInterrupt:
        pass  # Ctrl-C reaches the whole process group: the parent reports it, once
    except BaseException:  # the worker's outermost frame: report, then exit
        import traceback  # here, not at the top: set-up of every command would pay for it

        os.write(2, traceback.format_exc().encode("utf-8", "replace"))
    finally:
        os._exit(code)


@contextmanager
def paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for the block, then restore it as it was."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def run_chunks(rows: Sequence, work: Callable[[Iterable, int], Any]) -> list:
    """``work(chunk, first)`` on each contiguous chunk of the rows, in chunk order."""
    processes = _processes(len(rows))
    cuts = [len(rows) * i // processes for i in range(processes + 1)]
    workers: list[_Worker] = []
    # paused before the first fork, so every worker runs with the collector paused too
    with paused():
        try:
            for lo, hi in zip(cuts[1:], cuts[2:]):
                workers.append(_fork(work, rows, lo, hi, workers))
            results = [work(rows[: cuts[1]], 0)]
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
                worker.reap()
    return results
