"""One forked worker that produces the odd blocks of a block sequence.

The Monte Carlo ensemble and the CSV writer both split their work into
numbered blocks that the caller takes in order, and both hand it to a
Worker, the one place that decides whether a second process runs.  The
block contract: take(b) returns block b's pieces, the same bytes
whichever process produced them.  On Linux, once a job is large enough
to repay a fork (may_fork), one forked process produces the odd blocks
1, 3, ... and streams each down one pipe, a length word followed by the
block's bytes, which the caller reads whole into one reused buffer.
Every other block, and every block once the worker has stopped, the
caller produces itself, so an error surfaces as it would in one process.

The worker runs on another CPU than the caller.  Just before the fork
the caller reads the CPU it runs on (/proc/self/stat; Python 3.11 has no
os.sched_getcpu), and right after it sets the worker's affinity mask to
its own without that CPU.  Left alone, Linux 6.18 with autogrouping puts
a forked child on its parent's CPU and keeps it there while both are
busy: 60 of 60 probed children, each spinning 10 ms beside its spinning
parent on a 2-CPU VM, never left the parent's CPU, so the two processes
time-shared one core (BENCH_worker_placement.json).  The caller moves
the worker rather than the worker itself, as a worker on the caller's
CPU first runs only once the caller yields it, which cost each fork 1-2
ms more.  Where /proc cannot be read, no other CPU is in the mask or
the kernel refuses the mask, the worker runs where the kernel put it.
The caller's own mask is never changed, and only the CPU that produces
a block changes, never its bytes.

Native threads, such as the pool OpenBLAS starts when NumPy loads, do not
stop the fork: OpenBLAS shuts its pool down across a fork, and neither
consumer's worker calls a BLAS routine.  Python 3.12 and later warn of
such a fork with a DeprecationWarning, which the default warning filters
do not show.  A CPU quota of the caller's cgroup is not read.  The
worker's calls are made in its own process, so a tracer in the caller
sees only the caller's blocks.
"""

from __future__ import annotations

import contextlib
import os
import threading
from sys import platform

# Bytes of the length word that precedes each block in the pipe.
_LENGTH = 8

# Bytes the pipe is asked to hold, Linux's limit for an unprivileged
# process: room for a whole block of the demo ensemble (412 KB) or of a
# CSV export (~100 KB), so the worker does not wait on the caller partway
# through one.  Through the default 64 KiB pipe the demo ensemble took
# 7-10 % longer (BENCH_one_pipe.json).
_PIPE_BYTES = 1 << 20


def may_fork(blocks: int, work: int, minimum: int) -> bool:
    """Whether a worker forks to produce the odd blocks of `blocks`.

    It does on Linux, when no other Python thread is alive to be cut off
    by a fork, there are two blocks or more, the job's `work` is at least
    the `minimum` that repays a fork, and this process may run on a
    second CPU.  The worker then runs on this affinity mask without the
    caller's CPU, where the kernel would otherwise leave it time-sharing
    the caller's CPU.
    """
    if platform != "linux" or threading.active_count() > 1:
        return False
    return blocks >= 2 and work >= minimum and len(os.sched_getaffinity(0)) >= 2


def _cpu() -> int | None:
    """The CPU this process last ran on, field 39 (`processor`) of
    /proc/self/stat, or None where /proc cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            return int(stat.read().rpartition(b")")[2].split()[36])
    except OSError:
        return None


class Worker:
    """Blocks 0 .. blocks - 1 of `produce`, with a forked process producing
    the odd ones beside the caller when may_fork(blocks, work, minimum).

    produce(b) returns block b's bytes as a list of bytes-like pieces.  The
    worker forks when the context is entered, produces its blocks in order
    and writes each down its pipe, a length word and then the pieces, in
    one call.  A worker that stops early, by an error or a signal, closes
    its end of the pipe, so take() reads it short, and from the block it
    was writing on, the caller produces the worker's blocks.  The caller
    only reads the pipe, so a worker that stops raises no SIGPIPE in it.
    Leaving the context kills and reaps the worker and closes every pipe
    end the caller holds.
    """

    def __init__(self, produce, blocks: int, work: int, minimum: int):
        self.produce, self.blocks = produce, blocks
        # Whether entering the context forks the worker.
        self.forks = may_fork(blocks, work, minimum)
        # The worker's pid, and a reader of its pipe, None while the caller
        # produces every block.
        self.pid, self.pipe = 0, None
        # Every pipe end the caller holds, closed on leaving.
        self.fds: list[int] = []
        # The buffer take() reads into, replaced only by a larger one.
        self.buffer = bytearray()

    def __enter__(self):
        if self.forks:
            self.fork()
        return self

    def fork(self) -> None:
        """Start the worker; if the pipe or the fork cannot be had, the
        caller produces every block."""
        import fcntl  # loaded only by a job that forks

        try:
            self.fds += os.pipe()
            with contextlib.suppress(OSError):
                fcntl.fcntl(self.fds[1], fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
            here = _cpu()
            self.pid = os.fork()
        except OSError:
            self.__exit__()
            return
        if self.pid == 0:
            try:
                os.close(self.fds[0])
                self._serve(self.fds[1])
            finally:
                os._exit(0)
        # Off the caller's CPU, before the worker first runs.
        with contextlib.suppress(OSError):
            others = os.sched_getaffinity(0) - {here}
            if here is not None and others:
                os.sched_setaffinity(self.pid, others)
        os.close(self.fds.pop())
        self.pipe = open(self.fds[0], "rb", closefd=False)

    def _serve(self, pipe: int) -> None:
        """The worker's loop: write the odd blocks down the pipe, in order."""
        for b in range(1, self.blocks, 2):
            pieces = self.produce(b)
            length = sum(memoryview(piece).nbytes for piece in pieces)
            if os.writev(pipe, [length.to_bytes(_LENGTH, "little"), *pieces]) < _LENGTH + length:
                return  # cut short by a signal: the caller takes the block over

    def take(self, b: int) -> list:
        """Block b's pieces: the worker's bytes, valid until the next take,
        for an odd block while the worker runs, else produce(b), run here."""
        if b % 2 and self.pipe is not None:
            head = self._read(_LENGTH)
            block = None if head is None else self._read(int.from_bytes(head, "little"))
            if block is not None:
                return [block]
            # The worker stopped early: its blocks fall to the caller.
            self.pipe = None
        return self.produce(b)

    def _read(self, size: int) -> memoryview | None:
        """The pipe's next `size` bytes, in the buffer, or None where the
        pipe ends first."""
        if len(self.buffer) < size:
            self.buffer = bytearray(size)
        view = memoryview(self.buffer)[:size]
        return view if self.pipe.readinto(view) == size else None

    def __exit__(self, *exc) -> None:
        import signal

        if self.pid:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
        while self.fds:
            os.close(self.fds.pop())
