"""One forked worker that produces the odd blocks of a block sequence.

The Monte Carlo ensemble and the CSV writer both split their work into
numbered blocks that the caller takes in order.  On Linux, once a job is
large enough to repay a fork (may_fork), one forked process produces the
odd blocks 1, 3, ... while the caller produces the even ones.  The
worker streams its blocks down one pipe, each as a length word followed
by the block's bytes, and the caller reads each block whole into one
reused buffer.  Until fork() starts the worker, and after the worker
stops, the caller produces every block itself, so whoever produces a
block, the caller sees the same bytes, and an error surfaces as it would
in one process.

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
    second CPU.
    """
    if platform != "linux" or threading.active_count() > 1:
        return False
    return blocks >= 2 and work >= minimum and len(os.sched_getaffinity(0)) >= 2


class Worker:
    """A forked process that produces blocks 1, 3, ... of `blocks` beside the caller.

    produce(b) returns block b's bytes as a list of bytes-like pieces.  The
    worker produces its blocks in order and writes each down its pipe, a
    length word and then the pieces, in one call; the caller reads a block
    whole (take).  A worker that stops early, by an error or a signal,
    closes its end of the pipe, so take() reads it short, and from the
    block it was writing on, the caller produces the worker's blocks.  The
    caller only reads the pipe, so a worker that stops raises no SIGPIPE
    in it.  Leaving the context kills and reaps the worker and closes
    every pipe end the caller holds.
    """

    def __init__(self, produce, blocks: int):
        self.produce, self.blocks = produce, blocks
        # The worker's pid, and a reader of its pipe, None while the caller
        # produces every block.
        self.pid, self.pipe = 0, None
        # Every pipe end the caller holds, closed on leaving.
        self.fds: list[int] = []
        # The buffer take() reads into, replaced only by a larger one.
        self.buffer = bytearray()

    def __enter__(self):
        return self

    def fork(self) -> None:
        """Start the worker; if the pipe or the fork cannot be had, the
        caller produces every block."""
        import fcntl  # loaded only by a job that forks

        try:
            self.fds += os.pipe()
            with contextlib.suppress(OSError):
                fcntl.fcntl(self.fds[1], fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
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
        os.close(self.fds.pop())
        self.pipe = open(self.fds[0], "rb", closefd=False)

    def _serve(self, pipe: int) -> None:
        """The worker's loop: write the odd blocks down the pipe, in order."""
        for b in range(1, self.blocks, 2):
            pieces = self.produce(b)
            length = sum(memoryview(piece).nbytes for piece in pieces)
            if os.writev(pipe, [length.to_bytes(_LENGTH, "little"), *pieces]) < _LENGTH + length:
                return  # cut short by a signal: the caller takes the block over

    def take(self, b: int) -> memoryview | None:
        """Block b's bytes from the worker, valid until the next take, or
        None when the caller produces block b itself: an even block, or any
        block once no worker runs."""
        if b % 2 == 0 or self.pipe is None:
            return None
        head = self._read(_LENGTH)
        block = None if head is None else self._read(int.from_bytes(head, "little"))
        if block is None:
            # The worker stopped early: its blocks fall to the caller.
            self.pipe = None
        return block

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
