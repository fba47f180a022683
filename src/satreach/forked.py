"""One forked worker that produces the odd blocks of a block sequence.

The Monte Carlo ensemble and the CSV writer both split their work into
numbered blocks that the caller takes in order.  On Linux, once a job is
large enough to repay a fork (may_fork), one forked process produces the
odd blocks 1, 3, ... while the caller produces the even ones.  The
worker writes each of its blocks into the next of RING slots of shared
anonymous memory; a slot is a length word followed by the block's bytes.
The caller reads a block straight from its slot and then hands the slot
back.  Until fork() starts the worker, and after the worker stops, the
caller produces every block itself, so whoever produces a block, the
caller sees the same bytes, and an error surfaces as it would in one
process.

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

# Slots of shared memory the worker may fill ahead of the caller.
RING = 2

# Bytes of a slot's length word, which precedes the block's bytes.
_LENGTH = 8


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

    produce(b, slot) writes block b into `slot`, a writable memoryview of
    `slot_bytes` bytes, and returns how many bytes it wrote; a block that
    does not fit raises.  The worker produces its blocks in order, each
    into the next slot of the ring, and sends a byte down its `ready` pipe
    as each slot is filled; the caller reads the block from the slot
    (take) and sends a byte down the `free` pipe to hand it back
    (release).  A worker that stops early, by an error or a signal, closes
    its end of `ready`, and from then on take() leaves its blocks to the
    caller.  The caller holds the read end of `free` open as well, so
    handing a slot back to a worker that has stopped leaves a byte unread
    instead of raising SIGPIPE, which kills a caller that has not set it
    aside.  Leaving the context kills and reaps the worker and closes
    every pipe end the caller holds.
    """

    def __init__(self, produce, blocks: int, slot_bytes: int):
        self.produce, self.blocks = produce, blocks
        # Each slot starts on an 8-byte boundary, so a slot holds doubles.
        self.stride = _LENGTH + -(-slot_bytes // 8) * 8
        # The worker's pid and the caller's pipe ends; `ready` is None while
        # the caller produces every block.
        self.pid, self.ready, self.free = 0, None, None
        # Every pipe end the caller holds, closed on leaving.
        self.fds: list[int] = []

    def __enter__(self):
        return self

    def fork(self) -> None:
        """Start the worker; if the ring, a pipe or the fork cannot be had,
        the caller produces every block."""
        import mmap  # loaded only by a job that forks

        try:
            self.ring = memoryview(mmap.mmap(-1, RING * self.stride))
            self.fds += os.pipe()
            self.fds += os.pipe()
            self.pid = os.fork()
        except OSError:
            self.__exit__()
            return
        self.ready, ready_w, free_r, self.free = self.fds
        if self.pid == 0:
            try:
                os.close(self.ready)
                os.close(self.free)
                self._serve(ready_w, free_r)
            finally:
                os._exit(0)
        os.close(self.fds.pop(1))

    def _serve(self, ready: int, free: int) -> None:
        """The worker's loop: produce the odd blocks into the ring, in order."""
        for j, b in enumerate(range(1, self.blocks, 2)):
            # Slot j % RING is free once the caller has released the
            # worker's block j - RING.
            if j >= RING and not os.read(free, 1):
                return
            slot = self._slot(b)
            length = self.produce(b, slot[_LENGTH:])
            slot[:_LENGTH] = length.to_bytes(_LENGTH, "little")
            os.write(ready, b"\0")

    def _slot(self, b: int) -> memoryview:
        """The slot of odd block b: its length word, then room for its bytes."""
        start = b // 2 % RING * self.stride
        return self.ring[start : start + self.stride]

    def take(self, b: int) -> memoryview | None:
        """Block b's bytes in the worker's slot, or None when the caller
        produces block b itself: an even block, or any block once no worker
        runs.  The caller releases a slot's block once it has read it."""
        if b % 2 == 0 or self.ready is None:
            return None
        if os.read(self.ready, 1):
            slot = self._slot(b)
            return slot[_LENGTH : _LENGTH + int.from_bytes(slot[:_LENGTH], "little")]
        # The worker stopped early: its blocks fall to the caller.
        self.ready = None
        return None

    def release(self, b: int) -> None:
        """Hand the slot of block b, taken and read, back to the worker."""
        if b // 2 + RING < self.blocks // 2:
            # A worker that has stopped since finds its blocks produced by
            # the caller, once its `ready` pipe reads empty.
            os.write(self.free, b"\0")

    def __exit__(self, *exc) -> None:
        import signal

        if self.pid:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
        while self.fds:
            os.close(self.fds.pop())
