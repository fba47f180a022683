"""The block contract of forked.Worker: take(b) returns block b's pieces,
the worker's for an odd block while it runs, the caller's otherwise."""

import os
import signal

import pytest
from conftest import assert_no_child_left, count_forks

import satreach as sr


def _named(b: int) -> list[bytes]:
    # Block b names the process that produced it.
    return [f"{os.getpid()}:{b}".encode()]


def _taken(worker, blocks) -> list[tuple[int, int]]:
    # (producer's pid, b) of each of `blocks`, taken in order.
    return [tuple(map(int, bytes(worker.take(b)[0]).split(b":"))) for b in blocks]


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(sr.forked.os, "sched_getaffinity", lambda pid: {0, 1})


def test_the_worker_produces_the_odd_blocks_and_the_caller_the_even(two_cpus, monkeypatch):
    forks = count_forks(monkeypatch)
    with sr.forked.Worker(_named, 7, 1, 1) as worker:
        taken = _taken(worker, range(7))
    assert forks == [1]
    assert [b for _, b in taken] == list(range(7))
    assert {pid for pid, b in taken if b % 2 == 0} == {os.getpid()}
    assert {pid for pid, b in taken if b % 2} == {worker.pid}
    assert worker.pid not in (0, os.getpid())
    assert_no_child_left()


def test_after_the_worker_is_killed_the_caller_produces_every_block(two_cpus):
    caller = os.getpid()

    def waiting_from_block_3(b):
        # The worker sends block 1 and then waits in block 3 until killed.
        if os.getpid() != caller and b >= 3:
            signal.pause()
        return _named(b)

    with sr.forked.Worker(waiting_from_block_3, 9, 1, 1) as worker:
        first = _taken(worker, range(2))
        os.kill(worker.pid, signal.SIGKILL)
        rest = _taken(worker, range(2, 9))
    assert first == [(caller, 0), (worker.pid, 1)]
    assert rest == [(caller, b) for b in range(2, 9)]
    assert_no_child_left()


@pytest.mark.parametrize("blocks, work, cpus", [(1, 1, 2), (7, 0, 2), (7, 1, 1)])
def test_a_worker_may_fork_refuses_forks_nothing(monkeypatch, blocks, work, cpus):
    monkeypatch.setattr(sr.forked.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks = count_forks(monkeypatch)
    with sr.forked.Worker(_named, blocks, work, 1) as worker:
        taken = _taken(worker, range(blocks))
    assert not worker.forks
    assert forks == []
    assert taken == [(os.getpid(), b) for b in range(blocks)]


def test_cpu_reads_the_cpu_this_process_runs_on():
    mask = os.sched_getaffinity(0)
    try:
        for cpu in sorted(mask):
            os.sched_setaffinity(0, {cpu})
            assert sr.forked._cpu() == cpu
    finally:
        os.sched_setaffinity(0, mask)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs in the affinity mask")
def test_the_worker_leaves_the_cpu_the_caller_ran_on_at_the_fork(monkeypatch):
    caller_mask, real_cpu, at_fork = os.sched_getaffinity(0), sr.forked._cpu, []
    monkeypatch.setattr(sr.forked, "_cpu", lambda: at_fork.append(real_cpu()) or at_fork[-1])

    def mask(b):
        # Block b is the affinity mask of the process that produced it.
        return [",".join(map(str, sorted(os.sched_getaffinity(0)))).encode()]

    with sr.forked.Worker(mask, 2, 1, 1) as worker:
        masks = [set(map(int, bytes(worker.take(b)[0]).split(b","))) for b in range(2)]
    assert worker.pid and len(at_fork) == 1 and at_fork[0] in caller_mask
    assert masks == [caller_mask, caller_mask - set(at_fork)]
    assert os.sched_getaffinity(0) == caller_mask
    assert_no_child_left()


def test_a_refused_affinity_leaves_the_worker_where_it_was_put(two_cpus, monkeypatch):
    refused = []

    def refusing(pid, mask):
        refused.append(pid)
        raise OSError(22, "Invalid argument")

    def payload(b):
        return (b * 7919).to_bytes(4, "little") * 1000

    def named(b):
        # Block b names the process that produced it, then its payload.
        return [f"{os.getpid()}:".encode(), payload(b)]

    monkeypatch.setattr(sr.forked.os, "sched_setaffinity", refusing)
    with sr.forked.Worker(named, 7, 1, 1) as worker:
        taken = [bytes(b"".join(worker.take(b))).split(b":", 1) for b in range(7)]
    assert refused == [worker.pid]
    assert [int(pid) for pid, _ in taken] == [worker.pid if b % 2 else os.getpid() for b in range(7)]
    assert [block for _, block in taken] == [payload(b) for b in range(7)]
    assert_no_child_left()
