"""A deterministic "slow shard" for admission tests.

Backpressure, drain and crash tests need checks that stay in flight
until the test says otherwise. Instead of a sleep tuned to outlast the
test's own steps, park the shard's worker: a thread shard's worker
blocks on the shard lock with the first job in hand; a process shard's
worker is ``SIGSTOP``\\ ped, so what the coordinator posts waits in the
pipe. Both work on whatever ``service.shards[i]`` holds, so one test
body serves the thread lane and ``REPRO_WORKERS_MODE=process``.
"""

from __future__ import annotations

import os
import signal
import time
from contextlib import contextmanager


def wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.002)
    raise AssertionError("condition not reached in time")


@contextmanager
def held(shard):
    """Nothing offered to ``shard`` completes until the block exits."""
    lock = getattr(shard, "lock", None)
    if lock is not None:
        with lock:
            yield
        return
    os.kill(shard.pid, signal.SIGSTOP)
    try:
        yield
    finally:
        os.kill(shard.pid, signal.SIGCONT)


def wait_in_hand(shard) -> None:
    """Block until the one check offered to a held shard occupies its
    executing slot, so the next offer gets the first queue slot.

    A thread shard's worker has to take the job off the queue first; a
    process shard counts its whole window parent-side at offer time.
    """
    busy = getattr(shard, "busy_workers", None)
    if busy is not None:
        wait_until(lambda: busy() == 1)
    else:
        wait_until(lambda: shard.queue_depth() == 1)
