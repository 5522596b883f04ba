"""The process's one thread pool, shared by every data-parallel loop.

``tape.filter_pool`` runs its channel groups here, ``tasks.test_set`` its
clip shards and ``frontend.mel_power_features`` its STFT row shards.  Each
of them splits its work into contiguous parts with :func:`bounds`, computes
every part by the same operations whatever the split, and writes or
returns the parts in order, so results do not depend on the part count,
bit for bit.  A mel row shard runs as consecutive chunks of whole rows, so
its memory is one chunk's, not its share of the batch.  numpy and scipy
release the interpreter lock in their array loops and FFTs, so the parts
run on separate cores.

A task run on the pool never submits to the pool: a worker waiting on the
pool could wait on itself.  The pool is made on first use, not at import.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool = None
_pool_lock = threading.Lock()


def bounds(n: int, count: int) -> list[tuple[int, int]]:
    """[lo, hi) of ``count`` contiguous parts of range(n), sizes within one."""
    return [(n * i // count, n * (i + 1) // count) for i in range(count)]


def shards(n: int) -> list[tuple[int, int]]:
    """:func:`bounds` of one part per CPU, at most one per item."""
    return bounds(n, min(CPUS, n))


def run(tasks):
    """Results of the no-argument ``tasks``, in order: run in the calling
    thread when there is at most one, else on the shared pool."""
    if len(tasks) <= 1:
        return [task() for task in tasks]
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=CPUS, thread_name_prefix="leafaudio")
    return list(_pool.map(lambda task: task(), tasks))
