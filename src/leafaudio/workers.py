"""The process's one thread pool, shared by every data-parallel loop.

``tape.filter_pool`` runs its channel groups here, ``tasks.test_set`` its
clip shards (:func:`shards`) and ``frontend.mel_power_features`` its STFT
row chunks, one task each, pulled by the pool's threads as they come
free.  Each of them splits its work into contiguous parts, computes every
part by the same operations whatever the split, and writes or returns the
parts in order, so results do not depend on the part or thread count, bit
for bit.  A mel chunk is a few whole rows, so a mel call holds one
chunk's STFT per pool thread, not its share of the batch.  numpy and
scipy release the interpreter lock in their array loops and FFTs, so the
parts run on separate cores.

A task run on the pool never submits to the pool: a worker waiting on the
pool could wait on itself.  The pool is made on first use, not at import.

The pool is the process's one owner of threads.  On first use, from the
CLI or the API, :func:`run` sets every OpenBLAS the process has loaded
(numpy's bundled one) to a single thread: a BLAS thread per core on top of
the pool's contend with it, and a mel step stalls.  This changes the host
program's BLAS too, and only its speed: every digest of
``tests/test_golden.py`` reads the same with one BLAS thread and with two.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor

CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool = None
_pool_lock = threading.Lock()
_blas_owned = False
# the thread-count setters of OpenBLAS builds: numpy's and scipy's bundled
# ones (64-bit and 32-bit integers), then a system library's
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                 "openblas_set_num_threads64_", "openblas_set_num_threads")


def _one_blas_thread():
    """Set each OpenBLAS loaded in this process to one thread; do nothing
    where the process's mapped libraries cannot be listed."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line.lower()}
    except OSError:
        return
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        setter = next((getattr(lib, name) for name in _BLAS_SETTERS if hasattr(lib, name)), None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)


def bounds(n: int, count: int) -> list[tuple[int, int]]:
    """[lo, hi) of ``count`` contiguous parts of range(n), sizes within one."""
    return [(n * i // count, n * (i + 1) // count) for i in range(count)]


def shards(n: int) -> list[tuple[int, int]]:
    """:func:`bounds` of one part per CPU, at most one per item."""
    return bounds(n, min(CPUS, n))


def run(tasks):
    """Results of the no-argument ``tasks``, in order: run in the calling
    thread when there is at most one, else on the shared pool."""
    global _blas_owned
    if not _blas_owned:  # two first callers both setting it is harmless
        _one_blas_thread()
        _blas_owned = True
    if len(tasks) <= 1:
        return [task() for task in tasks]
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=CPUS, thread_name_prefix="leafaudio")
    return list(_pool.map(lambda task: task(), tasks))
