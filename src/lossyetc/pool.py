"""One fork process pool for independent tasks: sweep runs and trace CSV blocks.

The pool is sized to the usable CPUs and has no setting of its own. Results
come back in input order, so what a caller writes does not depend on the
worker count.
"""

from __future__ import annotations

import ctypes
import functools
import multiprocessing
import os
import sys
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from typing import Any

# Thread-count setters of the OpenBLAS builds in numpy and scipy wheels, and of
# a plain OpenBLAS.
_OPENBLAS_SET_THREADS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def would_fork(tasks: int) -> bool:
    """Whether fork_map runs this many tasks on forked workers."""
    return (
        min(tasks, _usable_cpus()) >= 2
        and "fork" in multiprocessing.get_all_start_methods()
    )


def fork_map(
    fn: Callable[[Any], Any], items: Sequence, order: Sequence[int] | None = None
) -> Iterator[Any]:
    """Yield fn(item) for every item, in input order, over the usable CPUs.

    Tasks are submitted in `order` (default: input order), so a caller can
    start its longest tasks first. Each result is released once yielded.
    One item, one usable CPU or no fork start method runs the plain loop in
    this process. Workers are forked: spawn would re-import scipy per worker,
    and module state set by the caller (e.g. `simulator.ZENO_GAP`) must reach
    them. A task that raises re-raises here; a worker the OS kills raises
    `BrokenProcessPool`.
    """
    if not would_fork(len(items)):
        for item in items:
            yield fn(item)
        return
    # A forked worker flushes its copy of these buffers when it exits.
    sys.stdout.flush()
    sys.stderr.flush()
    pool = ProcessPoolExecutor(
        min(len(items), _usable_cpus()),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_one_blas_thread,
    )
    try:
        futures = {
            i: pool.submit(fn, items[i])
            for i in (range(len(items)) if order is None else order)
        }
        for i in range(len(items)):
            yield futures.pop(i).result()
    finally:
        # After a failed task, drop the queued ones instead of waiting on them.
        pool.shutdown(cancel_futures=True)


@functools.cache
def _one_blas_thread() -> None:
    """One thread in every loaded OpenBLAS, set once per process.

    Runs in the CLI process and in every pool worker; a worker forked after
    the CLI set it inherits the setting. The package's matrices are 3n x 3n
    at most (12 x 12 for the vehicle), too small for BLAS threads to help,
    and BLAS threads on top of the workers spin against each other: on a
    2-CPU host with OpenBLAS's default of 2 threads, the preset-7 sweep took
    4.2 s, and 0.39 s with one.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line}
    except OSError:  # no /proc: leave the thread counts alone
        return
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_SET_THREADS:
            if hasattr(lib, name):
                getattr(lib, name)(1)
                break
