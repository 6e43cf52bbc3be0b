"""One fork process pool per process, for independent tasks: sweep runs and
trace CSV blocks.

The pool starts at the first `fork_map` call that forks, sized to the usable
CPUs at that moment, and every later call reuses its workers, so a sweep or a
trace save pays the fork once per process instead of once per call. It has no
setting of its own. Results come back in input order, so what a caller writes
does not depend on the worker count.

Workers are forked when the pool starts, not at each call: module state they
read (e.g. `simulator.ZENO_GAP`, `simulator.channel_offer` or `cli.simulate`),
the simulator's cached flows and grids, and the working directory are those
of the moment the pool started. Cached entries are keyed on exact values, so
an inherited one is the entry the worker would build. Call `shutdown` after
changing such state to have the next call fork fresh workers.

A pool belongs to the process that started it: a forked child drops the
reference it inherits and starts its own pool if it forks. A pool whose
worker died (the OS killed it) is discarded, and the next call starts a new
one. At interpreter exit `concurrent.futures` joins the workers, so none
outlives the process.
"""

from __future__ import annotations

import ctypes
import functools
import multiprocessing
import multiprocessing.util
import os
import sys
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any

# Thread-count setters of the OpenBLAS builds in numpy and scipy wheels, and of
# a plain OpenBLAS.
_OPENBLAS_SET_THREADS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)

# This process's pool, started by the first fork_map call that forks.
_pool: ProcessPoolExecutor | None = None


def usable_cpus() -> int:
    """CPUs this process may run on: the worker count of a pool started now."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def would_fork(tasks: int) -> bool:
    """Whether fork_map runs this many tasks on forked workers."""
    return (
        min(tasks, usable_cpus()) >= 2
        and "fork" in multiprocessing.get_all_start_methods()
    )


def shutdown() -> None:
    """Join this process's pool, if it has one; the next fork_map forks anew."""
    global _pool
    if _pool is not None:
        pool, _pool = _pool, None
        pool.shutdown(cancel_futures=True)


def _forget_inherited_pool() -> None:
    # A forked child has copies of the parent's pool objects but none of its
    # threads, so submitting to them would hang.
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_inherited_pool)


def _the_pool() -> ProcessPoolExecutor:
    global _pool
    if _pool is None:
        # A forked worker flushes its copy of these buffers when it exits.
        sys.stdout.flush()
        sys.stderr.flush()
        _pool = ProcessPoolExecutor(
            usable_cpus(),
            mp_context=multiprocessing.get_context("fork"),
            initializer=_one_blas_thread,
        )
        # A process started by multiprocessing joins its children at exit
        # before the interpreter would stop the workers, so stop them first,
        # and ahead of the finalizers (priority 10) that stop the threads
        # feeding the pool's queues.
        multiprocessing.util.Finalize(None, shutdown, exitpriority=20)
    return _pool


def fork_map(
    fn: Callable[[Any], Any], items: Sequence, order: Sequence[int] | None = None
) -> Iterator[Any]:
    """Yield fn(item) for every item, in input order, on this process's pool.

    Tasks are submitted in `order` (default: input order), so a caller can
    start its longest tasks first. Each result is released once yielded.
    One item, one usable CPU or no fork start method runs the plain loop in
    this process. Otherwise the tasks run on the process's one pool, forked
    at the first such call (see the module docstring for what workers see).
    Workers are forked: spawn would re-import scipy per worker. A task that
    raises re-raises here, and the tasks not yet started are cancelled; so
    are they when the caller stops iterating early. The pool is kept either
    way. A worker the OS kills raises `BrokenProcessPool`, and the pool is
    discarded.
    """
    if not would_fork(len(items)):
        for item in items:
            yield fn(item)
        return
    pool = _the_pool()
    futures = {}
    try:
        for i in range(len(items)) if order is None else order:
            futures[i] = pool.submit(fn, items[i])
        for i in range(len(items)):
            yield futures.pop(i).result()
    except BrokenProcessPool:
        shutdown()
        raise
    finally:
        for future in futures.values():
            future.cancel()


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
