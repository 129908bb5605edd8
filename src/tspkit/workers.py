"""Independent tasks in forked worker processes.

``fork_map(fn, shared, tasks)`` is ``[fn(shared, task) for task in tasks]``.
Bench seeds, the head-lr grid cells of ``train``, and the videos of
``tspkit extract`` and track files of ``tspkit localize`` all run through it.
Workers are forked, so they inherit ``shared`` (a corpus, a checkpoint, the
epochs of a training run) instead of receiving a pickled copy; only each task
goes out and each result comes back. Results come back in task order and are
the same objects, bit for bit, at any worker count.

Threading: the outermost pool owns the cores. ``worker_count`` is 1 inside any
multiprocessing worker, so pools never nest: several bench seeds take the
workers and train their grid cells one after another, while a single seed
runs in this process and forks its cells instead. ``TSPKIT_THREADS`` caps
every pool. Every process runs BLAS on one thread, as ``import tspkit`` sets
it before numpy loads. A host that imported numpy before tspkit keeps its
own multi-threaded BLAS pool, which every worker inherits, and with it threads
that contend for the cores; import tspkit first.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait


def worker_count(num_tasks: int) -> int:
    """Worker processes for ``num_tasks`` independent tasks: at most the CPUs
    this process may run on, capped by TSPKIT_THREADS; 1 inside any
    multiprocessing worker, so pools never nest."""
    if multiprocessing.parent_process() is not None:
        return 1
    raw = os.environ.get("TSPKIT_THREADS", "").strip()
    if raw:
        try:
            cap = max(1, int(raw))
        except ValueError:
            raise ValueError(f"TSPKIT_THREADS must be an integer, not {raw!r}") from None
    elif hasattr(os, "sched_getaffinity"):
        cap = len(os.sched_getaffinity(0))
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, num_tasks))


_job = None  # (fn, shared); set only in a worker, by the pool's initializer


def _set_job(fn, shared) -> None:
    global _job
    _job = fn, shared


def _run(task):
    fn, shared = _job
    return fn(shared, task)


def fork_map(fn, shared, tasks) -> list:
    """``[fn(shared, task) for task in tasks]``, in task order.

    Runs serially when ``worker_count(len(tasks))`` is 1 or fork is
    unavailable, else in that many forked workers. ``fn`` and ``shared`` reach
    the workers by fork, so they need not pickle; each task and each result
    must. A task's exception is raised here with its type and message, the
    first in task order, as the serial loop would raise it; once a task has
    failed, no task that has not started yet runs. A worker that dies raises
    ``BrokenProcessPool``, a ``RuntimeError``.
    """
    tasks = list(tasks)
    workers = worker_count(len(tasks))
    if workers == 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(shared, task) for task in tasks]
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_set_job, initargs=(fn, shared)) as pool:
        futures = [pool.submit(_run, task) for task in tasks]
        try:
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:
            for future in futures:  # after a failure, start nothing more
                future.cancel()
        # tasks start in order, so every task before a failed one has run
        return [future.result() for future in futures]
