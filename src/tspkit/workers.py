"""Independent tasks in forked worker processes.

``fork_map(fn, shared, tasks)`` is ``[fn(shared, task) for task in tasks]``.
Bench seeds, the head-lr grid cells of ``train``, and the videos of
``tspkit extract`` and track files of ``tspkit localize`` all run through it.
Workers are forked, so they inherit ``fn`` and ``shared`` (a corpus, a
checkpoint, the epochs of a training run) instead of receiving a pickled copy.
Results come back in task order and are the same objects, bit for bit, at any
worker count.

The pool is a handful of ``os.fork`` children and nothing else. Each child
takes the next task index from one shared counter until the tasks run out,
so a slow task holds up only its own worker. It keeps its ``(index, ok,
result or exception)`` records and sends them all as one pickle through its
own pipe when it is done, then leaves with ``os._exit``, running none of the
caller's ``finally`` blocks or exit handlers. The parent flushes stdout and
stderr before it forks, so nothing it had buffered is printed twice; each
child flushes both before it exits, so nothing a task printed is lost. The
parent reads every pipe to its end and reaps every child before it returns
or raises; when the parent itself fails, it kills the children it has not
reaped first.

Threading: the outermost pool owns the cores. ``worker_count`` is 1 inside
any worker, a ``fork_map`` child or a ``multiprocessing`` one, so pools never
nest: several bench seeds take the workers and train their grid cells one
after another, while a single seed runs in this process and forks its cells
instead. ``TSPKIT_THREADS`` caps every pool. Every process runs BLAS on one
thread, as ``import tspkit`` sets it before numpy loads. A host that imported
numpy before tspkit keeps its own multi-threaded BLAS pool, which every worker
inherits, and with it threads that contend for the cores; import tspkit first.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import sys
from concurrent.futures.process import BrokenProcessPool
from typing import NoReturn

_in_worker = False  # set in each fork_map child, whose pools must not nest


def worker_count(num_tasks: int) -> int:
    """Worker processes for ``num_tasks`` independent tasks: at most the CPUs
    this process may run on, capped by TSPKIT_THREADS; 1 inside any worker,
    so pools never nest."""
    if _in_worker or multiprocessing.parent_process() is not None:
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


def _portable(exc: Exception) -> Exception:
    """``exc`` if it survives a pickle round trip, else a RuntimeError that
    names its type and message."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _serve(fn, shared, tasks: list, counter, write_fd: int) -> NoReturn:
    """A forked child's whole life: run tasks from ``counter`` until none is
    left or one fails, write every record to ``write_fd`` in one pickle, and
    exit. It never returns into the caller's frames."""
    global _in_worker
    _in_worker = True
    status = 1
    try:
        records = []
        while True:
            with counter.get_lock():
                index = counter.value
                counter.value = index + 1
            if index >= len(tasks):
                break
            try:
                records.append((index, True, fn(shared, tasks[index])))
            except Exception as exc:
                records.append((index, False, _portable(exc)))
                with counter.get_lock():  # start nothing more, in any worker
                    counter.value = len(tasks)
                break
        try:
            payload = pickle.dumps(records, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # a result that does not pickle fails this worker's first task
            payload = pickle.dumps([(records[0][0], False, _portable(exc))])
        view = memoryview(payload)
        while view:  # a large payload takes several writes, each as the parent reads
            view = view[os.write(write_fd, view):]
        status = 0
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(status)


def fork_map(fn, shared, tasks) -> list:
    """``[fn(shared, task) for task in tasks]``, in task order.

    Runs serially when ``worker_count(len(tasks))`` is 1 (always so inside a
    worker, so pools never nest) or fork is unavailable. Otherwise it flushes
    stdout and stderr and forks that many children; this process runs no task
    itself. The children take task indices from one shared counter, and each
    sends all its results in one pickle through its own pipe. They reach ``fn``
    and ``shared`` by fork, so those need not pickle; each result must. Every
    child is reaped before this returns or raises, and killed first when this
    process fails.

    A task's exception is raised here with its type and message, the first in
    task order, as the serial loop would raise it: tasks are handed out in
    order, so every task before a failed one has run, and once a task has
    failed, no task that has not started yet runs. An exception that does not
    pickle comes back as a RuntimeError naming its type and message. A child
    that ends without sending its records raises ``BrokenProcessPool``, a
    ``RuntimeError``.
    """
    tasks = list(tasks)
    workers = worker_count(len(tasks))
    if workers == 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(shared, task) for task in tasks]
    counter = multiprocessing.get_context("fork").Value("q", 0)
    sys.stdout.flush()
    sys.stderr.flush()
    pipes, pids = [], []
    try:
        for _ in range(workers):
            read_fd, write_fd = os.pipe()
            pipes.append(read_fd)
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(fn, shared, tasks, counter, write_fd)
                pids.append(pid)
            finally:  # so each write end lives only in its own child
                os.close(write_fd)
        # a child blocked on a full pipe waits only for its own read below
        payloads = [open(fd, "rb", closefd=False).read() for fd in pipes]
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in pipes:
            os.close(fd)
        exit_codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for code, payload in zip(exit_codes, payloads):
        if code != 0 or not payload:  # a task may end its process itself
            raise BrokenProcessPool(f"a worker process ended with exit code {code} "
                                    "before sending its results")
    outcomes = {index: (ok, value) for payload in payloads
                for index, ok, value in pickle.loads(payload)}
    results = []
    for index in range(len(tasks)):
        ok, value = outcomes[index]
        if not ok:
            raise value
        results.append(value)
    return results
