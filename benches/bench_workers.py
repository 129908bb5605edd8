"""Microbenchmarks of ``workers.fork_map`` itself, at 2 workers.

Each case times one whole ``fork_map`` call: forking the children, handing
out the tasks through the shared counter, sending the results back through
the pipes, reassembling them in task order and reaping every child.

``test_five_noop_tasks`` and ``test_forty_noop_tasks`` time tasks that do
nothing and return ``None``, so they measure the pool's fixed cost per call
and how it grows with the task count: five tasks are the ``paper-study1``
preset's seeds or a ``train`` call's grid cells, forty are ``tspkit
extract``'s valid videos on the default corpus. ``test_forty_64kb_results``
times forty tasks that each return the same 64 KB array (8,192 float64
values), so the difference from the forty no-op tasks is the cost of
pickling, sending and unpickling 2.5 MB of results.

tspkit is imported before numpy, so BLAS runs on one thread per process. The
test suite does not collect this file (it does not match ``test_*.py``); run
it from the repository root with pytest-benchmark:

    PYTHONPATH=src python -m pytest benches/bench_workers.py -o python_files='bench_*.py'
"""

import tspkit  # noqa: F401  (before numpy: it sets the BLAS thread count)

import numpy as np
import pytest

from tspkit.workers import fork_map


@pytest.fixture(autouse=True)
def two_workers(monkeypatch):
    monkeypatch.setenv("TSPKIT_THREADS", "2")


def noop(shared, task):
    return None


def array(shared, task):
    return shared


def test_five_noop_tasks(benchmark):
    assert benchmark(fork_map, noop, None, range(5)) == [None] * 5


def test_forty_noop_tasks(benchmark):
    assert benchmark(fork_map, noop, None, range(40)) == [None] * 40


def test_forty_64kb_results(benchmark):
    row = np.arange(8192, dtype=np.float64)
    results = benchmark(fork_map, array, row, range(40))
    assert len(results) == 40 and all(np.array_equal(r, row) for r in results)
