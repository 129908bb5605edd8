"""``fork_map``: task order, nesting, failures and killed workers."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tspkit
from tspkit.workers import fork_map


@pytest.fixture(autouse=True)
def two_workers(monkeypatch):
    monkeypatch.setenv("TSPKIT_THREADS", "2")


def slow_echo(shared, task):
    time.sleep(0.02 * (6 - task))  # early tasks finish last
    return shared, task, os.getpid()


def test_results_come_back_in_task_order_from_workers():
    results = fork_map(slow_echo, "job", range(6))
    assert [(shared, task) for shared, task, _ in results] == [("job", t) for t in range(6)]
    assert os.getpid() not in {pid for _, _, pid in results}


def test_one_task_runs_in_this_process():
    assert fork_map(slow_echo, "job", [5]) == [("job", 5, os.getpid())]
    assert fork_map(slow_echo, "job", []) == []


def inner_pids(shared, task):
    return os.getpid(), fork_map(lambda _, t: os.getpid(), None, range(3))


def test_a_worker_runs_its_own_fork_map_serially():
    for pid, inner in fork_map(inner_pids, None, range(2)):
        assert pid != os.getpid()
        assert inner == [pid, pid, pid]


def fail_some(marker_dir, task):
    if task == 1:
        time.sleep(0.6)
        raise KeyError("task 1")
    if task == 3:
        raise ValueError("task 3")
    time.sleep(0.2)
    (Path(marker_dir) / str(task)).touch()
    return task


def test_the_first_failure_in_task_order_is_raised_and_later_tasks_do_not_start(tmp_path):
    # task 3 fails first in time, task 1 first in task order, as a serial loop meets them
    with pytest.raises(KeyError, match="task 1"):
        fork_map(fail_some, str(tmp_path), range(30))
    ran = sorted(int(p.name) for p in tmp_path.iterdir())
    assert 0 in ran
    assert len(ran) < 15, ran  # 28 without the cancel


def test_a_killed_worker_raises_instead_of_hanging():
    code = ("import os, sys\n"
            "from tspkit.workers import fork_map\n"
            "try:\n"
            "    fork_map(lambda _, t: os._exit(3) if t == 2 else t, None, range(6))\n"
            "except RuntimeError as exc:\n"
            "    print(type(exc).__name__)\n"
            "    sys.exit(0)\n"
            "sys.exit(1)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(tspkit.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "BrokenProcessPool"
