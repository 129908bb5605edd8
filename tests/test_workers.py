"""``fork_map``: task order, nesting, failures and killed workers."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import tspkit
from tspkit import cli
from tspkit.extract import FeatureTrack, write_track
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


def test_a_thread_cap_that_is_not_an_integer_fails_in_one_line_naming_it(monkeypatch, tmp_path,
                                                                          capsys):
    monkeypatch.setenv("TSPKIT_THREADS", "abc")
    with pytest.raises(ValueError, match=r"^TSPKIT_THREADS must be an integer, not 'abc'$"):
        fork_map(slow_echo, "job", range(2))
    track = tmp_path / "v.csv"
    write_track(FeatureTrack("v", 16, 2, 31, 4.0, 40, "id", np.zeros(0), np.array([1.0]),
                             np.zeros((1, 2)), np.array([0.5]), np.zeros((1, 3))), track)
    out = [str(tmp_path / name) for name in ("det.json", "prop.json")]
    assert cli.main(["localize", "--tracks", str(track), "--detections-out", out[0],
                     "--proposals-out", out[1]]) == 1
    assert capsys.readouterr().err == "error: TSPKIT_THREADS must be an integer, not 'abc'\n"


def fail_first(marker_dir, task):
    time.sleep(0.05)
    if task == 0:
        raise ValueError("task 0")
    (Path(marker_dir) / str(task)).touch()
    return task


def test_a_failure_stops_the_workers_whose_tasks_have_not_failed(tmp_path):
    with pytest.raises(ValueError, match="task 0"):
        fork_map(fail_first, str(tmp_path), range(30))
    assert len(list(tmp_path.iterdir())) < 15  # 29 if the other worker went on

def run_python(code):
    """Run ``code`` in a fresh interpreter that imports this tspkit; its stdout,
    which is a pipe and so block-buffered."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(tspkit.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_a_worker_killed_mid_task_raises_and_every_child_is_reaped():
    code = ("import os, signal, time\n"
            "from concurrent.futures.process import BrokenProcessPool\n"
            "from tspkit.workers import fork_map\n"
            "def task(_, t):\n"
            "    if t == 2:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    time.sleep(0.05)\n"
            "try:\n"
            "    fork_map(task, None, range(8))\n"
            "except BrokenProcessPool as exc:\n"
            "    print(exc)\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    print('no children')\n")
    assert run_python(code).splitlines() == [
        "a worker process ended with exit code -9 before sending its results", "no children"]


def big_array(shared, task):
    return np.random.default_rng(task).standard_normal(2**18)  # 2 MB


def test_large_results_come_back_in_task_order_and_bit_identical():
    # each child's 6 MB outgrows its pipe's buffer many times over
    results = fork_map(big_array, None, range(6))
    assert [r.tobytes() for r in results] == [big_array(None, t).tobytes() for t in range(6)]


class UnpicklableError(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.callback = lambda: None  # a lambda does not pickle


def raise_unpicklable(shared, task):
    if task == 1:
        raise UnpicklableError("task 1 holds a lambda")
    return task


def test_an_exception_that_does_not_pickle_still_names_its_type_and_message():
    with pytest.raises(RuntimeError, match=r"^UnpicklableError: task 1 holds a lambda$"):
        fork_map(raise_unpicklable, None, range(4))


def test_worker_count_is_one_inside_a_fork_map_task():
    assert fork_map(lambda _, t: tspkit.workers.worker_count(5), None, range(3)) == [1, 1, 1]


def test_output_buffered_before_the_fork_is_printed_once_and_tasks_output_is_kept():
    code = ("from tspkit.workers import fork_map\n"
            "print('before')\n"  # stdout is a pipe, so this line waits in the buffer
            "fork_map(lambda _, t: print(f'task {t}'), None, range(4))\n"
            "print('after')\n")
    lines = run_python(code).splitlines()
    assert (lines[0], lines[-1]) == ("before", "after")
    assert sorted(lines[1:-1]) == [f"task {t}" for t in range(4)]
