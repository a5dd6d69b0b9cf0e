"""A pool worker that dies must end the run with an error, not hang it.

Each case runs in a fresh interpreter whose pool task calls
``os._exit(3)`` inside the worker.  A hang then fails its case after
TIMEOUT seconds, with the whole process group killed, instead of
stalling the suite.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from cubicsd import search

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 60

# The pool task ``{task}`` is replaced by one that kills its worker on
# every job for which ``{dies}`` holds.  Forked workers inherit the
# replacement and look the task up under the same module attribute.
_SCRIPT = """
import os, sys
from cubicsd import cli, search

task = {task}

def dying(job):
    if {dies}:
        os._exit(3)
    return task(job)

{task} = dying
{call}
"""

# A sample job holds the (number, rows) pair of its block third: every
# block after the first two kills its worker.
_SEARCH = dict(task="search._filter_block", dies="job[2][0] >= 2")


def _run_dying(call, task, dies):
    """(exit code, stdout, stderr) of ``call`` run with a dying task."""
    code = _SCRIPT.format(task=task, dies=dies, call=call)
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    proc = subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("a dead pool worker hung the run for %d s" % TIMEOUT)
    return proc.returncode, out, err


def _last_line(text):
    return text.strip().splitlines()[-1]


def test_dead_search_worker_raises_and_checkpoint_resumes(tmp_path):
    cp = str(tmp_path / "cp.jsonl")
    args = "4, sample=40000, seed=1, threads=2"
    status, _, err = _run_dying(
        "search.run_search(%s, checkpoint_path=%r)" % (args, cp), **_SEARCH
    )
    assert status == 1
    assert "BrokenProcessPool" in _last_line(err)
    stopped = search.load_checkpoint(cp)
    assert stopped.position <= 2 * search.BLOCK_SIZE
    # The rerun resumes the same checkpoint with the real task.
    resumed = search.run_search(4, sample=40000, seed=1, checkpoint_path=cp)
    whole = search.run_search(4, sample=40000, seed=1)
    assert len(whole.survivors) > len(stopped.survivors)
    assert resumed.survivors == whole.survivors
    assert resumed.position == whole.position == 40000


def test_dead_verify_worker_raises():
    status, _, err = _run_dying(
        "cli.verify_tables(table_id=1, threads=2)",
        task="cli._verify_entry",
        dies="True",
    )
    assert status == 1
    assert "BrokenProcessPool" in _last_line(err)


def test_cli_reports_dead_worker(tmp_path):
    argv = [
        "search", "--xi", "4", "--sample", "40000", "--seed", "1",
        "--threads", "2", "--checkpoint", str(tmp_path / "cp.jsonl"),
    ]
    status, out, err = _run_dying(
        "sys.exit(cli.main(%r))" % argv, **_SEARCH
    )
    assert status == 2
    assert out == ""
    assert err.startswith("error: a worker process died: ")
    assert "the same --checkpoint resumes" in err
    assert len(err.splitlines()) == 1
