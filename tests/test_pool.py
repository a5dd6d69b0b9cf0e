"""The worker pool of ``search.ordered_map``: its contract, and what
happens when a worker dies.

Each case runs in a fresh interpreter, so that it sees only its own
child processes.  A hang then fails its case after TIMEOUT seconds, with
the whole process group killed, instead of stalling the suite.
"""

import json
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

# Every search job is sent with a 4 MB payload behind an object whose
# unpickling kills the worker.  The worker dies on its first job after
# reading a few bytes of it, while this process is still writing the
# rest into the pipe.
_SENDING = """
import os, sys
from cubicsd import cli, search

class Dies:
    def __reduce__(self):
        return os._exit, (3,)

blocks = search._blocks

def deadly(state):
    for job in blocks(state):
        yield Dies(), bytes(4 << 20), job

search._blocks = deadly
{call}
"""


def _run(code):
    """(exit code, stdout, stderr) of ``code`` run in a fresh interpreter."""
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
        pytest.fail("the pool hung the run for %d s" % TIMEOUT)
    return proc.returncode, out, err


def _run_dying(call, task, dies):
    """(exit code, stdout, stderr) of ``call`` run with a dying task."""
    return _run(_SCRIPT.format(task=task, dies=dies, call=call))


def _run_map(body):
    """The stdout of ``body``, run after ``import os, time`` and ``from
    cubicsd import search``; fails on a nonzero exit code."""
    head = "import os, time\nfrom cubicsd import search\n"
    status, out, err = _run(head + body)
    assert status == 0, err
    return out


def _last_line(text):
    return text.strip().splitlines()[-1]


_CLI_SEARCH = [
    "search", "--xi", "4", "--sample", "40000", "--seed", "1",
    "--threads", "2", "--checkpoint",
]


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
    argv = _CLI_SEARCH + [str(tmp_path / "cp.jsonl")]
    status, out, err = _run_dying(
        "sys.exit(cli.main(%r))" % argv, **_SEARCH
    )
    assert status == 2
    assert out == ""
    assert err.startswith("error: a worker process died: ")
    assert "the same --checkpoint resumes" in err
    assert len(err.splitlines()) == 1


def test_worker_dying_while_sent_a_job_raises(tmp_path):
    status, _, err = _run(
        _SENDING.format(call="search.run_search(4, sample=40000, threads=2)")
    )
    assert status == 1
    assert _last_line(err).startswith("cubicsd.search.BrokenProcessPool: ")
    argv = _CLI_SEARCH + [str(tmp_path / "cp.jsonl")]
    status, out, err = _run(
        _SENDING.format(call="sys.exit(cli.main(%r))" % argv)
    )
    assert (status, out) == (2, "")
    assert err.startswith("error: a worker process died: ")
    assert _last_line(err).endswith(
        "Rerunning with the same --checkpoint resumes the search."
    )
    assert len(err.splitlines()) == 1


def test_results_come_in_job_order():
    # Job 0 sleeps longest, so worker 1 finishes job 1 first.
    out = _run_map(
        "def task(job):\n"
        "    time.sleep(0.03 * (6 - job))\n"
        "    return job * job\n"
        "print(list(search.ordered_map(task, range(6), 2)))\n"
    )
    assert out == "[0, 1, 4, 9, 16, 25]\n"


def test_task_error_reaches_the_caller():
    out = _run_map(
        "def task(job):\n"
        "    if job == 3:\n"
        "        raise ValueError('job 3')\n"
        "    return job\n"
        "got = []\n"
        "try:\n"
        "    for value in search.ordered_map(task, range(6), 2):\n"
        "        got.append(value)\n"
        "except ValueError as exc:\n"
        "    print(got, repr(exc))\n"
    )
    assert out == "[0, 1, 2] ValueError('job 3')\n"


def test_large_jobs_and_results_cross():
    # A 1 MB job and a 1 MB result each outgrow a pipe's buffer.
    out = _run_map(
        "jobs = [bytes([k]) * (1 << 20) for k in range(8)]\n"
        "got = list(search.ordered_map(lambda b: b[::-1], jobs, 2))\n"
        "print(got == jobs, len(got))\n"
    )
    assert out == "True 8\n"


def test_closing_early_leaves_no_child():
    out = _run_map(
        "def task(job):\n"
        "    time.sleep(0.01)\n"
        "    return job\n"
        "results = search.ordered_map(task, range(20), 2)\n"
        "print(next(results), next(results))\n"
        "results.close()\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    print('no child')\n"
    )
    assert out == "0 1\nno child\n"


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs at least two allowed CPUs",
)
def test_workers_are_pinned_one_per_cpu():
    cpus = sorted(os.sched_getaffinity(0))[:4]
    out = _run_map(
        "jobs = range(%d)\n"
        "def task(job):\n"
        "    return sorted(os.sched_getaffinity(0))\n"
        "print(list(search.ordered_map(task, jobs, len(jobs))))\n" % len(cpus)
    )
    assert out == "%s\n" % [[cpu] for cpu in cpus]


def test_workers_do_not_flush_inherited_output():
    out = _run_map(
        "import sys\n"
        "sys.stdout.write('buffered\\n')\n"
        "list(search.ordered_map(abs, range(-4, 4), 2))\n"
    )
    assert out == "buffered\n"


def test_cli_output_does_not_depend_on_threads():
    def verify(threads):
        status, out, err = _run(
            "import sys\nfrom cubicsd import cli\nsys.exit(cli.main(%r))"
            % ["verify-tables", "--table", "1", "--threads", threads, "--json"]
        )
        assert status == 0, err
        return out

    serial = verify("1")
    assert json.loads(serial)["pass_"]
    assert verify("2") == serial
