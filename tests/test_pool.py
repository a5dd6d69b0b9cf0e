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
# The caller runs jobs too but does not die: on such a job it sleeps
# instead, long enough for a forked worker to claim a job and die.
_SCRIPT = """
import os, sys, time
from cubicsd import cli, search

task = {task}
caller = os.getpid()

def dying(job):
    if {dies}:
        if os.getpid() != caller:
            os._exit(3)
        time.sleep(0.5)
    return task(job)

{task} = dying
{call}
"""

# A sample job holds the (number, rows) pair of its block third: a
# forked worker dies on every block after the first.
_SEARCH = dict(task="search._filter_block", dies="job[2][0] >= 1")

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


def test_large_results_cross():
    # Each 1 MB result outgrows a pipe's buffer, and a worker runs ahead
    # of the reads until its pipe is full.
    out = _run_map(
        "want = [bytes([k]) * (1 << 20) for k in range(8)]\n"
        "task = lambda k: bytes([k]) * (1 << 20)\n"
        "got = list(search.ordered_map(task, range(8), 2))\n"
        "print(got == want, len(got))\n"
    )
    assert out == "True 8\n"


@pytest.mark.parametrize("threads", [1, 2])
def test_error_in_jobs_comes_after_the_results_before_it(threads):
    out = _run_map(
        "def jobs(bad):\n"
        "    for k in range(6):\n"
        "        if k == bad:\n"
        "            raise ValueError('job %%d' %% k)\n"
        "        yield k\n"
        "for bad in (0, 3, 4):\n"
        "    got = []\n"
        "    try:\n"
        "        for value in search.ordered_map(\n"
        "            lambda job: 10 * job, jobs(bad), %d\n"
        "        ):\n"
        "            got.append(value)\n"
        "    except ValueError as exc:\n"
        "        print(got, repr(exc))\n" % threads
    )
    assert out == (
        "[] ValueError('job 0')\n"
        "[0, 10, 20] ValueError('job 3')\n"
        "[0, 10, 20, 30] ValueError('job 4')\n"
    )


@pytest.mark.parametrize("threads", [1, 2])
def test_jobs_need_not_be_picklable(threads):
    out = _run_map(
        "jobs = [lambda: 1, lambda: 2, lambda: 3]\n"
        "print(list(search.ordered_map(lambda f: f(), jobs, %d)))\n" % threads
    )
    assert out == "[1, 2, 3]\n"


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_fewer_jobs_than_workers_leave_no_child(threads):
    out = _run_map(
        "for jobs in ([7], [7, 8], []):\n"
        "    print(list(search.ordered_map(abs, jobs, %d)))\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    print('no child')\n" % threads
    )
    assert out == "[7]\n[7, 8]\n[]\nno child\n"


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


_TWO_CPUS = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs at least two allowed CPUs",
)


@_TWO_CPUS
def test_workers_are_pinned_one_per_cpu():
    # Each job sleeps, so that every process claims one of them.
    cpus = sorted(os.sched_getaffinity(0))[:4]
    out = _run_map(
        "jobs = range(%d)\n"
        "def task(job):\n"
        "    time.sleep(0.2)\n"
        "    return os.getpid(), sorted(os.sched_getaffinity(0))\n"
        "ran = dict(search.ordered_map(task, jobs, len(jobs)))\n"
        "print(len(ran), os.getpid() in ran, sorted(ran.values()))\n"
        % len(cpus)
    )
    assert out == "%d True %s\n" % (len(cpus), [[cpu] for cpu in cpus])


@_TWO_CPUS
def test_caller_affinity_is_restored():
    out = _run_map(
        "before = os.sched_getaffinity(0)\n"
        "print(list(search.ordered_map(abs, range(-3, 3), 2)))\n"
        "print(os.sched_getaffinity(0) == before)\n"
        "results = search.ordered_map(abs, range(-3, 3), 2)\n"
        "print(next(results))\n"
        "results.close()\n"
        "print(os.sched_getaffinity(0) == before)\n"
        "def task(job):\n"
        "    if job == 4:\n"
        "        raise ValueError('job 4')\n"
        "    return job\n"
        "try:\n"
        "    list(search.ordered_map(task, range(6), 2))\n"
        "except ValueError as exc:\n"
        "    print(repr(exc))\n"
        "print(os.sched_getaffinity(0) == before)\n"
    )
    assert out == (
        "[3, 2, 1, 0, 1, 2]\nTrue\n3\nTrue\nValueError('job 4')\nTrue\n"
    )


def test_caller_runs_jobs_when_its_first_job_is_slow():
    # Whichever process claims job 0 is held there; the other runs the
    # rest, so the caller runs at least one job either way.
    out = _run_map(
        "def task(job):\n"
        "    if job == 0:\n"
        "        time.sleep(0.2)\n"
        "    return job, os.getpid()\n"
        "got = list(search.ordered_map(task, range(6), 2))\n"
        "print([j for j, _ in got], os.getpid() in {p for _, p in got})\n"
    )
    assert out == "[0, 1, 2, 3, 4, 5] True\n"


@pytest.mark.parametrize("threads", [2, 3])
def test_results_come_in_job_order_under_uneven_costs(threads):
    out = _run_map(
        "import random\n"
        "costs = random.Random(%d).choices([0, 0.001, 0.01, 0.05], k=40)\n"
        "def task(job):\n"
        "    time.sleep(costs[job])\n"
        "    return job, os.getpid()\n"
        "got = list(search.ordered_map(task, range(40), %d))\n"
        "print([j for j, _ in got] == list(range(40)))\n"
        "print(len({p for _, p in got}) > 1)\n" % (threads, threads)
    )
    assert out == "True\nTrue\n"


def test_worker_killed_holding_the_claim_lock_raises():
    # A forked worker takes the claim lock and is killed before it lets
    # go; the kernel releases the lock, and the caller sees the death.
    out = _run_map(
        "import fcntl, signal\n"
        "caller = os.getpid()\n"
        "claim = search._claim\n"
        "def dying_claim(fd):\n"
        "    if os.getpid() != caller:\n"
        "        fcntl.lockf(fd, fcntl.LOCK_EX)\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    return claim(fd)\n"
        "search._claim = dying_claim\n"
        "def task(job):\n"
        "    time.sleep(0.01)\n"
        "    return job\n"
        "try:\n"
        "    list(search.ordered_map(task, range(20), 2))\n"
        "except search.BrokenProcessPool:\n"
        "    print('broken')\n"
    )
    assert out == "broken\n"


def test_results_ready_before_a_death_come_first():
    # Forked workers wait before their first claim, so the caller runs
    # job 0 while a worker claims job 1 and dies on it.
    out = _run_map(
        "caller = os.getpid()\n"
        "claim = search._claim\n"
        "def slow_claim(fd):\n"
        "    if os.getpid() != caller:\n"
        "        time.sleep(0.1)\n"
        "    return claim(fd)\n"
        "search._claim = slow_claim\n"
        "def task(job):\n"
        "    if os.getpid() != caller:\n"
        "        os._exit(3)\n"
        "    time.sleep(0.3 if job == 0 else 0)\n"
        "    return job\n"
        "got = []\n"
        "try:\n"
        "    for value in search.ordered_map(task, range(6), 2):\n"
        "        got.append(value)\n"
        "except search.BrokenProcessPool:\n"
        "    print(got, 'broken')\n"
    )
    assert out == "[0] broken\n"


def test_search_does_not_depend_on_when_the_caller_starts():
    # The caller waits after each fork, so a worker has finished block 0
    # before the caller walks its own copy of the block stream; the
    # workers' later blocks are slow, so the caller then claims one.
    out = _run_map(
        "caller = os.getpid()\n"
        "fork, task = search._fork_worker, search._filter_block\n"
        "def slow_fork(*args):\n"
        "    forked = fork(*args)\n"
        "    time.sleep(0.1)\n"
        "    return forked\n"
        "def slow_task(job):\n"
        "    if os.getpid() != caller and job[2][0] > 0:\n"
        "        time.sleep(0.2)\n"
        "    return task(job)\n"
        "search._fork_worker, search._filter_block = slow_fork, slow_task\n"
        "def scan(threads):\n"
        "    seen = []\n"
        "    state = search.run_search(\n"
        "        4, sample=40000, seed=1, threads=threads,\n"
        "        progress=lambda s: seen.append(s.position),\n"
        "    )\n"
        "    return seen, state.position, state.survivors\n"
        "serial = scan(1)\n"
        "print(serial[0], scan(2) == serial, scan(3) == serial)\n"
    )
    assert out == "[10000, 20000, 30000, 40000] True True\n"


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


def test_cli_loads_no_process_pool_module():
    # The pool is built on os.fork alone; these modules would add to the
    # start-up of every command.
    status, out, err = _run(
        "import sys\n"
        "import cubicsd.cli\n"
        "names = ('multiprocessing', 'concurrent.futures.process')\n"
        "print([name for name in names if name in sys.modules])\n"
    )
    assert status == 0, err
    assert out == "[]\n"
