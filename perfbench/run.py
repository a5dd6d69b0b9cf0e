"""The cubicsd benchmark.

    python3 perfbench/run.py --workload {verify,sample,stream,identify}
                             [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from the root of a checkout; the package is imported from ``src/``.
Every timed repetition runs in a fresh process (``rep.py``), and the
outputs of each are checked.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` the same repetitions run once untraced and once traced,
and the metrics are the per-layer ones from the traced repetitions plus
the tracing overhead.  See NOTES.md for the workloads and their sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
TRACE_DIR = os.path.join(ROOT, ".perfbench_trace")
DEADLINE_S = 170

DEFAULT_SEED = 1

# Per workload: repetitions per 10 s of --seconds, and the per-repetition
# sizes for a full run and for a smoke run.  A full run gives 12-19 s of
# timed work on a 2-core x86 box without numba.
WORKLOADS = {
    "verify": {
        "reps_per_10s": 3,
        "full": {"table": 2},
        "smoke": {"table": 1},
    },
    "sample": {
        "reps_per_10s": 3,
        "full": {"sample": 60000, "injected": 3, "spot_checks": 2},
        "smoke": {"sample": 2000, "injected": 1, "spot_checks": 1},
    },
    "stream": {
        "reps_per_10s": 4,
        "full": {
            "positions": 20000,
            "shards": 4,
            "injected": 2,
            "spot_checks": 2,
        },
        "smoke": {
            "positions": 10000,
            "shards": 4,
            "injected": 1,
            "spot_checks": 1,
        },
    },
    "identify": {
        "reps_per_10s": 3,
        "full": {"refs": 8, "queries": 8, "miss_every": 4},
        "smoke": {"refs": 2, "queries": 2, "miss_every": 2},
    },
}

# Set-up time is the median over at least this many fresh processes.
MIN_REPS = 3

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Timed layer functions report .calls, .s and .self_s; counted leaves
# report .calls.
TIMED_LAYERS = [name for _, name in tracer.TIMED]
COUNTED_LAYERS = [name for _, name in tracer.COUNTED]
# Modules with timed functions; each reports the self time of its spans.
MODULES = sorted({name.split(".")[0] for name in TIMED_LAYERS})


def per_layer_units():
    """Every per-layer metric name with its unit, in output order."""
    units = {}
    for name in TIMED_LAYERS:
        units[name + ".calls"] = "count"
        units[name + ".s"] = "s"
        units[name + ".self_s"] = "s"
    units[tracer.TRANSVERSAL + ".items"] = "count"
    units[tracer.TRANSVERSAL + ".s"] = "s"
    units[tracer.TRANSVERSAL + ".self_s"] = "s"
    for name in COUNTED_LAYERS:
        units[name + ".calls"] = "count"
    for module in MODULES:
        units["layer.%s.self_s" % module] = "s"
    units["search.survivor_ratio"] = "ratio"
    units["equiv.find_isomorphism.hit_ratio"] = "ratio"
    units["trace.items_per_s"] = "1/s"
    units["trace.overhead_frac"] = "ratio"
    return units


def environment():
    """Facts that decide whether two results are comparable."""
    import numpy

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": has_numba,
    }


class RepFailed(RuntimeError):
    pass


def _terminate(signum, frame):
    """Turn SIGTERM into an exit that stops the running repetition."""
    raise SystemExit(128 + signum)


def run_rep(spec, deadline):
    """Run one repetition in a fresh process and return its result."""
    spec = dict(spec, spawned_at=time.monotonic())
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "rep.py"), json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        # The repetition and its pool workers share a process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RepFailed("repetition %d timed out" % spec["rep"])
        raise
    if proc.returncode != 0:
        sys.stderr.write(err[-4000:])
        raise RepFailed(
            "repetition %d exited with code %d" % (spec["rep"], proc.returncode)
        )
    return json.loads(out.strip().splitlines()[-1])


def num_reps(args):
    if args.smoke:
        return 1
    per_10s = WORKLOADS[args.workload]["reps_per_10s"]
    return max(MIN_REPS, round(args.seconds * per_10s / 10))


def tail(values):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile); with fewer than 11 samples there is no
    such percentile and the maximum is returned as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def items_per_s(timed):
    return sum(r["items"] for r in timed) / sum(r["timed_s"] for r in timed)


def summarize(results):
    latencies = [x for r in results for x in r["latencies"]]
    tail_value, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "items_per_s": items_per_s(results),
        "query_p50_ms": 1000.0 * statistics.median(latencies),
        "query_tail_ms": 1000.0 * tail_value,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }
    info = {
        "latency_samples": len(latencies),
        "query_tail_percentile": tail_pct,
        "reps": [
            dict(r["inputs"], items=r["items"], timed_s=round(r["timed_s"], 3))
            for r in results
        ],
    }
    return metrics, info


def layer_summary(traced, untraced_rate):
    calls, incl, self_s, counts = {}, {}, {}, {}
    for r in traced:
        for key, dest in (
            ("calls", calls),
            ("s", incl),
            ("self_s", self_s),
            ("counts", counts),
        ):
            for name, value in r["layers"][key].items():
                dest[name] = dest.get(name, 0) + value
    metrics = {}
    for name in TIMED_LAYERS:
        metrics[name + ".calls"] = calls.get(name, 0)
        metrics[name + ".s"] = incl.get(name, 0.0)
        metrics[name + ".self_s"] = self_s.get(name, 0.0)
    transversal = tracer.TRANSVERSAL
    metrics[transversal + ".items"] = counts.get(transversal + ".items", 0)
    metrics[transversal + ".s"] = incl.get(transversal, 0.0)
    metrics[transversal + ".self_s"] = self_s.get(transversal, 0.0)
    for name in COUNTED_LAYERS:
        metrics[name + ".calls"] = counts.get(name, 0)
    for module in MODULES:
        metrics["layer.%s.self_s" % module] = sum(
            t for name, t in self_s.items() if name.split(".")[0] == module
        )
    filtered = sum(r["items"] for r in traced if "survivors" in r)
    survivors = sum(r.get("survivors", 0) for r in traced)
    metrics["search.survivor_ratio"] = survivors / filtered if filtered else 0.0
    iso_calls = calls.get("equiv.find_isomorphism", 0)
    witnesses = counts.get("equiv.find_isomorphism.witnesses", 0)
    metrics["equiv.find_isomorphism.hit_ratio"] = (
        witnesses / iso_calls if iso_calls else 0.0
    )
    traced_rate = items_per_s(traced)
    metrics["trace.items_per_s"] = traced_rate
    metrics["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="one small repetition"
    )
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isfile(os.path.join(ROOT, "src", "cubicsd", "__init__.py")):
        sys.stderr.write("error: no cubicsd source under %s\n" % ROOT)
        return 2
    cfg = WORKLOADS[args.workload]
    seed = args.seed
    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(WORK_DIR, str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    base = dict(
        cfg["smoke" if args.smoke else "full"],
        workload=args.workload,
        seed=seed,
        workdir=work,
        trace=False,
    )
    reps = range(num_reps(args))
    try:
        results = [run_rep(dict(base, rep=rep), deadline) for rep in reps]
        traced = []
        if args.trace:
            for rep in reps:
                # One directory per workload and repetition: the latest
                # traced run replaces the previous one's spans.
                trace_dir = os.path.join(
                    TRACE_DIR, "%s-rep%d" % (args.workload, rep)
                )
                shutil.rmtree(trace_dir, ignore_errors=True)
                spec = dict(base, rep=rep, trace=True, trace_dir=trace_dir)
                traced.append(run_rep(spec, deadline))
    except RepFailed as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass

    metrics, info = summarize(results)
    attempted = sum(r["attempted"] for r in results + traced)
    failed = sum(r["failed"] for r in results + traced)
    print("env: " + json.dumps(environment(), sort_keys=True))
    print(
        "run: "
        + json.dumps(
            dict(info, workload=args.workload, seed=seed, smoke=args.smoke),
            sort_keys=True,
        )
    )
    print("failed_frac: %.6f (%d of %d)" % (failed / attempted, failed, attempted))
    if args.trace:
        values = layer_summary(traced, metrics["items_per_s"])
        units = per_layer_units()
    else:
        values = metrics
        units = END_TO_END
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
