"""One benchmark repetition, run in a fresh process by ``run.py``.

Usage: python3 perfbench/rep.py '<json spec>'

A fresh process per repetition keeps the package's process-wide caches
(``equiv._cache`` keyed by code, ``search._WORKER_ENGINES`` keyed by X
matrix) from turning a repeat of the same inputs into cache hits.

The repetition generates its inputs from ``(seed, rep)``, sets up
(imports, dataset parsing, Schreier-Sims, distance tables, reference
registration), runs the timed phase, then checks every output with the
tracer paused.  It prints one JSON object on its last line.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from cubicsd import cli, construct, dataset, equiv, gf2, perm, search  # noqa: E402

import tracer as tracing  # noqa: E402

THREADS = 2


class _StopStream(Exception):
    """Raised from the progress callback to end a full-mode stream."""


def _published_taus(rng, xi, count):
    """``count`` distinct published taus for X_i, in seeded order."""
    entries = dataset.table_entries(xi)
    picks = rng.choice(len(entries), size=count, replace=False)
    return [entries[int(i)].tau() for i in picks]


def _spot_check_rejects(engine, taus):
    """Rejected candidates must have minimum distance below 10."""
    return sum(1 for tau in taus if engine.min_distance(tau) >= 10)


def _check_survivors(engine, state, injected):
    """Failures among the injected taus and the survivors of a search."""
    group = dataset.autb_group()
    texts = {s.perm_text for s in state.survivors}
    failed = sum(
        1
        for tau in injected
        if (group.min_coset_rep(tau).to_cycle_text() or "()") not in texts
    )
    for s in state.survivors:
        if engine.min_distance(perm.parse_cycles(s.perm_text, 16)) != 10:
            failed += 1
    return failed


# ---------------------------------------------------------------------------
# verify: rebuild and check one published table


def setup_verify(spec, rng):
    dataset.autb_group()
    dataset.table_entries()
    # Pool workers are forked from here and inherit the distance tables.
    search._worker_engine(spec["table"])
    return {"table": spec["table"]}


def timed_verify(spec, inputs):
    start = time.perf_counter()
    report = cli.verify_tables(table_id=inputs["table"], threads=THREADS)
    return report, report["num_entries"], [time.perf_counter() - start]


def check_verify(spec, inputs, report):
    failed = sum(1 for r in report["entries"] if not r.get("pass_"))
    failed += report["num_entries"] - report["num_classes"]
    return report["num_entries"], min(failed, report["num_entries"])


# ---------------------------------------------------------------------------
# sample: seeded coset sample with injected published taus


def _cycled_xi(spec, choices):
    """Consecutive repetitions cycle through the X matrices, so every run
    filters the same mix.  A survivor costs a registration worth about
    2000 filtered cosets, and survivors are far denser for X_4."""
    return choices[(spec["seed"] + spec["rep"]) % len(choices)]


def setup_sample(spec, rng):
    # X_4's random survivors vary from 2 to 13 per 20000 draws, enough to
    # swamp the filter; stream covers X_4.
    xi = _cycled_xi(spec, (1, 2, 3))
    dataset.autb_group()
    dataset.table_entries()
    search._worker_engine(xi)
    return {
        "xi": xi,
        "sample_seed": int(rng.integers(1 << 31)),
        "injected": _published_taus(rng, xi, spec["injected"]),
    }


def timed_sample(spec, inputs):
    start = time.perf_counter()
    state = search.run_search(
        inputs["xi"],
        sample=spec["sample"],
        seed=inputs["sample_seed"],
        threads=THREADS,
        extra_taus=inputs["injected"],
    )
    latency = time.perf_counter() - start
    return state, spec["sample"] + len(inputs["injected"]), [latency]


def check_sample(spec, inputs, state):
    engine = search._worker_engine(inputs["xi"])
    failed = _check_survivors(engine, state, inputs["injected"])
    texts = {s.perm_text for s in state.survivors}
    rejects = []
    for i in range(spec["sample"]):
        tau = search.sampled_tau(inputs["sample_seed"], i)
        if (tau.to_cycle_text() or "()") not in texts:
            rejects.append(tau)
        if len(rejects) == spec["spot_checks"]:
            break
    failed += _spot_check_rejects(engine, rejects)
    return spec["sample"] + len(inputs["injected"]), failed


# ---------------------------------------------------------------------------
# stream: bounded prefix of the full-mode transversal, with checkpoints


def setup_stream(spec, rng):
    xi = _cycled_xi(spec, (1, 2, 3, 4))
    dataset.autb_group()
    dataset.table_entries()
    search._worker_engine(xi)
    return {
        "xi": xi,
        "shard": (int(rng.integers(spec["shards"])), spec["shards"]),
        "injected": _published_taus(rng, xi, spec["injected"]),
    }


def timed_stream(spec, inputs):
    seen = {}

    def progress(state):
        if state.position >= spec["positions"]:
            seen["state"] = state
            raise _StopStream

    # A checkpoint left by an earlier repetition would resume that search.
    checkpoint = os.path.join(spec["workdir"], "stream-checkpoint.json")
    if os.path.exists(checkpoint):
        os.remove(checkpoint)
    start = time.perf_counter()
    try:
        search.run_search(
            inputs["xi"],
            shard=inputs["shard"],
            checkpoint_path=checkpoint,
            progress=progress,
            extra_taus=inputs["injected"],
        )
    except _StopStream:
        pass
    latency = time.perf_counter() - start
    state = seen["state"]
    return state, state.position + len(inputs["injected"]), [latency]


def check_stream(spec, inputs, state):
    engine = search._worker_engine(inputs["xi"])
    failed = _check_survivors(engine, state, inputs["injected"])
    texts = {s.perm_text for s in state.survivors}
    stream = dataset.autb_group().right_transversal(shard=inputs["shard"])
    rejects = []
    for tau in stream:
        if (tau.to_cycle_text() or "()") not in texts:
            rejects.append(tau)
        if len(rejects) == spec["spot_checks"]:
            break
    failed += _spot_check_rejects(engine, rejects)
    return state.position + len(inputs["injected"]), failed


# ---------------------------------------------------------------------------
# identify: closed loop, one client, published codes under random
# coordinate permutations against a registered reference slice


def setup_identify(spec, rng):
    entries = dataset.table_entries()
    dataset.autb_group()
    start = int(rng.integers(len(entries)))
    ref_idx = [(start + j) % len(entries) for j in range(spec["refs"])]
    others = [i for i in range(len(entries)) if i not in set(ref_idx)]
    engines = {}
    codes = {}
    refs = {}
    for i in ref_idx:
        entry = entries[i]
        if entry.table_id not in engines:
            engines[entry.table_id] = construct.DecomposedEngine(entry.table_id)
        codes[i] = search.register_engine_data(
            engines[entry.table_id], entry.tau()
        )
        refs.setdefault(equiv.invariant(codes[i]), []).append((i, codes[i]))
    # The client's queries, made before timing starts: bare generator rows
    # of a published code under a random coordinate permutation.
    queries = []
    for q in range(spec["queries"]):
        miss = q % spec["miss_every"] == spec["miss_every"] - 1
        pool = others if miss else ref_idx
        index = int(pool[int(rng.integers(len(pool)))])
        code = codes.get(index) or construct.build_table_code(entries[index])
        img = [int(x) for x in rng.permutation(48)]
        queries.append((index, miss, _permute_rows(code.rows, img)))
    return {"refs": refs, "queries": queries}


def _permute_rows(rows, img):
    out = []
    for r in rows:
        w = 0
        for i in range(48):
            if r >> i & 1:
                w |= 1 << img[i]
        out.append(w)
    return out


def answer_query(refs, rows):
    """The matching reference entry, a witness and |Aut|, or None."""
    code = gf2.BinaryCode.from_rows(rows, 48)
    for index, ref in refs.get(equiv.invariant(code), ()):
        witness = equiv.find_isomorphism(ref, code)
        if witness is not None:
            return index, witness, equiv.automorphism_group(code).order()
    return None


def timed_identify(spec, inputs):
    answers = []
    latencies = []
    for index, miss, rows in inputs["queries"]:
        start = time.perf_counter()
        answer = answer_query(inputs["refs"], rows)
        latencies.append(time.perf_counter() - start)
        answers.append((index, miss, rows, answer))
    return answers, len(answers), latencies


def check_identify(spec, inputs, answers):
    entries = dataset.table_entries()
    refs = {i: code for group in inputs["refs"].values() for i, code in group}
    failed = 0
    for index, miss, rows, answer in answers:
        if miss:
            failed += answer is not None
            continue
        query = gf2.BinaryCode.from_rows(rows, 48)
        ok = (
            answer is not None
            and answer[0] == index
            and refs[index].permuted(answer[1].img) == query
            and answer[2] == entries[index].expected_aut_order
        )
        failed += not ok
    return len(answers), failed


WORKLOADS = {
    "verify": (setup_verify, timed_verify, check_verify),
    "sample": (setup_sample, timed_sample, check_sample),
    "stream": (setup_stream, timed_stream, check_stream),
    "identify": (setup_identify, timed_identify, check_identify),
}


def describe(inputs):
    """The scalar inputs of a repetition, for the run's log line."""
    return {k: v for k, v in inputs.items() if isinstance(v, (int, tuple))}


def main(spec):
    tr = None
    if spec["trace"]:
        os.makedirs(spec["trace_dir"], exist_ok=True)
        tr = tracing.install(tracing.Tracer(spec["trace_dir"]))
    setup, timed, check = WORKLOADS[spec["workload"]]
    rng = np.random.default_rng([spec["seed"], spec["rep"]])
    inputs = setup(spec, rng)
    setup_s = time.monotonic() - spec["spawned_at"]
    outputs, items, latencies = timed(spec, inputs)
    # The checks call traced functions; they are not part of the workload.
    if tr is not None:
        tr.enabled = False
    attempted, failed = check(spec, inputs, outputs)
    result = {
        "setup_s": setup_s,
        "latencies": latencies,
        "timed_s": sum(latencies),
        "items": items,
        "attempted": attempted,
        "failed": failed,
        "inputs": describe(inputs),
    }
    if spec["workload"] in ("sample", "stream"):
        result["survivors"] = len(outputs.survivors)
        result["inputs"]["survivors"] = result["survivors"]
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result["peak_rss_mb"] = rss_kb / 1024.0
    if tr is not None:
        tr.write("main-%d.jsonl" % os.getpid())
        calls, incl, self_s, counts = tracing.layer_metrics(
            tracing.load_records(spec["trace_dir"])
        )
        result["layers"] = {
            "calls": dict(calls),
            "s": dict(incl),
            "self_s": dict(self_s),
            "counts": dict(counts),
        }
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
