"""Span tracing of the cubicsd layers, installed from outside the package.

``install`` replaces public functions and methods of the package's
modules with wrappers at module or class attribute level.  Calls inside
the package look those names up at call time (``gf2.rref``,
``equiv.code_data``, ``PermGroup.min_coset_rep``), so internal calls are
caught too.  Each wrapped call records a span ``(id, parent, name,
start, end)``; a few hot leaves are only counted.  Spans stay in memory
and are written out when the repetition ends.

Pool workers are forked from the traced process and inherit the
wrappers.  After a fork the child starts an empty span list, and the
pool's task functions are wrapped so that each worker appends its spans
to a file of its own after every task.
"""

from __future__ import annotations

import collections
import functools
import json
import os
import time

# (owner attribute path, span name) for every timed function.
TIMED = [
    ("perm.PermGroup.__init__", "perm.PermGroup"),
    ("perm.PermGroup.min_coset_rep", "perm.min_coset_rep"),
    ("dataset.autb_group", "dataset.autb_group"),
    ("dataset.table_entries", "dataset.table_entries"),
    ("gf2.rref", "gf2.rref"),
    ("gf2.BinaryCode.weight_enumerator", "gf2.BinaryCode.weight_enumerator"),
    ("gf2.BinaryCode.permuted", "gf2.BinaryCode.permuted"),
    ("construct.permuted_base_rows", "construct.permuted_base_rows"),
    ("construct.build_code", "construct.build_code"),
    (
        "construct.DecomposedEngine.min_weight_at_least",
        "construct.DecomposedEngine.min_weight_at_least",
    ),
    ("construct.DecomposedEngine.m_table", "construct.DecomposedEngine.m_table"),
    (
        "construct.DecomposedEngine.weight_enumerator",
        "construct.DecomposedEngine.weight_enumerator",
    ),
    (
        "construct.DecomposedEngine.words_of_weights",
        "construct.DecomposedEngine.words_of_weights",
    ),
    ("equiv.register_code_data", "equiv.register_code_data"),
    ("equiv.code_data", "equiv.code_data"),
    ("equiv.find_isomorphism", "equiv.find_isomorphism"),
    ("equiv.automorphism_group", "equiv.automorphism_group"),
    ("equiv.partition_classes", "equiv.partition_classes"),
    ("search.sampled_tau", "search.sampled_tau"),
    ("search.register_engine_data", "search.register_engine_data"),
    ("search.run_search", "search.run_search"),
    ("cli.verify_tables", "cli.verify_tables"),
]

# Hot leaves: counted, not timed.
COUNTED = [
    ("perm.Permutation.apply_to_word", "perm.apply_to_word"),
    ("cyclicring.poly_shift", "cyclicring.poly_shift"),
]

TRANSVERSAL = "perm.right_transversal"

# Pool task functions whose workers flush their spans after each task.
POOL_TASKS = ["search._filter_block", "cli._verify_entry"]


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.enabled = True
        self.in_pool_worker = False
        self._reset()

    def _reset(self):
        self.spans = []
        self.counts = collections.Counter()
        self.stack = [0]
        self.next_id = 1

    def after_fork(self):
        self._reset()
        self.in_pool_worker = True

    def _drain(self):
        """Forget written spans; ids keep counting so they stay unique."""
        self.spans = []
        self.counts = collections.Counter()

    def timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = self.next_id
            self.next_id += 1
            parent = self.stack[-1]
            self.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans.append((sid, parent, name, start, end))
            if name == "equiv.find_isomorphism" and result is not None:
                self.counts["equiv.find_isomorphism.witnesses"] += 1
            return result

        return wrapper

    def counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def generator(self, name, fn):
        """Time each step inside a generator, as one span per item."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                if not self.enabled:
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    yield item
                    continue
                sid = self.next_id
                self.next_id += 1
                parent = self.stack[-1]
                self.stack.append(sid)
                start = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    end = time.perf_counter()
                    self.stack.pop()
                    self.spans.append((sid, parent, name, start, end))
                self.counts[name + ".items"] += 1
                yield item

        return wrapper

    def flush_after(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                if self.in_pool_worker:
                    self.write("worker-%d.jsonl" % os.getpid())
                    self._drain()

        return wrapper

    def write(self, filename):
        """Append this process's spans and counts as one JSON line."""
        path = os.path.join(self.out_dir, filename)
        with open(path, "a") as fh:
            fh.write(
                json.dumps(
                    {
                        "pid": os.getpid(),
                        "spans": self.spans,
                        "counts": dict(self.counts),
                    }
                )
            )
            fh.write("\n")


def _resolve(modules, path):
    parts = path.split(".")
    owner = modules[parts[0]]
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer):
    """Wrap the package's layer functions; returns the tracer."""
    from cubicsd import cli, construct, cyclicring, dataset, equiv, gf2, perm
    from cubicsd import search

    modules = {
        "cli": cli,
        "construct": construct,
        "cyclicring": cyclicring,
        "dataset": dataset,
        "equiv": equiv,
        "gf2": gf2,
        "perm": perm,
        "search": search,
    }
    for path, name in TIMED:
        owner, attr = _resolve(modules, path)
        setattr(owner, attr, tracer.timed(name, getattr(owner, attr)))
    for path, name in COUNTED:
        owner, attr = _resolve(modules, path)
        setattr(owner, attr, tracer.counted(name, getattr(owner, attr)))
    perm.PermGroup.right_transversal = tracer.generator(
        TRANSVERSAL, perm.PermGroup.right_transversal
    )
    for path in POOL_TASKS:
        owner, attr = _resolve(modules, path)
        setattr(owner, attr, tracer.flush_after(getattr(owner, attr)))
    os.register_at_fork(after_in_child=tracer.after_fork)
    return tracer


def load_records(out_dir):
    """Every span/count record written to ``out_dir`` by any process."""
    records = []
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".jsonl"):
            with open(os.path.join(out_dir, name)) as fh:
                records.extend(json.loads(ln) for ln in fh if ln.strip())
    return records


def layer_metrics(records):
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time counts only spans with no ancestor of the same name,
    so a recursive call is not counted twice.  Self time is a span's
    duration minus the part its child spans cover.
    """
    calls = collections.Counter()
    incl = collections.defaultdict(float)
    self_s = collections.defaultdict(float)
    counts = collections.Counter()
    by_pid = collections.defaultdict(list)
    for rec in records:
        by_pid[rec["pid"]].extend(rec["spans"])
        counts.update(rec["counts"])
    for spans in by_pid.values():
        info = {sid: (parent, name) for sid, parent, name, _, _ in spans}
        child_time = collections.defaultdict(float)
        for _, parent, _, start, end in spans:
            child_time[parent] += end - start
        for sid, parent, name, start, end in spans:
            dur = end - start
            calls[name] += 1
            self_s[name] += dur - child_time[sid]
            up = parent
            while up and info.get(up, (0, None))[1] != name:
                up = info.get(up, (0, None))[0]
            if not up:
                incl[name] += dur
    return calls, incl, self_s, counts
