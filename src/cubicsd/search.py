"""Coset search for [48,24,10] codes built from the base code and a
right transversal of its automorphism group in S16: a scan that records
hits, then a post-pass that classifies them.

The scan (``run_search``).  Two iteration modes share one driver.  Full
mode streams the exact lexicographically-minimal representative of
every right coset (about 2.8e8 per X matrix, a long-running job,
shardable): its blocks are the windows of 10000 positions of
``PermGroup.transversal_windows``.  Shard i/m expands only the subtrees
of the depth-7 prefixes numbered i mod m, its total is the exact sum of
their leaf counts, and a resumed run starts the walk at its checkpoint
position, skipping whole prefixes by their counts.  The walk drops, at
depth 9, every prefix below which an early weight-4 base word already
fails the filter's first stage (``DecomposedEngine.keep_prefixes``), so
a block holds only the image rows that can still be hits, while its end
still counts every coset of the window.  Sample mode draws seeded
uniform permutations, so a fixed (seed, index) pair always names the
same coset regardless of sharding or interruption: index i is row
i % BLOCK_SIZE of block i // BLOCK_SIZE, and block b is drawn by one
generator, ``np.random.default_rng([seed, b])``, shuffling every row of
0..15 on its own.  Shard i/m of a sample takes the blocks b = i mod m.
Both modes cut their candidates into blocks, filtered in one batch each
by ``ordered_map``: in this process alone, or in it and T - 1 workers
forked with ``os.fork``, each process claiming the next block from a
shared counter whenever it is free, walking its own copy of the block
stream up to it, and pinned to a CPU of its own when there are enough.
A worker's death raises ``BrokenProcessPool`` instead of stalling the
scan.  A tau is a hit iff the code generated
by (pi^-1(tau B); phi^-1(X_i)) has minimum distance 10.  The code depends only on the coset of tau, so sample
draws are filtered raw and only the hits are reduced to their coset
representative.  A hit is recorded as (X_i, representative) and
nothing more; the checkpoint is an append-only log with one line per
block.

The post-pass (``classify_hits``).  Let H_i be the action of Aut(E_i)
on the 16 cycles, E_i = phi^-1(X_i) the even part, computed from E_i's
automorphism group (``construct.h_group``).  For h in H_i, tau and
tau * h build equivalent codes, so the hits of one double coset
Aut(B) tau H_i form an H_i-orbit of cosets (Yorgov's
method for Huffman's decomposition C = F + E).  An orbit is one class,
keyed by its lex-least member, and a published table row matches the
orbit that holds its coset representative.  Orbit sizes certify the
classes without building a code: each |Aut(E_i)| is divisible by 9 and
not by 27, so when 3 divides an orbit's size, <sigma> is a Sylow
3-subgroup of Aut(C), an equivalence between two such codes can be
taken to normalize <sigma>, and distinct orbits are distinct classes.
"""

from __future__ import annotations

import fcntl
import functools
import itertools
import json
import os
import pickle
import select
import tempfile
from collections import deque
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field

import numpy as np

from . import construct, dataset, equiv, perm

# Positions per filtered block, checkpoint line and progress call.  It
# also fixes which coset a sample index names (row i % BLOCK_SIZE of
# block i // BLOCK_SIZE), so changing it needs a checkpoint version bump.
BLOCK_SIZE = 10000

# Rows per in-place shuffle of a sample draw: 128 KB of np.intp.
_DRAW_ROWS = 1024

# Checkpoint format: JSON lines, a header and then one line per block.
# Format 4: a full-mode shard takes every m-th depth-7 prefix, where
# format 3 took every m-th coset.
CHECKPOINT_VERSION = 4


@dataclass(frozen=True)
class Survivor:
    """One distance-10 hit: which X matrix, which coset representative."""

    xi_index: int
    perm_text: str


@dataclass
class SearchState:
    """Progress of one (xi, shard) search."""

    xi_index: int
    seed: int
    sample: int | None
    shard: tuple
    position: int = 0
    survivors: list = field(default_factory=list)

    @property
    def mode(self):
        """The scan mode: "sample" iff a sample size is set, else "full"."""
        return "full" if self.sample is None else "sample"

    @property
    def total(self):
        """Positions in this search: the sample size, or the number of
        right cosets of Aut(B) in S16 that the shard holds."""
        if self.mode == "sample":
            return self.sample
        shard_idx, shard_cnt = self.shard
        return dataset.autb_group().shard_sizes(shard_cnt)[shard_idx]


def _start_checkpoint(path, state):
    """Create (or replace) the checkpoint atomically with its header."""
    header = {
        "version": CHECKPOINT_VERSION,
        "xi": state.xi_index,
        "seed": state.seed,
        "sample": state.sample,
        "shard": list(state.shard),
    }
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(os.path.abspath(path)) or ".", suffix=".tmp"
    )
    with os.fdopen(fd, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _append_checkpoint(path, position, hits):
    """Append one block line: the position after it and its new hits."""
    with open(path, "a") as fh:
        fh.write(json.dumps({"position": position, "hits": hits}) + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def _replay_checkpoint(path):
    """(state, length): the search a checkpoint records, and the byte
    length of its complete lines.  A torn last line (no newline) is left
    out of both."""
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.split(b"\n")
    torn = lines.pop()
    try:
        header = json.loads(lines[0])
    except (IndexError, ValueError):
        header = None
    version = header.get("version") if isinstance(header, dict) else None
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            "%s is not a format-%d checkpoint (JSON lines with a version "
            "header); a format-1 to format-3 checkpoint cannot be resumed: "
            "formats 1 and 2 are laid out differently, and in format 3 a "
            "full-mode shard took every m-th coset, not every m-th prefix"
            % (path, CHECKPOINT_VERSION)
        )
    keys = ("xi", "seed", "sample", "shard")
    xi, seed, sample, shard = map(header.get, keys)
    if not (
        type(xi) is int
        and 1 <= xi <= 4
        and type(seed) is int
        and seed >= 0
        and (sample is None or type(sample) is int and sample >= 0)
        and type(shard) is list
        and len(shard) == 2
        and all(type(k) is int for k in shard)
        and 0 <= shard[0] < shard[1]
    ):
        raise ValueError(
            "%s: the checkpoint header needs xi in 1..4, seed >= 0, sample "
            "null or >= 0 and shard [i, m] with 0 <= i < m, got %s"
            % (path, json.dumps(header))
        )
    state = SearchState(xi, seed, sample, tuple(shard))
    for number, line in enumerate(lines[1:], 2):
        try:
            block = json.loads(line)
            position, hits = block["position"], block["hits"]
            if not (
                type(position) is int
                and position >= 0
                and type(hits) is list
                and all(type(t) is str for t in hits)
            ):
                raise TypeError
        except (ValueError, KeyError, TypeError):
            raise ValueError(
                "%s: line %d is not a checkpoint block" % (path, number)
            ) from None
        state.position = position
        state.survivors.extend(Survivor(state.xi_index, t) for t in hits)
    return state, len(data) - len(torn)


def load_checkpoint(path):
    """The SearchState recorded by a checkpoint log."""
    return _replay_checkpoint(path)[0]


def _sample_block(seed, number, rows=None):
    """The first ``rows`` (default BLOCK_SIZE) of the (BLOCK_SIZE, 16)
    uint8 draws of sample block ``number``: one generator per (seed,
    block) shuffles every row of 0..15 on its own, in row order, so each
    row is a uniform permutation and the first rows do not depend on how
    many are drawn.

    The rows are shuffled in place, _DRAW_ROWS at a time, in one reused
    np.intp buffer, and copied out.  numpy makes the same draws whatever
    the item size and swaps word-sized items fastest, so the rows equal
    those of a shuffle of uint8 rows, at about half its cost.
    """
    rows = BLOCK_SIZE if rows is None else rows
    rng = np.random.default_rng([seed, number])
    out = np.empty((rows, 16), dtype=np.uint8)
    buf = np.empty((min(rows, _DRAW_ROWS), 16), dtype=np.intp)
    for lo in range(0, rows, _DRAW_ROWS):
        part = buf[: rows - lo]
        part[:] = np.arange(16)
        rng.permuted(part, axis=1, out=part)
        out[lo : lo + len(part)] = part
    return out


def sampled_tau(seed, index):
    """The canonical coset representative for sample (seed, index).

    Index i is row i % BLOCK_SIZE of block i // BLOCK_SIZE, the row that
    ``run_search`` filters for it; only the block's rows up to it are
    drawn.  The draw is uniform over S16, then reduced to the
    lex-minimal element of its right coset, so repeats of one coset
    collapse to one representative.
    """
    number, row = divmod(index, BLOCK_SIZE)
    draw = _sample_block(seed, number, row + 1)[row]
    tau = perm.Permutation(tuple(draw.tolist()))
    return dataset.autb_group().min_coset_rep(tau)


def register_engine_data(engine, tau):
    """Build the code of a tau for the engine's X_i and attach its
    canonical form, from its lightest words (``equiv.code_data``)."""
    code = construct.build_code(tau, engine.xi_index)
    equiv.code_data(code)
    return code


@functools.cache
def _worker_engine(xi_index):
    """X_i's filter engine with its pass table; forked workers inherit
    it."""
    eng = construct.DecomposedEngine(xi_index)
    eng.pass_table()
    return eng


class BrokenProcessPool(BrokenExecutor):
    """A worker of ``ordered_map`` died before returning a job's result."""


def _claim(fd):
    """The next job number from the 8-byte counter in file ``fd``, read
    and bumped under a ``lockf`` lock.  The kernel releases the lock of
    a process that dies, so a worker killed while it holds the lock
    cannot hang the others."""
    fcntl.lockf(fd, fcntl.LOCK_EX)
    try:
        j = int.from_bytes(os.pread(fd, 8, 0), "little")
        os.pwrite(fd, (j + 1).to_bytes(8, "little"), 0)
    finally:
        fcntl.lockf(fd, fcntl.LOCK_UN)
    return j


def _run_claimed(task, jobs, fd):
    """Run the jobs that this process claims from the counter in ``fd``.

    Walks this process's own copy of ``jobs`` and yields (j, True,
    ``task(job)``) for each job number j it claims, claiming the next
    one once it is free, until ``jobs`` ends.  An exception that the
    task raises on job j, or that ``jobs`` raises at index j, ends it
    with (j, False, exc).
    """
    j = _claim(fd)
    jobs = iter(jobs)
    for pos in itertools.count():
        try:
            job = next(jobs)
        except StopIteration:
            return
        except Exception as exc:
            yield pos, False, exc
            return
        if pos == j:
            try:
                value = task(job)
            except Exception as exc:
                yield j, False, exc
                return
            yield j, True, value
            j = _claim(fd)


def _write_frame(out, data):
    """Write one pickled frame behind its length in 8 bytes."""
    out.write(len(data).to_bytes(8, "little") + data)
    out.flush()


def _fork_worker(task, jobs, fd, cpu):
    """Fork a worker of ``ordered_map``; returns (pid, result pipe).

    The worker pins itself to ``cpu`` unless it is None.  Then it runs
    the jobs that it claims from the counter in ``fd``
    (``_run_claimed``), writes a pickled frame (j, ok, value) for each
    to its result pipe, and ends with a frame of None.  It leaves with
    ``os._exit``, so it never flushes this process's stdio buffers or
    runs its atexit handlers.
    """
    res_r, res_w = os.pipe()
    pid = os.fork()
    if pid:
        os.close(res_w)
        return pid, res_r
    status = 1
    try:
        os.close(res_r)
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        with os.fdopen(res_w, "wb") as out:
            for j, ok, value in _run_claimed(task, jobs, fd):
                # Pickled before the write, so that a result that
                # cannot be pickled is reported and not half-sent.
                try:
                    data = pickle.dumps((j, ok, value))
                except Exception as exc:
                    data = pickle.dumps((j, False, exc))
                _write_frame(out, data)
            _write_frame(out, pickle.dumps(None))
        status = 0
    finally:
        os._exit(status)


def _collect(workers, done, timeout):
    """Read the frames that the workers' result pipes hold into ``done``
    (job number -> (ok, value)), waiting up to ``timeout`` seconds for
    one to be readable (None: no limit).  ``workers`` maps each pipe to
    (pid, bytes of a partial frame); a pipe is closed and dropped at its
    frame of None, or when it ends before it.  Returns the pids of the
    workers whose pipes so ended: they died."""
    dead = []
    ready, _, _ = select.select(list(workers), [], [], timeout)
    for pipe in ready:
        pid, buf = workers[pipe]
        chunk = os.read(pipe, 1 << 16)
        if not chunk:
            os.close(pipe)
            del workers[pipe]
            dead.append(pid)
            continue
        buf += chunk
        while len(buf) >= 8:
            size = 8 + int.from_bytes(buf[:8], "little")
            if len(buf) < size:
                break
            frame = pickle.loads(buf[8:size])
            del buf[:size]
            if frame is None:
                os.close(pipe)
                del workers[pipe]
                break
            j, ok, value = frame
            done[j] = ok, value
    return dead


def ordered_map(task, jobs, threads):
    """Yield ``task(job)`` for each job, in order.

    With ``threads`` = T > 1 this process is worker 0 and forks T - 1
    more.  Each worker, whenever it is free, claims the next job number
    from one shared counter (``_claim``) and runs that job, so a slow
    job or a cold worker holds up no fixed share of the others.  A
    worker walks its own copy of ``jobs`` up to the job it claims, so
    ``jobs`` must give the same jobs in every process and have no effect
    outside it, and its cost is paid once per worker; jobs need not be
    picklable.  A worker may start its walk only after results have
    been yielded, so what ``jobs`` gives must not depend on what the
    caller does with them.  A forked worker writes its results to a
    pipe of its own.  This process yields the results in job order;
    while the next one is not ready, it runs another job itself, and it
    waits on the pipes only when no job is left to claim.  When T is at
    most the number of CPUs this process may use, worker k is pinned to
    the k-th of them: this process to the first, until the call ends.
    A task's exception is raised here, and so is one that ``jobs``
    raises at index j, after exactly j results; a worker that dies
    raises ``BrokenProcessPool``, after the results that were ready in
    job order when its death was seen.  When the caller stops early (an
    exception in its loop, or closing the generator), the workers are
    reaped once their running jobs finish.
    """
    if threads == 1:
        yield from map(task, jobs)
        return
    cpus = []
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
    pinned = threads <= len(cpus)
    pids = []
    workers = {}
    with tempfile.TemporaryFile() as counter:
        fd = counter.fileno()
        try:
            for k in range(1, threads):
                cpu = cpus[k] if pinned else None
                pid, pipe = _fork_worker(task, jobs, fd, cpu)
                pids.append(pid)
                workers[pipe] = pid, bytearray()
            if pinned:
                os.sched_setaffinity(0, {cpus[0]})
            mine = _run_claimed(task, jobs, fd)
            done = {}
            dead = []
            want = 0
            while True:
                dead += _collect(workers, done, 0)
                while want in done:
                    ok, value = done.pop(want)
                    if not ok:
                        raise value
                    yield value
                    want += 1
                if dead:
                    raise BrokenProcessPool(
                        "worker %d died before returning its result" % dead[0]
                    )
                frame = next(mine, None)
                if frame is not None:
                    j, ok, value = frame
                    done[j] = ok, value
                elif workers:
                    dead += _collect(workers, done, None)
                else:
                    return
        finally:
            for pipe in workers:
                os.close(pipe)
            for pid in pids:
                os.waitpid(pid, 0)
            if pinned:
                os.sched_setaffinity(0, cpus)


def _blocks(state):
    """The jobs of every block from state.position: (xi, seed, block,
    end), where ``end`` is the stream position after the block, and the
    block is a (number, rows) pair of sample block and rows to use, or a
    (T, 16) array of transversal image rows.  Sample shard i/m takes the
    blocks numbered i mod m.  A full-mode block is a window of
    BLOCK_SIZE positions, and its rows are only those below the prefixes
    that pass the engine's ``keep_prefixes``; the others would fail the
    filter's first stage.

    The state is read here, when the stream is made: ``ordered_map``
    may walk a copy of it only after ``run_search`` has moved
    state.position on, and every copy must start at the same block.
    """
    xi_index, seed, sample = state.xi_index, state.seed, state.sample
    if state.mode == "sample":
        shard_idx, shard_cnt = state.shard
        done = -(-state.position // BLOCK_SIZE)
        first = done + (shard_idx - done) % shard_cnt
        numbers = range(first, -(-sample // BLOCK_SIZE), shard_cnt)
        return (
            (
                xi_index,
                seed,
                (number, min(BLOCK_SIZE, sample - number * BLOCK_SIZE)),
                min((number + shard_cnt) * BLOCK_SIZE, sample),
            )
            for number in numbers
        )
    engine = _worker_engine(xi_index)
    windows = dataset.autb_group().transversal_windows(
        state.shard,
        state.position,
        BLOCK_SIZE,
        keep=(engine.prune_depth, engine.keep_prefixes),
    )
    return ((xi_index, seed, images, end) for end, images in windows)


def _filter_block(job):
    """Pool task: filter one block; returns (end, image rows of its hits).

    The block is a (number, rows) pair, of which only the first rows of
    the sample block are drawn here, or a (T, 16) uint8 array of
    transversal images.
    """
    xi_index, seed, block, end = job
    if isinstance(block, tuple):
        block = _sample_block(seed, *block)
    hits = _worker_engine(xi_index).filter_images(block)
    return end, block[hits].tolist()


def run_search(
    xi_index,
    sample=None,
    seed=0,
    shard=(0, 1),
    checkpoint_path=None,
    progress=None,
    extra_taus=(),
    threads=1,
):
    """Run (or resume) one scan; returns the final SearchState.

    ``extra_taus`` are injected ahead of the stream (not counted in the
    position), useful for spot checks with known permutations.  With
    ``threads`` > 1 either mode builds and filters its blocks in this
    process and in forked workers (``ordered_map``), each claiming the
    next block when it is free and walking the block stream from the
    position at the call up to it; survivors, ``progress`` calls (one
    per block) and checkpoint lines are still handled by this process
    only, in block order.  A dead worker raises ``BrokenProcessPool``;
    the checkpoint then holds every block finished, with all the blocks
    before it, when the death was seen, so a rerun resumes.  A missing checkpoint starts a clean search; an existing
    one is resumed, dropping a torn last line.  Hits are recorded, not
    classified: see ``classify_hits``.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1, got %d" % threads)
    if sample is not None and sample < 0:
        raise ValueError("sample must be at least 0, got %d" % sample)
    if sample is not None and sample > 2**32:
        raise ValueError("sample must be at most 2**32, got %d" % sample)
    if seed < 0:
        raise ValueError("seed must be at least 0, got %d" % seed)
    shard_idx, shard_cnt = shard
    if not 0 <= shard_idx < shard_cnt:
        raise ValueError(
            "invalid shard %d/%d: need 0 <= i < m" % (shard_idx, shard_cnt)
        )
    # What the checkpoint log already holds: a position and a hit count.
    logged = (0, 0)
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        state, length = _replay_checkpoint(checkpoint_path)
        if (state.xi_index, state.sample, state.seed) != (
            xi_index,
            sample,
            seed,
        ) or tuple(state.shard) != tuple(shard):
            raise ValueError("checkpoint does not match the requested search")
        os.truncate(checkpoint_path, length)
        logged = (state.position, len(state.survivors))
    else:
        state = SearchState(xi_index, seed, sample, tuple(shard))
        if checkpoint_path is not None:
            _start_checkpoint(checkpoint_path, state)
    seen = {s.perm_text for s in state.survivors}

    def keep(tau):
        """Record a canonical tau that passed the filter, once per coset."""
        text = str(tau)
        if text not in seen:
            state.survivors.append(Survivor(xi_index, text))
            seen.add(text)

    def record():
        """Append what the log lacks, if anything."""
        nonlocal logged
        now = (state.position, len(state.survivors))
        if checkpoint_path is not None and now != logged:
            hits = [s.perm_text for s in state.survivors[logged[1] :]]
            _append_checkpoint(checkpoint_path, state.position, hits)
            logged = now

    engine = _worker_engine(xi_index)
    for tau in extra_taus:
        tau = dataset.autb_group().min_coset_rep(tau)
        if engine.min_weight_at_least(tau):
            keep(tau)
    for end, hits in ordered_map(_filter_block, _blocks(state), threads):
        for row in hits:
            tau = perm.Permutation(tuple(row))
            if state.mode == "sample":
                tau = dataset.autb_group().min_coset_rep(tau)
            keep(tau)
        state.position = end
        record()
        if progress is not None:
            progress(state)
    if state.mode == "sample":
        state.position = state.sample
    record()
    return state


def hit_orbits(xi_index, taus):
    """Group coset representatives of X_i hits into H_i-orbits.

    Returns a list of (members, hits) pairs, in order of first hit:
    ``members`` the set of representatives ``min_coset_rep(tau * h)``,
    h in H_i, found by breadth-first search over the generators of H_i,
    and ``hits`` the input taus that lie in it.  Each orbit is expanded
    once, and every member of every orbit is run through the filter: a
    member that fails means H_i or the product order is wrong, and
    raises RuntimeError.
    """
    group = dataset.autb_group()
    gens = construct.h_group(xi_index).generators
    orbit_of = {}
    orbits = []
    seen = set()
    for tau in taus:
        tau = group.min_coset_rep(tau)
        if tau in seen:
            continue
        seen.add(tau)
        k = orbit_of.get(tau)
        if k is None:
            k = len(orbits)
            members = {tau}
            queue = deque(members)
            while queue:
                rep = queue.popleft()
                for h in gens:
                    # tau * h applies tau first: the cycles of E_i move
                    # by h after tau has placed the base code.
                    image = group.min_coset_rep(rep * h)
                    if image not in members:
                        members.add(image)
                        queue.append(image)
            orbits.append((members, []))
            orbit_of.update(dict.fromkeys(members, k))
        orbits[k][1].append(tau)
    if orbit_of:
        images = np.array([tau.img for tau in orbit_of], dtype=np.uint8)
        if not _worker_engine(xi_index).filter_images(images).all():
            raise RuntimeError(
                "an H_%d-orbit member fails the filter: H_i or the "
                "product order is wrong" % xi_index
            )
    return orbits


def classify_hits(survivors):
    """Classify search hits: one class per H_i-orbit.

    For each X_i in the input, the hits are grouped into H_i-orbits
    (``hit_orbits``).  A class is one orbit, represented by its lex-least
    member, and matches the table row of X_i whose coset representative
    lies in the orbit.  Raises RuntimeError if an orbit's size is not
    divisible by 3, which the Sylow certificate (module docstring) needs.
    No code is built.  Returns, per X_i, the counts of hits, orbits,
    orbit members and classes, and per class its hits, representative,
    orbit size and matching table entry (None for a code in no table).
    """
    by_xi = {}
    for s in survivors:
        by_xi.setdefault(s.xi_index, []).append(s.perm_text)
    group = dataset.autb_group()
    entries = dataset.table_entries()
    report = {"num_hits": 0, "xi": []}
    for xi_index in sorted(by_xi):
        taus = [perm.parse_cycles(t, 16) for t in by_xi[xi_index]]
        orbits = hit_orbits(xi_index, taus)
        rows = {
            idx: group.min_coset_rep(entry.tau())
            for idx, entry in enumerate(entries)
            if entry.table_id == xi_index
        }
        classes = []
        for members, hits in orbits:
            if len(members) % 3:
                raise RuntimeError(
                    "the H_%d-orbit of %s has %d members, not a multiple "
                    "of 3: the Sylow certificate does not apply"
                    % (xi_index, hits[0], len(members))
                )
            classes.append(
                {
                    "representative": str(min(members, key=lambda t: t.img)),
                    "hits": [str(tau) for tau in hits],
                    "orbit_size": len(members),
                    "table_match": next(
                        (i for i, rep in rows.items() if rep in members), None
                    ),
                }
            )
        num_hits = sum(len(h) for _, h in orbits)
        report["num_hits"] += num_hits
        report["xi"].append(
            {
                "xi_index": xi_index,
                "hits": num_hits,
                "orbits": len(orbits),
                "orbit_members": sum(len(m) for m, _ in orbits),
                "classes": classes,
            }
        )
    report["all_matched"] = all(
        c["table_match"] is not None for x in report["xi"] for c in x["classes"]
    )
    return report
