"""Coset search for [48,24,10] codes built from the base code and a
right transversal of its automorphism group in S16: a scan that records
hits, then a post-pass that classifies them.

The scan (``run_search``).  Two iteration modes share one driver.  Full
mode is the pair scan (``scan``): it decides all ~2.8e8 right cosets of
Aut(B) in S16 for one X matrix, a few seconds per X_i, through the
coarse cosets of the stabilizer W of B's weight-4 pair structure.  Its
blocks are runs of SETS_PER_BLOCK 8-sets; shard i/m takes the 8-sets
numbered i mod m, and a position counts the cosets below the 8-sets
done, scan.COSETS_PER_SET each.  Each block also returns its stage
counts (8-sets kept, good quads, joins passing D), which the state sums.
Sample mode draws seeded uniform permutations, so a fixed (seed, index)
pair always names the same coset regardless of sharding: index i is
row i % BLOCK_SIZE of block i // BLOCK_SIZE, and block b is drawn by
one generator, ``np.random.default_rng([seed, b])``, shuffling every
row of 0..15 on its own.  Shard i/m of a sample
takes the blocks b = i mod m.  Both modes' blocks are filtered by
``ordered_map``: in this process alone, or in it and T - 1 workers
forked with ``os.fork``, each process claiming the next block from a
shared counter whenever it is free, building the block itself, and
pinned to a CPU of its own when there are enough.  A worker's death
raises ``BrokenProcessPool`` instead of stalling the scan.  A tau is a
hit iff the code generated by (pi^-1(tau B); phi^-1(X_i)) has minimum
distance 10.  The code depends only on the coset of tau, so only the
hits are reduced to their coset representative.  A hit is recorded as
(X_i, representative) and nothing more.  The checkpoint is a log that
one run writes once, a header and then one line per block, and that
``load_checkpoint`` reads back.

The post-pass (``classify_hits``).  Let H_i be the action of Aut(E_i)
on the 16 cycles, E_i = phi^-1(X_i) the even part, computed from E_i's
automorphism group (``construct.h_group``).  For h in H_i, tau and
tau * h build equivalent codes, so the hits of one double coset
Aut(B) tau H_i form an H_i-orbit of cosets (Yorgov's
method for Huffman's decomposition C = F + E).  The orbits are found
on arrays (``hit_orbits``): each coset representative packs into one
uint64 key (``coset_keys``), the hits are closed under the generators
of H_i one ``PermGroup.min_coset_reps`` pass per level, and each orbit
is labelled by its least member.  An orbit is one class, keyed by its
lex-least member, and a published table row matches the orbit that
holds its coset representative's key.  Orbit sizes certify the
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
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field

import numpy as np

from . import construct, dataset, equiv, perm

# Positions per sample block, checkpoint line and progress call.  It
# also fixes which coset a sample index names (row i % BLOCK_SIZE of
# block i // BLOCK_SIZE), so changing it needs a checkpoint version bump.
BLOCK_SIZE = 10000

# 8-sets per full-mode block: an X_4 block of 8 takes at most ~3.5 ms.
SETS_PER_BLOCK = 8

# Rows per in-place shuffle of a sample draw: 128 KB of np.intp.
_DRAW_ROWS = 1024

# Checkpoint format: JSON lines, a header and then one line per block.
# Format 5: full mode is the pair scan, a shard takes every m-th 8-set
# and each line carries the stage counts, where format 4 walked the
# transversal tree and took every m-th depth-7 prefix.
CHECKPOINT_VERSION = 5

# The pair scan's stage counts, in the order ``scan.PairScan.block``
# returns them.
STAGES = ("sets", "quads", "joins")


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
    stages: dict = field(default_factory=lambda: dict.fromkeys(STAGES, 0))

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
        from . import scan

        shard_idx, shard_cnt = self.shard
        sets = range(shard_idx, scan.SETS, shard_cnt)
        return len(sets) * scan.COSETS_PER_SET


def _start_checkpoint(path, state):
    """Create the checkpoint with its header, fsynced.  A file that
    already exists at ``path`` is a ValueError and is left untouched."""
    header = {
        "version": CHECKPOINT_VERSION,
        "xi": state.xi_index,
        "seed": state.seed,
        "sample": state.sample,
        "shard": list(state.shard),
    }
    try:
        fh = open(path, "x")
    except FileExistsError:
        raise ValueError(
            "%s already exists: a checkpoint is written once, by one run"
            % path
        ) from None
    with fh:
        fh.write(json.dumps(header) + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def _append_checkpoint(path, position, hits, stages):
    """Append one block line: the position and the stage counts after it,
    and its new hits."""
    line = {"position": position, "hits": hits, "stages": stages}
    with open(path, "a") as fh:
        fh.write(json.dumps(line) + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def load_checkpoint(path):
    """The SearchState recorded by a checkpoint log.  A torn last line (no
    newline), left by a run that died while it wrote, is dropped."""
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    lines.pop()
    try:
        header = json.loads(lines[0])
    except (IndexError, ValueError):
        header = None
    version = header.get("version") if isinstance(header, dict) else None
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            "%s is not a format-%d checkpoint (JSON lines with a version "
            "header); a format-1 to format-4 checkpoint cannot be read: "
            "formats 1 and 2 are laid out differently, and a full-mode "
            "shard took every m-th coset in format 3 and every m-th "
            "transversal prefix in format 4, not every m-th 8-set"
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
            stages = block["stages"]
            if not (
                type(position) is int
                and position >= 0
                and type(hits) is list
                and all(type(t) is str for t in hits)
                and type(stages) is dict
                and sorted(stages) == sorted(STAGES)
                and all(type(c) is int and c >= 0 for c in stages.values())
            ):
                raise TypeError
        except (ValueError, KeyError, TypeError):
            raise ValueError(
                "%s: line %d is not a checkpoint block" % (path, number)
            ) from None
        state.position = position
        state.stages = {k: stages[k] for k in STAGES}
        state.survivors.extend(Survivor(state.xi_index, t) for t in hits)
    return state


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
    """The jobs of every block of the search: (xi, source, block, end),
    where ``end`` is the stream position after the block.  A sample job
    has the seed and a (number, rows) pair of sample block and rows to
    use; shard i/m takes the blocks numbered i mod m.  A full-mode job
    has X_i's ``scan.PairScan``, made here once, and a range of at most
    SETS_PER_BLOCK 8-set numbers of the shard.
    """
    xi_index, seed, sample = state.xi_index, state.seed, state.sample
    shard_idx, shard_cnt = state.shard
    if state.mode == "sample":
        numbers = range(shard_idx, -(-sample // BLOCK_SIZE), shard_cnt)
        return (
            (
                xi_index,
                seed,
                (number, min(BLOCK_SIZE, sample - number * BLOCK_SIZE)),
                min((number + shard_cnt) * BLOCK_SIZE, sample),
            )
            for number in numbers
        )
    # Imported here: the other modes and commands never load the scan.
    from . import scan

    pair_scan = scan.PairScan(_worker_engine(xi_index), dataset.autb_group())
    sets = range(shard_idx, scan.SETS, shard_cnt)
    return (
        (
            xi_index,
            pair_scan,
            sets[lo : lo + SETS_PER_BLOCK],
            min(lo + SETS_PER_BLOCK, len(sets)) * scan.COSETS_PER_SET,
        )
        for lo in range(0, len(sets), SETS_PER_BLOCK)
    )


def _filter_block(job):
    """Pool task: filter one block; returns (end, image rows of its hits,
    stage counts).  A sample block's first rows are drawn here, and it
    returns raw draws and no counts; a full-mode block's range of 8-sets
    is scanned by the job's ``scan.PairScan``, which returns coset
    representatives."""
    xi_index, source, block, end = job
    if isinstance(block, range):
        rows, stages = source.block(block)
        return end, rows.tolist(), stages
    rows = _sample_block(source, *block)
    hits = _worker_engine(xi_index).filter_images(rows)
    return end, rows[hits].tolist(), None


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
    """Run one scan; returns the final SearchState.

    ``extra_taus`` are injected ahead of the stream (not counted in the
    position), useful for spot checks with known permutations.  With
    ``threads`` > 1 either mode builds and filters its blocks in this
    process and in forked workers (``ordered_map``), each claiming the
    next block when it is free; survivors, stage counts, ``progress``
    calls (one per block) and checkpoint lines are still handled by this
    process only, in block order.  A dead worker raises
    ``BrokenProcessPool``; the checkpoint then holds every block
    finished, with all the blocks before it, when the death was seen.
    The checkpoint is created here and written by this run alone: an
    existing file at ``checkpoint_path`` is a ValueError, left untouched.
    Hits are recorded, not classified: see ``classify_hits``.
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
    state = SearchState(xi_index, seed, sample, tuple(shard))
    if checkpoint_path is not None:
        _start_checkpoint(checkpoint_path, state)
    # What the checkpoint log holds: a position and a hit count.
    logged = (0, 0)
    seen = set()

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
            _append_checkpoint(
                checkpoint_path, state.position, hits, state.stages
            )
            logged = now

    engine = _worker_engine(xi_index)
    for tau in extra_taus:
        tau = dataset.autb_group().min_coset_rep(tau)
        if engine.min_weight_at_least(tau):
            keep(tau)
    jobs = _blocks(state)
    for end, hits, stages in ordered_map(_filter_block, jobs, threads):
        for row in hits:
            tau = perm.Permutation(tuple(row))
            if stages is None:
                tau = dataset.autb_group().min_coset_rep(tau)
            keep(tau)
        for name, count in zip(STAGES, stages or ()):
            state.stages[name] += count
        state.position = end
        record()
        if progress is not None:
            progress(state)
    if state.mode == "sample":
        state.position = state.sample
    record()
    return state


def coset_keys(rows):
    """One uint64 per (N, 16) row of images, each below 16, packed 4 bits
    apiece with the first image most significant: keys compare as the
    rows do in lex order."""
    keys = np.zeros(len(rows), dtype=np.uint64)
    for column in np.asarray(rows, dtype=np.uint64).T:
        keys = keys << np.uint64(4) | column
    return keys


def hit_orbits(xi_index, taus):
    """Group X_i hits into H_i-orbits of their coset representatives.

    Returns a list of (members, hits) pairs, in order of first hit:
    ``members`` the (M, 16) uint8 rows of ``min_coset_rep(tau * h)``, h
    in H_i, sorted in lex order, and ``hits`` the rows of the distinct
    representatives of the input taus that lie in the orbit, in input
    order.  The hits are closed under the generators of H_i level by
    level, one ``min_coset_reps`` pass per level; tau * h applies tau
    first, so its row is h[tau], where the cycles of E_i move by h after
    tau has placed the base code.  Each generator permutes the members,
    and an orbit is labelled by its least member's number, passed along
    the generators with pointer jumping.  Every level is run through the
    filter before it is closed further: a member that fails means H_i or
    the product order is wrong, and raises RuntimeError.
    """
    rows = np.array([tau.img for tau in taus], dtype=np.uint8).reshape(-1, 16)
    if not len(rows):
        return []
    group = dataset.autb_group()
    gens = construct.h_group(xi_index).generators
    moves = np.array([h.img for h in gens], dtype=np.uint8).reshape(-1, 16)
    rows = group.min_coset_reps(rows)
    known, first = np.unique(coset_keys(rows), return_index=True)
    hits = rows[np.sort(first)]
    # Per level, the rows first met there and the keys of their images.
    levels, images = [rows[first]], []
    while len(levels[-1]):
        if not _worker_engine(xi_index).filter_images(levels[-1]).all():
            raise RuntimeError(
                "an H_%d-orbit member fails the filter: H_i or the "
                "product order is wrong" % xi_index
            )
        image = group.min_coset_reps(moves[:, levels[-1]].reshape(-1, 16))
        images.append(coset_keys(image).reshape(len(moves), len(levels[-1])))
        fresh, at = np.unique(images[-1], return_index=True)
        new = ~np.isin(fresh, known)
        levels.append(image[at[new]])
        known = np.union1d(known, fresh[new])
    members = np.concatenate(levels)
    order = np.argsort(coset_keys(members))
    members = members[order]
    steps = np.searchsorted(known, np.concatenate(images, axis=1)[:, order])
    label = np.arange(len(members))
    while True:
        least = np.minimum.reduce([label, *label[steps]])
        least = least[least]
        if (least == label).all():
            break
        label = least
    hit_label = label[np.searchsorted(known, coset_keys(hits))]
    return [
        (members[label == k], hits[hit_label == k])
        for k in dict.fromkeys(hit_label.tolist())
    ]


def _text(row):
    """The cycle text of an image row."""
    return str(perm.Permutation(tuple(row.tolist())))


def classify_hits(survivors):
    """Classify search hits: one class per H_i-orbit.

    For each X_i in the input, the hits, sorted by image, are grouped
    into H_i-orbits (``hit_orbits``), so the classes come in the order of
    their least hits, whatever the order in which the scan or the shards
    found them.  A class is one orbit, represented by its lex-least
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
        orbits = hit_orbits(xi_index, sorted(taus, key=lambda t: t.img))
        rows = [i for i, e in enumerate(entries) if e.table_id == xi_index]
        table = np.array([entries[i].tau().img for i in rows], dtype=np.uint8)
        table = coset_keys(group.min_coset_reps(table.reshape(-1, 16)))
        classes = []
        for members, hits in orbits:
            if len(members) % 3:
                raise RuntimeError(
                    "the H_%d-orbit of %s has %d members, not a multiple "
                    "of 3: the Sylow certificate does not apply"
                    % (xi_index, _text(hits[0]), len(members))
                )
            match = np.flatnonzero(np.isin(table, coset_keys(members)))
            classes.append(
                {
                    "representative": _text(members[0]),
                    "hits": [_text(row) for row in hits],
                    "orbit_size": len(members),
                    "table_match": rows[match[0]] if len(match) else None,
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
