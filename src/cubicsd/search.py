"""Coset search for [48,24,10] codes built from the base code and a
right transversal of its automorphism group in S16: a scan that records
hits, then a post-pass that classifies them.

The scan (``run_search``).  Two iteration modes share one driver.  Full
mode streams the exact lexicographically-minimal representative of
every right coset (about 2.8e8 per X matrix, a long-running job,
shardable): its blocks are the (10000, 16) image arrays of
``PermGroup.transversal_blocks``, and a resumed run starts that
generator at its checkpoint position.  Sample mode draws seeded uniform
permutations, so a fixed (seed, index) pair always names the same coset
regardless of sharding or interruption: index i is row i % BLOCK_SIZE
of block i // BLOCK_SIZE, and block b is drawn by one generator,
``np.random.default_rng([seed, b])``, shuffling every row of 0..15 on
its own.  Shard i/m of a sample takes the blocks b = i mod m.  Both
modes cut their candidates into blocks, filtered in one batch each by
``ordered_map``: in this process, or on forked workers whose death
raises ``BrokenProcessPool`` instead of stalling the scan.  A tau is a
hit iff the code generated by (pi^-1(tau B); phi^-1(X_i)) has minimum
distance 10.  The code depends only on the coset of tau, so sample
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

import functools
import json
import os
import tempfile
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import construct, dataset, equiv, perm

# Positions per filtered block, checkpoint line and progress call.  It
# also fixes which coset a sample index names (row i % BLOCK_SIZE of
# block i // BLOCK_SIZE), so changing it needs a checkpoint version bump.
BLOCK_SIZE = 10000

# Checkpoint format: JSON lines, a header and then one line per block.
CHECKPOINT_VERSION = 3


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
        """Positions in this search: the sample size, or the shard's
        share of the right cosets of Aut(B) in S16."""
        if self.mode == "sample":
            return self.sample
        shard_idx, shard_cnt = self.shard
        cosets = dataset.autb_group().num_right_cosets()
        return (cosets - shard_idx + shard_cnt - 1) // shard_cnt


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
            "header); a format-1 or format-2 checkpoint cannot be resumed"
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


def _sample_block(seed, number):
    """The (BLOCK_SIZE, 16) uint8 draws of sample block ``number``: one
    generator per (seed, block) shuffles every row of 0..15 on its own,
    so each row is a uniform permutation."""
    rows = np.tile(np.arange(16, dtype=np.uint8), (BLOCK_SIZE, 1))
    return np.random.default_rng([seed, number]).permuted(rows, axis=1)


def sampled_tau(seed, index):
    """The canonical coset representative for sample (seed, index).

    Index i is row i % BLOCK_SIZE of block i // BLOCK_SIZE, the row that
    ``run_search`` filters for it.  The draw is uniform over S16, then
    reduced to the lex-minimal element of its right coset, so repeats of
    one coset collapse to one representative.
    """
    number, row = divmod(index, BLOCK_SIZE)
    tau = perm.Permutation(tuple(_sample_block(seed, number)[row].tolist()))
    return dataset.autb_group().min_coset_rep(tau)


def register_engine_data(engine, tau):
    """Build the code of a tau for the engine's X_i and attach its
    canonical form, from one enumeration pass (``equiv.code_data``)."""
    code = construct.build_code(tau, engine.xi_index)
    equiv.code_data(code)
    return code


@functools.cache
def _worker_engine(xi_index):
    """X_i's filter engine and distance table; forked workers inherit it."""
    eng = construct.DecomposedEngine(xi_index)
    eng.m_table()
    return eng


def ordered_map(task, jobs, threads):
    """Yield ``task(job)`` for each job, in order.

    With ``threads`` > 1 the tasks run on a pool of forked workers, at
    most two jobs per worker in flight, while this process produces jobs
    and consumes results.  A worker that dies raises
    ``BrokenProcessPool``.  When the caller stops early (an exception in
    its loop, or closing the generator), jobs not yet started are
    cancelled, and the pool is shut down once the running ones finish.
    """
    if threads == 1:
        yield from map(task, jobs)
        return
    # Imported here: a serial run would pay ~20 ms and ~1.5 MB for them.
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    pool = ProcessPoolExecutor(threads, mp_context=get_context("fork"))
    window = deque()
    try:
        for job in jobs:
            window.append(pool.submit(task, job))
            if len(window) >= 2 * threads:
                yield window.popleft().result()
        while window:
            yield window.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _blocks(state):
    """Yield the job of every block from state.position: (xi, seed,
    block, end), where ``end`` is the stream position after the block,
    and the block is a (number, rows) pair of sample block and rows to
    use, or a (T, 16) array of transversal image rows.  Sample shard i/m
    takes the blocks numbered i mod m.
    """
    if state.mode == "sample":
        shard_idx, shard_cnt = state.shard
        done = -(-state.position // BLOCK_SIZE)
        first = done + (shard_idx - done) % shard_cnt
        for number in range(first, -(-state.sample // BLOCK_SIZE), shard_cnt):
            lo = number * BLOCK_SIZE
            rows = min(BLOCK_SIZE, state.sample - lo)
            end = min(lo + BLOCK_SIZE * shard_cnt, state.sample)
            yield state.xi_index, state.seed, (number, rows), end
        return
    blocks = dataset.autb_group().transversal_blocks(
        state.shard, state.position, BLOCK_SIZE
    )
    end = state.position
    for images in blocks:
        end += len(images)
        yield state.xi_index, state.seed, images, end


def _filter_block(job):
    """Pool task: filter one block; returns (end, image rows of its hits).

    The block is a (number, rows) pair, whose sample block is drawn here
    and cut to its first rows, or a (T, 16) uint8 array of transversal
    images.
    """
    xi_index, seed, block, end = job
    if isinstance(block, tuple):
        number, rows = block
        block = _sample_block(seed, number)[:rows]
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
    ``threads`` > 1 either mode filters its blocks on forked workers
    (``ordered_map``); survivors, ``progress`` calls (one per block) and
    checkpoint lines are still handled by this process only, in block
    order.  A dead worker raises ``BrokenProcessPool``; the checkpoint
    then holds every block finished before it, so a rerun resumes.  A missing checkpoint starts
    a clean search; an existing one is resumed, dropping a torn last
    line.  Hits are recorded, not classified: see ``classify_hits``.
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
