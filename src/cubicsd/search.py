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
regardless of sharding or interruption: index i draws
``np.random.default_rng([seed, i]).permutation(16)``, and ``_draws``
reproduces that chain bit for bit for a whole block in one numpy pass
(~1 µs per index, against ~18 µs for one generator per index).  Both
cut their candidates into blocks, filtered in one batch each, serially
or on a fork pool.  A tau is a hit iff the code generated by
(pi^-1(tau B); phi^-1(X_i)) has minimum distance 10.  The code depends
only on the coset of tau, so sample draws are filtered raw and only the
hits are reduced to their coset representative.  A hit is recorded as
(X_i, representative) and nothing more; the checkpoint is an
append-only log with one line per block.

The post-pass (``classify_hits``).  Let H_i be the action of Aut(E_i)
on the 16 cycles, E_i = phi^-1(X_i) the even part (``dataset.h_group``).
For h in H_i, tau and tau * h build equivalent codes, so the hits of
one double coset Aut(B) tau H_i form an H_i-orbit of cosets and one
registered code per orbit classifies them all (Yorgov's method for
Huffman's decomposition C = F + E).  The orbit representatives are
partitioned by code equivalence and matched against the published
table codes through the shipped digest index.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import tempfile
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import construct, dataset, equiv, perm

# Positions per filtered block, checkpoint line and progress call.
BLOCK_SIZE = 10000

# Checkpoint format: JSON lines, a header and then one line per block.
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class Survivor:
    """One distance-10 hit: which X matrix, which coset representative."""

    xi_index: int
    perm_text: str


@dataclass
class SearchState:
    """Progress of one (xi, shard) search."""

    xi_index: int
    mode: str  # "sample" or "full"
    seed: int
    sample: int | None
    shard: tuple
    position: int = 0
    survivors: list = field(default_factory=list)

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
        "mode": state.mode,
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
            "header); a format-1 checkpoint (one JSON object) cannot be "
            "resumed" % (path, CHECKPOINT_VERSION)
        )
    state = SearchState(
        xi_index=header["xi"],
        mode=header["mode"],
        seed=header["seed"],
        sample=header["sample"],
        shard=tuple(header["shard"]),
    )
    for number, line in enumerate(lines[1:], 2):
        try:
            block = json.loads(line)
            state.position = block["position"]
            hits = block["hits"]
        except (ValueError, KeyError, TypeError):
            raise ValueError(
                "%s: line %d is not a checkpoint block" % (path, number)
            ) from None
        state.survivors.extend(Survivor(state.xi_index, t) for t in hits)
    return state, len(data) - len(torn)


def load_checkpoint(path):
    """The SearchState recorded by a checkpoint log."""
    return _replay_checkpoint(path)[0]


# numpy's SeedSequence hash constants (pool of 4 uint32 words).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit multiplier, as (high, low) 64-bit halves.
_PCG_HI, _PCG_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _mix(x, y):
    """SeedSequence's mix of two uint32 pool words."""
    result = x * _MIX_L - y * _MIX_R
    return result ^ result >> 16


def _hasher(const, mult):
    """SeedSequence's hashmix on uint32 arrays: each call xors in the
    hash constant, steps it (a Python int, so no overflow warning) and
    multiplies by it."""

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ value >> 16

    return hashmix


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, state * multiplier + inc mod 2**128, on uint64
    (high, low) halves; the 64x64 -> 128 low product goes by 32-bit limbs."""
    l0, l1 = lo & _MASK32, lo >> 32
    b0, b1 = _PCG_LO & _MASK32, _PCG_LO >> 32
    p00, p01, p10 = l0 * b0, l0 * b1, l1 * b0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    mul_hi = l1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    new_lo = lo * _PCG_LO + inc_lo
    new_hi = mul_hi + hi * _PCG_LO + lo * _PCG_HI + inc_hi
    new_hi += (new_lo < inc_lo).astype(np.uint64)
    return new_hi, new_lo


def _draws(seed, indices):
    """The (len(indices), 16) int64 array of sample draws: row k equals
    ``np.random.default_rng([seed, indices[k]]).permutation(16)``.

    numpy's chain SeedSequence -> PCG64 -> Generator.shuffle is run for
    every index (< 2**32) at once, bit for bit: the entropy words of the
    seed and the index are hashed into a pool of 4, which makes the
    128-bit PCG64 state and increment; the shuffle then swaps position i
    (15 down to 1) with the first 32-bit draw that, masked to the bit
    length of i, is at most i.  Each 64-bit output gives its low half,
    then its high.
    """
    if seed < 0:
        raise ValueError("seed must be at least 0, got %d" % seed)
    index = np.asarray(indices, dtype=np.uint32).reshape(-1)
    n = len(index)
    # The little-endian uint32 words of the seed, then the index.
    entropy = [
        np.full(n, seed >> shift & _MASK32, np.uint32)
        for shift in range(0, max(seed.bit_length(), 1), 32)
    ] + [index]

    hashmix = _hasher(_INIT_A, _MULT_A)
    padded = entropy + [np.zeros(n, np.uint32)] * (4 - len(entropy))
    pool = [hashmix(word) for word in padded[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    generate = _hasher(_INIT_B, _MULT_B)
    words = [generate(pool[k % 4]).astype(np.uint64) for k in range(8)]
    s0, s1, i0, i1 = (words[k] | words[k + 1] << 32 for k in range(0, 8, 2))
    # PCG64 seeding: state 0, step (state = inc), add (s0, s1), step.
    inc_hi = i0 << 1 | i1 >> 63
    inc_lo = i1 << 1 | 1
    lo = inc_lo + s1
    hi = inc_hi + s0 + (lo < s1).astype(np.uint64)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)

    # All lanes read their 32-bit draws in lockstep.  ``at`` is the
    # position each lane's shuffle has reached, and picks[i, k] the last
    # draw lane k read there: the accepted one, once ``at`` has moved on.
    # No mask exceeds 15, so a draw's low 4 bits decide it.  Arrays are
    # position-major: cell i * n + k of the flat view is [i, k].
    masks = np.array([(1 << i.bit_length()) - 1 for i in range(16)])
    lanes = np.arange(n)
    at = np.full(n, 15)
    picks = np.zeros((16, n), np.int64)
    picks_flat = picks.reshape(-1)
    while at.any():
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> 58
        out = x >> rot | x << ((64 - rot) & 63)
        for half in (out, out >> 32):
            j = (half & 15).astype(np.int64) & masks[at]
            picks_flat[at * n + lanes] = j
            at -= (j <= at) & (at > 0)
    rows = np.repeat(np.arange(16)[:, None], n, axis=1)
    rows_flat = rows.reshape(-1)
    for i in range(15, 0, -1):
        cell = picks[i] * n + lanes
        swapped = rows[i].copy()
        rows[i] = rows_flat[cell]
        rows_flat[cell] = swapped
    return rows.T


def sampled_tau(seed, index):
    """The canonical coset representative for sample (seed, index).

    The draw is uniform over S16, then reduced to the lex-minimal
    element of its right coset, so repeats of one coset collapse to
    one representative.
    """
    tau = perm.Permutation(tuple(_draws(seed, [index])[0].tolist()))
    return dataset.autb_group().min_coset_rep(tau)


def code_digest(code):
    """A short stable fingerprint of the equivalence invariant."""
    key = repr(equiv.invariant(code))
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def register_engine_data(engine, tau):
    """Build the code of a tau and attach its refinement data, computed
    in one decomposed-engine pass (768 + 8592 low-weight words)."""
    code = construct.build_code(tau, engine.xi_index, engine.embed)
    we, words = engine.words_of_weights(tau, (10, 12))
    equiv.register_code_data(code, we, words[10], words[12])
    return code


_WORKER_ENGINES = {}


def _worker_engine(xi_index):
    eng = _WORKER_ENGINES.get(xi_index)
    if eng is None:
        eng = construct.DecomposedEngine(xi_index)
        eng.m_table()
        _WORKER_ENGINES[xi_index] = eng
    return eng


def _blocks(state):
    """Yield (end, job) for every block from state.position: ``end`` is
    the stream position after the block, and the job's block is a range
    of sample indices or a (T, 16) array of transversal image rows.
    """
    if state.mode == "sample":
        shard_idx, shard_cnt = state.shard
        first = state.position + (shard_idx - state.position) % shard_cnt
        step = BLOCK_SIZE * shard_cnt
        for lo in range(first, state.sample, step):
            end = min(lo + step, state.sample)
            indices = range(lo, end, shard_cnt)
            yield end, (state.xi_index, state.seed, indices)
        return
    blocks = dataset.autb_group().transversal_blocks(
        state.shard, state.position, BLOCK_SIZE
    )
    end = state.position
    for images in blocks:
        end += len(images)
        yield end, (state.xi_index, state.seed, images)


def _filter_block(args):
    """Pool task: filter one block, return the image rows of its hits.

    The block is a range of sample indices, drawn here, or a (T, 16)
    uint8 array of transversal images.
    """
    xi_index, seed, block = args
    if isinstance(block, range):
        block = _draws(seed, np.arange(block.start, block.stop, block.step))
    hits = _worker_engine(xi_index).filter_images(block)
    return block[hits].tolist()


def _drive(blocks, threads, finish):
    """Filter every block and call finish(end, hits) in block order.
    With threads > 1 a fork pool filters ahead, at most two blocks per
    worker, while this process produces and finishes blocks.
    """
    if threads == 1:
        for end, job in blocks:
            finish(end, _filter_block(job))
        return
    from multiprocessing import get_context

    # Forked workers inherit the engines and distance tables built here.
    with get_context("fork").Pool(threads) as pool:
        window = deque()
        for end, job in blocks:
            window.append((end, pool.apply_async(_filter_block, (job,))))
            if len(window) >= 2 * threads:
                end, pending = window.popleft()
                finish(end, pending.get())
        for end, pending in window:
            finish(end, pending.get())


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
    ``threads`` > 1 either mode filters its blocks in a process pool;
    survivors, ``progress`` calls (one per block) and checkpoint lines
    are still handled by this process only.  A missing checkpoint starts
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
        state = SearchState(
            xi_index=xi_index,
            mode="sample" if sample is not None else "full",
            seed=seed,
            sample=sample,
            shard=tuple(shard),
        )
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

    def finish(end, hits):
        for row in hits:
            tau = perm.Permutation(tuple(row))
            if state.mode == "sample":
                tau = dataset.autb_group().min_coset_rep(tau)
            keep(tau)
        state.position = end
        record()
        if progress is not None:
            progress(state)

    engine = _worker_engine(xi_index)
    for tau in extra_taus:
        tau = dataset.autb_group().min_coset_rep(tau)
        if engine.min_weight_at_least(tau):
            keep(tau)
    _drive(_blocks(state), threads, finish)
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
    member that fails means the H_i data or the product order is wrong,
    and raises RuntimeError.
    """
    group = dataset.autb_group()
    gens = dataset.h_group(xi_index).generators
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
                "an H_%d-orbit member fails the filter: the H_i data or "
                "the product order is wrong" % xi_index
            )
    return orbits


def classify_hits(survivors, against_tables=True):
    """Classify search hits, one registered code per H_i-orbit.

    For each X_i in the input, the hits are grouped into H_i-orbits
    (``hit_orbits``), the lex-min member of each orbit is registered,
    and the representatives are partitioned into equivalence classes.
    When checked against the published tables, only the table entries
    whose shipped digest (``dataset.table_digests()``) equals one
    computed here are built and compared.  Returns, per X_i, the counts
    of hits, orbits, orbit members and classes, and per class its hits,
    representative, orbit size and matching table entry (None for a code
    in no table).
    """
    by_xi = {}
    for s in survivors:
        by_xi.setdefault(s.xi_index, []).append(s.perm_text)
    entries = dataset.table_entries()
    report = {"num_hits": 0, "xi": []}
    for xi_index in sorted(by_xi):
        taus = [perm.parse_cycles(t, 16) for t in by_xi[xi_index]]
        orbits = hit_orbits(xi_index, taus)
        engine = _worker_engine(xi_index)
        reps = [min(members, key=lambda t: t.img) for members, _ in orbits]
        codes = [register_engine_data(engine, tau) for tau in reps]
        labels = [("orbit", k) for k in range(len(orbits))]
        if against_tables:
            digests = {code_digest(code) for code in codes}
            for idx, digest in enumerate(dataset.table_digests()):
                if digest in digests:
                    table_engine = _worker_engine(entries[idx].table_id)
                    codes.append(
                        register_engine_data(table_engine, entries[idx].tau())
                    )
                    labels.append(("table", idx))
        classes = []
        for members in equiv.partition_classes(codes):
            tagged = [labels[m] for m in members]
            ks = [k for kind, k in tagged if kind == "orbit"]
            if not ks:
                continue
            matches = [i for kind, i in tagged if kind == "table"]
            classes.append(
                {
                    "representative": str(reps[ks[0]]),
                    "hits": [str(tau) for k in ks for tau in orbits[k][1]],
                    "orbit_size": sum(len(orbits[k][0]) for k in ks),
                    "table_match": matches[0] if matches else None,
                }
            )
        hits = sum(len(h) for _, h in orbits)
        report["num_hits"] += hits
        report["xi"].append(
            {
                "xi_index": xi_index,
                "hits": hits,
                "orbits": len(orbits),
                "orbit_members": sum(len(m) for m, _ in orbits),
                "classes": classes,
            }
        )
    report["all_matched"] = all(
        c["table_match"] is not None for x in report["xi"] for c in x["classes"]
    )
    return report
