"""Coset search for [48,24,10] codes built from the base code and a
right transversal of its automorphism group in S16.

Two iteration modes share one driver.  Full mode streams the exact
lexicographically-minimal representative of every right coset (about
2.8e8 per X matrix, a long-running job, shardable): its blocks are the
(10000, 16) image arrays of ``PermGroup.transversal_blocks``, and a
resumed run starts that generator at its checkpoint position.  Sample
mode draws seeded uniform permutations, so a fixed (seed, index) pair
always names the same coset regardless of sharding or interruption.

Both cut their candidates into blocks, filtered in one batch each,
serially or on a fork pool.  A tau is kept iff the code generated by
(pi^-1(tau B); phi^-1(X_i)) has minimum distance 10.  The code depends
only on the coset of tau, so sample draws are filtered raw and only the
hits are reduced to their coset representative.  Survivors are
deduplicated by code equivalence, against each other and against the
published table codes.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import construct, dataset, equiv, perm

# Positions per filtered block, checkpoint and progress call.
BLOCK_SIZE = 10000


@dataclass(frozen=True)
class Survivor:
    """One distance-10 hit: which X matrix, which coset representative."""

    xi_index: int
    perm_text: str
    digest: str


@dataclass
class SearchState:
    """Progress of one (xi, shard) search, serializable to JSON."""

    xi_index: int
    mode: str  # "sample" or "full"
    seed: int
    sample: int | None
    shard: tuple
    position: int = 0
    survivors: list = field(default_factory=list)

    def to_json(self):
        return json.dumps(
            {
                "xi_index": self.xi_index,
                "mode": self.mode,
                "seed": self.seed,
                "sample": self.sample,
                "shard": list(self.shard),
                "position": self.position,
                "survivors": [
                    [s.xi_index, s.perm_text, s.digest] for s in self.survivors
                ],
            },
            indent=1,
        )

    @property
    def total(self):
        """Positions in this search: the sample size, or the shard's
        share of the right cosets of Aut(B) in S16."""
        if self.mode == "sample":
            return self.sample
        shard_idx, shard_cnt = self.shard
        cosets = dataset.autb_group().num_right_cosets()
        return (cosets - shard_idx + shard_cnt - 1) // shard_cnt

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        return cls(
            xi_index=obj["xi_index"],
            mode=obj["mode"],
            seed=obj["seed"],
            sample=obj["sample"],
            shard=tuple(obj["shard"]),
            position=obj["position"],
            survivors=[Survivor(*row) for row in obj["survivors"]],
        )


def _write_checkpoint(path, state):
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(os.path.abspath(path)) or ".", suffix=".tmp"
    )
    with os.fdopen(fd, "w") as fh:
        fh.write(state.to_json())
    os.replace(tmp, path)


def load_checkpoint(path):
    with open(path) as fh:
        return SearchState.from_json(fh.read())


def _draw(seed, index):
    """The uniform permutation image drawn for sample (seed, index)."""
    return np.random.default_rng([seed, index]).permutation(16)


def sampled_tau(seed, index):
    """The canonical coset representative for sample (seed, index).

    The draw is uniform over S16, then reduced to the lex-minimal
    element of its right coset, so repeats of one coset collapse to
    one representative.
    """
    tau = perm.Permutation(tuple(int(x) for x in _draw(seed, index)))
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
    """Yield (candidates, end, job) for every block from state.position:
    hit offset k of the job names ``candidates[k]``, a sample index or
    the image row of a transversal tau, and ``end`` is the stream
    position after the block.
    """
    if state.mode == "sample":
        shard_idx, shard_cnt = state.shard
        first = state.position + (shard_idx - state.position) % shard_cnt
        step = BLOCK_SIZE * shard_cnt
        for lo in range(first, state.sample, step):
            end = min(lo + step, state.sample)
            indices = range(lo, end, shard_cnt)
            yield indices, end, (state.xi_index, state.seed, indices)
        return
    blocks = dataset.autb_group().transversal_blocks(
        state.shard, state.position, BLOCK_SIZE
    )
    end = state.position
    for images in blocks:
        end += len(images)
        yield images, end, (state.xi_index, state.seed, images)


def _filter_block(args):
    """Pool task: filter one block, return the offsets of its hits.

    The block is a range of sample indices, drawn here, or a (T, 16)
    uint8 array of transversal images.
    """
    xi_index, seed, block = args
    if isinstance(block, range):
        block = np.array([_draw(seed, i) for i in block])
    hits = _worker_engine(xi_index).filter_images(block)
    return np.flatnonzero(hits).tolist()


def _drive(blocks, threads, finish):
    """Filter every block and call finish(candidates, end, hits) in block
    order.  With threads > 1 a fork pool filters ahead, at most two
    blocks per worker, while this process produces and finishes blocks.
    """
    if threads == 1:
        for candidates, end, job in blocks:
            finish(candidates, end, _filter_block(job))
        return
    from multiprocessing import get_context

    # Forked workers inherit the engines and distance tables built here.
    with get_context("fork").Pool(threads) as pool:
        window = deque()
        for candidates, end, job in blocks:
            pending = pool.apply_async(_filter_block, (job,))
            window.append((candidates, end, pending))
            if len(window) >= 2 * threads:
                candidates, end, pending = window.popleft()
                finish(candidates, end, pending.get())
        for candidates, end, pending in window:
            finish(candidates, end, pending.get())


def run_search(
    xi_index,
    sample=None,
    seed=0,
    shard=(0, 1),
    checkpoint_path=None,
    state=None,
    progress=None,
    extra_taus=(),
    threads=1,
):
    """Run (or resume) one search; returns the final SearchState.

    ``extra_taus`` are injected ahead of the stream (not counted in the
    position), useful for spot checks with known permutations.  With
    ``threads`` > 1 either mode filters its blocks in a process pool;
    survivors, ``progress`` calls (one per block) and checkpoints are
    still handled by this process only.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1, got %d" % threads)
    if sample is not None and sample < 0:
        raise ValueError("sample must be at least 0, got %d" % sample)
    shard_idx, shard_cnt = shard
    if not 0 <= shard_idx < shard_cnt:
        raise ValueError(
            "invalid shard %d/%d: need 0 <= i < m" % (shard_idx, shard_cnt)
        )
    if state is None:
        if checkpoint_path is not None and os.path.exists(checkpoint_path):
            state = load_checkpoint(checkpoint_path)
            if (state.xi_index, state.sample, state.seed) != (
                xi_index,
                sample,
                seed,
            ) or tuple(state.shard) != tuple(shard):
                raise ValueError(
                    "checkpoint does not match the requested search"
                )
        else:
            state = SearchState(
                xi_index=xi_index,
                mode="sample" if sample is not None else "full",
                seed=seed,
                sample=sample,
                shard=tuple(shard),
            )
    engine = _worker_engine(xi_index)
    seen = {s.perm_text for s in state.survivors}

    def keep(tau):
        """Record a canonical tau that passed the filter, once per coset."""
        text = tau.to_cycle_text() or "()"
        if text not in seen:
            code = register_engine_data(engine, tau)
            state.survivors.append(
                Survivor(xi_index, text, code_digest(code))
            )
            seen.add(text)

    def finish(candidates, end, hits):
        for k in hits:
            if state.mode == "sample":
                keep(sampled_tau(state.seed, candidates[k]))
            else:
                keep(perm.Permutation(tuple(candidates[k].tolist())))
        state.position = end
        if checkpoint_path is not None:
            _write_checkpoint(checkpoint_path, state)
        if progress is not None:
            progress(state)

    for tau in extra_taus:
        tau = dataset.autb_group().min_coset_rep(tau)
        if engine.min_weight_at_least(tau, 10):
            keep(tau)
    _drive(_blocks(state), threads, finish)
    if state.mode == "sample":
        state.position = state.sample
    if checkpoint_path is not None:
        _write_checkpoint(checkpoint_path, state)
    return state


def _survivor_code(survivor):
    tau = perm.parse_cycles(survivor.perm_text, 16)
    tau = dataset.autb_group().min_coset_rep(tau)
    return register_engine_data(_worker_engine(survivor.xi_index), tau)


def dedup_survivors(survivors, against_tables=True):
    """Partition survivor codes into equivalence classes.

    Returns a dict with the class structure and, when checked against
    the published tables, which table entry each class matches (or None
    for a genuinely new code, which for this search space should never
    happen).  Equivalent codes share a digest, so only the table entries
    whose shipped digest (``dataset.table_digests()``) equals one
    computed here from a survivor's code are built and compared.
    """
    codes = [_survivor_code(s) for s in survivors]
    labels = [("survivor", i) for i in range(len(survivors))]
    if against_tables:
        digests = {code_digest(code) for code in codes}
        entries = dataset.table_entries()
        for idx, digest in enumerate(dataset.table_digests()):
            if digest in digests:
                engine = _worker_engine(entries[idx].table_id)
                codes.append(register_engine_data(engine, entries[idx].tau()))
                labels.append(("table", idx))
    classes = equiv.partition_classes(codes)
    out = {"num_survivors": len(survivors), "classes": []}
    for members in classes:
        tagged = [labels[m] for m in members]
        if not any(kind == "survivor" for kind, _ in tagged):
            continue
        table_matches = [i for kind, i in tagged if kind == "table"]
        out["classes"].append(
            {
                "survivors": [
                    survivors[i].perm_text
                    for kind, i in tagged
                    if kind == "survivor"
                ],
                "table_match": table_matches[0] if table_matches else None,
            }
        )
    out["all_matched"] = all(
        c["table_match"] is not None for c in out["classes"]
    )
    return out
