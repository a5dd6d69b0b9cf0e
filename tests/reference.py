"""Reference data and ground-truth oracles that only the tests use."""

import functools
from functools import lru_cache
from itertools import permutations
from math import prod

import numpy as np

from cubicsd import construct, equiv, gf2, perm

# The two generators of Aut(B) printed in the paper, in 1-based cycle
# notation.  The package computes Aut(B) from the base code instead.
PAPER_AUTB_GENERATORS = tuple(
    perm.parse_cycles(text, 16)
    for text in (
        "(1,12,4,2,13,15,9,3)(5,16,8,11)(6,14)(7,10)",
        "(1,8,7)(5,6,13)(10,12)(14,15)",
    )
)


def group_elements(group, limit=1 << 20):
    """All elements of a small PermGroup, as products of one coset
    representative per stabilizer-chain level."""
    if group.order() > limit:
        raise ValueError("group too large to materialize")
    out = [perm.Permutation.identity(group.n)]
    for level in reversed(group._levels):
        if len(level.orbit) == 1:
            continue
        out = [e * u for u in level.orbit.values() for e in out]
    return out


def random_element(group, rng):
    """A uniform element of a PermGroup: one random coset representative
    per stabilizer-chain level, multiplied up the chain."""
    p = perm.Permutation.identity(group.n)
    for level in reversed(group._levels):
        reps = list(level.orbit.values())
        p = p * reps[rng.randrange(len(reps))]
    return p


@lru_cache(maxsize=None)
def _all_permutations(n):
    """All n! images, one row each, in ``itertools.permutations`` order."""
    return np.array(list(permutations(range(n))), dtype=np.int64)


def brute_force_isomorphism(a, b):
    """Exhaustive ground-truth oracle over all n! permutations (n <= 8):
    the first g in ``itertools.permutations`` order with g(a) = b, or
    None.

    g(a) = b, for codes of equal dimension, iff every row of a, with
    coordinate i moved to g[i], has even overlap with every parity-check
    row of b.  All n! permutations are checked at once.
    """
    if a.n > 8 or b.n > 8:
        raise ValueError("brute force limited to n <= 8")
    if a.n != b.n or a.k != b.k:
        return None
    imgs = _all_permutations(a.n)
    bits = np.left_shift(1, imgs)
    checks = b.free_column_rows()
    ok = np.ones(len(imgs), dtype=bool)
    for row in a.rows:
        moved = bits[:, [i for i in range(a.n) if row >> i & 1]].sum(axis=1)
        for check in checks:
            ok &= np.bitwise_count(moved & check) % 2 == 0
    hits = np.flatnonzero(ok)
    if not len(hits):
        return None
    return perm.Permutation(tuple(imgs[hits[0]].tolist()))


# ---------------------------------------------------------------------------
# The transversal tree: full mode before the pair scan, kept as its
# oracle.  It walks the lex-minimal right-coset representatives of a
# PermGroup (``PermGroup.right_transversal``) in windows of stream
# positions, skips whole prefixes by their leaf counts, and drops the
# subtrees that a test on image prefixes rules out.


def leaf_counts(group, prefixes):
    """The number of minimal representatives below each of the valid
    image prefixes in the (N, d) array ``prefixes`` (the images of points
    0..d-1).

    The points d..n-1 left form whole subtrees of the constraint forest,
    each below a placed point of value v (v = -1 for a root).  Taken in
    descending order of v, a subtree T places its |T| values among the
    free values above v that earlier subtrees left: a falling factorial
    of ways.  Each subtree's values must increase down its paths, which
    leaves one placement in |orbit| per point, so the product is divided
    by the order of the pointwise stabilizer of 0..d-1.
    """
    prefixes = np.asarray(prefixes, dtype=np.int64)
    count, d = prefixes.shape
    n, parent = group.n, group._parent
    roots = [x for x in range(d, n) if parent[x] < d]
    sizes = [len(group._levels[x].orbit) for x in roots]
    # v per row and subtree: parent -1 picks the appended column of -1.
    low = np.hstack([prefixes, np.full((count, 1), -1)])
    low = low[:, [parent[x] for x in roots]]
    # Free values above v, less those taken by the subtrees before: those
    # of larger v and, for one parent, of an earlier root.
    left = n - 1 - low
    for k in range(d):
        left -= prefixes[:, k, None] > low
    key = low * n - np.arange(len(roots))
    for b, size in enumerate(sizes):
        left -= size * (key[:, b, None] > key)
    left = np.maximum(left, 0)
    counts = np.ones(count, dtype=np.int64 if n <= 20 else object)
    for a, size in enumerate(sizes):
        for k in range(size):
            counts *= left[:, a] - k
    return counts // prod(len(level.orbit) for level in group._levels[d:])


def shard_sizes(group, shard_cnt):
    """The number of representatives in each shard i/shard_cnt of the
    tree, i = 0..shard_cnt-1, from the leaf counts of the depth-K
    prefixes."""
    depth, _ = perm._split_depths(group.n)
    sizes = np.zeros(shard_cnt, dtype=object)
    number = 0
    for img, _ in group._expand(*perm._root(group.n), depth):
        shards = (number + np.arange(len(img))) % shard_cnt
        np.add.at(sizes, shards, leaf_counts(group, img[:, :depth]))
        number += len(img)
    return sizes.tolist()


def transversal_windows(group, shard=(0, 1), start=0, size=10000, keep=None):
    """Yield (end, rows) for each window of ``size`` stream positions of
    ``group.right_transversal(shard)`` from ``start``: ``end`` is the
    position after the window and ``rows`` the (B, n) uint8 images of its
    representatives that ``keep`` spares, in stream order.

    Positions count the shard's representatives, and the first ``start``
    are dropped, whole depth-K prefixes at a time by their
    ``leaf_counts``, so only the leaves of the prefix holding ``start``
    are walked.

    ``keep`` is None or a pair (d, test) with K <= d <= n - ``SUFFIX``
    (7..12 on Aut(B)): ``test`` maps an (N, d) array of image prefixes to
    a boolean mask, False only where no representative below the prefix
    is wanted.  Such a prefix is never expanded, but its leaves still
    count as positions, so every position names the same coset with or
    without ``keep``, and a window whose prefixes all fail still yields
    its ``end``.
    """
    shard_idx, shard_cnt = shard
    if not 0 <= shard_idx < shard_cnt:
        raise ValueError("invalid shard %d/%d" % (shard_idx, shard_cnt))
    if start < 0 or size < 1:
        raise ValueError("need start >= 0 and size >= 1")
    depth, cut = perm._split_depths(group.n)
    if keep is not None and not depth <= keep[0] <= cut:
        raise ValueError(
            "a keep test needs a depth in %d..%d, got %d" % (depth, cut, keep[0])
        )
    return _kept_leaves(group, shard_idx, shard_cnt, start, size, keep)


def _node_leaves(group, nodes, used, depth, firsts, counts, orders):
    """Yield runs of the leaves below a chunk of depth-``depth`` nodes, in
    stream order, with their positions: node k holds ``counts[k]`` leaves
    at consecutive positions from ``firsts[k]``."""
    ends = np.cumsum(counts)  # leaves of the nodes up to k
    offsets = firsts - ends + counts
    done = 0
    cut = group.n - orders.shape[1]
    for img, free in group._expand(nodes, used, depth, cut):
        leaves = group._leaves(img, free, orders)
        if not len(leaves):
            continue
        ranks = done + np.arange(len(leaves))
        done += len(leaves)
        node = np.searchsorted(ends, ranks, side="right")
        yield leaves, ranks + offsets[node]


def _kept_leaves(group, shard_idx, shard_cnt, start, size, keep):
    """The walk of ``transversal_windows``.  The depth-K prefixes of the
    shard are expanded to the test depth d (K without ``keep``), and each
    chunk of depth-d nodes gets its leaf counts, so each node's first
    position; nodes that hold no leaf, end before ``start`` or fail the
    test are dropped.  The nodes that start before the current window's
    end are expanded when it comes, and a window is yielded once a leaf
    past its end is built, or the next kept node starts past it."""
    n = group.n
    depth, cut = perm._split_depths(n)
    test_depth, test = keep or (depth, None)
    orders = np.array(list(permutations(range(n - cut))), dtype=np.intp)
    number = 0  # stream number of the next depth-K prefix
    at = 0  # position of the next node's first leaf
    end = start + size  # end of the current window
    # Runs of leaves built and not yet yielded, and their positions.
    held, held_at = [np.zeros((0, n), np.uint8)], [np.zeros(0, int)]

    def flush(upto):
        """Yield the windows that end by position ``upto``."""
        nonlocal end, held, held_at
        while end <= upto:
            rows, places = np.concatenate(held), np.concatenate(held_at)
            k = int(np.searchsorted(places, end))
            yield end, rows[:k]
            held, held_at = [rows[k:]], [places[k:]]
            end += size

    for img, used in group._expand(*perm._root(n), depth):
        first = (shard_idx - number) % shard_cnt
        number += len(img)
        img, used = img[first::shard_cnt], used[first::shard_cnt]
        if at < start:
            passed = at + np.cumsum(leaf_counts(group, img[:, :depth]))
            whole = int(np.searchsorted(passed, start, side="right"))
            if whole:
                at = int(passed[whole - 1])
            img, used = img[whole:], used[whole:]
        for nodes, free in group._expand(img, used, depth, test_depth):
            counts = leaf_counts(group, nodes[:, :test_depth])
            firsts = at + np.cumsum(counts) - counts
            at = int(firsts[-1] + counts[-1])
            live = (counts > 0) & (firsts + counts > start)
            if test is not None:
                live[live] = test(nodes[live, :test_depth])
            firsts, counts = firsts[live], counts[live]
            nodes, free = nodes[live], free[live]
            lo = 0
            while lo < len(nodes):
                yield from flush(firsts[lo])
                hi = int(np.searchsorted(firsts, end))
                runs = _node_leaves(
                    group,
                    nodes[lo:hi],
                    free[lo:hi],
                    test_depth,
                    firsts[lo:hi],
                    counts[lo:hi],
                    orders,
                )
                for leaves, places in runs:
                    last = places[-1]
                    if places[0] < start:
                        fresh = places >= start
                        leaves, places = leaves[fresh], places[fresh]
                    held.append(leaves)
                    held_at.append(places)
                    yield from flush(last)
                lo = hi
    yield from flush(at)
    if end - size < at:
        yield at, np.concatenate(held)


def transversal_rows(group, shard=(0, 1), start=0, size=10000):
    """The (B, n) image arrays of ``transversal_windows`` with no keep
    test: every one but the last has exactly ``size`` rows."""
    return (rows for _, rows in transversal_windows(group, shard, start, size))


def prune_depth(engine):
    """The depth at which ``keep_prefixes`` prunes the tree: the deepest
    end of a lightest base word's support that comes before the last
    ``perm.SUFFIX`` positions (9 for B)."""
    ends = engine._light_support.max(axis=1) + 1
    return int(ends[ends <= 16 - perm.SUFFIX].max())


def keep_prefixes(engine, prefixes):
    """Which of the (N, d) image prefixes (the images of points 0..d-1)
    may still lie below a hit: False where a lightest base word with
    support inside 0..d-1 already fails the first stage of
    ``engine.filter_images``, which then rejects every tau below the
    prefix."""
    prefixes = np.asarray(prefixes)
    placed = engine._light_support.max(axis=1) < prefixes.shape[1]
    cols = construct._columns(prefixes)
    return engine._light_pass(cols, engine._light_support[placed])


def tree_keep(engine):
    """The (depth, test) keep pair that prunes the tree for ``engine``."""
    return prune_depth(engine), functools.partial(keep_prefixes, engine)


def tree_hits(engine, group, shard=(0, 1), stop=None):
    """(hits, position): the coset representatives that pass
    ``engine.filter_images`` in the pruned tree walk of ``shard``, in
    stream order, up to the first window end at or past ``stop`` (the
    whole shard when None), and that end."""
    hits = []
    position = 0
    windows = transversal_windows(
        group, shard, size=100000, keep=tree_keep(engine)
    )
    for position, rows in windows:
        hits.extend(rows[engine.filter_images(rows)].tolist())
        if stop is not None and position >= stop:
            break
    return hits, position


def prefix_keys(rows, depth):
    """Integers ordered as the depth-``depth`` prefixes of the (N, 16)
    image rows ``rows``."""
    return rows[:, :depth].astype(np.int64) @ 16 ** np.arange(depth)[::-1]


def is_self_dual_loop(code):
    """k = n/2 and every two rows meet in an even number of ones, by one
    Python popcount per pair of rows: the slow twin of
    ``BinaryCode.is_self_dual``."""
    return 2 * code.k == code.n and not any(
        (a & b).bit_count() & 1 for a in code.rows for b in code.rows
    )


def permuted_loop(code, img):
    """The code with coordinate i moved to img[i], one bit at a time by
    ``gf2.permute_word``: the slow twin of ``BinaryCode.permuted``."""
    return gf2.BinaryCode.from_rows(
        [gf2.permute_word(r, img) for r in code.rows], code.n
    )


def free_column_rows_loop(code):
    """For each column f off the pivots, bit f plus the pivots of the
    rows that have f, one Python sum per column: the slow twin of
    ``BinaryCode.free_column_rows``."""
    p_mask = sum(1 << p for p in code.pivots)
    return [
        (1 << f)
        | sum(1 << p for r, p in zip(code.rows, code.pivots) if r >> f & 1)
        for f in range(code.n)
        if not p_mask >> f & 1
    ]


def extended_qr(p):
    """The extended quadratic-residue code of a prime p = -1 mod 8: the
    cyclic shifts of the residues' indicator with a parity bit, and the
    all-ones word.  p = 7, 23 and 47 give the [8,4,4] Hamming code, the
    [24,12,8] Golay code and the [48,24,12] code q48."""
    residues = sum(1 << (x * x % p) for x in range(1, (p + 1) // 2))
    full = (1 << p) - 1
    rows = [(1 << (p + 1)) - 1]
    for s in range(p):
        word = (residues << s | residues >> (p - s)) & full
        rows.append(word | (word.bit_count() & 1) << p)
    return gf2.BinaryCode.from_rows(rows, p + 1)


def rref_loop(rows, n_cols):
    """Reduced row-echelon form by Gauss-Jordan elimination column by
    column: the slow twin of ``gf2.rref``."""
    work = [int(r) for r in rows]
    out = []
    pivots = []
    for col in range(n_cols):
        mask = 1 << col
        src = next((i for i, r in enumerate(work) if r & mask), None)
        if src is None:
            continue
        piv = work.pop(src)
        work = [r ^ piv if r & mask else r for r in work]
        out = [r ^ piv if r & mask else r for r in out]
        out.append(piv)
        pivots.append(col)
    return tuple(out), pivots


def refine_unique(co, colors):
    """``equiv._refine`` ranking each round's signatures with
    ``np.unique`` on a void view of their big-endian rows: the slow twin
    of its sort of byte strings."""
    while True:
        c = np.asarray(colors, dtype=np.int64)
        packed = (c << 32) | co
        packed.sort(axis=1)
        rows = np.concatenate([c[:, None], packed], axis=1).astype(">i8")
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
        _, inv, sizes = np.unique(
            keys, return_inverse=True, return_counts=True
        )
        refined = (np.cumsum(sizes) - sizes)[inv.ravel()].tolist()
        if refined == colors:
            return colors
        colors = refined


def co_matrix_gather(words, n):
    """``equiv._co_matrix`` counting the pairs i <= j gathered by
    ``np.triu_indices`` from slabs of 16 limbs of each column, then
    scattered to both halves: the slow twin of its slab products."""
    cols = equiv._columns(words, n)
    i, j = np.triu_indices(n)
    pairs = np.zeros(len(i), dtype=np.int64)
    for lo in range(0, cols.shape[1], 16):
        slab = cols[:, lo : lo + 16]
        both = slab[i]
        both &= slab[j]
        pairs += np.bitwise_count(both).sum(axis=1, dtype=np.uint16)
    co = np.empty((n, n), dtype=np.int64)
    co[i, j] = co[j, i] = pairs
    return co


def light_pass_gather(engine, images, support):
    """``DecomposedEngine._light_pass`` on (N, d) image rows, gathering
    the (N, words, 4) bits of every word's image and summing them, then
    taking the least ``m_table`` entry per row: the slow twin of its OR
    of bit columns."""
    bits = np.left_shift(1, np.asarray(images, dtype=np.int64))
    light = bits[:, support].sum(axis=2)
    least = engine.m_table()[light].min(axis=1, initial=construct.MIN_DISTANCE)
    return least + 3 * support.shape[1] >= construct.MIN_DISTANCE
