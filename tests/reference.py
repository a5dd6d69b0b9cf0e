"""Reference data and ground-truth oracles that only the tests use."""

from functools import lru_cache
from itertools import permutations

import numpy as np

from cubicsd import equiv, gf2, perm

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


def transversal_rows(group, shard=(0, 1), start=0, size=10000):
    """The (B, n) image arrays of ``group.transversal_windows`` with no
    keep test: every one but the last has exactly ``size`` rows."""
    return (rows for _, rows in group.transversal_windows(shard, start, size))


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
