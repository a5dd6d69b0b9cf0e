"""Reference data and ground-truth oracles that only the tests use."""

from functools import lru_cache
from itertools import permutations

import numpy as np

from cubicsd import perm

# The two generators of Aut(B) printed in the paper, in 1-based cycle
# notation.  The package computes Aut(B) from the base code instead.
PAPER_AUTB_GENERATORS = tuple(
    perm.parse_cycles(text, 16)
    for text in (
        "(1,12,4,2,13,15,9,3)(5,16,8,11)(6,14)(7,10)",
        "(1,8,7)(5,6,13)(10,12)(14,15)",
    )
)


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
