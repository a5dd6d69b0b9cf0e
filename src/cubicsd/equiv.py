"""Code equivalence, equivalence-class partitioning, and automorphism
groups of binary codes.

Equivalence means coordinate permutation.  The decision engine is
individualization-refinement over the incidence structure of low-weight
codewords: coordinates are colored, colors are refined by the multiset
of (color, co-coverage) pairs against every other coordinate, and the
backtrack branches on the images of one individualized coordinate.
Every candidate produced by a discrete coloring is verified against the
full code (RREF equality) before it is accepted, so refinement strength
affects only speed, never correctness.

The refinement data of a code (:class:`CodeData`) is stored on the code
object itself, so it is freed with the code and travels with it when
the code is pickled, e.g. back from a pool worker.  There is no
process-wide store of per-code data.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from . import gf2
from .perm import Permutation, PermGroup

# Refinement data uses minimum-weight words first and the next weight
# class as well; for the [48,24,10] instances these are the 768 weight-10
# and 8592 weight-12 words.
_MAX_REFINE_WORDS = 200_000


@dataclass
class CodeData:
    """Permutation-invariant refinement data attached to one code."""

    we: tuple  # full weight distribution
    co_low: np.ndarray  # co-coverage counts from the lowest weight class
    co_high: np.ndarray  # ... plus the next weight class
    invariant_key: tuple


# Instance attribute holding a code's CodeData.  BinaryCode is a frozen
# dataclass, so the data goes into the instance __dict__, the way its
# cached ``pivots`` do; equality and hash only see (n, rows).
_DATA_ATTR = "_code_data"


def _co_matrix(words, n):
    # Bit i of a word is bit i % 8 of its little-endian byte i // 8.
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(octets.reshape(-1, 8), axis=1, bitorder="little")
    # float32 sums of 0/1 products are exact below 2^24 > _MAX_REFINE_WORDS.
    bits = bits[:, :n].astype(np.float32)
    return (bits.T @ bits).astype(np.int64)


def _signature_rows(mats, colors):
    """One row-signature per coordinate: own color followed by the sorted
    multiset of (color, co-counts) pairs packed into int64 keys."""
    n = len(colors)
    c = np.asarray(colors, dtype=np.int64)
    packed = (
        (np.broadcast_to(c, (n, n)).copy() << 32)
        | (mats[0] << 16)
        | mats[1]
    )
    packed.sort(axis=1)
    return np.concatenate([c[:, None], packed], axis=1)


def _refine(mats_a, mats_b, ca, cb):
    """Refine the colorings of two codes together until both are stable.

    Both sides share one canonical color numbering; returns the refined
    (ca, cb), or None as soon as their color multisets differ.  On a
    code against itself this is its stable coloring.
    """
    n = len(ca)
    while True:
        rows_a = _signature_rows(mats_a, ca)
        rows_b = _signature_rows(mats_b, cb)
        _, inv = np.unique(
            np.concatenate([rows_a, rows_b]), axis=0, return_inverse=True
        )
        na, nb = inv[:n], inv[n:]
        if not np.array_equal(np.sort(na), np.sort(nb)):
            return None
        na, nb = na.tolist(), nb.tolist()
        if na == ca and nb == cb:
            return ca, cb
        ca, cb = na, nb


def register_code_data(code, we, words_low, words_high):
    """Attach refinement data built from a code's weight distribution and
    its words of the two lowest nonzero weights to the code."""
    n = code.n
    co_low = _co_matrix(np.asarray(words_low, dtype=np.uint64), n)
    co_high = co_low + _co_matrix(np.asarray(words_high, dtype=np.uint64), n)
    mats = [co_low, co_high]
    colors = _refine(mats, mats, [0] * n, [0] * n)[0]
    key = _make_key(code, we, co_low, co_high, colors)
    data = CodeData(tuple(int(x) for x in we), co_low, co_high, key)
    code.__dict__[_DATA_ATTR] = data
    return data


def _make_key(code, we, co_low, co_high, colors):
    pair_sig = sorted(
        (*sorted((colors[i], colors[j])), int(co_low[i, j]), int(co_high[i, j]))
        for i in range(code.n)
        for j in range(i + 1, code.n)
    )
    return (
        code.n,
        code.k,
        tuple(int(x) for x in we[: min(code.n, 16) + 1]),
        tuple(sorted(colors)),
        tuple(pair_sig),
    )


def code_data(code):
    """Refinement data for a code, attached on first use from one call
    of ``gf2.BinaryCode.low_weight_words``: the weight distribution and
    the words of the two lowest nonzero weights."""
    data = code.__dict__.get(_DATA_ATTR)
    if data is not None:
        return data
    we, low, high = code.low_weight_words()
    if len(low) + len(high) > _MAX_REFINE_WORDS:
        raise ValueError("too many low-weight words for refinement")
    return register_code_data(code, we, low, high)


def invariant(code):
    """A permutation-invariant fingerprint; equal for equivalent codes."""
    return code_data(code).invariant_key


# ---------------------------------------------------------------------------
# Individualization-refinement search

def _isomorphisms(a, b, mats_a, mats_b, ca, cb):
    """Yield every verified permutation g with g(a) = b in the search
    tree below the colorings (ca, cb) of a and b."""
    refined = _refine(mats_a, mats_b, ca, cb)
    if refined is None:
        return
    ca, cb = refined
    cells = {}
    for i, c in enumerate(ca):
        cells.setdefault(c, []).append(i)
    # Branch on the smallest non-singleton cell, lowest color first.
    split = [(len(cell), c) for c, cell in cells.items() if len(cell) > 1]
    if not split:
        # Discrete coloring: read off the candidate and verify it.
        pos_b = {c: i for i, c in enumerate(cb)}
        img = [pos_b[c] for c in ca]
        if a.permuted(img) == b:
            yield Permutation(tuple(img))
        return
    target = min(split)[1]
    ia = cells[target][0]
    fresh = a.n + 1  # unused color id
    for ib in [j for j, c in enumerate(cb) if c == target]:
        na, nb = list(ca), list(cb)
        na[ia] = nb[ib] = fresh
        yield from _isomorphisms(a, b, mats_a, mats_b, na, nb)


def find_isomorphism(a, b):
    """A coordinate permutation g with g(a) = b, or None.

    Fast-rejects on the permutation-invariant fingerprint, then runs the
    verified individualization-refinement backtrack.
    """
    if a.n != b.n or a.k != b.k:
        return None
    da, db = code_data(a), code_data(b)
    if da.invariant_key != db.invariant_key:
        return None
    mats_a, mats_b = [da.co_low, da.co_high], [db.co_low, db.co_high]
    start = [0] * a.n
    return next(_isomorphisms(a, b, mats_a, mats_b, start, start), None)


def are_equivalent(a, b):
    return find_isomorphism(a, b) is not None


def automorphism_group(a):
    """The group of all coordinate permutations preserving the code.

    The search tree is exhausted with a = b, every verified leaf is an
    automorphism, and distinct leaves are distinct, so the harvested
    elements are exactly the group.
    """
    if a.k < 1:
        raise ValueError("empty code")
    da = code_data(a)
    mats, start = [da.co_low, da.co_high], [0] * a.n
    found = list(_isomorphisms(a, a, mats, mats, start, start))
    group = PermGroup(found, a.n)
    if group.order() != len(found):
        raise RuntimeError("automorphism harvest inconsistent with BSGS")
    return group


def brute_force_isomorphism(a, b):
    """Exhaustive ground-truth oracle over all n! permutations (n <= 8)."""
    if a.n > 8 or b.n > 8:
        raise ValueError("brute force limited to n <= 8")
    if a.n != b.n or a.k != b.k:
        return None
    for img in permutations(range(a.n)):
        if a.permuted(img) == b:
            return Permutation(img)
    return None


def partition_classes(codes):
    """Partition a list of codes into equivalence classes.

    Returns a list of lists of input indices; classes are ordered by the
    index of their first representative, and the result is independent
    of the input order.
    """
    buckets = {}
    for idx, code in enumerate(codes):
        buckets.setdefault(invariant(code), []).append(idx)
    classes = []
    for key in buckets:
        reps = []  # (first index, [members])
        for idx in sorted(buckets[key]):
            for rep in reps:
                if codes[idx] == codes[rep[0]] or find_isomorphism(
                    codes[rep[0]], codes[idx]
                ):
                    rep[1].append(idx)
                    break
            else:
                reps.append((idx, [idx]))
        classes.extend(members for _, members in reps)
    classes.sort(key=lambda members: members[0])
    return classes
