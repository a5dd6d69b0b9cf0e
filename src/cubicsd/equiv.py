"""Code equivalence, equivalence-class partitioning, and automorphism
groups of binary codes, from one canonical-labelling traversal per code.

Equivalence means coordinate permutation.  The traversal walks the
individualization-refinement tree of the code (B. D. McKay, Congr.
Numer. 30 (1981); McKay and A. Piperno, J. Symbolic Comput. 60 (2014)):
coordinates are colored by the co-coverage of the low-weight codewords,
and a leaf labels the coordinates.  Two leaves whose labelled RREFs are
equal give an automorphism, and a child in the orbit of an explored
sibling is skipped.  The least labelled RREF is the canonical form, a
complete invariant, and the orbit sizes along the first path multiply
to |Aut|, which certifies the automorphisms found.

A code is registered from the words of its one or two lowest weights
alone (``gf2.lightest_words``), with no weight distribution listed.

The results (:class:`CodeData`) are stored on the code object itself,
so they are freed with the code and travel with it when the code is
pickled, e.g. back from a pool worker.  There is no process-wide store
of per-code data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .perm import Permutation, PermGroup

# The most words of the two lowest weights register_code_data refines
# on.  A self-dual code whose lowest class alone colors the coordinates
# comes with no next class listed, so the next class is counted only
# for a 2-design, where no pair count splits a cell, and its size is
# read from the weight distribution: q48 (17296 + 535095 words) is
# refused, as its traversal would not finish.
_MAX_REFINE_WORDS = 200_000


@dataclass
class CodeData:
    """What one canonical-labelling traversal learns about a code."""

    canon: gf2.BinaryCode  # the least labelled RREF over the leaves
    labelling: Permutation  # code.permuted(labelling.img) == canon
    generators: tuple  # the automorphisms the traversal found
    aut_order: int  # orbit-stabilizer product along the first path


# Instance attribute holding a code's CodeData.  BinaryCode is a frozen
# dataclass, so the data goes into the instance __dict__, the way its
# cached ``pivots`` do; equality and hash only see (n, rows).
_DATA_ATTR = "_code_data"


# uint64 limbs per slab of _co_matrix.  Its (_SLAB, n, n) temporaries
# are ~150 KB each at n = 48, small enough for the allocator to reuse
# instead of mapping fresh pages for every call (slabs of 16 fault), and
# a pair counts at most 64 * _SLAB words per slab, which fits in uint16.
_SLAB = 8

# (shift, mask) of the three swaps that transpose the 8x8 bit matrix in
# a uint64 whose byte r is row r (H. S. Warren, Hacker's Delight, 7-3).
_TRANSPOSE_8X8 = (
    (np.uint64(7), np.uint64(0x00AA00AA00AA00AA)),
    (np.uint64(14), np.uint64(0x0000CCCC0000CCCC)),
    (np.uint64(28), np.uint64(0x00000000F0F0F0F0)),
)


def _columns(words, n):
    """Each coordinate's column as a bitset over the words: row i of an
    (n, ceil(len(words) / 64)) uint64 array, whose bit p of entry m says
    whether word 64m + p has coordinate i."""
    padded = np.zeros(-len(words) // 64 * -64, dtype="<u8")
    padded[: len(words)] = words
    # Byte r of block [g, b] is byte b of word 8g + r, whose bit c is
    # coordinate 8b + c.  Transposed, its byte c holds that coordinate.
    blocks = padded.view(np.uint8).reshape(-1, 8, 8).transpose(0, 2, 1)
    x = np.ascontiguousarray(blocks).view("<u8")
    for shift, mask in _TRANSPOSE_8X8:
        swap = (x ^ (x >> shift)) & mask
        x = x ^ swap ^ (swap << shift)
    rows = x.view(np.uint8).reshape(-1, 64).T[:n]
    return np.ascontiguousarray(rows).view(np.uint64)


def _co_matrix(words, n):
    """The (n, n) int64 matrix of how many of the words have both
    coordinates i and j.

    A count is the popcount of two columns (``_columns``) ANDed, summed
    over slabs of their uint64 limbs, all pairs of a slab at once.  There
    is no float product ``bits.T @ bits``: it would be the package's one
    BLAS call, and OpenBLAS leaves a thread busy-waiting after each
    call, which in a forked pool worker takes a core from the other
    workers.
    """
    limbs = np.ascontiguousarray(_columns(words, n).T)
    co = np.zeros((n, n), dtype=np.int64)
    for lo in range(0, len(limbs), _SLAB):
        s = limbs[lo : lo + _SLAB]
        both = np.bitwise_count(s[:, :, None] & s[:, None, :])
        co += both.sum(axis=0, dtype=np.uint16)
    return co


def _signatures(co, colors):
    """One signature per coordinate: own color followed by the sorted
    multiset of (color, co-count) pairs packed into int64 keys, as one
    big-endian byte string, which sorts like the row of integers."""
    c = np.asarray(colors, dtype=np.int64)
    packed = (c << 32) | co
    packed.sort(axis=1)
    raw = np.concatenate([c[:, None], packed], axis=1).astype(">i8").tobytes()
    size = 8 * (len(colors) + 1)
    return [raw[i : i + size] for i in range(0, len(raw), size)]


def _refine(co, colors):
    """Refine an ordered partition of one code's coordinates until it is
    stable or discrete.  The color of a coordinate is the first position
    of its cell, so a cell splits within its own positions, in signature
    order, and a discrete partition, one coordinate per cell, is stable."""
    n = len(colors)
    while len(set(colors)) < n:
        keys = _signatures(co, colors)
        refined = [0] * n
        previous = None
        for pos, x in enumerate(sorted(range(n), key=keys.__getitem__)):
            if keys[x] != previous:
                start, previous = pos, keys[x]
            refined[x] = start
        if refined == colors:
            break
        colors = refined
    return colors


def _orbit(point, gens, fixed):
    """The orbit of a point under the generators fixing ``fixed``."""
    gens = [g for g in gens if all(g.img[p] == p for p in fixed)]
    orbit, queue = {point}, [point]
    while queue:
        x = queue.pop()
        for g in gens:
            y = g.img[x]
            if y not in orbit:
                orbit.add(y)
                queue.append(y)
    return orbit


def _traverse(code, co):
    """(canonical form, canonical labelling, automorphisms found, |Aut|).

    A point is individualized in place: it keeps its cell's color and
    its cellmates move just after it, so an automorphism between two
    leaves maps path to path and the first path's product is exact.
    """
    n = code.n
    first = best = None  # (certificate, path, labelling)
    gens = []

    def leaf(lab, path):
        # Returns the depth at which the search resumes.
        nonlocal first, best
        cert = code.permuted(lab).rows
        if first is None:
            first = best = (cert, path, lab)
            return len(path)
        for ref_cert, ref_path, ref_lab in (first, best):
            if cert == ref_cert:
                to_leaf = Permutation(tuple(lab)).inverse()
                gens.append(Permutation(tuple(ref_lab)) * to_leaf)
                # The rest of this branch mirrors the reference's.
                return next(
                    j for j, (x, y) in enumerate(zip(path, ref_path)) if x != y
                )
        if cert < best[0]:
            best = (cert, path, lab)
        return len(path)

    def visit(colors, path):
        colors = _refine(co, colors)
        cells = {}
        for x, c in enumerate(colors):
            cells.setdefault(c, []).append(x)
        split = [(len(cell), c) for c, cell in cells.items() if len(cell) > 1]
        if not split:
            return leaf(colors, path)
        depth, tried = len(path), []
        target = min(split)[1]
        for x in cells[target]:
            if not _orbit(x, gens, path).isdisjoint(tried):
                continue
            tried.append(x)
            child = [
                target + 1 if c == target and y != x else c
                for y, c in enumerate(colors)
            ]
            back = visit(child, path + [x])
            if back < depth:
                return back
        return depth

    visit([0] * n, [])
    path = first[1]
    order = 1
    for i, v in enumerate(path):
        order *= len(_orbit(v, gens, path[:i]))
    canon, labelling = gf2.BinaryCode(n, best[0]), Permutation(tuple(best[2]))
    return canon, labelling, tuple(gens), order


def register_code_data(code, words_low, words_high):
    """Attach the traversal's results to a code, given its words of the
    lowest nonzero weight and of the next one.  ``words_high`` may be
    None when the lowest class holds at least n words.

    The refinement counts pairs in the lowest class alone when it holds
    at least n words, as the 768 weight-10 words of a [48,24,10] code
    do.  A sparser lowest class, such as the 12 weight-4 words of B,
    leaves too many cells unsplit alone, so the next class is counted
    too.  The rule reads only the class sizes, invariants, so the
    canonical form stays one.  The two classes are held to
    ``_MAX_REFINE_WORDS``; where the next class is not listed and the
    lowest class alone holds a 2-design (every point and every pair of
    points in as many words), its size comes from
    ``code.weight_enumerator()``.  That branch is where a refinement on
    the point-word incidences would plug in.
    """
    n = code.n
    co = _co_matrix(np.asarray(words_low, dtype=np.uint64), n)
    if len(words_low) < n:
        high = _co_matrix(np.asarray(words_high, dtype=np.uint64), n)
        # One key per pair: the lowest class's count, then both classes'.
        co = (co << 16) | (co + high)
    high_size = None if words_high is None else len(words_high)
    if high_size is None and _is_2_design(co):
        sizes = code.weight_enumerator()[1:]
        high_size = int(sizes[sizes > 0][1:2].sum())
    if high_size is not None and (
        len(words_low) + high_size > _MAX_REFINE_WORDS
    ):
        raise ValueError("too many low-weight words for refinement")
    data = CodeData(*_traverse(code, co))
    code.__dict__[_DATA_ATTR] = data
    return data


def _is_2_design(co):
    """Whether a co-coverage matrix is constant on its diagonal and
    constant off it."""
    diagonal, off = co.diagonal(), co[~np.eye(len(co), dtype=bool)]
    return bool((diagonal == diagonal[:1]).all() and (off == off[:1]).all())


def code_data(code):
    """The traversal's results for a code, attached on first use, from
    the words of ``gf2.lightest_words``."""
    data = code.__dict__.get(_DATA_ATTR)
    if data is not None:
        return data
    return register_code_data(code, *gf2.lightest_words(code))


def invariant(code):
    """The canonical form: equal exactly for equivalent codes."""
    return code_data(code).canon


def find_isomorphism(a, b):
    """A coordinate permutation g with g(a) = b, or None: the canonical
    labelling of a followed by the inverse of b's."""
    if a.n != b.n or a.k != b.k:
        return None
    da, db = code_data(a), code_data(b)
    if da.canon != db.canon:
        return None
    return da.labelling * db.labelling.inverse()


def are_equivalent(a, b):
    return find_isomorphism(a, b) is not None


def automorphism_group(a):
    """The group of all coordinate permutations preserving the code,
    generated by the automorphisms its traversal found.

    Raises RuntimeError if they generate a group of another order than
    the orbit-stabilizer product along the traversal's first path.
    """
    if a.k < 1:
        raise ValueError("empty code")
    data = code_data(a)
    group = PermGroup(data.generators, a.n)
    if group.order() != data.aut_order:
        raise RuntimeError("found automorphisms miss part of the group")
    return group


def partition_classes(codes):
    """Partition a list of codes into equivalence classes by canonical
    form.

    Returns a list of lists of input indices; classes are ordered by the
    index of their first representative, and the result is independent
    of the input order.
    """
    classes = {}
    for idx, code in enumerate(codes):
        classes.setdefault(invariant(code), []).append(idx)
    return list(classes.values())
