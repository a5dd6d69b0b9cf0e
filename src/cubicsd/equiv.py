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

# Refinement data uses minimum-weight words first and the next weight
# class as well; for the [48,24,10] instances these are the 768 weight-10
# and 8592 weight-12 words.
_MAX_REFINE_WORDS = 200_000


@dataclass
class CodeData:
    """What one canonical-labelling traversal learns about a code."""

    we: tuple  # full weight distribution
    canon: gf2.BinaryCode  # the least labelled RREF over the leaves
    labelling: Permutation  # code.permuted(labelling.img) == canon
    generators: tuple  # the automorphisms the traversal found
    aut_order: int  # orbit-stabilizer product along the first path


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


def _signatures(mats, colors):
    """One signature per coordinate: own color followed by the sorted
    multiset of (color, co-counts) pairs packed into int64 keys, as one
    big-endian byte string, which sorts like the row of integers."""
    c = np.asarray(colors, dtype=np.int64)
    packed = (c << 32) | (mats[0] << 16) | mats[1]
    packed.sort(axis=1)
    rows = np.concatenate([c[:, None], packed], axis=1).astype(">i8")
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))


def _refine(mats, colors):
    """Refine an ordered partition of one code's coordinates until it is
    stable.  The color of a coordinate is the first position of its cell,
    so a cell splits within its own positions, in signature order."""
    while True:
        _, inv, sizes = np.unique(
            _signatures(mats, colors), return_inverse=True, return_counts=True
        )
        refined = (np.cumsum(sizes) - sizes)[inv.ravel()].tolist()
        if refined == colors:
            return colors
        colors = refined


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


def _traverse(code, mats):
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
        colors = _refine(mats, colors)
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


def register_code_data(code, we, words_low, words_high):
    """Attach the traversal's results to a code, given its weight
    distribution and its words of the two lowest nonzero weights."""
    n = code.n
    co_low = _co_matrix(np.asarray(words_low, dtype=np.uint64), n)
    co_high = co_low + _co_matrix(np.asarray(words_high, dtype=np.uint64), n)
    data = CodeData(
        tuple(int(x) for x in we), *_traverse(code, [co_low, co_high])
    )
    code.__dict__[_DATA_ATTR] = data
    return data


def code_data(code):
    """The traversal's results for a code, attached on first use from
    one call of ``gf2.BinaryCode.low_weight_words``: the weight
    distribution and the words of the two lowest nonzero weights."""
    data = code.__dict__.get(_DATA_ATTR)
    if data is not None:
        return data
    we, low, high = code.low_weight_words()
    if len(low) + len(high) > _MAX_REFINE_WORDS:
        raise ValueError("too many low-weight words for refinement")
    return register_code_data(code, we, low, high)


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
