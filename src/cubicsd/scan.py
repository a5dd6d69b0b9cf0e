"""The pair scan: the full mode of ``search.run_search``.

The 12 weight-4 words of the base code B are the unions of two pairs
from one of two groups of four disjoint pairs.  Their stabilizer W in
S16, (S2 wr S4) wr S2, holds Aut(B) with index 4, and a coarse coset
W*tau is fixed by the images of the 8 pairs: two quads of image pairs,
on an 8-set S that holds point 0 and on its complement.  That gives
C(15,7) = 6435 8-sets, 105 matchings on each side and 4 right cosets
of Aut(B) per coarse coset, 283,783,500 in all.  The images of the 63
nonzero words of the pair subcode D of B depend on the coarse coset
alone, so one that fails the pass table rules the coarse coset out:
first the two 8-sets, then each quad's 6 pair unions, then the 49
mixed words of a join of two quads.  Only the 4 rows of each join left
go through ``filter_images``.  Only full mode imports this module.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, factorial

import numpy as np

from . import perm

# The 8-sets of 0..15 that hold 0, and the right cosets of Aut(B) that
# lie below each: 105 matchings on each side, 4 cosets per coarse coset.
SETS = comb(15, 7)
COSETS_PER_SET = 105 * 105 * 4

# The 6 pair unions of a quad, as pairs of its pair numbers.
_UNIONS = np.array(list(combinations(range(4), 2)), dtype=np.intp)


def eight_set(index):
    """The 8-set of 0..15 holding 0 numbered ``index`` in lex order of
    the sorted tuples (``itertools.combinations`` order)."""
    points = [0]
    point = 1
    for left in range(7, 0, -1):
        # The sets whose next point is ``point`` choose the rest above it.
        while comb(15 - point, left - 1) <= index:
            index -= comb(15 - point, left - 1)
            point += 1
        points.append(point)
        point += 1
    return points


def _matchings(points):
    """Every perfect matching of ``points`` as a list of pairs, in lex
    order: the first point paired with each later one in turn."""
    if not points:
        return [[]]
    return [
        [(points[0], other)] + tail
        for k, other in enumerate(points[1:], 1)
        for tail in _matchings(points[1:k] + points[k + 1 :])
    ]


def _pair_groups(light):
    """The two groups of four pairs whose pair unions are the words with
    the bit positions of the rows of ``light``, each a sorted list of
    sorted pairs, the group of point 0 first.  Two points are paired iff
    they lie in the same words.  Raises ValueError for any other shape
    of words."""
    words = {frozenset(row) for row in light.tolist()}
    holding = [{w for w in words if x in w} for x in range(16)]
    pairs = sorted(
        {tuple(y for y in range(16) if holding[y] == h) for h in holding}
    )
    first = [p for p in pairs if frozenset(pairs[0] + p) in words]
    first.insert(0, pairs[0])
    groups = [first, [p for p in pairs if p not in first]]
    unions = {frozenset(p + q) for g in groups for p, q in combinations(g, 2)}
    if unions != words or {len(p) for p in pairs} != {2} or len(first) != 4:
        raise ValueError(
            "the lightest base words are not the pair unions of two groups "
            "of four disjoint pairs"
        )
    return groups


class PairScan:
    """The pair scan of one X_i: ``block`` scans a run of 8-sets.

    ``engine`` is X_i's ``DecomposedEngine`` and ``group`` Aut(B).  The
    pairs come from the engine's lightest base words.  The coset
    representatives of Aut(B) in W are the identity and the swaps of
    the first pair of group A, of group B and of both.  They form a
    group, so they lie in distinct right cosets iff Aut(B) holds none
    but the identity, which is checked, as is |W| = 4 |Aut(B)|.
    """

    def __init__(self, engine, group):
        self.engine = engine
        self.group = group
        pairs = np.array(_pair_groups(engine._light_support), dtype=np.intp)
        # Group A's pairs, then group B's: their first and second points.
        self._firsts = pairs[:, :, 0].ravel()
        self._seconds = pairs[:, :, 1].ravel()
        self._reps = np.tile(np.arange(16), (4, 1))
        for rows, (a, b) in zip(([1, 3], [2, 3]), pairs[:, 0]):
            self._reps[rows, a], self._reps[rows, b] = b, a
        swaps = [perm.Permutation(tuple(w)) for w in self._reps[1:].tolist()]
        order = 2 * (2**4 * factorial(4)) ** 2
        if order != 4 * group.order() or any(map(group.contains, swaps)):
            raise RuntimeError(
                "the pair swaps are not the right cosets of Aut(B) in W"
            )
        self._matchings = np.array(_matchings(list(range(8))))

    def block(self, indices):
        """Scan the 8-sets numbered ``indices`` (``eight_set``).

        Returns (rows, (sets, quads, joins)): the (H, 16) uint8
        lex-least representatives of the hit cosets below them, and the
        stage counts: the 8-sets whose halves pass, the good quads on
        both sides of those, and the joins that pass D.
        """
        passes = self.engine.pass_table()
        one = np.uint16(1)
        inside = np.zeros((len(indices), 16), dtype=bool)
        for row, index in zip(inside, indices):
            row[eight_set(index)] = True
        # (sets, side, 8): the points of S and of its complement.
        sides = np.nonzero(np.stack([inside, ~inside], axis=1))[2]
        sides = sides.reshape(len(indices), 2, 8).astype(np.uint16)
        halves = np.bitwise_or.reduce(one << sides, axis=2)
        kept = passes[halves].all(axis=1)
        sides, halves = sides[kept], halves[kept]
        # (sets, side, 105, 4, 2): the points of each matching's pairs,
        # and the 6 pair unions of each: the quad words.
        points = sides[:, :, self._matchings]
        pair_bits = np.bitwise_or.reduce(one << points, axis=4)
        quad_words = pair_bits[..., _UNIONS[:, 0]]
        quad_words |= pair_bits[..., _UNIONS[:, 1]]
        good = passes[quad_words].all(axis=3)
        # Per side, the good quads: their 8-sets, their points and the
        # nonzero words of D_A (or D_B) on them, 6 pair unions and an 8-set.
        quads = []
        for side in (0, 1):
            sets, matchings = np.nonzero(good[:, side])
            words = np.empty((len(sets), 7), dtype=np.uint16)
            words[:, :6] = quad_words[sets, side, matchings]
            words[:, 6] = halves[sets, side]
            quads.append((sets, points[sets, side, matchings], words))
        (s_sets, s_points, s_words), (t_sets, t_points, t_words) = quads
        # Every join of a good quad on S with one on its complement, and
        # the 49 mixed words of D on it.
        left, right = np.nonzero(s_sets[:, None] == t_sets)
        mixed = s_words[left, :, None] | t_words[right, None]
        ok = passes[mixed.reshape(-1, 49)].all(axis=1)
        counts = (int(kept.sum()), int(good.sum()), int(ok.sum()))
        # One tau per join: group A's pairs onto the quad on S, group B's
        # onto the quad on the complement.
        pairs = np.concatenate([s_points[left[ok]], t_points[right[ok]]], 1)
        tau = np.empty((len(pairs), 16), dtype=np.uint8)
        tau[:, self._firsts] = pairs[:, :, 0]
        tau[:, self._seconds] = pairs[:, :, 1]
        rows = tau[:, self._reps].reshape(-1, 16)
        hits = rows[self.engine.filter_images(rows)]
        return self.group.min_coset_reps(hits), counts
