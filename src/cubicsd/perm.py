"""Permutations, cycle notation, and a base/strong-generating-set engine.

Points are 0-based internally; all text I/O (cycle notation) is 1-based,
matching the usual coding-theory convention.  Multiplication acts on the
right: ``(a * b)(x) = b(a(x))``, i.e. apply ``a`` first.  With this
convention a right coset H*g consists of the permutations "h then g",
which is exactly the set of tau giving one and the same permuted code.

``PermGroup.min_coset_reps`` reduces a whole array of image rows to
their lex-minimal right-coset representatives in one pass over the
stabilizer chain, as the pair scan (``scan``) needs for its hits and
``search.hit_orbits`` for each level of its orbits; ``min_coset_rep``
is its one-permutation twin.  ``right_transversal`` walks every
lex-minimal representative depth first, in lex order, one shard of the
valid image prefixes of length PREFIX_DEPTH at a time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import factorial, lcm

import numpy as np

from . import gf2

# The transversal's shards split the valid image prefixes of length
# PREFIX_DEPTH, at most n - SUFFIX.
SUFFIX = 4
PREFIX_DEPTH = 7


@dataclass(frozen=True)
class Permutation:
    """A permutation of {0, ..., n-1}, stored as its image tuple."""

    img: tuple

    def __post_init__(self):
        if sorted(self.img) != list(range(len(self.img))):
            raise ValueError("not a permutation")

    @classmethod
    def _trusted(cls, img):
        """The permutation with image tuple ``img``, which is known to be
        one (a product, an inverse), so it is not checked again."""
        p = object.__new__(cls)
        object.__setattr__(p, "img", img)
        return p

    @classmethod
    def identity(cls, n):
        return cls._trusted(tuple(range(n)))

    @property
    def degree(self):
        return len(self.img)

    @property
    def is_identity(self):
        return self.img == tuple(range(len(self.img)))

    def __mul__(self, other):
        """Apply self first, then other."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        img = tuple(map(other.img.__getitem__, self.img))
        return Permutation._trusted(img)

    def inverse(self):
        inv = [0] * self.degree
        for i, x in enumerate(self.img):
            inv[x] = i
        return Permutation._trusted(tuple(inv))

    def __call__(self, point):
        return self.img[point]

    def order(self):
        return lcm(*map(len, self.cycles()))

    def apply_to_word(self, word):
        """Permute the coordinates of a bit-row: bit i moves to bit img[i]."""
        return gf2.permute_word(word, self.img)

    def cycles(self):
        """Nontrivial cycles as tuples of 0-based points."""
        seen = [False] * self.degree
        out = []
        for i in range(self.degree):
            if seen[i] or self.img[i] == i:
                seen[i] = True
                continue
            cyc = [i]
            seen[i] = True
            j = self.img[i]
            while j != i:
                seen[j] = True
                cyc.append(j)
                j = self.img[j]
            out.append(tuple(cyc))
        return out

    def to_cycle_text(self):
        cycs = self.cycles()
        if not cycs:
            return ""
        return "".join(
            "(" + ",".join(str(x + 1) for x in c) + ")" for c in cycs
        )

    def __str__(self):
        return self.to_cycle_text() or "()"


_CYCLE_RE = re.compile(r"\(([0-9,\s]*)\)")


def parse_cycles(text, n):
    """Parse 1-based disjoint cycle notation, e.g. "(5,6)(12,14)"."""
    text = text.strip()
    img = list(range(n))
    if text in ("", "()", "id"):
        return Permutation(tuple(img))
    consumed = _CYCLE_RE.sub("", text)
    if consumed.strip():
        raise ValueError("malformed cycle text: %r" % text)
    seen = set()
    for m in _CYCLE_RE.finditer(text):
        body = m.group(1).strip()
        if not body:
            continue
        pts = [int(t) for t in body.split(",")]
        for pt in pts:
            if not 1 <= pt <= n:
                raise ValueError("point %d outside 1..%d" % (pt, n))
            if pt in seen:
                raise ValueError("repeated point %d" % pt)
            seen.add(pt)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            img[a - 1] = b - 1
    return Permutation(tuple(img))


def _min_moved(p):
    for i, x in enumerate(p.img):
        if x != i:
            return i
    return None


def _split_depths(n):
    """(K, cut): the prefix length the shards split and the length
    whose prefixes the transversal tree (the tests' oracle) completes
    by the orderings of the last values."""
    cut = n - min(SUFFIX, n)
    return min(PREFIX_DEPTH, cut), cut


class _Level:
    __slots__ = ("point", "orbit")

    def __init__(self, point, identity):
        self.point = point
        self.orbit = {point: identity}


class PermGroup:
    """A permutation group with a Schreier-Sims stabilizer chain.

    The base is the full point sequence 0, 1, ..., n-1 (levels whose
    fundamental orbit is a singleton are just trivial).  This fixed base
    makes lexicographically-minimal coset representatives a simple
    greedy descent along the chain.
    """

    def __init__(self, generators, n):
        self.n = n
        self.generators = tuple(generators)
        ident = Permutation.identity(n)
        self._levels = [_Level(j, ident) for j in range(n)]
        # _gens_by_level[j]: strong generators whose first moved point is j;
        # the stabilizer H^(i) is generated by the lists at levels >= i.
        self._gens_by_level = [[] for _ in range(n)]
        for g in self.generators:
            if g.degree != n:
                raise ValueError("generator degree mismatch")
            m = _min_moved(g)
            if m is not None:
                self._gens_by_level[m].append(g)
        self._schreier_sims()
        # _parent[x]: the largest chain level j < x whose orbit holds x, or
        # -1.  Chain orbits are nested or disjoint, so this is a forest,
        # and the levels j < x whose orbit holds x are the ancestors of x.
        self._parent = [-1] * n
        for j, level in enumerate(self._levels):
            for x in level.orbit:
                if x != j:
                    self._parent[x] = j

    # -- construction ------------------------------------------------------

    def _level_gens(self, i):
        return [g for lst in self._gens_by_level[i:] for g in lst]

    def _strip(self, p, start=0):
        """Sift p through the chain; return (residue, stop_level)."""
        for i in range(start, self.n):
            level = self._levels[i]
            x = p.img[level.point]
            if x == level.point:
                continue
            if x not in level.orbit:
                return p, i
            p = p * level.orbit[x].inverse()
        return p, self.n

    def _rebuild_orbit(self, i, gens):
        level = self._levels[i]
        orbit = {level.point: Permutation.identity(self.n)}
        queue = [level.point]
        while queue:
            x = queue.pop()
            u = orbit[x]
            for s in gens:
                y = s.img[x]
                if y not in orbit:
                    orbit[y] = u * s
                    queue.append(y)
        level.orbit = orbit

    def _check_level(self, i):
        """Rebuild level i and sift its Schreier generators.

        Returns the level where a new strong generator was added, or
        None if every Schreier generator sifted to the identity.
        """
        gens = self._level_gens(i)
        self._rebuild_orbit(i, gens)
        orbit = self._levels[i].orbit
        for x, u in orbit.items():
            for s in gens:
                rep = orbit[s.img[x]]
                schreier = u * s * rep.inverse()
                if schreier.is_identity:
                    continue
                residue, stop = self._strip(schreier, i + 1)
                if not residue.is_identity:
                    self._gens_by_level[stop].append(residue)
                    return stop
        return None

    def _schreier_sims(self):
        # Levels above the last that holds a generator have no
        # generators, so they already are trivial and complete.
        i = max(
            (j for j, gens in enumerate(self._gens_by_level) if gens),
            default=-1,
        )
        while i >= 0:
            dirty = self._check_level(i)
            if dirty is None:
                i -= 1
            else:
                i = dirty

    # -- queries -----------------------------------------------------------

    def order(self):
        result = 1
        for level in self._levels:
            result *= len(level.orbit)
        return result

    def __contains__(self, p):
        return self.contains(p)

    def contains(self, p):
        if p.degree != self.n:
            raise ValueError("degree mismatch")
        residue, _ = self._strip(p)
        return residue.is_identity

    # -- cosets ------------------------------------------------------------

    def min_coset_rep(self, r):
        """The lex-minimal element (by image sequence) of the coset H*r."""
        if r.degree != self.n:
            raise ValueError("degree mismatch")
        for level in self._levels:
            if len(level.orbit) == 1:
                continue
            best = min(level.orbit, key=lambda x: r.img[x])
            if best != level.point:
                r = level.orbit[best] * r
        return r

    def min_coset_reps(self, rows):
        """``min_coset_rep`` of every row of the (N, n) integer array of
        images ``rows`` at once, as an array of its type: per chain
        level, each row moves by the coset representative of the point
        whose image is least."""
        rows = np.array(rows)
        if rows.ndim != 2 or rows.shape[1] != self.n:
            raise ValueError("need an (N, %d) array of images" % self.n)
        for level in self._levels:
            if len(level.orbit) == 1:
                continue
            points = list(level.orbit)
            moves = np.array([level.orbit[x].img for x in points])
            best = rows[:, points].argmin(axis=1)
            rows = np.take_along_axis(rows, moves[best], axis=1)
        return rows

    def is_min_coset_rep(self, r):
        for level in self._levels:
            base_val = r.img[level.point]
            if any(r.img[x] < base_val for x in level.orbit):
                return False
        return True

    def same_right_coset(self, a, b):
        """True iff a * b^(-1) lies in the group, i.e. H*a = H*b."""
        if a.degree != b.degree:
            raise ValueError("degree mismatch")
        return self.contains(a * b.inverse())

    def num_right_cosets(self):
        return factorial(self.n) // self.order()

    def right_transversal(self, shard=(0, 1)):
        """Stream the lex-minimal representative of every right coset, in
        lex order.

        A representative r is minimal iff for every chain level j the
        value r[j] is minimal over the fundamental orbit of j, i.e. r[x]
        exceeds r[j] for every level j < x whose orbit holds x; as those
        levels are the ancestors of x in the constraint forest, r[x] need
        only exceed r[parent(x)].  A depth-first walk places the images
        one position at a time, each from the unused values above its
        parent's, lowest first.

        ``shard=(i, m)`` splits the walk at depth K = ``PREFIX_DEPTH``
        (at most n - ``SUFFIX``): the valid depth-K prefixes are numbered
        in stream order, and shard i/m descends only into those numbered
        i modulo m, so the m shards partition the stream and each keeps
        its order.
        """
        shard_idx, shard_cnt = shard
        if not 0 <= shard_idx < shard_cnt:
            raise ValueError(
                "invalid shard %d/%d: need 0 <= i < m" % (shard_idx, shard_cnt)
            )
        n, parent = self.n, self._parent
        depth, _ = _split_depths(n)
        img = [-1] * (n + 1)  # img[-1] = -1 stands in for a root's parent
        used = [False] * n
        number = 0  # stream number of the next depth-K prefix

        def place(pos):
            nonlocal number
            if pos == depth:
                number += 1
                if (number - 1) % shard_cnt != shard_idx:
                    return
            if pos == n:
                yield Permutation._trusted(tuple(img[:n]))
                return
            for v in range(img[parent[pos]] + 1, n):
                if not used[v]:
                    used[v], img[pos] = True, v
                    yield from place(pos + 1)
                    used[v] = False

        yield from place(0)
