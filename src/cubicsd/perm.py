"""Permutations, cycle notation, and a base/strong-generating-set engine.

Points are 0-based internally; all text I/O (cycle notation) is 1-based,
matching the usual coding-theory convention.  Multiplication acts on the
right: ``(a * b)(x) = b(a(x))``, i.e. apply ``a`` first.  With this
convention a right coset H*g consists of the permutations "h then g",
which is exactly the set of tau giving one and the same permuted code.

``PermGroup.transversal_blocks`` emits the lex-minimal right-coset
representatives as numpy image arrays, expanding the tree of valid image
prefixes in bounded chunks, so a search filters whole blocks and builds
a ``Permutation`` only for its hits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import permutations
from math import factorial

import numpy as np

from . import gf2

# Transversal blocks: prefixes expanded per step (on Aut(B), 1024 is as
# fast as 4096 and holds ~3 MB less at peak), and the number of last
# positions filled at once from the orderings of the values left.
EXPAND_ROWS = 1024
SUFFIX = 4


@dataclass(frozen=True)
class Permutation:
    """A permutation of {0, ..., n-1}, stored as its image tuple."""

    img: tuple

    def __post_init__(self):
        if sorted(self.img) != list(range(len(self.img))):
            raise ValueError("not a permutation")

    @classmethod
    def identity(cls, n):
        return cls(tuple(range(n)))

    @property
    def degree(self):
        return len(self.img)

    @property
    def is_identity(self):
        return all(i == x for i, x in enumerate(self.img))

    def __mul__(self, other):
        """Apply self first, then other."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation(tuple(other.img[x] for x in self.img))

    def inverse(self):
        inv = [0] * self.degree
        for i, x in enumerate(self.img):
            inv[x] = i
        return Permutation(tuple(inv))

    def __call__(self, point):
        return self.img[point]

    def order(self):
        n = self.degree
        seen = [False] * n
        result = 1
        for i in range(n):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = self.img[j]
                length += 1
            result = _lcm(result, length)
        return result

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


def _lcm(a, b):
    from math import gcd

    return a * b // gcd(a, b)


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


def _column_max(img, cols):
    """Row-wise maximum of the given columns of an image array."""
    low = img[:, cols[0]]
    for c in cols[1:]:
        low = np.maximum(low, img[:, c])
    return low


def _rechunk(runs, size):
    """Re-cut a stream of row arrays into arrays of exactly ``size`` rows
    (the last one shorter)."""
    pending, count = [], 0
    for run in runs:
        pending.append(run)
        count += len(run)
        if count >= size:
            joined = np.concatenate(pending)
            whole = count - count % size
            for lo in range(0, whole, size):
                yield joined[lo : lo + size]
            pending, count = [joined[whole:]], count - whole
    if count:
        yield np.concatenate(pending)


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
        i = self.n - 1
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

    def elements(self, limit=1 << 20):
        """All group elements (small groups only)."""
        if self.order() > limit:
            raise ValueError("group too large to materialize")
        out = [Permutation.identity(self.n)]
        for level in reversed(self._levels):
            if len(level.orbit) == 1:
                continue
            out = [e * u for u in level.orbit.values() for e in out]
        return out

    def random_element(self, rng):
        p = Permutation.identity(self.n)
        for level in reversed(self._levels):
            reps = list(level.orbit.values())
            p = p * reps[rng.randrange(len(reps))]
        return p

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

    def right_transversal(self, shard=None, start=0):
        """Stream the lex-minimal representative of every right coset,
        one Permutation per row of ``transversal_blocks`` (``shard`` and
        ``start`` as there)."""
        for block in self.transversal_blocks(shard or (0, 1), start):
            for row in block.tolist():
                yield Permutation(tuple(row))

    def transversal_blocks(self, shard=(0, 1), start=0, size=10000):
        """Yield the lex-minimal coset representatives as (B, n) uint8
        image arrays, in lexicographic ("stream") order.

        A representative r is minimal iff for every chain level j the
        value r[j] is minimal over the fundamental orbit of j, i.e. r[x]
        exceeds r[j] for every level j < x whose orbit holds x.  The tree
        of valid image prefixes is expanded one position at a time, at
        most ``EXPAND_ROWS`` prefixes per step; the last ``SUFFIX``
        positions are filled at once from the orderings of the values
        left, so only the leaves a shard keeps are materialized.

        ``shard=(i, m)`` keeps only stream indices congruent to i modulo
        m; the m shards partition the stream.  The first ``start`` kept
        representatives are dropped, and every block but the last has
        exactly ``size`` rows.
        """
        shard_idx, shard_cnt = shard
        if not 0 <= shard_idx < shard_cnt:
            raise ValueError(
                "invalid shard %d/%d: need 0 <= i < m" % (shard_idx, shard_cnt)
            )
        if start < 0 or size < 1:
            raise ValueError("need start >= 0 and size >= 1")
        if self.n > 63:
            raise ValueError("transversal blocks need degree at most 63")
        return _rechunk(self._kept_leaves(shard_idx, shard_cnt, start), size)

    def _kept_leaves(self, shard_idx, shard_cnt, skip):
        """Yield runs of the representatives shard_idx/shard_cnt keeps,
        in stream order, after dropping the first ``skip`` of them."""
        n = self.n
        # constraints[x]: chain levels j < x whose orbit contains x.
        constraints = [[] for _ in range(n)]
        for j, level in enumerate(self._levels):
            for x in level.orbit:
                if x != j:
                    constraints[x].append(j)
        tail = min(SUFFIX, n)
        cut = n - tail
        orders = np.array(list(permutations(range(tail))), dtype=np.intp)
        values = np.arange(n, dtype=np.uint8)
        bits = np.left_shift(1, values, dtype=np.int64)
        counter = 0  # stream index of the next leaf
        # Pending (images, used-value bitmasks, depth), deepest on top.
        stack = [(np.zeros((1, n), np.uint8), np.zeros(1, np.int64), 0)]
        while stack:
            img, used, depth = stack.pop()
            if len(img) > EXPAND_ROWS:
                stack.append((img[EXPAND_ROWS:], used[EXPAND_ROWS:], depth))
                img, used = img[:EXPAND_ROWS], used[:EXPAND_ROWS]
            free = (used[:, None] & bits) == 0
            if depth < cut:
                if constraints[depth]:
                    low = _column_max(img, constraints[depth])
                    free &= values > low[:, None]
                rows, vals = np.nonzero(free)
                child = img[rows]
                child[:, depth] = vals
                stack.append((child, used[rows] | bits[vals], depth + 1))
                continue
            # Every ordering of the values left, lowest first, per prefix.
            tails = np.nonzero(free)[1].astype(np.uint8).reshape(-1, tail)
            tails = tails[:, orders]
            ok = np.ones(tails.shape[:2], dtype=bool)
            for t in range(tail):
                before = [j for j in constraints[cut + t] if j < cut]
                if before:
                    ok &= tails[:, :, t] > _column_max(img, before)[:, None]
                for j in constraints[cut + t][len(before) :]:
                    ok &= tails[:, :, t] > tails[:, :, j - cut]
            total = int(np.count_nonzero(ok))
            first = (shard_idx - counter) % shard_cnt
            counter += total
            kept = len(range(first, total, shard_cnt))
            if skip >= kept:
                skip -= kept
                continue
            rows, which = np.nonzero(ok)
            pick = slice(first + skip * shard_cnt, None, shard_cnt)
            skip = 0
            rows, which = rows[pick], which[pick]
            leaves = img[rows]
            leaves[:, cut:] = tails[rows, which]
            yield leaves
