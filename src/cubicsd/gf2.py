"""Packed-bitset linear algebra over GF(2).

Rows of binary matrices are stored as Python integers: bit i (LSB first)
holds the entry of column i.  Externally coordinates are numbered 1..n;
bit 0 corresponds to coordinate 1.  Codes are kept in reduced row-echelon
form so that two equal codes always compare bit-identical.

Each low-level job has one kernel here: ``span`` lists a row space,
``permute_word`` moves the bits of a word, and numpy's
``np.bitwise_count`` counts them.  ``coset_words`` is the one codeword
enumeration: it walks a code as cosets of a span of at most 16 rows, so
no enumeration holds more than 65536 words at once, and returns the
weight distribution with the words of the two lowest nonzero weights in
that one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Exhaustive enumeration is the only codeword engine here; 2^28 words is
# the largest job we accept.
MAX_ENUM_DIM = 28


def rref(rows, n_cols):
    """Reduced row-echelon form over GF(2).

    Args:
        rows: iterable of int bit-rows.
        n_cols: number of columns.

    Returns:
        (rows, pivots) where rows is a tuple of the nonzero RREF rows and
        pivots the strictly increasing list of pivot column indices.
    """
    work = [int(r) for r in rows]
    out = []
    pivots = []
    for col in range(n_cols):
        mask = 1 << col
        src = None
        for i, r in enumerate(work):
            if r & mask:
                src = i
                break
        if src is None:
            continue
        piv = work.pop(src)
        work = [r ^ piv if r & mask else r for r in work]
        out = [r ^ piv if r & mask else r for r in out]
        out.append(piv)
        pivots.append(col)
    return tuple(out), pivots


@dataclass(frozen=True)
class BinaryMatrix:
    """A binary matrix: ordered bit-rows of common width."""

    n_cols: int
    rows: tuple

    def __post_init__(self):
        limit = 1 << self.n_cols
        for r in self.rows:
            if not 0 <= r < limit:
                raise ValueError("row has bits beyond column count")

    @classmethod
    def parse(cls, text):
        """Parse the one-row-per-line '0'/'1' text format."""
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty matrix text")
        n = len(lines[0])
        rows = []
        for ln in lines:
            if len(ln) != n:
                raise ValueError("ragged rows in matrix text")
            if set(ln) - {"0", "1"}:
                raise ValueError("matrix text must contain only 0/1")
            rows.append(int(ln[::-1], 2))
        return cls(n, tuple(rows))

    def to_text(self):
        return "\n".join(
            format(r, "0%db" % self.n_cols)[::-1] for r in self.rows
        )

    def rank(self):
        return len(rref(self.rows, self.n_cols)[0])

    def rref(self):
        return BinaryMatrix(self.n_cols, rref(self.rows, self.n_cols)[0])


def weight(word):
    """Hamming weight of a bit-row."""
    return int(word).bit_count()


def span(rows):
    """All 2^k XOR combinations of the k rows on the last axis, in binary
    counting order: combination c takes the rows at the set bits of c."""
    rows = np.asarray(rows)
    k = rows.shape[-1]
    out = np.zeros(rows.shape[:-1] + (1 << k,), dtype=rows.dtype)
    size = 1
    for j in range(k):
        out[..., size : 2 * size] = out[..., :size] ^ rows[..., j : j + 1]
        size *= 2
    return out


def coset_words(sub, leaders, n):
    """(weight distribution, words of the lowest nonzero weight, words of
    the next one) of the words s ^ l, s in ``sub`` and l in ``leaders``,
    in one pass, one coset sub ^ l at a time.

    ``sub`` is a span of at most 2^16 words and ``leaders`` the span of
    the remaining rows.  Each coset keeps its nonzero words up to the
    second-lowest nonzero weight counted so far (all of them while fewer
    than two are counted); that cut only falls, so a last filter leaves
    the two lowest classes.  A class the code lacks is empty.  The words
    of a class come in leader order, each coset in ``sub`` order.
    """
    counts = np.zeros(n + 1, dtype=np.int64)
    kept = []
    for lead in leaders:
        coset = sub ^ lead
        wts = np.bitwise_count(coset)
        counts += np.bincount(wts, minlength=n + 1)
        present = np.flatnonzero(counts[1:]) + 1
        # A Python int keeps the comparisons in uint8 (~25% of a pass).
        cut = int(present[1]) if len(present) > 1 else n
        kept.append(coset[(wts > 0) & (wts <= cut)])
    words = np.concatenate(kept)
    wts = np.bitwise_count(words)
    # Weight 0 stands in for a missing class: no kept word has it.
    low, high = [*np.flatnonzero(counts[1:])[:2] + 1, 0, 0][:2]
    return counts, words[wts == low], words[wts == high]


def permute_word(word, img):
    """Move bit i of ``word`` to position img[i]."""
    out = 0
    w = int(word)
    while w:
        low = w & -w
        out |= 1 << img[low.bit_length() - 1]
        w ^= low
    return out


@dataclass(frozen=True)
class BinaryCode:
    """A binary [n, k] linear code, stored as an RREF generator matrix.

    Equality of codes is equality of the stored rows: the RREF is a
    canonical form, so identical codes always hash and compare equal.
    """

    n: int
    rows: tuple

    @classmethod
    def from_rows(cls, rows, n):
        reduced, _ = rref(rows, n)
        return cls(n, reduced)

    @classmethod
    def from_matrix(cls, m):
        return cls.from_rows(m.rows, m.n_cols)

    @classmethod
    def parse(cls, text):
        return cls.from_matrix(BinaryMatrix.parse(text))

    @property
    def k(self):
        return len(self.rows)

    @cached_property
    def pivots(self):
        return rref(self.rows, self.n)[1]

    @property
    def gen(self):
        return BinaryMatrix(self.n, self.rows)

    def contains(self, word):
        """Membership test by reduction against the stored RREF."""
        if not 0 <= word < (1 << self.n):
            raise ValueError("word length does not match code length")
        w = int(word)
        for row, piv in zip(self.rows, self.pivots):
            if w & (1 << piv):
                w ^= row
        return w == 0

    def dual(self):
        """The [n, n-k] dual code."""
        pivset = set(self.pivots)
        free = [c for c in range(self.n) if c not in pivset]
        dual_rows = []
        for f in free:
            v = 1 << f
            fmask = 1 << f
            for row, piv in zip(self.rows, self.pivots):
                if row & fmask:
                    v |= 1 << piv
            dual_rows.append(v)
        return BinaryCode.from_rows(dual_rows, self.n)

    def is_self_dual(self):
        return 2 * self.k == self.n and self.dual() == self

    def permuted(self, img):
        """The code with coordinate i moved to img[i]."""
        return BinaryCode.from_rows(
            [permute_word(r, img) for r in self.rows], self.n
        )

    def low_weight_words(self):
        """(weight distribution, words of the lowest nonzero weight,
        words of the next one) by one full enumeration, as cosets of the
        span of the first 16 RREF rows."""
        if self.k > MAX_ENUM_DIM:
            raise ValueError("enumeration budget exceeded")
        if self.n > 63:
            raise ValueError("codeword enumeration limited to n <= 63")
        rows = np.array(self.rows, dtype=np.uint64)
        return coset_words(span(rows[:16]), span(rows[16:]), self.n)

    def weight_enumerator(self):
        """Exact weight distribution (A_0, ..., A_n) by full enumeration."""
        return self.low_weight_words()[0]

    def min_distance(self):
        """Exact minimum distance, from the weight distribution."""
        if self.k == 0:
            raise ValueError("empty code")
        return int(np.flatnonzero(self.weight_enumerator()[1:])[0]) + 1
