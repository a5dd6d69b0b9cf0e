"""Packed-bitset linear algebra over GF(2).

Rows of binary matrices are stored as Python integers: bit i (LSB first)
holds the entry of column i.  Externally coordinates are numbered 1..n;
bit 0 corresponds to coordinate 1.  Codes are kept in reduced row-echelon
form so that two equal codes always compare bit-identical.

Each low-level job has one kernel here: ``span`` lists a row space,
``permute_word`` moves the bits of one word (``BinaryCode.permuted``
moves the columns of a whole generator matrix at once), and numpy's
``np.bitwise_count`` counts them.  ``BinaryCode.low_weight_words`` is
the one entry point for a code's weight distribution and its lightest
words, and ``lightest_words`` lists just those words, as canonical
labelling needs.  A self-dual code takes one walk over two disjoint
information sets P and Q (the Brouwer-Zimmermann idea): it combines
0, 1, 2, ... rows of the generators systematic on P and on Q until
every word it returns, and every word of weight at most t, is listed.
``lightest_words`` asks for t = 0, ``low_weight_words`` for the
A_0..A_t from which Gleason's theorem (``gleason_distribution``) fixes
the rest of the distribution: t = n/4 - 2 for a Type I code when
8 | n, as its shadow fixes a_(n/8), and 2*floor(n/8) otherwise.  Every
other code takes ``coset_words``: exact enumeration as cosets of a span
of at most 16 rows, so it never holds more than 65536 words at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import comb

import numpy as np

# The largest dimension of a code that is not self-dual that
# low_weight_words and lightest_words accept: 2^28 words for the exact
# engine, which every such code takes.
MAX_ENUM_DIM = 28


def rref(rows, n_cols):
    """Reduced row-echelon form over GF(2).

    Each row is reduced against the rows kept so far, keyed by their
    lowest set bit, until its own lowest bit is new; then each kept row,
    from the highest pivot down, is cleared at the other pivots.  No
    column is scanned.

    Args:
        rows: iterable of int bit-rows, each below 2**n_cols.
        n_cols: number of columns.

    Returns:
        (rows, pivots) where rows is a tuple of the nonzero RREF rows and
        pivots the strictly increasing list of pivot column indices.
    """
    kept = {}  # lowest set bit -> row
    for r in rows:
        r = int(r)
        while r:
            low = r & -r
            if low not in kept:
                kept[low] = r
                break
            r ^= kept[low]
    lows = sorted(kept)
    pivot_bits = sum(lows)
    for low in reversed(lows):
        r = kept[low]
        others = (r & pivot_bits) ^ low
        while others:
            bit = others & -others
            r ^= kept[bit]
            others ^= bit
        kept[low] = r
    return tuple(kept[low] for low in lows), [
        low.bit_length() - 1 for low in lows
    ]


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
    the two lowest classes.  A class the code lacks is empty.
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


def information_sets(code):
    """(P rows, Q rows, P mask) of a self-dual code, or None for any
    other code: its generator rows systematic on the RREF pivots P and
    those systematic on the other columns Q, as uint64 arrays, and the
    bit mask of P.

    With G = [I | A] on (P, Q), G G^T = 0 gives A A^T = I, so Q is an
    information set too, and A^T G = [A^T | I] is systematic on it.
    Its rows are ``BinaryCode.free_column_rows``, the dual's generator,
    so they are codewords only when the code is self-dual.  This is the
    one self-duality test of ``low_weight_words`` and ``lightest_words``.
    """
    if code.n > 63:
        raise ValueError("codeword enumeration limited to n <= 63")
    if not code.is_self_dual():
        return None
    return (
        np.array(code.rows, dtype=np.uint64),
        np.array(code.free_column_rows(), dtype=np.uint64),
        sum(1 << p for p in code.pivots),
    )


def _half_spans(p_rows, q_rows):
    """For the P and for the Q rows, the XOR combinations of either half
    of them, grouped by how many rows they combine: entry a of a half's
    list holds its a-row combinations.  The four halves are spanned in
    one call, the shorter first half padded with a zero row; a stable
    sort of the combination numbers by popcount groups each half, whose
    own combinations are the numbers below 2^size."""
    k = len(p_rows)
    sizes = (k // 2, k - k // 2)
    rows = np.stack([p_rows, q_rows])
    halves = np.zeros((2, 2, sizes[1]), dtype=rows.dtype)
    halves[:, 0, : sizes[0]] = rows[:, : sizes[0]]
    halves[:, 1] = rows[:, sizes[0] :]
    index = np.arange(1 << sizes[1])
    order = np.argsort(np.bitwise_count(index), kind="stable")
    out = []
    for side in span(halves):
        groups = []
        for words, size in zip(side, sizes):
            words = words[order[order < 1 << size]]
            ends = list(accumulate(comb(size, a) for a in range(size + 1)))
            groups.append([words[a:b] for a, b in zip([0, *ends], ends)])
        out.append(tuple(groups))
    return out


def _light_combinations(halves, a, t):
    """The XORs of exactly a rows that weigh at most t, from the rows'
    ``_half_spans``: per split of a, the broadcast XORs of the i-row
    combinations of the first half with the (a - i)-row ones of the
    second, all splits into one buffer, filtered at once."""
    left, right = halves
    splits = range(max(0, a + 1 - len(right)), min(a, len(left) - 1) + 1)
    shapes = [(len(left[i]), len(right[a - i])) for i in splits]
    words = np.empty(sum(x * y for x, y in shapes), dtype=left[0].dtype)
    lo = 0
    for i, (x, y) in zip(splits, shapes):
        out = words[lo : lo + x * y].reshape(x, y)
        np.bitwise_xor(left[i][:, None], right[a - i], out=out)
        lo += x * y
    return words[np.bitwise_count(words) <= t]


def _walk(sets, t):
    """(A_0..A_t, words of the lowest nonzero weight, words of the next
    one) of a self-dual code, from its ``information_sets``; each class
    sorted ascending, and a class the code lacks is empty.  The next
    class is None when the lowest holds at least n > 0 words.  The
    information sets of any other code are None, which raises
    ValueError.

    Levels 0, 1, 2, ... of the P- and of the Q-systematic generator
    are combined alternately, P first.  After levels 0..r_P on P and
    0..r_Q on Q, a word not yet listed has more than r_P ones on P and
    more than r_Q on Q, so it weighs at least r_P + r_Q + 2 (the
    Brouwer-Zimmermann bound).  The walk stops once that bound passes t
    and the classes it returns: a [48,24,10] code stops at r_P = 5 and
    r_Q = 4 for t = 0 and for t = 10, and q48 at 6 and 5 for t = 12.
    Words heavier than t and than the second-lowest weight listed so far
    are dropped, and once the P levels alone have listed n words of the
    lowest weight so far, so are words heavier than t and than that
    weight: P-level words are distinct, so that class will hold at
    least n words and no next class is returned.  Should a lighter
    class turn up, the old lowest becomes the next class, and it was
    kept whole.  A word with at most r_P ones on P is listed by both
    passes, so the Q words are kept only with more than r_P ones on P.
    """
    if sets is None:
        raise ValueError("information sets P and Q need a self-dual code")
    p_rows, q_rows, p_mask = sets
    k = len(p_rows)
    n = 2 * k
    halves = _half_spans(p_rows, q_rows)
    levels = ([], [])  # the words listed per level, on P and on Q
    seen = np.zeros(n + 1, dtype=bool)  # the weights listed
    on_p = np.zeros(n + 1, dtype=np.int64)  # P-level words per weight
    cut = n
    while True:
        side = len(levels[0]) > len(levels[1])
        words = _light_combinations(halves[side], len(levels[side]), cut)
        levels[side].append(words)
        if cut > t:
            # Once two weights up to t are seen, the cut stays at t, and
            # those two pass the test on seen below once the bound does.
            wts = np.bitwise_count(words)
            seen[wts] = True
            if not side:
                on_p += np.bincount(wts, minlength=n + 1)
            present = np.flatnonzero(seen[1:]) + 1
            if len(present) and on_p[present[0]] >= n:
                cut = max(t, int(present[0]))
            elif len(present) > 1:
                cut = max(t, int(present[1]))
        r_p, r_q = len(levels[0]) - 1, len(levels[1]) - 1
        # All 2^k words are listed once P has all its levels.
        complete = n + 1 if r_p == k else r_p + r_q + 2
        if complete <= t or (complete <= n and not seen[1:complete].any()):
            continue
        on_q = np.concatenate([q_rows[:0], *levels[1]])
        on_q = on_q[np.bitwise_count(on_q & np.uint64(p_mask)) > r_p]
        words = np.concatenate([*levels[0], on_q])
        wts = np.bitwise_count(words)
        counts = np.bincount(wts, minlength=n + 1)
        light = np.flatnonzero(counts[1:complete]) + 1
        # Weight n + 1 stands in for a missing class: no word has it.
        low_w, high_w = [*light, n + 1, n + 1][:2]
        low = np.sort(words[wts == low_w])
        if 0 < n <= len(low):
            return counts[: t + 1], low, None
        if len(light) > 1 or complete > n:
            return counts[: t + 1], low, np.sort(words[wts == high_w])


def lightest_words(code):
    """(words of the lowest nonzero weight, words of the next one), each
    class sorted ascending; a class the code lacks is empty.  A
    self-dual code takes ``_walk`` at t = 0, so its next class is None
    when the lowest holds at least n > 0 words; any other code takes
    ``coset_words``."""
    sets = information_sets(code)
    if sets is None:
        return _coset_classes(code)[1:]
    return _walk(sets, 0)[1:]


def _coset_classes(code):
    """``coset_words`` of a code that is not self-dual, as cosets of the
    span of its first 16 RREF rows, with both classes sorted."""
    if code.k > MAX_ENUM_DIM:
        raise ValueError("enumeration budget exceeded")
    rows = np.array(code.rows, dtype=np.uint64)
    counts, low, high = coset_words(span(rows[:16]), span(rows[16:]), code.n)
    return counts, np.sort(low), np.sort(high)


def _gleason_t(n, type_i):
    """The t whose A_0..A_t fix the weight distribution of a self-dual
    [n, n/2] code in ``gleason_distribution``: n/4 - 2 for a Type I code
    when 8 | n, and 2*floor(n/8) otherwise."""
    return 2 * (n // 8) - 2 * (type_i and n % 8 == 0)


def gleason_distribution(head, n, type_i=False):
    """The weight distribution A_0..A_n of a self-dual [n, n/2] code from
    its A_0..A_t (Gleason's theorem; J. H. Conway and N. J. A. Sloane,
    IEEE-IT 36 (1990)), with ``type_i`` if the code has a word of weight
    2 mod 4.

    The enumerator is sum_j a_j g_j over j <= n/8, with
    g_j = (x^2+y^2)^(n/2-4j) (x^2 y^2 (x^2-y^2)^2)^j.  In u = y^2 and
    x = 1, g_j = u^j (1+u)^(n/2-4j) (1-u)^(2j) starts at u^j with
    coefficient 1, so a_j is A_2j less what g_0..g_(j-1) put there: a
    unitriangular solve in exact integers, from t = 2*floor(n/8).  The
    basis holds Type I and Type II codes alike.

    A Type I code's shadow, the words of the dual of its doubly-even
    subcode outside the code, has the enumerator W((x+y)/sqrt(2),
    i(x-y)/sqrt(2)), which takes g_j to (-1)^j 2^(n/2-6j) (xy)^(n/2-4j)
    (x^4-y^4)^(2j).  Only g_(n/8) has a weight-0 term there, and the
    shadow holds no zero word, so a_(n/8) = 0 when 8 | n, and t = n/4 - 2
    suffices.  A shorter head raises ValueError.
    """
    m = n // 2
    t = _gleason_t(n, type_i)
    if len(head) <= t:
        raise ValueError(
            "Gleason's theorem needs A_0..A_%d of a self-dual [%d, %d] "
            "code, got %d values" % (t, n, m, len(head))
        )
    total = [0] * (m + 1)
    for j in range(t // 2 + 1):
        a = int(head[2 * j]) - total[j]
        plus = [comb(m - 4 * j, i) for i in range(m - 4 * j + 1)]
        minus = [(-1) ** i * comb(2 * j, i) for i in range(2 * j + 1)]
        for i, p in enumerate(plus):
            for l, q in enumerate(minus):
                total[j + i + l] += a * p * q
    dist = np.zeros(n + 1, dtype=np.int64)
    dist[::2] = total
    return dist


def permute_word(word, img):
    """Move bit i of ``word`` to position img[i]."""
    out = 0
    w = int(word)
    while w:
        low = w & -w
        out |= 1 << img[low.bit_length() - 1]
        w ^= low
    return out


def _limbs(rows, n):
    """The bit-rows as a (len(rows), ceil(n/64)) uint64 array, least
    significant limb first."""
    size = 8 * -(-n // 64)
    raw = b"".join(int(r).to_bytes(size, "little") for r in rows)
    return np.frombuffer(raw, dtype="<u8").reshape(len(rows), size // 8)


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
        # The pivot of an RREF row is its lowest set bit.
        return [(r & -r).bit_length() - 1 for r in self.rows]

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

    def free_column_rows(self):
        """For each column f off the pivots, bit f plus the pivots of the
        rows that have f: a generator of the dual code, systematic on
        those columns."""
        raw = _limbs(self.rows, self.n).view(np.uint8)
        bits = np.unpackbits(raw, axis=1, count=self.n, bitorder="little")
        free = np.ones(self.n, dtype=bool)
        free[self.pivots] = False
        free = np.flatnonzero(free)
        out = np.zeros((len(free), self.n), dtype=np.uint8)
        out[:, self.pivots] = bits[:, free].T
        out[np.arange(len(free)), free] = 1
        packed = np.packbits(out, axis=1, bitorder="little")
        return [int.from_bytes(r.tobytes(), "little") for r in packed]

    def dual(self):
        """The [n, n-k] dual code."""
        return BinaryCode.from_rows(self.free_column_rows(), self.n)

    def is_self_dual(self):
        """k = n/2 and G G^T = 0: every two rows meet in an even number
        of ones."""
        if 2 * self.k != self.n:
            return False
        limbs = _limbs(self.rows, self.n)
        overlaps = np.bitwise_count(limbs[:, None] & limbs).sum(axis=2)
        return not (overlaps & 1).any()

    def permuted(self, img):
        """The code with coordinate i moved to img[i]."""
        raw = _limbs(self.rows, self.n).view(np.uint8)
        bits = np.unpackbits(raw, axis=1, count=self.n, bitorder="little")
        moved = np.zeros_like(bits)
        moved[:, img] = bits
        packed = np.packbits(moved, axis=1, bitorder="little")
        return BinaryCode.from_rows(
            [int.from_bytes(r.tobytes(), "little") for r in packed], self.n
        )

    def low_weight_words(self):
        """(weight distribution, words of the lowest nonzero weight,
        words of the next one), each class sorted ascending; a class the
        code lacks is empty.

        A self-dual code takes ``_walk`` up to the t that
        ``gleason_distribution`` needs: n/4 - 2 for a Type I code (some
        RREF row weighs 2 mod 4) when 8 | n, and 2*floor(n/8) otherwise.
        Its next class is None when the lowest holds at least n > 0
        words.  Any other code is enumerated in full by ``coset_words``,
        with both classes listed."""
        sets = information_sets(self)
        if sets is None:
            return _coset_classes(self)
        type_i = any(r.bit_count() % 4 == 2 for r in self.rows)
        head, low, high = _walk(sets, _gleason_t(self.n, type_i))
        return gleason_distribution(head, self.n, type_i), low, high

    def weight_enumerator(self):
        """Exact weight distribution (A_0, ..., A_n)."""
        return self.low_weight_words()[0]

    def min_distance(self):
        """Exact minimum distance, from the weight distribution."""
        if self.k == 0:
            raise ValueError("empty code")
        return int(np.flatnonzero(self.weight_enumerator()[1:])[0]) + 1
