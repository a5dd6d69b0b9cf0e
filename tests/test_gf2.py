import random
from itertools import combinations
from math import comb

import numpy as np
import pytest

from cubicsd import cli, construct, dataset, gf2
from cubicsd.gf2 import BinaryCode, BinaryMatrix
from reference import (
    extended_qr,
    free_column_rows_loop,
    is_self_dual_loop,
    permuted_loop,
    rref_loop,
)


def brute_words(code):
    words = {0}
    for row in code.rows:
        words |= {w ^ row for w in words}
    return words


def test_rref_canonical():
    rows, pivots = gf2.rref([0b110, 0b011, 0b101], 3)
    assert pivots == [0, 1]
    assert len(rows) == 2
    # the reduced rows span the same space regardless of input order
    rows2, _ = gf2.rref([0b101, 0b110, 0b011], 3)
    assert rows == rows2


def test_rref_matches_the_column_loop():
    # Random row lists of every shape, with zero, repeated and dependent
    # rows, and permuted table codes, against Gauss-Jordan by columns.
    rnd = random.Random(13)
    cases = []
    for _ in range(300):
        n = rnd.randint(1, 70)
        rows = [rnd.getrandbits(n) for _ in range(rnd.randint(0, n + 3))]
        rows += [0, rows[0] ^ rows[-1]] if rows else [0]
        rnd.shuffle(rows)
        cases.append((rows, n))
    for entry in dataset.table_entries()[::40]:
        img = list(range(48))
        rnd.shuffle(img)
        rows = construct.build_table_code(entry).rows
        cases.append(([gf2.permute_word(r, img) for r in rows], 48))
    for rows, n in cases:
        assert gf2.rref(rows, n) == rref_loop(rows, n)


def test_rref_random_spans_agree():
    rnd = random.Random(1)
    for _ in range(100):
        n = rnd.randint(2, 10)
        rows = [rnd.randrange(1 << n) for _ in range(rnd.randint(1, 5))]
        a = BinaryCode.from_rows(rows, n)
        rnd.shuffle(rows)
        rows.append(rows[0] ^ (rows[1] if len(rows) > 1 else 0))
        b = BinaryCode.from_rows(rows, n)
        assert a == b
        assert brute_words(a) == brute_words(b)


def test_matrix_parse_roundtrip():
    text = "1010\n0110"
    m = BinaryMatrix.parse(text)
    assert m.n_cols == 4
    # first character is coordinate 1, i.e. bit 0
    assert m.rows == (0b0101, 0b0110)
    assert m.to_text() == text


def test_matrix_parse_errors():
    with pytest.raises(ValueError):
        BinaryMatrix.parse("101\n10")
    with pytest.raises(ValueError):
        BinaryMatrix.parse("10x")
    with pytest.raises(ValueError):
        BinaryMatrix.parse("   \n ")
    with pytest.raises(ValueError):
        BinaryMatrix(2, (0b100,))


def test_contains():
    code = BinaryCode.from_rows([0b0011, 0b1100], 4)
    assert code.contains(0)
    assert code.contains(0b1111)
    assert not code.contains(0b0001)
    with pytest.raises(ValueError):
        code.contains(1 << 4)


def test_dual_dimensions_and_orthogonality():
    rnd = random.Random(2)
    for _ in range(50):
        n = rnd.randint(2, 12)
        code = BinaryCode.from_rows(
            [rnd.randrange(1 << n) for _ in range(rnd.randint(1, n))], n
        )
        dual = code.dual()
        assert code.k + dual.k == n
        for r in code.rows:
            for s in dual.rows:
                assert gf2.weight(r & s) % 2 == 0
        assert dual.dual() == code


def test_self_dual_detection():
    # i2 + i2: the smallest self-dual code of length 4
    code = BinaryCode.from_rows([0b0011, 0b1100], 4)
    assert code.is_self_dual()
    assert not BinaryCode.from_rows([0b0111], 4).is_self_dual()


def test_weight_enumerator_small():
    code = BinaryCode.from_rows([0b0011, 0b1100], 4)
    we = code.weight_enumerator()
    assert list(we) == [1, 0, 2, 0, 1]


def test_weight_enumerator_matches_brute():
    rnd = random.Random(3)
    for _ in range(30):
        n = rnd.randint(3, 12)
        code = BinaryCode.from_rows(
            [rnd.randrange(1, 1 << n) for _ in range(rnd.randint(1, 6))], n
        )
        we = code.weight_enumerator()
        brute = [0] * (n + 1)
        for w in brute_words(code):
            brute[gf2.weight(w)] += 1
        assert list(we) == brute


def test_coset_enumeration_matches_whole_span():
    # The 16-row split: codes of fewer, exactly 16 and more rows against
    # one gf2.span of all their rows, and the [7,3] simplex code, whose
    # nonzero words all weigh 4.
    rnd = random.Random(5)
    n = 36
    codes = []
    for k in (0, 1, 15, 16, 17, 20):
        code = BinaryCode(n, ())
        while code.k < k:
            code = BinaryCode.from_rows(
                list(code.rows) + [rnd.randrange(1, 1 << n)], n
            )
        codes.append(code)
    # Row i of the simplex code has bit j set when j + 1 has bit i set.
    simplex = [0b1010101, 0b1100110, 0b1111000]
    codes.append(BinaryCode.from_rows(simplex, 7))
    for code in codes:
        words = gf2.span(np.array(code.rows, dtype=np.uint64))
        wts = np.bitwise_count(words)
        ref = np.bincount(wts, minlength=code.n + 1)
        counts, *classes = code.low_weight_words()
        assert np.array_equal(counts, ref)
        assert np.array_equal(code.weight_enumerator(), ref)
        lows = list(np.flatnonzero(ref[1:])[:2] + 1)
        expect = [words[wts == w] for w in lows]
        expect += [words[:0]] * (2 - len(lows))
        for got, want in zip(classes, expect):
            assert got.dtype == np.uint64
            assert np.array_equal(np.sort(got), np.sort(want))
    assert [len(c) for c in codes[-1].low_weight_words()[1:]] == [7, 0]
    assert [len(c) for c in codes[0].low_weight_words()[1:]] == [0, 0]


def test_min_distance():
    code = BinaryCode.from_rows([0b0111, 0b1011], 4)
    assert code.min_distance() == 2
    with pytest.raises(ValueError):
        BinaryCode(4, ()).min_distance()


def test_permuted_preserves_weights():
    rnd = random.Random(4)
    for _ in range(30):
        n = rnd.randint(3, 10)
        code = BinaryCode.from_rows(
            [rnd.randrange(1, 1 << n) for _ in range(3)], n
        )
        img = list(range(n))
        rnd.shuffle(img)
        moved = code.permuted(img)
        assert moved.k == code.k
        assert list(moved.weight_enumerator()) == list(
            code.weight_enumerator()
        )


def test_permute_word():
    assert gf2.permute_word(0b011, [2, 0, 1]) == 0b101


def test_is_self_dual_and_permuted_match_the_loops():
    # Random codes of every length up to 64 and one past it, of random
    # dimension down to k = 0, with self-dual ones and self-dual ones
    # with one bit flipped among them, against the Python loops
    # (free_column_rows, which reads the pivots, only on RREF rows).
    rnd = random.Random(12)
    for n in [*range(1, 65), 100]:
        codes = [BinaryCode(n, ())]
        for _ in range(4):
            k = rnd.randint(0, n)
            codes.append(
                BinaryCode.from_rows([rnd.getrandbits(n) for _ in range(k)], n)
            )
        if n % 2 == 0:
            dual = random_self_dual(rnd, n)
            rows = list(dual.rows)
            rows[rnd.randrange(len(rows))] ^= 1 << rnd.randrange(n)
            codes += [dual, BinaryCode(n, tuple(rows))]
        for code in codes:
            assert code.is_self_dual() == is_self_dual_loop(code)
            img = list(range(n))
            rnd.shuffle(img)
            assert code.permuted(img) == permuted_loop(code, img)
            if code == BinaryCode.from_rows(code.rows, n):  # in RREF
                assert code.free_column_rows() == free_column_rows_loop(code)
        if n % 2 == 0:
            assert codes[-2].is_self_dual() and not codes[-1].is_self_dual()


def test_enumeration_budget():
    big = BinaryCode(40, tuple(1 << i for i in range(gf2.MAX_ENUM_DIM + 1)))
    with pytest.raises(ValueError, match="budget"):
        big.weight_enumerator()


# ---------------------------------------------------------------------------
# The information-set walk and Gleason's theorem against exact enumeration


def exact_words(code):
    """The exact engine's answer, classes sorted."""
    rows = np.array(code.rows, dtype=np.uint64)
    counts, low, high = gf2.coset_words(
        gf2.span(rows[:16]), gf2.span(rows[16:]), code.n
    )
    return counts, np.sort(low), np.sort(high)


def kernel_spies(monkeypatch):
    """Count the calls of the information-set walk and of the exact
    engine."""
    calls = {"_walk": 0, "coset_words": 0}
    for name in calls:
        kernel = getattr(gf2, name)

        def counted(*args, _name=name, _kernel=kernel):
            calls[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(gf2, name, counted)
    return calls


def test_information_sets_match_exact_enumeration_on_table_codes(monkeypatch):
    entries = dataset.table_entries()
    rnd = random.Random(23)
    codes = []
    for index in rnd.sample(range(len(entries)), 20):
        img = list(range(48))
        rnd.shuffle(img)
        codes.append(construct.build_table_code(entries[index]).permuted(img))
    # The empty code, which is self-dual, and a code that is not: both
    # classes are arrays, never None.
    codes += [BinaryCode(0, ()), BinaryCode.from_rows([0b011, 0b110], 3)]
    sizes = []
    for code in codes:
        calls = kernel_spies(monkeypatch)
        got = code.low_weight_words()
        walked = int(code.is_self_dual())
        assert calls == {"_walk": walked, "coset_words": 1 - walked}
        monkeypatch.undo()
        sizes.append(assert_words_are_exact(code, *got))
    # The 768 weight-10 words color the coordinates alone, so the 8592
    # of weight 12 are counted, not listed.
    assert sizes == [(768, None)] * 20 + [(0, 0), (3, 0)]


def test_information_sets_on_a_code_full_of_light_words(monkeypatch):
    # i2^24: C(24, j) words of weight 2j, all 190051 of weight <= 12 are
    # reached from P alone.
    code = BinaryCode.from_rows([3 << 2 * i for i in range(24)], 48)
    calls = kernel_spies(monkeypatch)
    got = code.low_weight_words()
    assert calls == {"_walk": 1, "coset_words": 0}
    monkeypatch.undo()
    for g, w in zip(got, exact_words(code)):
        assert np.array_equal(g, w)
    assert [len(c) for c in got[1:]] == [24, 276]
    assert gf2._walk(gf2.information_sets(code), 12)[0].sum() == 190051


def random_self_dual(rnd, n):
    """A direct sum of [8,4,4] and [2,1,2] codes of length n, in random
    order, with the coordinates shuffled."""
    rows, at = [], 0
    while at < n:
        block, size = ((0b11,), 2)
        if n - at >= 8 and rnd.random() < 0.5:
            block, size = extended_qr(7).rows, 8
        rows += [r << at for r in block]
        at += size
    img = list(range(n))
    rnd.shuffle(img)
    return BinaryCode.from_rows(rows, n).permuted(img)


def random_neighbour(rnd, n, type_i, steps):
    """A seeded random self-dual code of length n, 8 | n, of Type I or
    Type II: ``steps`` steps of the neighbour walk C -> (C & x^perp) + <x>
    from i2^(n/2) or from e8^(n/8).  A Type I step takes an x of weight
    2 mod 4, which the neighbour holds; a Type II step takes an x of
    weight 0 mod 4, and the neighbour of a doubly-even code is then
    doubly-even too."""
    block = ((0b11,), 2) if type_i else (extended_qr(7).rows, 8)
    rows = [r << at for at in range(0, n, block[1]) for r in block[0]]
    code = BinaryCode.from_rows(rows, n)
    while steps:
        x = rnd.getrandbits(n)
        while x.bit_count() % 4 != 2 * type_i:
            x ^= 1 << rnd.randrange(n)
        odd = [r for r in code.rows if (r & x).bit_count() & 1]
        if not odd:  # x is in the code
            continue
        kept = [r ^ odd[0] if r in odd else r for r in code.rows]
        kept.remove(0)
        code = BinaryCode.from_rows(kept + [x], n)
        steps -= 1
    return code


@pytest.mark.parametrize("n", [8, 16, 24, 32, 40])
def test_low_weight_words_on_random_self_dual_codes_of_both_types(
    monkeypatch, n
):
    # A Type I code is walked to t = n/4 - 2 and a Type II code to
    # t = n/4, and both match the exact engine: the whole distribution,
    # the lowest class, and the next class or None.
    rnd = random.Random(200 + n)
    heads = []
    walk = gf2._walk

    def counted(sets, t):
        heads.append(t)
        return walk(sets, t)

    for type_i in [True] * 6 + [False] * 3:
        code = random_neighbour(rnd, n, type_i, rnd.randint(0, 2 * n))
        assert code.is_self_dual()
        weights = np.flatnonzero(exact_words(code)[0])
        assert (weights % 4 == 2).any() == type_i
        monkeypatch.setattr(gf2, "_walk", counted)
        got = code.low_weight_words()
        monkeypatch.undo()
        assert heads == [n // 4 - 2 * type_i]
        heads.clear()
        assert_words_are_exact(code, *got)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 14, 16, 18, 24])
def test_short_q_pass_matches_exact_enumeration(n):
    # The walk at t = 2*floor(n/8) counts A_0..A_t from few levels
    # (t = 0 below n = 8, 2 for n = 8..14, 4 for n = 16, 18 and 6 for
    # n = 24), and goes on only as far as the classes it returns need.
    rnd = random.Random(n)
    t = 2 * (n // 8)
    for _ in range(4):
        code = random_self_dual(rnd, n)
        assert code.is_self_dual()
        head, low, high = gf2._walk(gf2.information_sets(code), t)
        span = gf2.span(np.array(code.rows, dtype=np.uint64))
        want = np.bincount(np.bitwise_count(span), minlength=n + 1)
        assert np.array_equal(head, want[: t + 1])
        assert_classes_are_exact(code, low, high)


def assert_classes_are_exact(code, low, high, want=None):
    """Two classes against the two lowest of ``coset_words`` (or of
    ``want``, its answer): the lowest class, and the next one unless the
    code is self-dual and the lowest has at least n > 0 words (None
    then).  Returns their sizes."""
    _, want_low, want_high = exact_words(code) if want is None else want
    assert low.dtype == np.uint64 and np.array_equal(low, want_low)
    assert (high is None) == (code.is_self_dual() and 0 < code.n <= len(low))
    if high is not None:
        assert high.dtype == np.uint64 and np.array_equal(high, want_high)
    return len(low), None if high is None else len(high)


def assert_lightest_words_are_exact(code):
    return assert_classes_are_exact(code, *gf2.lightest_words(code))


def assert_words_are_exact(code, counts, low, high):
    """``low_weight_words``' answer against ``coset_words``: the weight
    distribution, then ``assert_classes_are_exact``."""
    want = exact_words(code)
    assert counts.dtype == want[0].dtype and np.array_equal(counts, want[0])
    return assert_classes_are_exact(code, low, high, want)


def test_lightest_words_match_exact_enumeration(monkeypatch):
    # Permuted table codes (768 words alone, combining at most 5 rows on
    # P and 4 on Q, for their weight distribution too), B (12 + 64),
    # i2^24 (24 + 276), e8, whose 14 weight-4 words form a 2-design, the
    # empty code and a code that is not self-dual.
    levels = []
    combinations = gf2._light_combinations

    def counted(halves, a, t):
        levels.append(a)
        return combinations(halves, a, t)

    entries = dataset.table_entries()
    rnd = random.Random(31)
    for index in rnd.sample(range(len(entries)), 8):
        img = list(range(48))
        rnd.shuffle(img)
        code = construct.build_table_code(entries[index]).permuted(img)
        monkeypatch.setattr(gf2, "_light_combinations", counted)
        assert assert_lightest_words_are_exact(code) == (768, None)
        monkeypatch.undo()
        # P levels 0..5 and Q levels 0..4, alternately, P first.
        assert levels == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5]
        levels.clear()
        # Up to t = 10 for low_weight_words, as the codes are Type I:
        # the same levels, 68406 combinations of the 24 rows.
        monkeypatch.setattr(gf2, "_light_combinations", counted)
        code.low_weight_words()
        monkeypatch.undo()
        assert levels == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5]
        assert sum(comb(24, a) for a in levels) == 68406
        levels.clear()
    base = BinaryCode.from_matrix(dataset.gb_matrix())
    assert assert_lightest_words_are_exact(base) == (12, 64)
    i2 = BinaryCode.from_rows([3 << 2 * i for i in range(24)], 48)
    assert assert_lightest_words_are_exact(i2) == (24, 276)
    assert assert_lightest_words_are_exact(extended_qr(7)) == (14, None)
    # The empty code has no class to find, and the walk still ends.
    assert assert_lightest_words_are_exact(BinaryCode(0, ())) == (0, 0)
    other = BinaryCode.from_rows([0b011, 0b110], 3)
    assert assert_lightest_words_are_exact(other) == (3, 0)


def test_the_walk_drops_the_next_class_once_p_fills_the_lowest(monkeypatch):
    # A table code's P levels list its first 48 weight-10 words by level
    # 3, so the cut falls from 12 to 10 there, at t = 0 and at t = 10: no
    # weight-12 word is kept after it, and the answer stays exact.
    cuts, heavy = [], []
    combinations = gf2._light_combinations

    def counted(halves, a, t):
        words = combinations(halves, a, t)
        cuts.append(t)
        heavy.append(int((np.bitwise_count(words) > 10).sum()))
        return words

    entries = dataset.table_entries()
    rnd = random.Random(37)
    for index in rnd.sample(range(len(entries)), 3):
        img = list(range(48))
        rnd.shuffle(img)
        code = construct.build_table_code(entries[index]).permuted(img)
        sets = gf2.information_sets(code)
        for t in (0, 10):
            monkeypatch.setattr(gf2, "_light_combinations", counted)
            head, low, high = gf2._walk(sets, t)
            monkeypatch.undo()
            assert cuts == sorted(cuts, reverse=True)
            fell = cuts.index(10)
            assert fell <= 7 and cuts[fell - 1] == 12
            assert sum(heavy[:fell]) > 0 and sum(heavy[fell:]) == 0
            assert head.tolist() == ([1] + [0] * 9 + [768])[: t + 1]
            assert_classes_are_exact(code, low, high)
            cuts.clear()
            heavy.clear()


@pytest.mark.parametrize("n", range(2, 25, 2))
def test_lightest_words_on_random_self_dual_codes(n):
    rnd = random.Random(100 + n)
    for _ in range(4):
        assert_lightest_words_are_exact(random_self_dual(rnd, n))


def test_an_error_inside_the_enumeration_is_raised(monkeypatch):
    # A self-dual code is not sent to the exact engine when the
    # information-set walk fails.
    def broken(*args):
        raise ValueError("broken kernel")

    monkeypatch.setattr(gf2, "_light_combinations", broken)
    with pytest.raises(ValueError, match="broken kernel"):
        extended_qr(23).low_weight_words()


@pytest.mark.parametrize(
    "p, expected",
    [
        (7, {0: 1, 4: 14, 8: 1}),
        (23, {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}),
        (47, {0: 1, 12: 17296, 16: 535095, 20: 3995376, 24: 7681680,
              28: 3995376, 32: 535095, 36: 17296, 48: 1}),
    ],
)
def test_codes_the_information_sets_cannot_settle_are_enumerated(
    monkeypatch, p, expected
):
    # All three are Type II, so t = 2*floor(n/8), and none has a nonzero
    # weight below t (none at all for [8,4,4] and [24,12,8], only 12 for
    # q48), so the information sets up to t alone cannot settle their
    # lowest class: the walk goes on past t until it is complete, and
    # never reaches the exact engine, whose counts and lowest class it
    # matches.  That class holds at least n words, so the next is None.
    code = extended_qr(p)
    assert code.is_self_dual()
    calls = kernel_spies(monkeypatch)
    counts, low, high = code.low_weight_words()
    assert calls == {"_walk": 1, "coset_words": 0}
    assert {w: int(c) for w, c in enumerate(counts) if c} == expected
    monkeypatch.undo()
    assert assert_words_are_exact(code, counts, low, high)[1] is None


def test_a_code_that_is_not_self_dual_is_enumerated(monkeypatch):
    rnd = random.Random(9)
    code = BinaryCode.from_rows(
        [rnd.randrange(1 << 48) for _ in range(24)], 48
    )
    assert code.k == 24 and not code.is_self_dual()
    calls = kernel_spies(monkeypatch)
    counts, low, high = code.low_weight_words()
    assert calls == {"_walk": 0, "coset_words": 1}
    assert counts.sum() == 2**24
    assert np.all(low[:-1] < low[1:]) and np.all(high[:-1] < high[1:])


def test_information_sets_are_systematic_and_refuse_other_codes():
    code = extended_qr(23)
    p_rows, q_rows, p_mask = gf2.information_sets(code)
    q_mask = ((1 << 24) - 1) ^ p_mask
    assert p_mask.bit_count() == 12
    for rows, mask in ((p_rows, p_mask), (q_rows, q_mask)):
        on_set = sorted(int(r) & mask for r in rows)
        assert on_set == sorted(1 << b for b in range(24) if mask >> b & 1)
        assert all(code.contains(int(r)) for r in rows)
    # Self-orthogonal but too small, and of dimension n/2 but not
    # self-orthogonal: either would yield rows outside the code.
    half = BinaryCode.from_rows(list(code.rows)[:11], 24)
    rnd = random.Random(10)
    other = BinaryCode.from_rows(
        [rnd.randrange(1 << 24) for _ in range(12)], 24
    )
    assert other.k == 12
    for bad in (half, other):
        assert gf2.information_sets(bad) is None
        with pytest.raises(ValueError, match="self-dual"):
            gf2._walk(gf2.information_sets(bad), 6)


def test_gleason_distribution():
    low = [0] * 13
    low[0], low[10], low[12] = 1, 768, 8592
    dist = gf2.gleason_distribution(low, 48)
    assert all(dist[w] == v for w, v in cli.EXPECTED_WE.items())
    assert dist.sum() == 2**24 and dist.dtype == np.int64
    golay = gf2.gleason_distribution([1, 0, 0, 0, 0, 0, 0], 24)
    assert {w: int(c) for w, c in enumerate(golay) if c} == {
        0: 1, 8: 759, 12: 2576, 16: 759, 24: 1
    }
    low = [0] * 13
    low[0], low[12] = 1, 17296
    q48 = gf2.gleason_distribution(low, 48)
    assert (q48[12], q48[16], q48[20]) == (17296, 535095, 3995376)
    # A Type I [48,24] code's shadow fixes a_6 = 0, so A_0..A_10 alone
    # give the rest: 768 gives the table codes' A_12 (8592), and 704
    # Conway and Sloane's other [48,24,10] enumerator.
    for a10, a12_to_16 in ((768, [8592, 57600, 267831]),
                           (704, [8976, 56896, 267575])):
        head = [0] * 11
        head[0], head[10] = 1, a10
        dist = gf2.gleason_distribution(head, 48, type_i=True)
        assert list(dist[12:17:2]) == a12_to_16
        assert dist.sum() == 2**24


def test_gleason_distribution_names_the_head_it_needs():
    # 2*floor(n/8) for a Type II code and for a Type I code unless 8 | n,
    # where n/4 - 2 suffices.
    for n, type_i, t in ((48, False, 12), (48, True, 10), (42, True, 10),
                         (8, True, 0), (8, False, 2)):
        head = [1] + [0] * t
        gf2.gleason_distribution(head, n, type_i)
        with pytest.raises(ValueError, match=r"needs A_0\.\.A_%d " % t):
            gf2.gleason_distribution(head[:-1], n, type_i)
