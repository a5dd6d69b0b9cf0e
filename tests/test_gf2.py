import random
from itertools import combinations

import numpy as np
import pytest

from cubicsd import gf2
from cubicsd.gf2 import BinaryCode, BinaryMatrix


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


def test_enumeration_budget():
    big = BinaryCode(40, tuple(1 << i for i in range(gf2.MAX_ENUM_DIM + 1)))
    with pytest.raises(ValueError, match="budget"):
        big.weight_enumerator()
