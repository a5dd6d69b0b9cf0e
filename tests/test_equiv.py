import dataclasses
import gc
import os
import random
import time
import tracemalloc
import weakref
from itertools import permutations
from math import factorial
from multiprocessing import get_context

import numpy as np
import pytest

from cubicsd import construct, dataset, equiv, gf2, search
from cubicsd.gf2 import BinaryCode
from reference import (
    brute_force_isomorphism,
    co_matrix_gather,
    extended_qr,
    refine_unique,
)


def random_code(rnd, n, k):
    return BinaryCode.from_rows(
        [rnd.randrange(1, 1 << n) for _ in range(k)], n
    )


def random_shuffle(rnd, code):
    img = list(range(code.n))
    rnd.shuffle(img)
    return code.permuted(img)


def test_invariant_is_permutation_invariant():
    rnd = random.Random(0)
    for _ in range(60):
        code = random_code(rnd, rnd.randint(4, 10), rnd.randint(1, 4))
        if code.k == 0:
            continue
        assert equiv.invariant(code) == equiv.invariant(
            random_shuffle(rnd, code)
        )


def test_find_isomorphism_on_shuffles():
    rnd = random.Random(1)
    for _ in range(40):
        code = random_code(rnd, rnd.randint(4, 12), rnd.randint(1, 5))
        if code.k == 0:
            continue
        other = random_shuffle(rnd, code)
        iso = equiv.find_isomorphism(code, other)
        assert iso is not None
        assert code.permuted(list(iso.img)) == other


def test_spec_example_pair():
    # the two [4,2] codes {0000,1100,0011,1111} and {0000,1010,0101,1111}
    # are equivalent by swapping coordinates 2 and 3
    a = BinaryCode.from_rows([0b0011, 0b1100], 4)
    b = BinaryCode.from_rows([0b0101, 0b1010], 4)
    iso = equiv.find_isomorphism(a, b)
    assert iso is not None
    assert a.permuted(list(iso.img)) == b


def test_agreement_with_brute_force():
    rnd = random.Random(2)
    agree = 0
    for _ in range(250):
        n = rnd.randint(4, 8)
        k = rnd.randint(1, min(4, n))
        a = random_code(rnd, n, k)
        if a.k == 0:
            continue
        if rnd.random() < 0.5:
            b = random_shuffle(rnd, a)
        else:
            b = random_code(rnd, n, k)
            if b.k != a.k:
                continue
        bf = brute_force_isomorphism(a, b)
        ir = equiv.find_isomorphism(a, b)
        assert (bf is None) == (ir is None)
        # The canonical form is a complete invariant.
        assert (equiv.invariant(a) == equiv.invariant(b)) == (bf is not None)
        if ir is not None:
            assert a.permuted(list(ir.img)) == b
        agree += 1
    assert agree >= 200


def test_brute_force_matches_plain_loop():
    # The vectorised oracle returns the first permutation in
    # itertools.permutations order, as a loop over permuted codes does.
    rnd = random.Random(5)
    for _ in range(40):
        n = rnd.randint(3, 6)
        a = random_code(rnd, n, rnd.randint(1, 3))
        if rnd.random() < 0.5:
            b = random_shuffle(rnd, a)
        else:
            b = random_code(rnd, n, a.k)
        loop = next(
            (img for img in permutations(range(n)) if a.permuted(img) == b),
            None,
        )
        bf = brute_force_isomorphism(a, b)
        assert (bf is None) == (loop is None)
        if bf is not None:
            assert bf.img == loop


def test_brute_force_limits():
    big = BinaryCode.from_rows([1], 9)
    with pytest.raises(ValueError):
        brute_force_isomorphism(big, big)


def test_automorphism_group_vs_brute():
    rnd = random.Random(3)
    for _ in range(40):
        n = rnd.randint(4, 7)
        code = random_code(rnd, n, rnd.randint(1, 3))
        if code.k == 0:
            continue
        group = equiv.automorphism_group(code)
        brute = sum(
            1
            for img in permutations(range(n))
            if code.permuted(img) == code
        )
        assert group.order() == brute
        assert all(
            code.permuted(list(g.img)) == code for g in group.generators
        )


def test_repetition_code_automorphisms():
    # |Aut| = n!: a walk over every leaf of the search tree took minutes
    # at n = 9; the pruned traversal finds n - 1 generators.
    for n in range(5, 10):
        code = BinaryCode.from_rows([(1 << n) - 1], n)
        group = equiv.automorphism_group(code)
        assert group.order() == factorial(n)
        assert all(
            code.permuted(list(g.img)) == code for g in group.generators
        )


def test_incomplete_generators_raise(monkeypatch):
    code = BinaryCode.from_rows([0b11111], 5)
    data = equiv.code_data(code)
    assert equiv.automorphism_group(code).order() == data.aut_order == 120
    # Each of the found transpositions is needed to generate S_5.
    short = dataclasses.replace(data, generators=data.generators[1:])
    monkeypatch.setitem(code.__dict__, equiv._DATA_ATTR, short)
    with pytest.raises(RuntimeError):
        equiv.automorphism_group(code)


def test_automorphism_group_empty_code():
    with pytest.raises(ValueError):
        equiv.automorphism_group(BinaryCode(4, ()))


def test_partition_classes():
    rnd = random.Random(4)
    a = random_code(rnd, 8, 3)
    b = random_code(rnd, 8, 3)
    while equiv.are_equivalent(a, b):
        b = random_code(rnd, 8, 3)
    codes = [a, random_shuffle(rnd, a), b, random_shuffle(rnd, b), a]
    classes = equiv.partition_classes(codes)
    assert sorted(map(sorted, classes)) == [[0, 1, 4], [2, 3]]


def test_partition_classes_order_independent():
    rnd = random.Random(5)
    codes = [random_code(rnd, 7, 2) for _ in range(6)]
    codes += [random_shuffle(rnd, c) for c in codes[:3]]
    classes = equiv.partition_classes(codes)
    # permuting the input list permutes indices but not the grouping
    order = list(range(len(codes)))
    rnd.shuffle(order)
    shuffled_classes = equiv.partition_classes([codes[i] for i in order])
    regrouped = sorted(
        sorted(order[i] for i in members) for members in shuffled_classes
    )
    assert regrouped == sorted(sorted(m) for m in classes)


def test_table_codes_have_distinct_canonical_forms(full_verification):
    codes = full_verification["codes"]
    assert len({equiv.invariant(code) for code in codes}) == 264
    rnd = random.Random(9)
    for code in codes[::11]:
        other = random_shuffle(rnd, code)
        assert equiv.invariant(other) == equiv.invariant(code)
        iso = equiv.find_isomorphism(code, other)
        assert code.permuted(list(iso.img)) == other


def test_code_data_is_freed_with_the_code():
    code = random_code(random.Random(6), 8, 3)
    ref = weakref.ref(equiv.code_data(code))
    assert ref() is not None
    del code
    gc.collect()
    assert ref() is None


def _with_code_data(code):
    equiv.code_data(code)
    return code


def test_code_data_travels_with_pickled_code(monkeypatch):
    rnd = random.Random(7)
    code = random_code(rnd, 10, 4)
    other = random_shuffle(rnd, code)
    assert other != code
    expected = equiv.invariant(other)
    with get_context("fork").Pool(1) as pool:
        back = pool.apply_async(_with_code_data, (code,)).get(timeout=60)
    assert back == code

    def no_enumeration(self):
        raise AssertionError("code data was enumerated again")

    monkeypatch.setattr(BinaryCode, "low_weight_words", no_enumeration)
    assert equiv.invariant(back) == expected


def _peak_code_data_bytes(code):
    tracemalloc.start()
    try:
        equiv.code_data(code)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generic_code_data_is_small():
    # A self-dual [48,24] code takes the information-set search: 68406
    # combinations, of which it keeps the words of weight <= 12.
    index = 30
    code = construct.build_table_code(dataset.table_entries()[index])
    assert _peak_code_data_bytes(code) < 4 * 2**20
    # Full enumeration of a [48,24] code that is not self-dual holds one
    # 65536-word coset at a time, not all 2^24 words (~272 MB when it
    # did).
    rnd = random.Random(8)
    other = random_code(rnd, 48, 24)
    assert other.k == 24 and not other.is_self_dual()
    assert _peak_code_data_bytes(other) < 32 * 2**20


def test_an_unknown_code_is_enumerated_once(monkeypatch):
    calls = []

    def spy(owner, name):
        inner = getattr(owner, name)

        def counted(*args):
            calls.append(name)
            return inner(*args)

        monkeypatch.setattr(owner, name, counted)

    spy(BinaryCode, "low_weight_words")
    spy(gf2, "lightest_words")
    spy(gf2, "information_set_words")
    spy(gf2, "coset_words")
    entry = dataset.table_entries()[0]
    equiv.code_data(construct.build_table_code(entry))
    assert calls == ["lightest_words"]
    calls.clear()
    engine = construct.DecomposedEngine(entry.table_id)
    search.register_engine_data(engine, entry.tau())
    assert calls == ["lightest_words"]


def test_table_codes_register_from_their_lightest_words_alone(
    full_verification, monkeypatch
):
    # Each code of the fixture was registered from the words of
    # low_weight_words; a fresh copy registered by code_data never calls
    # it and gets the same canonical labelling and automorphisms.
    def no_enumeration(self):
        raise AssertionError("code_data listed the weight distribution")

    for code in full_verification["codes"]:
        want = equiv.code_data(code)
        fresh = BinaryCode(code.n, code.rows)
        monkeypatch.setattr(BinaryCode, "low_weight_words", no_enumeration)
        got = equiv.code_data(fresh)
        monkeypatch.undo()
        assert got.canon == want.canon
        assert got.labelling == want.labelling
        assert got.generators == want.generators
        assert got.aut_order == want.aut_order


@pytest.mark.parametrize("n", [16, 48, 63])
@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 9000])
def test_co_matrix_counts_pairs_of_coordinates(n, count):
    rng = np.random.default_rng([n, count])
    words = rng.integers(0, 1 << n, size=count, dtype=np.uint64)
    bits = (words[:, None] >> np.arange(n, dtype=np.uint64) & 1).astype(
        np.int64
    )
    got = equiv._co_matrix(words, n)
    assert got.dtype == np.int64
    assert np.array_equal(got, bits.T @ bits)


@pytest.mark.parametrize("n", [8, 24, 48, 64])
def test_co_matrix_matches_the_gather(n):
    # Seeded word sets of one slab, of several (a slab holds 512 words)
    # and of a part slab; the weight-10 words of a table code.
    rng = np.random.default_rng([7, n])
    for count in (1, 200, 513, 1100, 5000):
        words = rng.integers(0, 1 << n, size=count, dtype=np.uint64)
        assert np.array_equal(
            equiv._co_matrix(words, n), co_matrix_gather(words, n)
        )
    if n == 48:
        code = construct.build_table_code(dataset.table_entries()[7])
        words = np.asarray(code.low_weight_words()[1], dtype=np.uint64)
        assert np.array_equal(
            equiv._co_matrix(words, n), co_matrix_gather(words, n)
        )


def _refinement_spy(monkeypatch):
    """The word count of each _co_matrix call, in order, and "traverse"
    for each traversal."""
    calls = []
    co_matrix, traverse = equiv._co_matrix, equiv._traverse

    def counted_co_matrix(words, n):
        calls.append(len(words))
        return co_matrix(words, n)

    def counted_traverse(code, co):
        calls.append("traverse")
        return traverse(code, co)

    monkeypatch.setattr(equiv, "_co_matrix", counted_co_matrix)
    monkeypatch.setattr(equiv, "_traverse", counted_traverse)
    return calls


def test_refinement_uses_the_lowest_class_alone_when_it_has_n_words(
    monkeypatch,
):
    calls = _refinement_spy(monkeypatch)
    # A table code: 768 weight-10 words >= 48, so one count.
    code = construct.build_table_code(dataset.table_entries()[0])
    equiv.code_data(code)
    assert calls == [768, "traverse"]
    calls.clear()
    # B: 12 weight-4 words < 16, so the 64 weight-6 words are counted too.
    base = BinaryCode.from_matrix(dataset.gb_matrix())
    assert equiv.automorphism_group(base).order() == 73728
    assert calls == [12, 64, "traverse"]


def test_q48_is_refused_before_any_refinement(monkeypatch):
    # The 17296 weight-12 words would be refined on alone, and they hold
    # a 2-design (a 5-design), so the guard lists and counts the 535095
    # of weight 16 too: the code never enters a traversal that would not
    # finish.
    calls = _refinement_spy(monkeypatch)
    with pytest.raises(ValueError, match="too many low-weight words"):
        equiv.code_data(extended_qr(47))
    assert calls == [17296]


def test_a_2_design_is_counted_with_the_next_class(monkeypatch):
    # e8's 14 weight-4 words form a 3-(8,4,1) design: its next class (the
    # all-ones word) is listed for the guard, and the code registers.
    calls = []
    low_weight_words = BinaryCode.low_weight_words

    def counted(self):
        calls.append(self.n)
        return low_weight_words(self)

    monkeypatch.setattr(BinaryCode, "low_weight_words", counted)
    e8 = extended_qr(7)
    assert equiv.automorphism_group(e8).order() == 1344
    assert calls == [8]


@pytest.mark.parametrize("n", [8, 24, 48])
def test_refine_ranks_signatures_like_np_unique(n):
    # Co-coverage matrices of seeded random words, from the unit
    # partition and from a random ordered one.
    rng = np.random.default_rng(n)
    for count in (n, 4 * n, 768):
        words = rng.integers(0, 1 << n, size=count, dtype=np.uint64)
        co = equiv._co_matrix(words, n)
        for colors in ([0] * n, sorted(rng.integers(0, n, n).tolist())):
            assert equiv._refine(co, colors) == refine_unique(co, colors)


def _threads_after_code_data(index):
    # Every job waits a little, so that both processes claim one.
    time.sleep(0.05)
    code = construct.build_table_code(dataset.table_entries()[index])
    equiv.code_data(code)
    return os.getpid(), len(os.listdir("/proc/self/task"))


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task"
)
def test_pool_workers_register_codes_on_one_thread():
    # A float matmul in the co-coverage count left an OpenBLAS thread
    # busy-waiting in each forked worker after every registration.  The
    # caller runs jobs too; the fork stops OpenBLAS's idle thread in the
    # caller as well, so it may end with fewer threads, never more.
    caller = os.getpid(), len(os.listdir("/proc/self/task"))
    jobs = range(20, 24)
    ran = list(search.ordered_map(_threads_after_code_data, jobs, 2))
    forked = [count for pid, count in ran if pid != caller[0]]
    assert forked and forked == [1] * len(forked)
    assert all(count <= caller[1] for pid, count in ran if pid == caller[0])
