import itertools
import random

import numpy as np
import pytest

from cubicsd import construct, cyclicring, dataset, equiv, gf2, search
from cubicsd.construct import STANDARD_3_16_0, DecomposedEngine
from cubicsd.cyclicring import PolyP
from cubicsd.perm import Permutation, parse_cycles
from reference import (
    keep_prefixes,
    light_pass_gather,
    prune_depth,
    random_element,
    transversal_rows,
)

EXPECTED_WE = {0: 1, 10: 768, 12: 8592, 14: 57600, 16: 267831}


def random_tau(rnd):
    img = list(range(16))
    rnd.shuffle(img)
    return Permutation(tuple(img))


def test_aut_type_validation():
    t = construct.AutType(3, 16, 0)
    assert t.n == 48
    assert str(t) == "3-(16,0)"
    with pytest.raises(ValueError):
        construct.AutType(4, 1, 0)
    with pytest.raises(ValueError):
        construct.AutType(3, 0, 48)


def test_sigma_layout():
    sigma = STANDARD_3_16_0.sigma()
    assert sigma.order() == 3
    assert all(sigma.img[i] != i for i in range(48))
    assert sigma.to_cycle_text().startswith("(1,2,3)(4,5,6)")


def test_pi_roundtrip():
    layout = STANDARD_3_16_0
    rnd = random.Random(0)
    for _ in range(50):
        word = rnd.randrange(1 << 16)
        lifted = construct.pi_inverse(word, layout)
        assert construct.pi_project(lifted, layout) == word
        assert gf2.weight(lifted) == 3 * gf2.weight(word)


def test_phi_roundtrip():
    layout = STANDARD_3_16_0
    rnd = random.Random(1)
    masks = (0, 0b110, 0b101, 0b011)
    for _ in range(50):
        vec = tuple(PolyP(3, rnd.choice(masks)) for _ in range(16))
        word = construct.phi_inverse(vec, layout)
        assert construct.phi_vector(word, layout) == vec


@pytest.mark.parametrize("xi_index", [1, 2, 3, 4])
def test_even_part_rows_match_the_phi_inverse_composition(xi_index):
    # The table of shifted masks against phi^-1 of each embedded row of
    # (I | X_i), built from PolyP entries.
    want = []
    for grow in dataset.x_generator(xi_index):
        vec = tuple(cyclicring.gf4_embed(g) for g in grow)
        want.extend(construct.phi_inverse_rows(vec, STANDARD_3_16_0))
    assert construct.even_part_rows(xi_index) == want
    assert len(want) == 16


def test_build_code_is_self_dual_48_24():
    rnd = random.Random(2)
    for i in (1, 2, 3, 4):
        code = construct.build_code(random_tau(rnd), i)
        assert code.n == 48
        assert code.k == 24
        assert code.is_self_dual()


def test_table_codes_have_published_enumerator():
    entry = dataset.table_entries(1)[0]
    code = construct.build_table_code(entry)
    we = code.weight_enumerator()
    for w, count in EXPECTED_WE.items():
        assert int(we[w]) == count
    assert int(we[1:10].sum()) == 0


def _decomposed_minimum(eng, images):
    """The exact minimum weight of each tau's code from the engine's
    parts: the lightest even word, and m_table()[tau(u)] + 3 wt(u) over
    the 255 nonzero base words u, each moved bit by bit to its image."""
    images = np.asarray(images, dtype=np.uint16)
    base = np.array(dataset.gb_matrix().rows, dtype=np.uint16)
    words = gf2.span(base)[1:]
    word_bits = (words[:, None] >> np.arange(16, dtype=np.uint16) & 1).T
    even = gf2.span(
        np.array(construct.even_part_rows(eng.xi_index), dtype=np.uint64)
    )
    even_min = int(np.bitwise_count(even[1:]).min())
    table = eng.m_table()
    out = [np.zeros(0, dtype=np.int64)]
    for lo in range(0, len(images), 4096):
        bits = np.left_shift(1, images[lo : lo + 4096], dtype=np.uint16)
        weights = table[bits @ word_bits] + 3 * np.bitwise_count(words)
        out.append(np.minimum(weights.min(axis=1), even_min))
    return np.concatenate(out)


def test_engine_matches_generic_enumerator():
    # The engine's table and even part give the exact minimum distance
    # that full enumeration of the built code finds.
    rnd = random.Random(3)
    for i in (1, 3):
        eng = DecomposedEngine(i)
        taus = [random_tau(rnd) for _ in range(3)]
        taus.append(dataset.table_entries(i)[0].tau())
        got = _decomposed_minimum(eng, [t.img for t in taus])
        expect = [construct.build_code(t, i).min_distance() for t in taus]
        assert got.tolist() == expect


def test_table_code_low_weight_words():
    entry = dataset.table_entries(1)[0]
    code = construct.build_table_code(entry)
    counts, low, high = code.low_weight_words()
    assert np.array_equal(counts, code.weight_enumerator())
    # The 768 weight-10 words are at least n = 48, so the 8592 of weight
    # 12 are counted and not listed.
    assert len(low) == counts[10] == 768
    assert high is None and counts[12] == 8592
    assert len(np.unique(low)) == 768
    assert (np.bitwise_count(low) == 10).all()
    for w in low[:20]:
        assert code.contains(int(w))


def test_min_weight_filter_agrees_with_distance():
    rnd = random.Random(4)
    eng = DecomposedEngine(2)
    eng.pass_table()
    hits = misses = 0
    for _ in range(40):
        tau = random_tau(rnd)
        d = construct.build_code(tau, 2).min_distance()
        assert eng.min_weight_at_least(tau) == (d >= 10)
        hits += d >= 10
        misses += d < 10
    # table taus must pass the filter
    for entry in dataset.table_entries(2)[:3]:
        assert eng.min_weight_at_least(entry.tau())


def brute_m_table(support, masks):
    """min over distinct supports S of 2|S| - 4|S & u|, for each mask u."""
    pc = np.bitwise_count
    uniq = np.unique(support)
    a2 = 2 * pc(uniq).astype(np.int16)
    out = np.empty(len(masks), dtype=np.int16)
    for lo in range(0, len(masks), 2048):
        u = masks[lo : lo + 2048]
        s = pc(uniq[None, :] & u[:, None]).astype(np.int16)
        out[lo : lo + 2048] = (a2[None, :] - 4 * s).min(axis=1)
    return out


def test_m_table_matches_brute_force():
    rng = np.random.default_rng(5)
    for i in (1, 2, 3, 4):
        eng = DecomposedEngine(i)
        if i == 3:
            masks = np.arange(1 << 16, dtype=np.uint16)
        else:
            masks = rng.integers(0, 1 << 16, size=4096).astype(np.uint16)
        assert np.array_equal(
            eng.m_table()[masks], brute_m_table(eng.support, masks)
        )


def test_filter_images_agrees_with_distance():
    rnd = random.Random(6)
    group = dataset.autb_group()
    for i in (1, 2, 3, 4):
        eng = DecomposedEngine(i)
        raw = [random_tau(rnd) for _ in range(8)]
        canon = [group.min_coset_rep(t) for t in raw]
        assert any(a != b for a, b in zip(raw, canon))
        expect = [construct.build_code(t, i).min_distance() >= 10 for t in raw]
        # Every published tau has distance 10 (checked by the acceptance
        # gate); so has a non-canonical member of its coset.
        table = [e.tau() for e in dataset.table_entries(i)]
        mates = [random_element(group, rnd) * t for t in table]
        taus = raw + canon + table + mates
        expect = expect + expect + [True] * (2 * len(table))
        got = eng.filter_images(np.array([t.img for t in taus]))
        assert got.tolist() == expect


def _reference_filter(eng, images):
    """The single-stage filter: every row is checked on all 255 nonzero
    base words and on the even part."""
    return _decomposed_minimum(eng, images) >= 10


@pytest.mark.parametrize("xi_index", [1, 2, 3, 4])
def test_two_stage_filter_matches_reference(xi_index):
    eng = DecomposedEngine(xi_index)
    group = dataset.autb_group()
    inputs = [
        block
        for shard in ((0, 1), (3, 4))
        for block in itertools.islice(transversal_rows(group, shard), 2)
    ]
    inputs += [search._sample_block(2, number) for number in (0, 1)]
    images = np.concatenate(inputs)
    got = np.concatenate([eng.filter_images(block) for block in inputs])
    assert np.array_equal(got, _reference_filter(eng, images))
    # Not vacuous: there are hits, and rows that only the second stage
    # (all 255 words) rejects.
    first_stage = light_pass_gather(eng, images, eng._light_support)
    assert got.any()
    assert (first_stage & ~got).any()
    hit = images[np.flatnonzero(got)[:1]]
    for rows in (images[:0], images[:1], hit, images[:3]):
        expect = _reference_filter(eng, rows)
        for dtype in (np.uint8, np.int8, np.int64, np.uint64):
            typed = rows.astype(dtype)
            assert np.array_equal(eng.filter_images(typed), expect)


@pytest.mark.parametrize("xi_index", [1, 2, 3, 4])
def test_column_pass_matches_the_gather(xi_index):
    # The first stage ORs each lightest word's bit columns and looks the
    # image up in the pass table; its slow twin sums the gathered bits of
    # every row and word.  Both on seeded uniform image rows and on
    # depth-9 prefixes, as the tree oracle's ``keep_prefixes`` sees them.
    eng = DecomposedEngine(xi_index)
    support = eng._light_support
    rng = np.random.default_rng(xi_index)
    rows = np.tile(np.arange(16, dtype=np.uint8), (20000, 1))
    rows = rng.permuted(rows, axis=1)
    got = eng._light_pass(construct._columns(rows), support)
    want = light_pass_gather(eng, rows, support)
    assert np.array_equal(got, want)
    assert want.any() and not want.all()
    group = dataset.autb_group()
    walked = np.concatenate(list(itertools.islice(transversal_rows(group), 3)))
    placed = support[support.max(axis=1) < 9]
    assert len(placed) == 3
    for prefixes in (rows[:, :9], walked[:, :9]):
        want = light_pass_gather(eng, prefixes, placed)
        assert np.array_equal(keep_prefixes(eng, prefixes), want)
        assert want.any() and not want.all()


def test_first_stage_words_are_the_weight_4_words():
    eng = DecomposedEngine(1)
    base = np.array(dataset.gb_matrix().rows, dtype=np.uint16)
    words = gf2.span(base)
    weight4 = sorted(words[np.bitwise_count(words) == 4].tolist())
    support = eng._light_support
    assert support.shape == (12, 4)
    assert sorted(sum(1 << int(i) for i in row) for row in support) == weight4
    # {4,5,6,7}, {3,4,7,8} and {3,5,6,8} are placed by depth 9; the other
    # nine end inside the last perm.SUFFIX = 4 coordinates.
    early = sorted(row.tolist() for row in support if row.max() < 12)
    assert early == [[3, 4, 7, 8], [3, 5, 6, 8], [4, 5, 6, 7]]
    assert prune_depth(eng) == 9


@pytest.mark.parametrize(
    "images",
    [
        np.full((1, 16), 16),
        np.array([[0] * 2 + list(range(2, 16))]),
        np.tile(np.arange(8), (16, 1)),
        np.array([[-1] + list(range(1, 16))]),
        np.array([[64] + list(range(1, 16))]),
        np.array([list(range(15)) + [80]]),
        np.array([[-1] + list(range(1, 16))], dtype=np.int8),
        np.array([[2**63 + 5] + list(range(1, 16))], dtype=np.uint64),
    ],
    ids=[
        "value-16",
        "repeated-value",
        "shape-16x8",
        "value-minus-1",
        "value-64",
        "value-80",
        "int8-minus-1",
        "uint64-high-bit",
    ],
)
def test_filter_images_rejects_non_permutations(images):
    with pytest.raises(ValueError):
        DecomposedEngine(1).filter_images(images)


def test_alternate_embedding_gives_equivalent_code(build_code_alt):
    # swapping omega and omega^2 in the cycle embedding changes the
    # generator matrix but only by a coordinate relabeling
    entry = dataset.table_entries(1)[0]
    a = construct.build_table_code(entry)
    b = build_code_alt(entry.tau(), 1)
    assert b.k == 24 and b.is_self_dual()
    assert a != b
    assert equiv.are_equivalent(a, b)


def test_verify_selfdual_conditions_pass():
    entry = dataset.table_entries(1)[0]
    code = construct.build_table_code(entry)
    report = construct.verify_selfdual_conditions(code)
    assert report.passed
    names = [n for n, _, _ in report.checks]
    assert "dim_fixed" in names and "isotropic_pairs" in names
    assert report.as_dict()["passed"]


def test_verify_selfdual_conditions_rejects_non_invariant():
    # a self-dual code without the sigma symmetry is a precondition error
    rows = []
    for j in range(0, 48, 2):
        rows.append(0b11 << j)
    code = gf2.BinaryCode.from_rows(rows, 48)
    assert code.is_self_dual()
    with pytest.raises(ValueError, match="automorphism"):
        construct.verify_selfdual_conditions(code)


def test_build_code_embeds_base_code():
    # the projected fixed subcode of C^tau is exactly tau(B)
    entry = dataset.table_entries(1)[1]
    tau = entry.tau()
    code = construct.build_table_code(entry)
    base = gf2.BinaryCode.from_matrix(dataset.gb_matrix())
    lifted = [construct.pi_inverse(r, STANDARD_3_16_0) for r in base.permuted(tau.img).rows]
    for word in lifted:
        assert code.contains(word)
