import random
from itertools import islice, permutations
from math import factorial

import pytest

from cubicsd import dataset
from cubicsd.perm import Permutation, PermGroup, parse_cycles


def _reference_transversal(group, shard=None):
    """The image-by-image backtracking the block generator replaced,
    kept as its reference: a representative r is minimal iff r[x] exceeds
    r[j] for every chain level j < x whose orbit contains x."""
    n = group.n
    if shard is not None:
        shard_idx, shard_cnt = shard
        if not 0 <= shard_idx < shard_cnt:
            raise ValueError("invalid shard")
    constraints = [[] for _ in range(n)]
    for j, level in enumerate(group._levels):
        for x in level.orbit:
            if x != j:
                constraints[x].append(j)
    img = [0] * n
    used = [False] * n
    counter = 0

    def dfs(pos):
        nonlocal counter
        if pos == n:
            take = shard is None or counter % shard_cnt == shard_idx
            counter += 1
            if take:
                yield tuple(img)
            return
        for v in range(n):
            if used[v]:
                continue
            if any(v < img[j] for j in constraints[pos]):
                continue
            used[v] = True
            img[pos] = v
            yield from dfs(pos + 1)
            used[v] = False

    yield from dfs(0)


def _joined(blocks, size):
    rows = []
    for block in blocks:
        assert 0 < len(block) <= size
        assert block.dtype == "uint8"
        rows.extend(tuple(r) for r in block.tolist())
    return rows


SMALL_GROUPS = (
    (4, ["(1,2,3)", "(2,3,4)"]),
    (5, ["(1,2,3,4,5)", "(2,5)(3,4)"]),
)


def random_perm(rnd, n):
    img = list(range(n))
    rnd.shuffle(img)
    return Permutation(tuple(img))


def test_parse_cycles():
    p = parse_cycles("(1,2,3)(5,6)", 6)
    assert p.img == (1, 2, 0, 3, 5, 4)
    assert parse_cycles("", 4).is_identity
    assert parse_cycles("()", 4).is_identity
    assert p.to_cycle_text() == "(1,2,3)(5,6)"


def test_parse_cycles_errors():
    with pytest.raises(ValueError):
        parse_cycles("(1,2)(2,3)", 4)
    with pytest.raises(ValueError):
        parse_cycles("(0,1)", 4)
    with pytest.raises(ValueError):
        parse_cycles("(1,5)", 4)
    with pytest.raises(ValueError):
        parse_cycles("(1,2) junk", 4)


def test_composition_is_right_action():
    # (a*b)(x) = b(a(x)): apply a first
    a = parse_cycles("(1,2)", 3)
    b = parse_cycles("(2,3)", 3)
    assert (a * b).img == (2, 0, 1)  # 1->2->3


def test_inverse_and_order():
    rnd = random.Random(0)
    for _ in range(50):
        p = random_perm(rnd, rnd.randint(1, 10))
        assert (p * p.inverse()).is_identity
        q = Permutation.identity(p.degree)
        for _ in range(p.order()):
            q = q * p
        assert q.is_identity


def test_apply_to_word():
    p = parse_cycles("(1,2,3)", 3)
    assert p.apply_to_word(0b001) == 0b010
    rnd = random.Random(1)
    for _ in range(30):
        n = rnd.randint(2, 12)
        p = random_perm(rnd, n)
        q = random_perm(rnd, n)
        w = rnd.randrange(1 << n)
        assert (p * q).apply_to_word(w) == q.apply_to_word(p.apply_to_word(w))


def test_group_orders():
    n = 8
    gens = [parse_cycles("(1,2)", n), parse_cycles("(1,2,3,4,5,6,7,8)", n)]
    assert PermGroup(gens, n).order() == factorial(8)
    a4 = PermGroup(
        [parse_cycles("(1,2,3)", 4), parse_cycles("(2,3,4)", 4)], 4
    )
    assert a4.order() == 12
    d5 = PermGroup(
        [parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(2,5)(3,4)", 5)], 5
    )
    assert d5.order() == 10
    trivial = PermGroup([], 3)
    assert trivial.order() == 1


def test_membership():
    a4 = PermGroup(
        [parse_cycles("(1,2,3)", 4), parse_cycles("(2,3,4)", 4)], 4
    )
    members = sum(
        1 for img in permutations(range(4)) if a4.contains(Permutation(img))
    )
    assert members == 12


def test_elements_and_random_element():
    d5 = PermGroup(
        [parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(2,5)(3,4)", 5)], 5
    )
    elems = d5.elements()
    assert len(elems) == 10
    assert len({e.img for e in elems}) == 10
    assert all(d5.contains(e) for e in elems)
    rnd = random.Random(2)
    for _ in range(20):
        assert d5.contains(d5.random_element(rnd))


def test_base_code_group_order():
    # the two shipped generators produce a group of order 2^13 * 3^2;
    # the printed value 76728 has the impossible factor 23
    group = dataset.autb_group()
    assert group.order() == 73728
    assert factorial(16) % group.order() == 0
    report = dataset.autb_order_report()
    assert report["misprint"]
    assert not report["printed_order_possible"]


def test_min_coset_rep_matches_brute():
    rnd = random.Random(3)
    a4 = PermGroup(
        [parse_cycles("(1,2,3)", 4), parse_cycles("(2,3,4)", 4)], 4
    )
    elems = a4.elements()
    for _ in range(40):
        r = random_perm(rnd, 4)
        best = min(((h * r).img for h in elems))
        got = a4.min_coset_rep(r)
        assert got.img == best
        assert a4.is_min_coset_rep(got)
        assert a4.same_right_coset(got, r)


def test_transversal_counts_and_minimality():
    for n, gens in (
        (4, ["(1,2,3)", "(2,3,4)"]),
        (5, ["(1,2,3,4,5)", "(2,5)(3,4)"]),
    ):
        g = PermGroup([parse_cycles(t, n) for t in gens], n)
        reps = list(g.right_transversal())
        assert len(reps) == g.num_right_cosets()
        # all reps are minimal and pairwise in distinct cosets
        for r in reps:
            assert g.is_min_coset_rep(r)
        for i, a in enumerate(reps):
            for b in reps[i + 1 :]:
                assert not g.same_right_coset(a, b)


def test_transversal_sharding_partitions():
    g = PermGroup(
        [parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(2,5)(3,4)", 5)], 5
    )
    full = [r.img for r in g.right_transversal()]
    sharded = []
    for i in range(4):
        sharded.extend(r.img for r in g.right_transversal(shard=(i, 4)))
    assert sorted(full) == sorted(sharded)
    with pytest.raises(ValueError):
        next(g.right_transversal(shard=(4, 4)))


def test_transversal_blocks_match_reference():
    rnd = random.Random(11)
    for n, gens in SMALL_GROUPS:
        g = PermGroup([parse_cycles(t, n) for t in gens], n)
        for m in (1, 3, 4):
            for i in range(m):
                ref = list(_reference_transversal(g, shard=(i, m)))
                stream = g.right_transversal(shard=(i, m))
                assert [r.img for r in stream] == ref
                size = rnd.randint(1, 4)
                starts = {0, size // 2, len(ref), len(ref) + 3}
                starts.add(rnd.randrange(len(ref) + 1))
                for start in sorted(starts):
                    blocks = g.transversal_blocks((i, m), start, size)
                    assert _joined(blocks, size) == ref[start:]
                    resumed = g.right_transversal(shard=(i, m), start=start)
                    assert [r.img for r in resumed] == ref[start:]


def test_transversal_blocks_match_reference_on_autb():
    # The first 200k positions of shards 0/4 and 3/4: 800k stream leaves.
    group = dataset.autb_group()
    ref = list(islice(_reference_transversal(group), 800000))
    size = 7919
    for i in (0, 3):
        blocks = group.transversal_blocks((i, 4), size=size)
        got = _joined(islice(blocks, -(-200000 // size)), size)
        assert got[:200000] == ref[i::4]
    start = random.Random(12).randrange(100000)
    blocks = group.transversal_blocks((3, 4), start, size)
    got = _joined(islice(blocks, 3), size)
    assert got == ref[3::4][start : start + 3 * size]


def test_transversal_blocks_reject_bad_input():
    g = PermGroup([parse_cycles("(1,2,3)", 4)], 4)
    for shard, start in (((4, 4), 0), ((0, 0), 0), ((-1, 2), 0), ((0, 2), -1)):
        with pytest.raises(ValueError):
            g.transversal_blocks(shard, start)
        with pytest.raises(ValueError):
            next(g.right_transversal(shard=shard, start=start))
