import random
from itertools import islice, permutations
from math import factorial

import numpy as np
import pytest

import reference
from cubicsd import dataset
from cubicsd.construct import DecomposedEngine
from cubicsd.perm import (
    EXPAND_ROWS,
    PREFIX_DEPTH,
    SUFFIX,
    Permutation,
    PermGroup,
    parse_cycles,
)
from reference import (
    group_elements,
    keep_prefixes,
    leaf_counts,
    prefix_keys,
    random_element,
    shard_sizes,
    transversal_rows,
    transversal_windows,
    tree_keep,
)


def _constraints(group):
    """constraints[x]: the chain levels j < x whose orbit contains x."""
    constraints = [[] for _ in range(group.n)]
    for j, level in enumerate(group._levels):
        for x in level.orbit:
            if x != j:
                constraints[x].append(j)
    return constraints


def _prefix_depth(n):
    """The depth whose nodes the shards split, clamped as in ``perm``."""
    return min(PREFIX_DEPTH, n - min(SUFFIX, n))


def _reference_transversal(group, shard=(0, 1)):
    """The image-by-image backtracking the block generator replaced,
    kept as its reference: a representative r is minimal iff r[x] exceeds
    r[j] for every chain level j < x whose orbit contains x.  Shard i/m
    numbers the depth-K nodes in stream order and descends only into
    those numbered i modulo m."""
    n = group.n
    shard_idx, shard_cnt = shard
    if not 0 <= shard_idx < shard_cnt:
        raise ValueError("invalid shard")
    constraints = _constraints(group)
    depth = _prefix_depth(n)
    img = [0] * n
    used = [False] * n
    number = 0

    def dfs(pos):
        nonlocal number
        if pos == depth:
            number += 1
            if (number - 1) % shard_cnt != shard_idx:
                return
        if pos == n:
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


def _reference_leaf_counts(group):
    """{prefix: number of minimal representatives below it} for every
    valid image prefix, by exhaustive backtracking."""
    n = group.n
    constraints = _constraints(group)
    counts = {}

    def dfs(prefix):
        if len(prefix) == n:
            total = 1
        else:
            total = sum(
                dfs(prefix + (v,))
                for v in range(n)
                if v not in prefix
                and all(v > prefix[j] for j in constraints[len(prefix)])
            )
        counts[prefix] = total
        return total

    dfs(())
    return counts


def _joined(blocks, size):
    rows = []
    for block in blocks:
        assert 0 < len(block) <= size
        assert block.dtype == "uint8"
        rows.extend(tuple(r) for r in block.tolist())
    return rows


# Degrees 4 and 5 split the tree at the root or at depth 1, so every
# shard but 0 is empty; the degree-9 group (order 120, 3024 leaves)
# splits at depth 5 and gives every shard of m = 3 and 4 leaves.
SMALL_GROUPS = (
    (4, ["(1,2,3)", "(2,3,4)"]),
    (5, ["(1,2,3,4,5)", "(2,5)(3,4)"]),
    (9, ["(1,2,3)", "(4,5)(6,7)", "(1,8)(2,9)"]),
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


def test_an_invalid_image_still_raises():
    # Products and inverses skip the check; an image from outside data
    # keeps it.
    for img in ((0, 0, 2), (1, 2, 3), (0, 2), (-1, 0)):
        with pytest.raises(ValueError, match="not a permutation"):
            Permutation(img)
    rnd = random.Random(2)
    for _ in range(20):
        p = random_perm(rnd, rnd.randint(1, 48))
        q = random_perm(rnd, p.degree)
        for r in (p * q, p.inverse(), Permutation.identity(p.degree)):
            assert r == Permutation(r.img)
            assert hash(r) == hash(Permutation(r.img))


def test_composition_is_right_action():
    # (a*b)(x) = b(a(x)): apply a first
    a = parse_cycles("(1,2)", 3)
    b = parse_cycles("(2,3)", 3)
    assert (a * b).img == (2, 0, 1)  # 1->2->3


def test_inverse_and_order():
    rnd = random.Random(0)
    for _ in range(50):
        p = random_perm(rnd, rnd.randint(1, 10))
        q = random_perm(rnd, p.degree)
        assert (p * q).img == tuple(q.img[x] for x in p.img)
        assert all(p.inverse().img[x] == i for i, x in enumerate(p.img))
        assert (p * p.inverse()).is_identity
        assert q.is_identity == all(i == x for i, x in enumerate(q.img))
        q = Permutation.identity(p.degree)
        for _ in range(p.order()):
            q = q * p
        assert q.is_identity
    assert parse_cycles("(1,2)(3,4,5)(6,7,8,9,10)", 10).order() == 30
    assert Permutation.identity(4).order() == 1


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


def _closure(gens, n):
    """Every element of <gens>, by a breadth-first walk: the brute-force
    order that the stabilizer chain must reproduce."""
    ident = Permutation.identity(n)
    seen, queue = {ident.img}, [ident]
    while queue:
        p = queue.pop()
        for g in gens:
            q = p * g
            if q.img not in seen:
                seen.add(q.img)
                queue.append(q)
    return seen


def test_schreier_sims_on_generators_of_the_top_points():
    # The chain is built from the last level that holds a generator down,
    # so a group moving only the last points skips every level above.
    n = 48
    swap = parse_cycles("(47,48)", n)
    cases = [[swap], [parse_cycles("(46,47,48)", n)], [swap, swap]]
    rnd = random.Random(13)
    for _ in range(20):
        gens = []
        for _ in range(rnd.randint(1, 3)):
            img = list(range(n))
            top = img[rnd.randint(42, 46):]
            moved = top[:]
            rnd.shuffle(moved)
            img[n - len(top):] = moved
            gens.append(Permutation(tuple(img)))
        cases.append(gens)
    for gens in cases:
        group = PermGroup(gens, n)
        members = _closure(gens, n)
        assert group.order() == len(members)
        assert {e.img for e in group_elements(group)} == members
        assert not group.contains(parse_cycles("(1,48)", n))


@pytest.mark.parametrize("n", [1, 2, 16, 48])
def test_schreier_sims_without_generators(n):
    ident = Permutation.identity(n)
    for gens in ([], [ident]):
        group = PermGroup(gens, n)
        assert group.order() == 1
        assert group.contains(ident)
        assert all(len(level.orbit) == 1 for level in group._levels)


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
    elems = group_elements(d5)
    assert len(elems) == 10
    assert len({e.img for e in elems}) == 10
    assert all(d5.contains(e) for e in elems)
    rnd = random.Random(2)
    for _ in range(20):
        assert d5.contains(random_element(d5, rnd))


def test_base_code_group_order():
    # the group computed from the base code has order 2^13 * 3^2;
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
    elems = group_elements(a4)
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
            sizes = shard_sizes(g, m)
            for i in range(m):
                ref = list(_reference_transversal(g, shard=(i, m)))
                assert sizes[i] == len(ref)
                if n == 9:
                    assert ref
                stream = g.right_transversal(shard=(i, m))
                assert [r.img for r in stream] == ref
                size = rnd.randint(1, 4)
                starts = {0, size // 2, len(ref), len(ref) + 3}
                starts.add(rnd.randrange(len(ref) + 1))
                for start in sorted(starts):
                    blocks = transversal_rows(g, (i, m), start, size)
                    assert _joined(blocks, size) == ref[start:]


def _prefix_test(depth):
    """A keep test for the reference ``transversal_windows``: a fixed hash of the
    depth-``depth`` prefix, which keeps about two nodes in three."""
    weights = np.arange(1, depth + 1) ** 2

    def test(prefixes):
        assert prefixes.shape[1] == depth
        return (prefixes.astype(np.int64) @ weights) % 3 != 1

    return test


def test_transversal_windows_keep_matches_reference():
    # Every window of the kept walk holds the reference leaves of its
    # positions whose prefix passes the test, and ends where the blocks
    # of the whole walk end, also when it holds none.
    rnd = random.Random(13)
    empty = 0
    for n, gens in SMALL_GROUPS:
        g = PermGroup([parse_cycles(t, n) for t in gens], n)
        depth = _prefix_depth(n)
        test = _prefix_test(depth)
        for m in (1, 3):
            for i in range(m):
                ref = list(_reference_transversal(g, shard=(i, m)))
                rows = np.array(ref, dtype=np.uint8).reshape(len(ref), n)
                passes = test(rows[:, :depth])
                size = rnd.randint(1, 6)
                starts = {0, size // 2, len(ref), len(ref) + 3}
                starts.add(rnd.randrange(len(ref) + 1))
                for start in sorted(starts):
                    got = list(
                        transversal_windows(
                            g, (i, m), start, size, keep=(depth, test)
                        )
                    )
                    ends = range(start + size, len(ref) + size, size)
                    assert [end for end, _ in got] == [
                        min(end, len(ref)) for end in ends
                    ]
                    lo = start
                    for end, rows in got:
                        kept = passes[lo:end]
                        want = [r for r, ok in zip(ref[lo:end], kept) if ok]
                        assert rows.dtype == "uint8"
                        assert [tuple(r) for r in rows.tolist()] == want
                        empty += not want
                        lo = end
    assert empty


def test_transversal_windows_reject_keep_outside_the_split_depths():
    g = dataset.autb_group()
    for depth in (6, 13):
        with pytest.raises(ValueError):
            transversal_windows(g, keep=(depth, _prefix_test(depth)))


def test_leaf_counts_match_reference():
    for n, gens in SMALL_GROUPS:
        g = PermGroup([parse_cycles(t, n) for t in gens], n)
        ref = _reference_leaf_counts(g)
        for d in range(n + 1):
            prefixes = sorted(p for p in ref if len(p) == d)
            rows = np.array(prefixes, dtype=np.uint8).reshape(len(prefixes), d)
            got = leaf_counts(g, rows)
            assert got.tolist() == [ref[p] for p in prefixes]
            assert sum(got.tolist()) == g.num_right_cosets()


def _materialised(monkeypatch):
    """Record every leaf array the transversal generator builds."""
    built = []
    leaves = PermGroup._leaves

    def spy(self, *args):
        built.append(leaves(self, *args))
        return built[-1]

    monkeypatch.setattr(PermGroup, "_leaves", spy)
    return built


def test_transversal_blocks_match_reference_on_autb():
    # The first 200k positions of shards 0/4 and 3/4, and resumes inside
    # them: a seeded one, and one in the first prefix past the two runs
    # of leaves that hold its first 10290; the reference walks only the
    # shard's subtrees.
    group = dataset.autb_group()
    size = 7919
    refs = {}
    for i in (0, 3):
        ref = list(islice(_reference_transversal(group, (i, 4)), 200000))
        blocks = transversal_rows(group, (i, 4), size=size)
        got = _joined(islice(blocks, -(-200000 // size)), size)
        assert got[:200000] == ref
        stream = islice(group.right_transversal((i, 4)), 50000)
        assert [r.img for r in stream] == ref[:50000]
        refs[i] = ref
    for i, start in ((3, random.Random(12).randrange(100000)), (0, 12345)):
        blocks = transversal_rows(group, (i, 4), start, size)
        got = _joined(islice(blocks, 3), size)
        assert got == refs[i][start : start + 3 * size]


def test_shards_expand_only_their_prefixes(monkeypatch):
    # A depth-7 prefix of Aut(B) holds at most 9!/4! = 15120 leaves; a
    # shard that filtered whole-tree leaves would build ~4N for N.
    group = dataset.autb_group()
    built = _materialised(monkeypatch)
    for i in range(4):
        built.clear()
        blocks = transversal_rows(group, (i, 4), size=10000)
        assert len(_joined(islice(blocks, 10), 10000)) == 100000
        assert sum(map(len, built)) <= 100000 + 15120


def test_resume_skips_whole_prefixes(monkeypatch):
    # Unpruned, a resume walks the leaves of one depth-7 prefix (at most
    # 9!/4! = 15120) besides its window; pruned by X_4's engine, those of
    # one depth-9 prefix (at most 7! = 5040), although six kept depth-9
    # prefixes precede ``start`` inside its depth-7 prefix.
    group = dataset.autb_group()
    engine = DecomposedEngine(4)
    start, size = 1234567, 10000
    stream = transversal_rows(group, (1, 4), size=size)
    head = np.concatenate(list(islice(stream, start // size + 2)))
    window = head[start : start + size]
    built = _materialised(monkeypatch)
    counted = []

    def spy(group, prefixes):
        counted.append(prefixes.shape)
        return leaf_counts(group, prefixes)

    monkeypatch.setattr(reference, "leaf_counts", spy)
    for keep, depth, bound in (
        (None, _prefix_depth(group.n), 15120),
        (tree_keep(engine), 9, 5040),
    ):
        built.clear()
        end, got = next(transversal_windows(group, (1, 4), start, size, keep))
        assert end == start + size
        want = window if keep is None else window[keep[1](window[:, :depth])]
        assert len(want) and np.array_equal(got, want)
        # Every leaf built lies under the prefix holding ``start`` or after.
        leaves = np.concatenate(built)
        assert len(leaves) <= size + bound
        first = prefix_keys(window[:1], depth)[0]
        assert (prefix_keys(leaves, depth) >= first).all()
    # The depth-7 skip comes first: the pruned walk counts the depth-9
    # prefixes of one chunk, not those of every earlier depth-7 prefix.
    assert sum(rows for rows, d in counted if d == 9) <= EXPAND_ROWS


def test_pruned_window_past_a_run_without_leaves():
    # In this window of X_1's pruned walk, one expansion step of a kept
    # depth-9 node gives 10 depth-12 prefixes none of which completes to a
    # representative; the walk must pass over that empty run.
    group = dataset.autb_group()
    engine = DecomposedEngine(1)
    keep = tree_keep(engine)
    start = 157160000
    window = next(transversal_rows(group, (0, 1), start, 10000))
    end, got = next(transversal_windows(group, (0, 1), start, 10000, keep))
    assert end == start + 10000
    want = window[keep_prefixes(engine, window[:, : keep[0]])]
    assert len(want) and np.array_equal(got, want)


def test_transversal_blocks_reject_bad_input():
    g = PermGroup([parse_cycles("(1,2,3)", 4)], 4)
    for shard, start in (((4, 4), 0), ((0, 0), 0), ((-1, 2), 0), ((0, 2), -1)):
        with pytest.raises(ValueError):
            transversal_windows(g, shard, start)
        if start == 0:
            with pytest.raises(ValueError):
                next(g.right_transversal(shard=shard))


def test_min_coset_reps_match_min_coset_rep():
    # Seeded random rows of Aut(B) and of the 4 x 4 x 4 group, their
    # multiples by group elements (the same cosets), and images in an
    # integer type of each width.
    rng = random.Random(17)
    cases = (
        (dataset.autb_group(), 200),
        (PermGroup([parse_cycles("(1,2,3)", 4), parse_cycles("(2,3,4)", 4)], 4), 20),
    )
    for group, count in cases:
        n = group.n
        taus = [Permutation(tuple(rng.sample(range(n), n))) for _ in range(count)]
        mates = [random_element(group, rng) * tau for tau in taus]
        want = [group.min_coset_rep(tau).img for tau in taus]
        assert [group.min_coset_rep(t).img for t in mates] == want
        for rows in (taus, mates):
            for dtype in (np.uint8, np.int64):
                images = np.array([t.img for t in rows], dtype=dtype)
                got = group.min_coset_reps(images)
                assert got.dtype == dtype
                assert [tuple(r) for r in got.tolist()] == want
        assert len(set(want)) > 1
    empty = dataset.autb_group().min_coset_reps(np.zeros((0, 16), np.uint8))
    assert empty.shape == (0, 16)
    with pytest.raises(ValueError):
        dataset.autb_group().min_coset_reps(np.zeros((2, 15), np.uint8))
