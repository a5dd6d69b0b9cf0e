import json
import os
import random
from itertools import islice

import numpy as np
import pytest

from cubicsd import construct, dataset, equiv, gf2, perm, scan, search
from reference import (
    keep_prefixes,
    leaf_counts,
    prefix_keys,
    transversal_rows,
    transversal_windows,
    tree_hits,
    tree_keep,
)

# Positions per full-mode block.
FULL_BLOCK = search.SETS_PER_BLOCK * scan.COSETS_PER_SET


def table1_taus():
    return [e.tau() for e in dataset.table_entries(1)]


class _Stop(Exception):
    pass


def _raise_at(position, seen=None):
    """A progress callback that stops the search at ``position``, after
    appending the live state to ``seen``."""

    def progress(state):
        if state.position >= position:
            if seen is not None:
                seen.append(state)
            raise _Stop

    return progress


def test_sampled_tau_deterministic_and_canonical():
    group = dataset.autb_group()
    for i in (0, 1, 57):
        a = search.sampled_tau(9, i)
        b = search.sampled_tau(9, i)
        assert a == b
        assert group.is_min_coset_rep(a)
    assert search.sampled_tau(9, 0) != search.sampled_tau(10, 0)


def _reference_block(seed, number):
    """Sample block ``number`` as the test draws it: one generator per
    (seed, block), every row of 0..15 shuffled on its own."""
    rows = np.tile(np.arange(16, dtype=np.uint8), (search.BLOCK_SIZE, 1))
    return np.random.default_rng([seed, number]).permuted(rows, axis=1)


@pytest.mark.parametrize("seed", [1, 11, 2**31 - 1])
def test_sample_block_matches_reference_draws(seed):
    # The in-place draw on np.intp rows, 1024 at a time, gives the rows
    # of a uint8 shuffle of the whole block, and a partial block its
    # first rows, across the chunk edges.
    for number in (0, 1, 1000):
        want = _reference_block(seed, number)
        assert np.array_equal(search._sample_block(seed, number), want)
        for rows in (1, 1023, 1024, 1025, 5000, 10000):
            got = search._sample_block(seed, number, rows)
            assert got.dtype == np.uint8 and got.shape == (rows, 16)
            assert np.array_equal(got, want[:rows])


@pytest.mark.parametrize("xi_index", [1, 4])
def test_sample_scan_matches_reference_draws(xi_index, monkeypatch):
    # 65000 draws make blocks 0..6, the last one of 5000 rows: shard i/3
    # takes blocks i, i + 3, ..., so shard 0/3 ends in the partial block
    # and every shard has at least 2.  A shard that takes the wrong
    # blocks or rows loses or gains hits.  A hit comes back as the row
    # the filter saw, so no index is drawn twice.
    monkeypatch.setattr(search, "sampled_tau", None)
    sample = 65000
    group = dataset.autb_group()
    engine = construct.DecomposedEngine(xi_index)
    block = search.BLOCK_SIZE
    draws = np.concatenate([_reference_block(11, b) for b in range(7)])
    draws = draws[:sample]
    found = 0
    for i in range(3):
        rows = np.concatenate(
            [draws[b * block : (b + 1) * block] for b in range(i, 7, 3)]
        )
        expected = []
        for row in rows[engine.filter_images(rows)]:
            tau = perm.Permutation(tuple(row.tolist()))
            text = str(group.min_coset_rep(tau))
            if text not in expected:
                expected.append(text)
        for threads in (1, 2):
            state = search.run_search(
                xi_index, sample=sample, seed=11, shard=(i, 3), threads=threads
            )
            assert [s.perm_text for s in state.survivors] == expected
            assert state.position == sample
        found += len(expected)
    if xi_index == 4:
        assert found > 0


def test_sampled_tau_names_the_filtered_row(monkeypatch):
    # 25000 draws make blocks 0, 1 and a partial block 2 of 5000 rows;
    # shard 0/2 filters blocks 0 and 2.
    seen = []
    filter_images = construct.DecomposedEngine.filter_images

    def recorded(engine, images):
        seen.append(images.copy())
        return filter_images(engine, images)

    monkeypatch.setattr(construct.DecomposedEngine, "filter_images", recorded)
    search.run_search(1, sample=25000, seed=3, shard=(0, 2))
    assert [len(rows) for rows in seen] == [search.BLOCK_SIZE, 5000]
    group = dataset.autb_group()
    for index, row in (
        (0, seen[0][0]),
        (9999, seen[0][-1]),
        (20000, seen[1][0]),
        (24999, seen[1][-1]),
    ):
        tau = perm.Permutation(tuple(row.tolist()))
        assert search.sampled_tau(3, index) == group.min_coset_rep(tau)


def test_injected_table_taus_survive():
    taus = table1_taus()
    state = search.run_search(1, sample=0, extra_taus=taus)
    texts = {s.perm_text for s in state.survivors}
    group = dataset.autb_group()
    assert len(texts) == len(taus)
    for tau in taus:
        canon = group.min_coset_rep(tau)
        assert (canon.to_cycle_text() or "()") in texts


def test_search_deterministic():
    a = search.run_search(2, sample=1500, seed=5)
    b = search.run_search(2, sample=1500, seed=5)
    assert [s.perm_text for s in a.survivors] == [
        s.perm_text for s in b.survivors
    ]
    assert a.position == 1500


def test_shard_union_equals_full():
    full = {
        s.perm_text for s in search.run_search(1, sample=1200, seed=6).survivors
    }
    union = set()
    for i in range(3):
        union |= {
            s.perm_text
            for s in search.run_search(
                1, sample=1200, seed=6, shard=(i, 3)
            ).survivors
        }
    assert union == full


def test_checkpoint_resume(tmp_path):
    cp = str(tmp_path / "cp.json")
    taus = table1_taus()[:1]
    full = search.run_search(4, sample=20000, seed=7, extra_taus=taus)

    def stop_after_first_block(state):
        raise _Stop

    with pytest.raises(_Stop):
        search.run_search(
            4,
            sample=20000,
            seed=7,
            checkpoint_path=cp,
            extra_taus=taus,
            progress=stop_after_first_block,
        )
    stopped = search.load_checkpoint(cp)
    assert stopped.position == search.BLOCK_SIZE
    resumed = search.run_search(4, sample=20000, seed=7, checkpoint_path=cp)
    assert len(full.survivors) > len(stopped.survivors) > 1
    assert resumed.survivors == full.survivors
    assert resumed.position == 20000
    assert search.load_checkpoint(cp) == resumed


def test_sample_shard_resume_matches_uninterrupted(tmp_path):
    # Shard 1/3 of 65000 draws takes blocks 1 and 4; stop after block 1.
    cp = str(tmp_path / "cp.json")
    whole = search.run_search(4, sample=65000, seed=11, shard=(1, 3))
    with pytest.raises(_Stop):
        search.run_search(
            4,
            sample=65000,
            seed=11,
            shard=(1, 3),
            checkpoint_path=cp,
            progress=_raise_at(0),
        )
    assert search.load_checkpoint(cp).position == 4 * search.BLOCK_SIZE
    resumed = search.run_search(
        4, sample=65000, seed=11, shard=(1, 3), checkpoint_path=cp
    )
    assert resumed.survivors == whole.survivors
    assert resumed.position == whole.position == 65000


def test_checkpoint_mismatch_rejected(tmp_path):
    cp = str(tmp_path / "cp.json")
    search.run_search(1, sample=50, seed=8, checkpoint_path=cp)
    with pytest.raises(ValueError, match="checkpoint"):
        search.run_search(1, sample=50, seed=9, checkpoint_path=cp)
    with pytest.raises(ValueError, match="checkpoint"):
        search.run_search(2, sample=50, seed=8, checkpoint_path=cp)


def test_state_json_roundtrip(tmp_path):
    cp = str(tmp_path / "cp.json")
    st = search.SearchState(
        xi_index=3,
        seed=11,
        sample=500,
        shard=(1, 2),
        position=120,
        survivors=[search.Survivor(3, "(1,2)")],
        stages={"sets": 2, "quads": 7, "joins": 1},
    )
    first = {"sets": 1, "quads": 3, "joins": 0}
    search._start_checkpoint(cp, st)
    search._append_checkpoint(cp, 100, ["(1,2)"], first)
    search._append_checkpoint(cp, 120, [], st.stages)
    assert search.load_checkpoint(cp) == st
    with open(cp) as fh:
        lines = [json.loads(line) for line in fh]
    assert lines[0] == {
        "version": 5,
        "xi": 3,
        "seed": 11,
        "sample": 500,
        "shard": [1, 2],
    }
    assert lines[1:] == [
        {"position": 100, "hits": ["(1,2)"], "stages": first},
        {"position": 120, "hits": [], "stages": st.stages},
    ]


def test_checkpoint_ignores_torn_last_line(tmp_path):
    block = FULL_BLOCK
    seen = []
    with pytest.raises(_Stop):
        search.run_search(4, shard=(1, 4), progress=_raise_at(4 * block, seen))
    (whole,) = seen
    cp = str(tmp_path / "cp.json")
    with pytest.raises(_Stop):
        search.run_search(
            4, shard=(1, 4), checkpoint_path=cp, progress=_raise_at(2 * block)
        )
    stopped = search.load_checkpoint(cp)
    # A write cut short by a crash leaves a line without its newline.
    with open(cp, "a") as fh:
        fh.write('{"position": 30000, "hits": ["(1,')
    assert search.load_checkpoint(cp) == stopped
    with pytest.raises(_Stop):
        search.run_search(
            4, shard=(1, 4), checkpoint_path=cp, progress=_raise_at(4 * block)
        )
    with open(cp) as fh:
        text = fh.read()
    assert text.endswith("\n") and '["(1,' not in text
    resumed = search.load_checkpoint(cp)
    assert resumed.position == whole.position
    assert resumed.survivors == whole.survivors
    assert resumed.stages == whole.stages


def test_checkpoint_rejects_format_1(tmp_path):
    cp = tmp_path / "cp.json"
    old = {
        "xi_index": 1,
        "mode": "sample",
        "seed": 0,
        "sample": 50,
        "shard": [0, 1],
        "position": 50,
        "survivors": [[1, "(7,8)(12,14)", "0123456789abcdef"]],
    }
    cp.write_text(json.dumps(old, indent=1))
    message = "not a format-5 checkpoint.*format-1 to format-4"
    with pytest.raises(ValueError, match=message):
        search.load_checkpoint(str(cp))
    with pytest.raises(ValueError, match=message):
        search.run_search(1, sample=50, checkpoint_path=str(cp))
    assert json.loads(cp.read_text()) == old
    # Format-3 and format-4 logs: their full-mode shard positions name
    # other cosets.
    state = search.SearchState(1, 0, None, (1, 4))
    search._start_checkpoint(str(cp), state)
    header, = cp.read_text().splitlines()
    for old in (3, 4):
        version = '"version": %d' % old
        cp.write_text(header.replace('"version": 5', version) + "\n")
        with pytest.raises(ValueError, match=message):
            search.run_search(1, shard=(1, 4), checkpoint_path=str(cp))


def test_pooled_matches_serial():
    # X_4 has survivors dense enough for a small sample to hit some.
    # 5 blocks: of 2 workers, worker 0 filters blocks 0, 2 and 4 and
    # worker 1 blocks 1 and 3, so the last round has one block alone.
    serial = search.run_search(4, sample=50000, seed=7)
    pooled = search.run_search(4, sample=50000, seed=7, threads=2)
    assert len(serial.survivors) == 8
    assert serial.survivors == pooled.survivors
    assert serial.position == pooled.position == 50000


def test_pooled_full_prefix_matches_serial():
    def prefix(threads):
        seen = []

        def progress(state):
            seen.append(state.position)
            if state.position >= 2 * FULL_BLOCK:
                live.append(state)
                raise _Stop

        live = []
        with pytest.raises(_Stop):
            search.run_search(
                4, shard=(1, 4), progress=progress, threads=threads
            )
        assert seen == [FULL_BLOCK, 2 * FULL_BLOCK]
        return live[0]

    serial = prefix(1)
    pooled = prefix(2)
    assert serial.survivors
    assert serial.survivors == pooled.survivors
    assert serial.stages == pooled.stages
    # Raising from the callback reaped the workers.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_full_mode_resume_matches_uninterrupted(tmp_path, monkeypatch):
    block = FULL_BLOCK
    seen = []
    with pytest.raises(_Stop):
        search.run_search(4, shard=(1, 4), progress=_raise_at(4 * block, seen))
    (whole,) = seen
    cp = str(tmp_path / "cp.json")
    with pytest.raises(_Stop):
        search.run_search(
            4, shard=(1, 4), checkpoint_path=cp, progress=_raise_at(2 * block)
        )
    stopped = search.load_checkpoint(cp)
    assert stopped.position == 2 * block
    assert stopped.survivors
    calls = []
    filter_block = search._filter_block

    def counted(job):
        calls.append(job)
        return filter_block(job)

    monkeypatch.setattr(search, "_filter_block", counted)
    with pytest.raises(_Stop):
        search.run_search(
            4, shard=(1, 4), checkpoint_path=cp, progress=_raise_at(4 * block)
        )
    resumed = search.load_checkpoint(cp)
    assert len(calls) == 2
    assert resumed.position == whole.position == 4 * block
    assert resumed.survivors == whole.survivors
    assert resumed.stages == whole.stages
    assert len(whole.survivors) > len(stopped.survivors)


@pytest.mark.parametrize("xi_index", [1, 2, 3, 4])
def test_pruned_windows_match_filtered_blocks(xi_index):
    """The tree oracle's walk, pruned by the engine's prefix test, gives
    the hits of the unpruned blocks, in order, with the same end on every
    window, from the start of a shard and from a seeded position inside a
    kept depth-9 node."""
    group = dataset.autb_group()
    engine = search._worker_engine(xi_index)
    keep = tree_keep(engine)
    size, count = 7919, 16
    pruned = rejected = 0
    for shard in ((0, 1), (1, 4), (3, 4)):
        head = np.concatenate(
            list(islice(transversal_rows(group, shard, size=size), count))
        )
        # The prefixes between the first and the last are whole depth-7
        # subtrees: they hold all their leaves.
        _, firsts, counts = np.unique(
            prefix_keys(head, 7), return_index=True, return_counts=True
        )
        inside = head[firsts[1:-1], :7]
        assert len(inside) >= 2
        assert counts[1:-1].tolist() == leaf_counts(group, inside).tolist()
        same = prefix_keys(head[1:], 9) == prefix_keys(head[:-1], 9)
        inner = np.flatnonzero(same & keep_prefixes(engine, head[1:, :9])) + 1
        inner = inner[inner < len(head) - 3 * size]
        mid = int(random.Random(xi_index).choice(inner))
        for start, windows in ((0, count), (mid, 3)):
            got = transversal_windows(group, shard, start, size, keep)
            got = list(islice(got, windows))
            ends = start + size * np.arange(1, windows + 1)
            assert [end for end, _ in got] == ends.tolist()
            for end, rows in got:
                block = head[end - size : end]
                hits = engine.filter_images(rows)
                want = block[engine.filter_images(block)]
                assert np.array_equal(rows[hits], want)
                pruned += len(block) - len(rows)
                rejected += int((~hits).sum())
    # Not vacuous: the tree test drops leaves, and the filter rejects
    # some of the candidates it keeps.
    assert pruned and rejected


def test_window_without_candidates_advances_and_logs(tmp_path, monkeypatch):
    # With one 8-set per block, many blocks of X_4's shard 1/4 keep no
    # 8-set or hold no hit: each still moves the position, calls progress
    # and writes its checkpoint line.  The hits equal those of 8 blocks of
    # 8 sets, in order.
    seen = []
    with pytest.raises(_Stop):
        search.run_search(4, shard=(1, 4), progress=_raise_at(8 * FULL_BLOCK, seen))
    (whole,) = seen
    monkeypatch.setattr(search, "SETS_PER_BLOCK", 1)
    jobs = []
    filter_block = search._filter_block

    def counted(job):
        jobs.append(filter_block(job))
        return jobs[-1]

    monkeypatch.setattr(search, "_filter_block", counted)
    cp = tmp_path / "cp.jsonl"
    seen = []

    def progress(state):
        seen.append(state.position)
        if state.position >= 64 * scan.COSETS_PER_SET:
            raise _Stop

    with pytest.raises(_Stop):
        search.run_search(
            4, shard=(1, 4), checkpoint_path=str(cp), progress=progress
        )
    ends = [scan.COSETS_PER_SET * k for k in range(1, 65)]
    assert seen == ends
    assert len(jobs) == 64
    assert any(stages[0] == 0 for _, _, stages in jobs)
    assert any(stages[0] and not hits for _, hits, stages in jobs)
    lines = [json.loads(line) for line in cp.read_text().splitlines()[1:]]
    assert [line["position"] for line in lines] == ends
    assert lines[-1]["stages"] == whole.stages
    texts = [s.perm_text for s in whole.survivors]
    assert [t for line in lines for t in line["hits"]] == texts


def test_search_total():
    # A full-mode shard holds the cosets below every m-th 8-set.
    cosets = dataset.autb_group().num_right_cosets()
    assert scan.SETS * scan.COSETS_PER_SET == cosets
    for m in (2, 4, 8):
        totals = [
            search.SearchState(1, 0, None, (i, m)).total for i in range(m)
        ]
        assert sum(totals) == cosets
        if m == 2:
            assert totals == [3218 * 44100, 3217 * 44100]
    assert search.SearchState(1, 0, 300, (1, 3)).total == 300


def _spy_code_builds(monkeypatch):
    """Record every code built or registered; classification needs none.
    Aut(B) and H_1..H_4, computed once per process from B and the E_i,
    are computed before the spy starts."""
    dataset.autb_group()
    for i in range(1, 5):
        construct.h_group(i)
    calls = []
    for owner, name in (
        (construct, "build_code"),
        (equiv, "register_code_data"),
    ):

        def counted(*args, inner=getattr(owner, name), name=name):
            calls.append(name)
            return inner(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_scan_registers_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("the scan built or registered a code")

    monkeypatch.setattr(search, "register_engine_data", refuse)
    monkeypatch.setattr(construct, "build_code", refuse)
    taus = [e.tau() for e in dataset.table_entries(4)[:3]]
    state = search.run_search(4, sample=50000, seed=7, extra_taus=taus)
    assert len(state.survivors) == 3 + 8
    seen = []
    with pytest.raises(_Stop):
        search.run_search(2, progress=_raise_at(2 * FULL_BLOCK, seen))
    (whole,) = seen
    assert len(whole.survivors) == 5


def test_dedup_against_tables(monkeypatch):
    taus = table1_taus()
    calls = _spy_code_builds(monkeypatch)
    state = search.run_search(1, sample=0, extra_taus=taus)
    report = search.classify_hits(state.survivors)
    # The 5 taus lie in 5 orbits, one table row each; no code is built.
    assert calls == []
    assert report["num_hits"] == 5
    (x1,) = report["xi"]
    assert (x1["xi_index"], x1["hits"], x1["orbits"]) == (1, 5, 5)
    assert sorted(c["table_match"] for c in x1["classes"]) == [0, 1, 2, 3, 4]
    assert report["all_matched"]


def test_dedup_without_tables(monkeypatch):
    # The classes do not depend on the published tables: without them
    # the same orbits are found, and none is matched.
    taus = table1_taus()[:2]
    state = search.run_search(1, sample=0, extra_taus=taus)
    monkeypatch.setattr(dataset, "table_entries", lambda *args: ())
    report = search.classify_hits(state.survivors)
    classes = report["xi"][0]["classes"]
    assert len(classes) == 2
    assert all(c["table_match"] is None for c in classes)
    assert not report["all_matched"]


def test_orbits_share_one_registration(monkeypatch):
    # Two taus of one H_1-orbit: tau and min_coset_rep(tau * h).  They
    # share one class, and no code is registered for it.
    group = dataset.autb_group()
    tau = group.min_coset_rep(table1_taus()[0])
    h = construct.h_group(1).generators[0]
    other = group.min_coset_rep(tau * h)
    assert other != tau
    hits = [
        search.Survivor(1, t.to_cycle_text() or "()") for t in (tau, other)
    ]
    calls = _spy_code_builds(monkeypatch)
    report = search.classify_hits(hits)
    assert calls == []
    (cls,) = report["xi"][0]["classes"]
    assert cls["hits"] == [s.perm_text for s in hits]
    assert cls["orbit_size"] == 1920


def test_table_rows_lie_in_distinct_certified_orbits(monkeypatch):
    """Each X_i's table rows lie in distinct H_i-orbits, one row each,
    every orbit size divisible by 3: the Sylow certificate holds on the
    published codes."""
    members = {1: 5760, 2: 4320, 3: 9138, 4: 63924}
    entries = dataset.table_entries()
    survivors = [search.Survivor(e.table_id, e.perm_text) for e in entries]
    calls = _spy_code_builds(monkeypatch)
    report = search.classify_hits(survivors)
    assert calls == []
    assert report["num_hits"] == 264 and report["all_matched"]
    ratios = {}
    for x in report["xi"]:
        xi = x["xi_index"]
        # |Aut(E_i)| = 3 |H_i| is divisible by 9 and not by 27.
        order = construct.h_group(xi).order()
        assert order % 3 == 0 and order % 9
        rows = [i for i, e in enumerate(entries) if e.table_id == xi]
        assert x["hits"] == x["orbits"] == len(x["classes"]) == len(rows)
        assert sorted(c["table_match"] for c in x["classes"]) == rows
        assert all(len(c["hits"]) == 1 for c in x["classes"])
        assert all(c["orbit_size"] % 3 == 0 for c in x["classes"])
        assert x["orbit_members"] == members[xi]
        # Orbit-stabilizer: |orbit| |N_Aut(C)(<sigma>)| = |Aut(E_i)|, and
        # the normalizer is all of Aut(C) when <sigma> is its only Sylow
        # 3-subgroup.
        for c in x["classes"]:
            row = c["table_match"]
            product = c["orbit_size"] * entries[row].expected_aut_order
            assert product % (3 * order) == 0
            ratios[row] = product // (3 * order)
    # Two X_3 rows, |Aut| 12 and 24, have four Sylow 3-subgroups.
    other = {row: r for row, r in ratios.items() if r != 1}
    assert len(ratios) == 264 and sorted(other.values()) == [4, 4]
    assert sorted(entries[row].expected_aut_order for row in other) == [12, 24]
    assert all(entries[row].table_id == 3 for row in other)


def test_uncertified_orbit_raises(monkeypatch):
    # Under the trivial group every orbit has one member, which the
    # Sylow argument cannot certify.
    monkeypatch.setattr(
        construct, "h_group", lambda i: perm.PermGroup([], 16)
    )
    calls = _spy_code_builds(monkeypatch)
    tau = table1_taus()[0].to_cycle_text()
    with pytest.raises(RuntimeError, match="not a multiple of 3"):
        search.classify_hits([search.Survivor(1, tau)])
    assert calls == []


def test_hit_orbits_reject_wrong_h_data(monkeypatch):
    # A 16-cycle is not in H_1: its orbit leaves the hits at once.
    shift = perm.Permutation(tuple((j + 1) % 16 for j in range(16)))
    monkeypatch.setattr(
        construct, "h_group", lambda i: perm.PermGroup([shift], 16)
    )
    with pytest.raises(RuntimeError, match="fails the filter"):
        search.hit_orbits(1, table1_taus()[:1])


def test_unmatched_class_is_a_finding(monkeypatch, build_code_alt):
    """The X_2 class found by the full scan and in no published table."""
    tau = "(8,12,11,10,9)(13,15)"
    calls = _spy_code_builds(monkeypatch)
    report = search.classify_hits([search.Survivor(2, tau)])
    assert calls == []
    (cls,) = report["xi"][0]["classes"]
    assert cls["representative"] == tau
    assert cls["orbit_size"] == 240
    assert cls["table_match"] is None
    assert not report["all_matched"]
    code = construct.build_code(perm.parse_cycles(tau, 16), 2)
    assert code.is_self_dual()
    # Exact enumeration of all 2^24 words, not the information sets.
    rows = np.array(code.rows, dtype=np.uint64)
    counts = gf2.coset_words(gf2.span(rows[:16]), gf2.span(rows[16:]), 48)[0]
    assert int(np.flatnonzero(counts[1:])[0]) + 1 == 10
    assert (counts[10], counts[12]) == (768, 8592)
    sigma = construct.STANDARD_3_16_0.sigma()
    assert code.permuted(sigma.img) == code
    assert equiv.automorphism_group(code).order() == 3
    # Evidence without H_i: no table-2 code has its canonical form.
    table2 = [construct.build_table_code(e) for e in dataset.table_entries(2)]
    assert equiv.invariant(code) not in {equiv.invariant(c) for c in table2}
    other = build_code_alt(perm.parse_cycles(tau, 16), 2)
    assert other != code and equiv.are_equivalent(code, other)


# Per X_i, a complete pass: its hits and its stage counts (8-sets kept,
# good quads, joins passing D).
COMPLETE_PASSES = {
    1: (5760, {"sets": 5640, "quads": 42880, "joins": 10560}),
    2: (4560, {"sets": 5640, "quads": 34080, "joins": 11160}),
    3: (9138, {"sets": 5676, "quads": 54724, "joins": 21510}),
    4: (63924, {"sets": 5748, "quads": 92526, "joins": 71694}),
}


@pytest.mark.parametrize("xi_index", sorted(COMPLETE_PASSES))
def test_complete_pass_counts(xi_index):
    """The whole pair scan of X_i (1-3 s): every coset of every shard,
    each hit once, and the pinned stage counts."""
    hits, stages = COMPLETE_PASSES[xi_index]
    state = search.run_search(xi_index)
    cosets = dataset.autb_group().num_right_cosets()
    assert state.position == state.total == cosets
    texts = [s.perm_text for s in state.survivors]
    assert len(texts) == len(set(texts)) == hits
    assert state.stages == stages


def test_complete_x1_pass():
    """The whole-pipeline gate: all 283,783,500 cosets of X_1, whose 5760
    hits form 5 H_1-orbits, one per table-1 row, with every orbit member
    a hit.  The hit set equals the complete pass of the tree oracle
    (~20 s on one core), and so does the classification, which does not
    depend on the order of the hits."""
    state = search.run_search(1)
    cosets = dataset.autb_group().num_right_cosets()
    assert state.position == state.total == cosets
    engine = search._worker_engine(1)
    rows, end = tree_hits(engine, dataset.autb_group())
    assert end == cosets
    tree = [str(perm.Permutation(tuple(row))) for row in rows]
    assert sorted(s.perm_text for s in state.survivors) == sorted(tree)
    report = search.classify_hits(state.survivors)
    assert report == search.classify_hits([search.Survivor(1, t) for t in tree])
    (x1,) = report["xi"]
    assert (x1["hits"], x1["orbits"], x1["orbit_members"]) == (5760, 5, 5760)
    entries = dataset.table_entries()
    rows = [i for i, entry in enumerate(entries) if entry.table_id == 1]
    assert sorted(c["table_match"] for c in x1["classes"]) == rows


def test_classify_does_not_depend_on_hit_order():
    # The hits of every 64th 8-set of X_2, and a seeded shuffle of them.
    hits = search.run_search(2, shard=(5, 64)).survivors
    assert len(hits) > 20
    shuffled = list(hits)
    random.Random(5).shuffle(shuffled)
    assert shuffled != hits
    report = search.classify_hits(hits)
    assert search.classify_hits(shuffled) == report
    assert len(report["xi"][0]["classes"]) > 1


def test_hit_orbits_on_first_2m_positions():
    """Hits and H_i-orbits of the first 2,000,000 positions of the tree
    oracle's stream.  The IR equivalence search, kept as an independent
    check of the Sylow certificate, puts the orbit representatives in one
    class each."""
    expected = {1: (27, 5), 2: (84, 16), 3: (81, 48), 4: (470, 112)}
    group = dataset.autb_group()
    for xi, (hits, orbits) in expected.items():
        engine = search._worker_engine(xi)
        rows, end = tree_hits(engine, group, stop=2_000_000)
        assert end == 2_000_000
        taus = [perm.Permutation(tuple(row)) for row in rows]
        # hit_orbits raises if an orbit member fails the filter.
        found = search.hit_orbits(xi, taus)
        assert (len(taus), len(found)) == (hits, orbits), xi
        assert sum(len(h) for _, h in found) == hits
        codes = [
            search.register_engine_data(engine, min(m, key=lambda t: t.img))
            for m, _ in found
        ]
        assert equiv.partition_classes(codes) == [[k] for k in range(orbits)]
