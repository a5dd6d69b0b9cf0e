import json
import multiprocessing

import numpy as np
import pytest

from cubicsd import construct, dataset, equiv, gf2, perm, search


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
    )
    search._start_checkpoint(cp, st)
    search._append_checkpoint(cp, 100, ["(1,2)"])
    search._append_checkpoint(cp, 120, [])
    assert search.load_checkpoint(cp) == st
    with open(cp) as fh:
        lines = [json.loads(line) for line in fh]
    assert lines[0] == {
        "version": 3,
        "xi": 3,
        "seed": 11,
        "sample": 500,
        "shard": [1, 2],
    }
    assert lines[1:] == [
        {"position": 100, "hits": ["(1,2)"]},
        {"position": 120, "hits": []},
    ]


def test_checkpoint_ignores_torn_last_line(tmp_path):
    block = search.BLOCK_SIZE
    seen = []
    with pytest.raises(_Stop):
        search.run_search(2, shard=(0, 4), progress=_raise_at(4 * block, seen))
    (whole,) = seen
    cp = str(tmp_path / "cp.json")
    with pytest.raises(_Stop):
        search.run_search(
            2, shard=(0, 4), checkpoint_path=cp, progress=_raise_at(2 * block)
        )
    stopped = search.load_checkpoint(cp)
    # A write cut short by a crash leaves a line without its newline.
    with open(cp, "a") as fh:
        fh.write('{"position": 30000, "hits": ["(1,')
    assert search.load_checkpoint(cp) == stopped
    with pytest.raises(_Stop):
        search.run_search(
            2, shard=(0, 4), checkpoint_path=cp, progress=_raise_at(4 * block)
        )
    with open(cp) as fh:
        text = fh.read()
    assert text.endswith("\n") and '["(1,' not in text
    resumed = search.load_checkpoint(cp)
    assert resumed.position == whole.position
    assert resumed.survivors == whole.survivors


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
    with pytest.raises(ValueError, match="not a format-3 checkpoint"):
        search.load_checkpoint(str(cp))
    with pytest.raises(ValueError, match="not a format-3 checkpoint"):
        search.run_search(1, sample=50, checkpoint_path=str(cp))
    assert json.loads(cp.read_text()) == old


def test_pooled_matches_serial():
    # X_4 has survivors dense enough for a small sample to hit some.
    # 5 blocks: the pool of 2 holds 4 at a time, so it runs ahead.
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
            if state.position >= 2 * search.BLOCK_SIZE:
                live.append(state)
                raise _Stop

        live = []
        with pytest.raises(_Stop):
            search.run_search(
                2, shard=(0, 4), progress=progress, threads=threads
            )
        assert seen == [search.BLOCK_SIZE, 2 * search.BLOCK_SIZE]
        return live[0]

    serial = prefix(1)
    pooled = prefix(2)
    assert serial.survivors
    assert serial.survivors == pooled.survivors
    # Raising from the callback shut the pool down.
    assert multiprocessing.active_children() == []


def test_full_mode_resume_matches_uninterrupted(tmp_path, monkeypatch):
    block = search.BLOCK_SIZE
    seen = []
    with pytest.raises(_Stop):
        search.run_search(2, shard=(0, 4), progress=_raise_at(4 * block, seen))
    (whole,) = seen
    cp = str(tmp_path / "cp.json")
    with pytest.raises(_Stop):
        search.run_search(
            2, shard=(0, 4), checkpoint_path=cp, progress=_raise_at(2 * block)
        )
    stopped = search.load_checkpoint(cp)
    assert stopped.position == 2 * search.BLOCK_SIZE
    assert stopped.survivors
    calls = []
    filter_block = search._filter_block

    def counted(job):
        calls.append(job)
        return filter_block(job)

    monkeypatch.setattr(search, "_filter_block", counted)
    with pytest.raises(_Stop):
        search.run_search(
            2, shard=(0, 4), checkpoint_path=cp, progress=_raise_at(4 * block)
        )
    resumed = search.load_checkpoint(cp)
    assert len(calls) == 2
    assert resumed.position == whole.position == 4 * search.BLOCK_SIZE
    assert resumed.survivors == whole.survivors
    assert len(whole.survivors) > len(stopped.survivors)


def test_search_total():
    cosets = dataset.autb_group().num_right_cosets()
    totals = [
        search.SearchState(1, 0, None, (i, 8)).total for i in range(8)
    ]
    assert sum(totals) == cosets
    # 283783500 = 8 * 35472937 + 4: the first 4 shards take one more.
    assert totals == [35472938] * 4 + [35472937] * 4
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
        search.run_search(2, progress=_raise_at(2 * search.BLOCK_SIZE, seen))
    (whole,) = seen
    assert len(whole.survivors) == 2


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
        assert [c["table_match"] for c in x["classes"]] == rows
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


def test_hit_orbits_on_first_2m_positions():
    """Hits and H_i-orbits of the first 2,000,000 stream positions.  The
    IR equivalence search, kept as an independent check of the Sylow
    certificate, puts the orbit representatives in one class each."""
    expected = {1: (27, 5), 2: (84, 16), 3: (81, 48), 4: (470, 112)}
    for xi, (hits, orbits) in expected.items():
        seen = []
        with pytest.raises(_Stop):
            search.run_search(
                xi, progress=_raise_at(2_000_000, seen), threads=2
            )
        (state,) = seen
        assert state.position == 2_000_000
        taus = [perm.parse_cycles(s.perm_text, 16) for s in state.survivors]
        # hit_orbits raises if an orbit member fails the filter.
        found = search.hit_orbits(xi, taus)
        assert (len(state.survivors), len(found)) == (hits, orbits), xi
        assert sum(len(h) for _, h in found) == hits
        engine = search._worker_engine(xi)
        codes = [
            search.register_engine_data(engine, min(m, key=lambda t: t.img))
            for m, _ in found
        ]
        assert equiv.partition_classes(codes) == [[k] for k in range(orbits)]
