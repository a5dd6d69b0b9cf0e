import multiprocessing
import os

import pytest

from cubicsd import dataset, search


def table1_taus():
    return [e.tau() for e in dataset.table_entries(1)]


def test_sampled_tau_deterministic_and_canonical():
    group = dataset.autb_group()
    for i in (0, 1, 57):
        a = search.sampled_tau(9, i)
        b = search.sampled_tau(9, i)
        assert a == b
        assert group.is_min_coset_rep(a)
    assert search.sampled_tau(9, 0) != search.sampled_tau(10, 0)


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
    full = search.run_search(1, sample=2500, seed=7, extra_taus=taus)
    partial = search.run_search(
        1, sample=1000, seed=7, checkpoint_path=cp, extra_taus=taus
    )
    # extend the target and resume from the checkpoint file
    partial.sample = 2500
    search._write_checkpoint(cp, partial)
    resumed = search.run_search(1, sample=2500, seed=7, checkpoint_path=cp)
    assert {s.perm_text for s in resumed.survivors} == {
        s.perm_text for s in full.survivors
    }
    assert resumed.position == 2500


def test_checkpoint_mismatch_rejected(tmp_path):
    cp = str(tmp_path / "cp.json")
    search.run_search(1, sample=50, seed=8, checkpoint_path=cp)
    with pytest.raises(ValueError, match="checkpoint"):
        search.run_search(1, sample=50, seed=9, checkpoint_path=cp)
    with pytest.raises(ValueError, match="checkpoint"):
        search.run_search(2, sample=50, seed=8, checkpoint_path=cp)


def test_state_json_roundtrip():
    st = search.SearchState(
        xi_index=3,
        mode="sample",
        seed=11,
        sample=500,
        shard=(1, 2),
        position=120,
        survivors=[search.Survivor(3, "(1,2)", "abcd")],
    )
    back = search.SearchState.from_json(st.to_json())
    assert back == st


def test_pooled_matches_serial():
    # X_4 has survivors dense enough for a small sample to hit some.
    serial = search.run_search(4, sample=4000, seed=7)
    pooled = search.run_search(4, sample=4000, seed=7, threads=2)
    assert len(serial.survivors) == 4
    assert serial.survivors == pooled.survivors
    assert serial.position == pooled.position == 4000


class _Stop(Exception):
    pass


def test_pooled_full_prefix_matches_serial():
    def prefix(threads):
        seen = []

        def progress(state):
            seen.append(state.position)
            if state.position >= 2 * search.BLOCK_SIZE:
                raise _Stop

        state = search.SearchState(2, "full", 0, None, (0, 4))
        with pytest.raises(_Stop):
            search.run_search(
                2,
                shard=(0, 4),
                state=state,
                progress=progress,
                threads=threads,
            )
        assert seen == [search.BLOCK_SIZE, 2 * search.BLOCK_SIZE]
        return state

    serial = prefix(1)
    pooled = prefix(2)
    assert serial.survivors
    assert serial.survivors == pooled.survivors
    # Raising from the callback shut the pool down.
    assert multiprocessing.active_children() == []


def test_full_mode_resume_matches_uninterrupted(tmp_path, monkeypatch):
    def stop_after(blocks):
        def progress(state):
            if state.position >= blocks * search.BLOCK_SIZE:
                raise _Stop

        return progress

    whole = search.SearchState(2, "full", 0, None, (0, 4))
    with pytest.raises(_Stop):
        search.run_search(2, shard=(0, 4), state=whole, progress=stop_after(4))
    cp = str(tmp_path / "cp.json")
    with pytest.raises(_Stop):
        search.run_search(
            2, shard=(0, 4), checkpoint_path=cp, progress=stop_after(2)
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
            2, shard=(0, 4), checkpoint_path=cp, progress=stop_after(4)
        )
    resumed = search.load_checkpoint(cp)
    assert len(calls) == 2
    assert resumed.position == whole.position == 4 * search.BLOCK_SIZE
    assert resumed.survivors == whole.survivors
    assert len(whole.survivors) > len(stopped.survivors)


def test_search_total():
    cosets = dataset.autb_group().num_right_cosets()
    totals = [
        search.SearchState(1, "full", 0, None, (i, 8)).total for i in range(8)
    ]
    assert sum(totals) == cosets
    # 283783500 = 8 * 35472937 + 4: the first 4 shards take one more.
    assert totals == [35472938] * 4 + [35472937] * 4
    assert search.SearchState(1, "sample", 0, 300, (1, 3)).total == 300


def test_dedup_against_tables(monkeypatch):
    taus = table1_taus()
    state = search.run_search(1, sample=0, extra_taus=taus)
    calls = []
    register = search.register_engine_data

    def counted(engine, tau):
        calls.append(tau)
        return register(engine, tau)

    monkeypatch.setattr(search, "register_engine_data", counted)
    report = search.dedup_survivors(state.survivors, against_tables=True)
    # The 5 survivors, then only the 5 table entries sharing a digest.
    assert len(calls) == 10
    assert report["num_survivors"] == 5
    assert len(report["classes"]) == 5
    assert report["all_matched"]


def test_dedup_without_tables():
    taus = table1_taus()[:2]
    state = search.run_search(1, sample=0, extra_taus=taus)
    report = search.dedup_survivors(state.survivors, against_tables=False)
    assert len(report["classes"]) == 2
    assert all(c["table_match"] is None for c in report["classes"])
    assert not report["all_matched"] or not report["classes"]
