import json
import os
import re
from itertools import islice

import pytest

from cubicsd import cli, dataset, equiv, scan, search

# Positions per full-mode block.
FULL_BLOCK = search.SETS_PER_BLOCK * scan.COSETS_PER_SET


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_feasible_text(capsys):
    code, out = run_cli(capsys, "feasible", "48", "10")
    assert code == 0
    assert "final survivors: 3-(16,0)" in out
    assert "47-(1,1)" in out


def test_feasible_json(capsys):
    code, out = run_cli(capsys, "feasible", "48", "10", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["final_survivors"] == ["3-(16,0)"]
    assert len(obj["bound_survivors"]) == 8


def test_construct_and_wenum(capsys, tmp_path):
    code, out = run_cli(capsys, "construct", "(5,6)(12,14)", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 24
    assert all(len(ln) == 48 for ln in lines)
    path = tmp_path / "code.txt"
    path.write_text(out)
    code, out = run_cli(capsys, "wenum", str(path), "--json")
    assert code == 0
    weights = json.loads(out)["weights"]
    assert weights["10"] == 768
    assert weights["12"] == 8592
    assert weights["16"] == 267831


def test_equiv_verbs(capsys, tmp_path):
    code, out = run_cli(capsys, "construct", "(5,6)(12,14)", "1")
    a = tmp_path / "a.txt"
    a.write_text(out)
    # reverse all coordinates: an equivalent code
    b = tmp_path / "b.txt"
    b.write_text(
        "\n".join(ln[::-1] for ln in out.strip().splitlines()) + "\n"
    )
    code, out = run_cli(capsys, "equiv", str(a), str(b))
    assert code == 0
    assert "equivalent via" in out


def test_autgroup(capsys, tmp_path):
    code, out = run_cli(capsys, "construct", "(5,6)(12,14)", "1")
    path = tmp_path / "a.txt"
    path.write_text(out)
    code, out = run_cli(capsys, "autgroup", str(path), "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["order"] == 3
    assert obj["generators"]
    # The [9,1] repetition code: |Aut| = 9!.
    path = tmp_path / "rep9.txt"
    path.write_text("111111111\n")
    code, out = run_cli(capsys, "autgroup", str(path), "--json")
    assert code == 0
    assert json.loads(out)["order"] == 362880


def test_verify_tables_table1(capsys, tmp_path):
    csv_path = tmp_path / "report.csv"
    code, out = run_cli(
        capsys, "verify-tables", "--table", "1", "--csv", str(csv_path)
    )
    assert code == 0
    assert "5 entries, 5 classes" in out
    assert "known misprint" in out
    assert "overall: PASS" in out
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 6  # header + 5 entries


def test_verify_tables_json_deterministic(capsys):
    code, out1 = run_cli(capsys, "verify-tables", "--table", "1", "--json")
    assert code == 0
    code, out2 = run_cli(capsys, "verify-tables", "--table", "1", "--json")
    assert out1 == out2
    report = json.loads(out1)
    assert report["num_classes"] == 5
    assert report["base_aut_order"]["computed_order"] == 73728


def test_search_sample(capsys):
    code, out = run_cli(
        capsys,
        "search",
        "--xi",
        "1",
        "--sample",
        "300",
        "--seed",
        "1",
        "--no-table-check",
        "--json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["position"] == 300
    assert obj["mode"] == "sample"


def test_search_reports_total(capsys, monkeypatch):
    code, out = run_cli(
        capsys, "search", "--xi", "1", "--sample", "300", "--no-table-check"
    )
    assert code == 0
    assert "sample position 300 of 300," in out
    # Full mode, cut to its first block.
    blocks = search._blocks
    monkeypatch.setattr(search, "_blocks", lambda st: islice(blocks(st), 1))
    argv = ["search", "--xi", "1", "--shard", "3/8", "--no-table-check"]
    code, out = run_cli(capsys, *argv, "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["mode"] == "full"
    assert obj["position"] == FULL_BLOCK
    # The cosets below the 804 8-sets numbered 3 mod 8.
    assert obj["total"] == 804 * 44100
    assert obj["stages"] == {"sets": 8, "quads": 93, "joins": 22}
    code, out = run_cli(capsys, *argv)
    assert "full position 352800 of 35456400," in out
    assert "8-sets kept 8, good quads 93, joins passing D 22\n" in out


def test_search_exits_1_on_unmatched_class(capsys, monkeypatch):
    unmatched = {
        "num_hits": 1,
        "xi": [
            {
                "xi_index": 1,
                "hits": 1,
                "orbits": 1,
                "orbit_members": 1920,
                "classes": [
                    {
                        "representative": "(1,2)",
                        "hits": ["(1,2)"],
                        "orbit_size": 1920,
                        "table_match": None,
                    }
                ],
            }
        ],
        "all_matched": False,
    }
    monkeypatch.setattr(search, "classify_hits", lambda *a, **k: unmatched)
    argv = ["search", "--xi", "1", "--sample", "50"]
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert "(1,2): 1 hits, orbit 1920 -> NEW" in out
    assert "all classes matched to tables: False" in out
    code, out = run_cli(capsys, *argv, "--no-table-check")
    assert code == 0


def _cut_search(capsys, monkeypatch, blocks, *argv):
    """Run ``cubicsd search`` in full mode cut to its first blocks."""
    cut = search._blocks
    monkeypatch.setattr(
        search, "_blocks", lambda st: islice(cut(st), blocks)
    )
    code, out = run_cli(capsys, "search", "--xi", "2", *argv, "--json")
    monkeypatch.setattr(search, "_blocks", cut)
    return code, json.loads(out)


def test_classify_merges_shard_logs(capsys, monkeypatch, tmp_path):
    # Shard i/2 takes the 8-sets numbered i mod 2: shards 0/2 and 1/2
    # cut at 296 blocks cover the first 592 blocks of 0/1, the 8-sets
    # 0..4735.  The X_2 class in no table first appears in 8-set 4721.
    logs = []
    for i in range(2):
        logs.append(str(tmp_path / ("shard%d.jsonl" % i)))
        argv = ["--shard", "%d/2" % i, "--checkpoint", logs[-1]]
        _cut_search(capsys, monkeypatch, 296, *argv, "--no-table-check")
    code, whole = _cut_search(capsys, monkeypatch, 592, "--shard", "0/1")
    # The prefix reaches the X_2 class that is in no table.
    assert code == 1
    code, merged = run_cli(capsys, "classify", *logs, "--json")
    assert code == 1
    merged = json.loads(merged)
    position, hits = 296 * FULL_BLOCK, 2282
    assert [s["position"] for s in merged["shards"]] == [position, position]
    assert merged["classify"] == whole["classify"]
    assert merged["classify"]["xi"][0]["hits"] == len(whole["hits"]) == hits
    assert "missing" not in merged["classify"]
    code, out = run_cli(capsys, "classify", *logs)
    assert "shard 1/2 position %d of 141869700" % position in out
    assert "xi=2: %d hits in " % hits in out
    assert "(8,12,11,10,9)(13,15): 36 hits, orbit 240 -> NEW" in out


def test_classify_checks_complete_runs(capsys, monkeypatch, tmp_path):
    log = tmp_path / "done.jsonl"
    state = search.SearchState(1, 0, None, (0, 1))
    search._start_checkpoint(str(log), state)
    search._append_checkpoint(
        str(log), state.total, ["(7,8)(12,14)"], state.stages
    )
    # A finished run must hold every member of its orbits.
    code, out = run_cli(capsys, "classify", str(log), "--json")
    assert code == 1
    assert json.loads(out)["classify"]["missing"] == 1920 - 1


def test_classify_needs_every_shard_at_its_exact_total(capsys, tmp_path):
    # Shard 3/4 holds fewer than a quarter of the cosets, the others
    # more: a stopped log one block short of its total is not done.
    totals = [search.SearchState(1, 0, None, (i, 4)).total for i in range(4)]
    assert min(totals) < dataset.autb_group().num_right_cosets() / 4
    for short in (None, 0, 1):
        logs = []
        for i, total in enumerate(totals):
            logs.append(str(tmp_path / ("shard%d-%s.jsonl" % (i, short))))
            search._start_checkpoint(
                logs[-1], search.SearchState(1, 0, None, (i, 4))
            )
            end = total - FULL_BLOCK if i == short else total
            hits = ["(7,8)(12,14)"] if i == 0 else []
            stages = dict.fromkeys(search.STAGES, 0)
            search._append_checkpoint(logs[-1], end, hits, stages)
        code, out = run_cli(capsys, "classify", *logs, "--json")
        report = json.loads(out)["classify"]
        if short is None:
            assert (code, report["missing"]) == (1, 1920 - 1)
        else:
            assert code == 0 and "missing" not in report


def test_classify_rejects_bad_logs(capsys, tmp_path):
    def log(name, xi, shard, seed=0):
        path = str(tmp_path / name)
        search._start_checkpoint(
            path, search.SearchState(xi, seed, None, shard)
        )
        return path

    a = log("a", 1, (0, 2))
    for other, message in (
        (log("b", 2, (1, 2)), "share xi, mode, seed and sample"),
        (log("c", 1, (1, 2), seed=3), "share xi, mode, seed and sample"),
        (log("d", 1, (0, 2)), "distinct shards"),
        (log("e", 1, (1, 3)), "distinct shards"),
    ):
        assert cli.main(["classify", a, other]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
    old = tmp_path / "v1.json"
    old.write_text(json.dumps({"xi_index": 1, "survivors": []}, indent=1))
    for path in (str(old), os.devnull):
        assert cli.main(["classify", path]) == 2
        err = capsys.readouterr().err
        assert "not a format-5 checkpoint" in err
        assert "format-1 to format-4 checkpoint cannot be read" in err


def test_search_refuses_existing_checkpoint(capsys, tmp_path):
    # A checkpoint is a log of one run: a second run on its path exits 2
    # and leaves the log as the first run wrote it.
    log = tmp_path / "cp.jsonl"
    argv = ["search", "--xi", "1", "--sample", "50", "--checkpoint", str(log)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    data = log.read_bytes()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: %s already exists" % log)
    assert log.read_bytes() == data


_GOOD_HEADER = {"version": 5, "xi": 1, "seed": 0, "sample": 50, "shard": [0, 1]}
_BAD_BLOCK = "line 2 is not a checkpoint block"
_STAGES = {"sets": 0, "quads": 0, "joins": 0}


@pytest.mark.parametrize(
    "lines, message",
    [
        ([dict(_GOOD_HEADER, version=2, mode="sample")], "not a format-5"),
        ([dict(_GOOD_HEADER, version=3)], "not a format-5"),
        ([dict(_GOOD_HEADER, version=4)], "not a format-5"),
        ([{"version": 5}], "header needs"),
        ([dict(_GOOD_HEADER, xi=9)], "header needs"),
        ([dict(_GOOD_HEADER, xi=0)], "header needs"),
        ([dict(_GOOD_HEADER, xi="1")], "header needs"),
        ([dict(_GOOD_HEADER, seed=-1)], "header needs"),
        ([dict(_GOOD_HEADER, seed=None)], "header needs"),
        ([dict(_GOOD_HEADER, sample=-5)], "header needs"),
        ([dict(_GOOD_HEADER, sample=True)], "header needs"),
        ([dict(_GOOD_HEADER, shard=[1, 1])], "header needs"),
        ([dict(_GOOD_HEADER, shard=[0])], "header needs"),
        ([dict(_GOOD_HEADER, shard="0/1")], "header needs"),
        ([_GOOD_HEADER, {"position": "10", "hits": []}], _BAD_BLOCK),
        ([_GOOD_HEADER, {"position": -1, "hits": []}], _BAD_BLOCK),
        ([_GOOD_HEADER, {"position": 10, "hits": "(1,2)"}], _BAD_BLOCK),
        ([_GOOD_HEADER, {"position": 10, "hits": [5]}], _BAD_BLOCK),
        ([_GOOD_HEADER, {"position": 10, "hits": []}], _BAD_BLOCK),
        (
            [
                _GOOD_HEADER,
                {"position": 10, "hits": [], "stages": dict(_STAGES, sets=-1)},
            ],
            _BAD_BLOCK,
        ),
        (
            [_GOOD_HEADER, {"position": 10, "hits": [], "stages": [0, 0, 0]}],
            _BAD_BLOCK,
        ),
    ],
    ids=[
        "format-2",
        "format-3",
        "format-4",
        "no-keys",
        "xi-9",
        "xi-0",
        "xi-text",
        "seed-negative",
        "seed-null",
        "sample-negative",
        "sample-bool",
        "shard-1/1",
        "shard-short",
        "shard-text",
        "position-text",
        "position-negative",
        "hits-text",
        "hit-number",
        "stages-missing",
        "stages-negative",
        "stages-list",
    ],
)
def test_bad_checkpoint_exits_2(capsys, tmp_path, lines, message):
    log = tmp_path / "bad.jsonl"
    text = "".join(json.dumps(obj) + "\n" for obj in lines)
    log.write_text(text)
    with pytest.raises(ValueError, match=re.escape(message)):
        search.load_checkpoint(str(log))
    assert cli.main(["classify", str(log)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: %s" % log) and message in err
    assert log.read_text() == text


def test_error_exit_codes(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("10x\n")
    code = cli.main(["wenum", str(bad)])
    assert code == 2
    code = cli.main(["wenum", str(tmp_path / "missing.txt")])
    assert code == 2
    for n in ("0", "-4"):
        # An n below 2 used to list no types and exit 0.
        code = cli.main(["feasible", n, "10"])
        assert code == 2
        assert "need n >= 2" in capsys.readouterr().err
    for d in ("12", "11"):
        # Both used to print "final survivors: 3-(16,0)" and exit 0.
        code = cli.main(["feasible", "48", d])
        assert code == 2
        assert "(48, 10)" in capsys.readouterr().err


def test_verify_tables_registers_each_code_once(monkeypatch, tmp_path):
    # Aut(B), which the report includes, registers B once per process.
    dataset.autb_group()
    # One line per call, from whichever process makes it: forked pool
    # workers inherit the spy.
    log = tmp_path / "calls"
    register = equiv.register_code_data

    def counted(*args):
        with open(log, "a") as fh:
            fh.write("%d\n" % os.getpid())
        return register(*args)

    monkeypatch.setattr(equiv, "register_code_data", counted)
    serial = cli.verify_tables(table_id=1)
    assert len(log.read_text().split()) == 5
    log.unlink()
    # The caller and the workers each register the codes they build and
    # send them back with their data; the caller registers no code again.
    pooled = cli.verify_tables(table_id=1, threads=2)
    assert len(log.read_text().split()) == 5
    assert pooled == serial


def test_verify_tables_rejects_unknown_table():
    # An unknown id used to select no entries and report a pass.
    with pytest.raises(ValueError, match="table id"):
        cli.verify_tables(table_id=7)


def test_search_rejects_bad_shard_and_threads(capsys):
    for extra, message in (
        (["--shard", "3/2"], "invalid shard"),
        (["--shard", "0/0"], "invalid shard"),
        (["--shard", "1"], "shard must be I/M"),
        (["--threads", "0"], "threads must be at least 1"),
        (["--sample", "-5"], "sample must be at least 0"),
        (["--sample", str(2**32 + 1)], "sample must be at most 2**32"),
        (["--seed", "-1"], "seed must be at least 0, got -1"),
        (["--seed", "-1", "--threads", "2"], "seed must be at least 0"),
    ):
        code = cli.main(["search", "--xi", "1", "--sample", "200"] + extra)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


def test_threads_only_where_used(capsys):
    code = cli.main(["verify-tables", "--table", "1", "--threads", "0"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: threads")
    for argv in (
        ["feasible", "48", "10"],
        ["construct", "(5,6)(12,14)", "1"],
        ["wenum", "code.txt"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--threads", "7"])
        assert exc.value.code == 2


def test_parser_rejects_unknown_xi():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["construct", "(1,2)", "9"])
