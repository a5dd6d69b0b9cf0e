"""Command line surface: table verification, coset search, the type
sieve, and small wrappers around the library (equivalence testing,
automorphism groups, construction, weight enumeration).

Reports are printed as aligned text by default and as JSON with
``--json``; JSON output is deterministic (sorted keys, no timestamps)
so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import BrokenExecutor

from . import construct, dataset, equiv, feasibility, gf2, perm, search

EXPECTED_WE = {10: 768, 12: 8592, 14: 57600, 16: 267831}


# ---------------------------------------------------------------------------
# verify-tables

def _verify_entry(index):
    """Check one table entry; returns its report row and its code, with
    its canonical form attached for the later class partition."""
    entry = dataset.table_entries()[index]
    row = {"index": index, "table_id": entry.table_id, "perm": entry.perm_text}
    try:
        code = construct.build_table_code(entry)
        we, low, high = code.low_weight_words()
        equiv.register_code_data(code, low, high)
    except Exception as exc:
        row.update(pass_=False, error=str(exc))
        return row, None
    row["self_dual"] = code.is_self_dual()
    row["min_distance"] = min(w for w in range(1, 49) if we[w])
    row["weight_enumerator_ok"] = all(
        we[w] == v for w, v in EXPECTED_WE.items()
    )
    row["aut_order"] = equiv.automorphism_group(code).order()
    row["aut_order_expected"] = entry.expected_aut_order
    row["pass_"] = (
        row["self_dual"]
        and row["min_distance"] == 10
        and row["weight_enumerator_ok"]
        and row["aut_order"] == entry.expected_aut_order
    )
    return row, code


def verify_tables(table_id=None, threads=1):
    """Verify every table entry and the pairwise inequivalence claim."""
    if threads < 1:
        raise ValueError("threads must be at least 1, got %d" % threads)
    if table_id is not None:
        dataset.table_entries(table_id)  # validate table_id
    entries = dataset.table_entries()
    indices = [
        i
        for i, e in enumerate(entries)
        if table_id is None or e.table_id == table_id
    ]
    results = list(search.ordered_map(_verify_entry, indices, threads))
    rows = [row for row, _ in results]
    codes = [code for _, code in results if code is not None]
    classes = equiv.partition_classes(codes)
    duplicates = [m for m in classes if len(m) > 1]
    report = {
        "entries": rows,
        "num_entries": len(rows),
        "num_codes_built": len(codes),
        "num_classes": len(classes),
        "duplicates": duplicates,
        "all_entries_pass": all(r.get("pass_") for r in rows),
        "all_inequivalent": len(classes) == len(codes),
        "base_aut_order": dataset.autb_order_report(),
    }
    report["pass_"] = report["all_entries_pass"] and report["all_inequivalent"]
    return report


def _print_verify_text(report, out):
    for r in report["entries"]:
        if "error" in r:
            out.write(
                "table %d  %-40s ERROR %s\n"
                % (r["table_id"], r["perm"], r["error"])
            )
            continue
        out.write(
            "table %d  %-44s d=%-3d we=%s |Aut|=%-3d (expect %-3d) %s\n"
            % (
                r["table_id"],
                r["perm"],
                r["min_distance"],
                "ok " if r["weight_enumerator_ok"] else "BAD",
                r["aut_order"],
                r["aut_order_expected"],
                "pass" if r["pass_"] else "FAIL",
            )
        )
    out.write(
        "%d entries, %d classes, inequivalent: %s\n"
        % (
            report["num_entries"],
            report["num_classes"],
            report["all_inequivalent"],
        )
    )
    if report["duplicates"]:
        out.write("duplicate classes: %s\n" % report["duplicates"])
    aut = report["base_aut_order"]
    out.write(
        "base code |Aut| computed %d, printed %d%s\n"
        % (
            aut["computed_order"],
            aut["printed_order"],
            " (known misprint, not a failure)" if aut["misprint"] else "",
        )
    )
    out.write("overall: %s\n" % ("PASS" if report["pass_"] else "FAIL"))


def _write_verify_csv(report, path):
    fields = [
        "index",
        "table_id",
        "perm",
        "self_dual",
        "min_distance",
        "weight_enumerator_ok",
        "aut_order",
        "aut_order_expected",
        "pass_",
        "error",
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for r in report["entries"]:
            writer.writerow({k: r.get(k, "") for k in fields})


# ---------------------------------------------------------------------------
# helpers

def _emit(obj, args, text_renderer):
    if args.json:
        json.dump(obj, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
    else:
        text_renderer(obj, sys.stdout)


def _read_code(path):
    with open(path) as fh:
        mat = gf2.BinaryMatrix.parse(fh.read())
    return gf2.BinaryCode.from_matrix(mat)


def _parse_shard(text):
    try:
        i, m = text.split("/")
        return int(i), int(m)
    except ValueError:
        raise ValueError("shard must be I/M, got %r" % text) from None


# ---------------------------------------------------------------------------
# subcommands

def cmd_verify_tables(args):
    report = verify_tables(table_id=args.table, threads=args.threads)
    if args.csv:
        _write_verify_csv(report, args.csv)
    _emit(report, args, _print_verify_text)
    return 0 if report["pass_"] else 1


def _render_classes(report, out):
    """Text lines for a ``search.classify_hits`` report."""
    for x in report["xi"]:
        matched = [c for c in x["classes"] if c["table_match"] is not None]
        out.write(
            "xi=%d: %d hits in %d orbits (%d members), %d classes, "
            "%d table rows matched\n"
            % (
                x["xi_index"],
                x["hits"],
                x["orbits"],
                x["orbit_members"],
                len(x["classes"]),
                len(matched),
            )
        )
        for cls in x["classes"]:
            match = cls["table_match"]
            out.write(
                "  %s: %d hits, orbit %d -> %s\n"
                % (
                    cls["representative"],
                    len(cls["hits"]),
                    cls["orbit_size"],
                    "table entry %d" % match if match is not None else "NEW",
                )
            )
    out.write("all classes matched to tables: %s\n" % report["all_matched"])
    if "missing" in report:
        out.write(
            "complete: %d orbit members are not hits\n" % report["missing"]
        )


def _classify(states, table_check):
    """Classify the hits of finished or stopped shards of one search.

    With ``table_check``, a class in no published table is a failure.
    When all m shards of a full-mode search reached their totals, every
    orbit member must be a hit: the report then carries the number of
    members that are not.  Returns (report, exit code).
    """
    report = search.classify_hits([s for st in states for s in st.survivors])
    failed = table_check and not report["all_matched"]
    complete = len(states) == states[0].shard[1] and all(
        st.mode == "full" and st.position >= st.total for st in states
    )
    if complete:
        report["missing"] = sum(
            x["orbit_members"] - x["hits"] for x in report["xi"]
        )
        failed = failed or report["missing"] > 0
    return report, 1 if failed else 0


def cmd_search(args):
    shard = _parse_shard(args.shard)
    state = search.run_search(
        args.xi,
        sample=args.sample,
        seed=args.seed,
        shard=shard,
        checkpoint_path=args.checkpoint,
        threads=args.threads,
    )
    classes, status = _classify([state], not args.no_table_check)
    report = {
        "xi_index": args.xi,
        "mode": state.mode,
        "position": state.position,
        "total": state.total,
        "stages": state.stages,
        "hits": [s.perm_text for s in state.survivors],
        "classify": classes,
    }

    def render(rep, out):
        out.write(
            "xi=%d %s position %d of %d, %d hits\n"
            % (
                rep["xi_index"],
                rep["mode"],
                rep["position"],
                rep["total"],
                len(rep["hits"]),
            )
        )
        if rep["mode"] == "full":
            out.write(
                "8-sets kept %(sets)d, good quads %(quads)d, joins "
                "passing D %(joins)d\n" % rep["stages"]
            )
        _render_classes(rep["classify"], out)

    _emit(report, args, render)
    return status


def cmd_classify(args):
    states = [search.load_checkpoint(path) for path in args.checkpoints]
    first = states[0]
    run = (first.xi_index, first.mode, first.seed, first.sample)
    for path, st in zip(args.checkpoints, states):
        if (st.xi_index, st.mode, st.seed, st.sample) != run:
            raise ValueError(
                "%s: checkpoints must share xi, mode, seed and sample" % path
            )
    shards = [st.shard for st in states]
    if len({m for _, m in shards}) != 1 or len(set(shards)) != len(shards):
        raise ValueError("checkpoints must be distinct shards i/m of one m")
    classes, status = _classify(states, True)
    report = {
        "shards": [
            {
                "shard": "%d/%d" % st.shard,
                "position": st.position,
                "total": st.total,
            }
            for st in states
        ],
        "classify": classes,
    }

    def render(rep, out):
        for sh in rep["shards"]:
            out.write(
                "shard %s position %d of %d\n"
                % (sh["shard"], sh["position"], sh["total"])
            )
        _render_classes(rep["classify"], out)

    _emit(report, args, render)
    return status


def cmd_feasible(args):
    reports = feasibility.full_pipeline(args.n, args.d)
    bound_survivors = [
        str(t) for t in feasibility.surviving_types(args.n, args.d)
    ]
    obj = {
        "n": args.n,
        "d": args.d,
        "bound_survivors": bound_survivors,
        "eliminations": [
            r.as_dict() for r in reports if r.status != "survives"
        ],
        "final_survivors": [
            str(r.type) for r in reports if r.status == "survives"
        ],
    }

    def render(rep, out):
        out.write("bound survivors: %s\n" % ", ".join(rep["bound_survivors"]))
        for e in rep["eliminations"]:
            if e["type"] in rep["bound_survivors"]:
                out.write(
                    "  %-10s %-24s %s\n"
                    % (e["type"], e["status"], e["detail"])
                )
        out.write("final survivors: %s\n" % ", ".join(rep["final_survivors"]))

    _emit(obj, args, render)
    return 0


def cmd_autgroup(args):
    code = _read_code(args.file)
    group = equiv.automorphism_group(code)
    obj = {
        "n": code.n,
        "k": code.k,
        "order": group.order(),
        "generators": [
            g.to_cycle_text() for g in group.generators if not g.is_identity
        ],
    }
    _emit(
        obj,
        args,
        lambda rep, out: out.write(
            "|Aut| = %d\ngenerators: %s\n"
            % (rep["order"], " ".join(rep["generators"]) or "()")
        ),
    )
    return 0


def cmd_equiv(args):
    a = _read_code(args.file_a)
    b = _read_code(args.file_b)
    iso = equiv.find_isomorphism(a, b)
    obj = {
        "equivalent": iso is not None,
        "witness": str(iso) if iso else None,
    }

    def render(rep, out):
        if rep["equivalent"]:
            out.write("equivalent via %s\n" % rep["witness"])
        else:
            out.write("not equivalent\n")

    _emit(obj, args, render)
    return 0 if iso is not None else 1


def cmd_construct(args):
    tau = perm.parse_cycles(args.tau, 16)
    code = construct.build_code(tau, args.xi)
    mat = gf2.BinaryMatrix(48, code.rows)
    if args.json:
        json.dump(
            {"n": 48, "k": code.k, "rows": mat.to_text().splitlines()},
            sys.stdout,
            indent=1,
            sort_keys=True,
        )
        sys.stdout.write("\n")
    else:
        sys.stdout.write(mat.to_text())
    return 0


def cmd_wenum(args):
    code = _read_code(args.file)
    we = code.weight_enumerator()
    obj = {
        "n": code.n,
        "k": code.k,
        "weights": {str(w): int(c) for w, c in enumerate(we) if c},
    }

    def render(rep, out):
        for w, c in sorted(rep["weights"].items(), key=lambda t: int(t[0])):
            out.write("A_%s = %s\n" % (w, c))

    _emit(obj, args, render)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cubicsd",
        description="Self-dual [48,24,10] codes with an order-3 "
        "fixed-point-free automorphism: verification and search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="JSON output")

    p = sub.add_parser("verify-tables", help="rebuild and check all 264 codes")
    common(p)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--table", type=int, choices=(1, 2, 3, 4))
    p.add_argument("--csv", metavar="PATH", help="also write a CSV report")
    p.set_defaults(func=cmd_verify_tables)

    p = sub.add_parser("search", help="filter coset representatives")
    common(p)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--xi", type=int, choices=(1, 2, 3, 4), required=True)
    p.add_argument("--sample", type=int, help="seeded sample size (default: the full pair scan)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shard", default="0/1", metavar="I/M")
    p.add_argument(
        "--checkpoint", metavar="PATH", help="write the hit log to a new file"
    )
    p.add_argument(
        "--no-table-check",
        action="store_true",
        help="exit 0 even if a class matches no published table row",
    )
    p.set_defaults(func=cmd_search)

    p = sub.add_parser(
        "classify", help="classify the hits of search checkpoints"
    )
    common(p)
    p.add_argument(
        "checkpoints",
        nargs="+",
        metavar="CHECKPOINT",
        help="logs of distinct shards of one search",
    )
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("feasible", help="run the automorphism type sieve")
    common(p)
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.set_defaults(func=cmd_feasible)

    p = sub.add_parser("autgroup", help="automorphism group of a code")
    common(p)
    p.add_argument("file")
    p.set_defaults(func=cmd_autgroup)

    p = sub.add_parser("equiv", help="test two codes for equivalence")
    common(p)
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("construct", help="build a code from (tau, X index)")
    common(p)
    p.add_argument("tau", help="cycle notation in S16, e.g. '(5,6)(12,14)'")
    p.add_argument("xi", type=int, choices=(1, 2, 3, 4))
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("wenum", help="weight enumerator of a code")
    common(p)
    p.add_argument("file")
    p.set_defaults(func=cmd_wenum)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except BrokenExecutor as exc:
        sys.stderr.write("error: a worker process died: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
