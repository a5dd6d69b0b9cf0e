"""A small seeded search over the coset space.

Candidates are drawn uniformly from S16, canonicalized to coset
representatives, and kept when the constructed code reaches distance
10.  Known good permutations from the published tables are injected to
show the filter accepting them.  The hits are then classified: grouped
into orbits under the automorphisms of the even part, one class per
orbit, and matched to the table rows whose coset lies in the orbit.
"""

from cubicsd import classify_hits, dataset, run_search

known = [e.tau() for e in dataset.table_entries(1)[:2]]
state = run_search(1, sample=20_000, seed=1, extra_taus=known)

print("mode: %s, scanned %d candidates" % (state.mode, state.position))
print("hits: %d" % len(state.survivors))
for s in state.survivors:
    print("  %s" % s.perm_text)

report = classify_hits(state.survivors)
for x in report["xi"]:
    print(
        "\nX_%d: %d hits in %d orbits, %d classes"
        % (x["xi_index"], x["hits"], x["orbits"], len(x["classes"]))
    )
    for cls in x["classes"]:
        match = cls["table_match"]
        where = "table entry %d" % match if match is not None else "NEW"
        print(
            "  %s (orbit of %d cosets) -> %s"
            % (", ".join(cls["hits"]), cls["orbit_size"], where)
        )
print("all matched to published codes:", report["all_matched"])
