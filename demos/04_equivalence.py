"""Code equivalence and automorphism groups.

Each code gets one canonical-labelling traversal: a pruned
individualization-refinement walk over the incidence structure of its
low-weight codewords.  Equal canonical forms mean equivalent codes, the
two canonical labellings compose into a witness, and the automorphisms
found along the way generate the whole group, so the answers are exact.
"""

import random

from cubicsd import (
    automorphism_group,
    build_table_code,
    dataset,
    find_isomorphism,
    partition_classes,
)

entries = dataset.table_entries(1)
codes = [build_table_code(e) for e in entries]

# a shuffled copy is recognized, with an explicit witness
rnd = random.Random(1)
img = list(range(48))
rnd.shuffle(img)
shuffled = codes[0].permuted(img)
iso = find_isomorphism(codes[0], shuffled)
print("shuffle recognized:", iso is not None)
print("witness:", iso.to_cycle_text()[:60], "...")

# distinct table entries are inequivalent
print("\npairwise classes among the 5 entries of the first table:")
classes = partition_classes(codes)
print("  %d codes -> %d classes" % (len(codes), len(classes)))

print("\nautomorphism group orders (published values %s):"
      % [e.expected_aut_order for e in entries])
for entry, code in zip(entries, codes):
    group = automorphism_group(code)
    print("  %-30s |Aut| = %d" % (entry.perm_text, group.order()))
