"""The automorphism group of the [16,8,4] base code.

The group is computed from the code: the canonical-labelling traversal
finds its generators and certifies their group's order.  Schreier-Sims
gives a membership test, and the stabilizer chain yields one
lex-minimal representative per right coset in S16.  The search space of
the classification is exactly this set of coset representatives.
"""

import random
from math import factorial

from cubicsd import dataset

group = dataset.autb_group()
print("computed generators:")
for g in group.generators:
    print("  %s (order %d)" % (g.to_cycle_text(), g.order()))

report = dataset.autb_order_report()
print("\ncomputed order: %d" % report["computed_order"])
print("printed order:  %d (possible in S16: %s)"
      % (report["printed_order"], report["printed_order_possible"]))
print("right cosets in S16: %d" % group.num_right_cosets())

# canonicalizing a random permutation picks out its coset representative
rnd = random.Random(0)
img = list(range(16))
rnd.shuffle(img)
from cubicsd import Permutation

tau = Permutation(tuple(img))
rep = group.min_coset_rep(tau)
print("\nrandom tau:     %s" % tau)
print("coset rep:      %s" % rep)
print("same coset:     %s" % group.same_right_coset(tau, rep))
print("rep is minimal: %s" % group.is_min_coset_rep(rep))
