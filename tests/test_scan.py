import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from cubicsd import dataset, perm, scan, search
from reference import random_element

ROOT = Path(__file__).resolve().parents[1]


def _fresh(code):
    """The stdout of ``code`` run in a fresh interpreter."""
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_eight_sets_in_lex_order():
    sets = [scan.eight_set(k) for k in range(scan.SETS)]
    assert sets == [[0, *rest] for rest in combinations(range(1, 16), 7)]


def test_pairs_come_from_the_weight_4_words():
    engine = search._worker_engine(1)
    assert scan._pair_groups(engine._light_support) == [
        [(0, 12), (3, 8), (4, 7), (5, 6)],
        [(1, 2), (9, 13), (10, 15), (11, 14)],
    ]
    # A word that is not a pair union breaks the shape.
    light = engine._light_support.copy()
    light[0] = [0, 1, 2, 3]
    with pytest.raises(ValueError, match="pair unions"):
        scan._pair_groups(light)
    with pytest.raises(ValueError, match="pair unions"):
        scan._pair_groups(engine._light_support[:11])


def test_coset_representatives_of_autb_in_w():
    group = dataset.autb_group()
    pair_scan = scan.PairScan(search._worker_engine(1), group)
    reps = [perm.Permutation(tuple(row)) for row in pair_scan._reps.tolist()]
    assert [str(w) for w in reps] == ["()", "(1,13)", "(2,3)", "(1,13)(2,3)"]
    # A coset of W splits into the 4 cosets of Aut(B) w tau.
    rng = np.random.default_rng(3)
    tau = perm.Permutation(tuple(rng.permutation(16).tolist()))
    cosets = {group.min_coset_rep(w * tau) for w in reps}
    assert len(cosets) == 4
    h = random_element(group, random.Random(3))
    assert group.min_coset_rep(h * reps[1] * tau) in cosets


@pytest.mark.parametrize("xi_index", [1, 4])
def test_block_hits_are_filtered_representatives(xi_index):
    # Every hit of a block is a lex-least representative that passes the
    # filter, and the hits are distinct.
    group = dataset.autb_group()
    engine = search._worker_engine(xi_index)
    rows, counts = scan.PairScan(engine, group).block(range(40, 80))
    assert rows.dtype == np.uint8 and len(rows)
    assert engine.filter_images(rows).all()
    assert np.array_equal(group.min_coset_reps(rows), rows)
    assert len({tuple(r) for r in rows.tolist()}) == len(rows)
    assert counts[0] <= 40 and counts[2] * 4 >= len(rows)


def test_full_mode_block_loads_no_numpy_ma():
    # np.unique and np.setdiff1d import numpy.ma on their first call, which
    # costs a fresh process 10-20 ms; one full-mode block must not.
    code = (
        "import sys\n"
        "from cubicsd import search\n"
        "class Stop(Exception):\n"
        "    pass\n"
        "def stop(state):\n"
        "    raise Stop\n"
        "try:\n"
        "    search.run_search(4, progress=stop)\n"
        "except Stop:\n"
        "    pass\n"
        "print('numpy.ma' in sys.modules, 'cubicsd.scan' in sys.modules)\n"
    )
    assert _fresh(code) == "False True\n"


def test_other_modes_do_not_load_the_scan():
    code = (
        "import sys\n"
        "from cubicsd import cli, search\n"
        "search.run_search(1, sample=100)\n"
        "print('cubicsd.scan' in sys.modules)\n"
    )
    assert _fresh(code) == "False\n"
