"""Embedded dataset: the [16,8] base code, the four GF(4) matrices and
the 264 published table entries, and the base code's automorphism
group, computed from its generator matrix.

The data is shipped as plain-text files under ``data/`` so the ground
truth stays diffable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib.resources import files

from . import cyclicring, equiv, gf2, perm

# The printed order of the automorphism group of the base code.  It is
# impossible (the factor 23 does not divide 16!), see autb_order_report().
PRINTED_AUTB_ORDER = 76728

TABLE_SIZES = {1: 5, 2: 20, 3: 121, 4: 118}


def _read(name):
    return files("cubicsd.data").joinpath(name).read_text()


@dataclass(frozen=True)
class TableEntry:
    """One published code: which X matrix and which permutation tau."""

    table_id: int
    perm_text: str
    expected_aut_order: int

    def tau(self):
        return perm.parse_cycles(self.perm_text, 16)


@lru_cache(maxsize=None)
def gb_matrix():
    """Generator matrix of the base singly-even self-dual [16,8,4] code."""
    return gf2.BinaryMatrix.parse(_read("gb.txt"))


@lru_cache(maxsize=None)
def autb_group():
    """Aut(B), the automorphism group of the base code, from the
    certified traversal of ``equiv.automorphism_group``."""
    return equiv.automorphism_group(gf2.BinaryCode.from_matrix(gb_matrix()))


def autb_order_report():
    """Computed |Aut(B)| with the misprint flag for the printed value."""
    computed = autb_group().order()
    from math import factorial

    return {
        "computed_order": computed,
        "printed_order": PRINTED_AUTB_ORDER,
        "printed_order_possible": factorial(16) % PRINTED_AUTB_ORDER == 0,
        "misprint": computed != PRINTED_AUTB_ORDER,
    }


@lru_cache(maxsize=None)
def x_matrix(i):
    """The standard-form right half X_i (8x8 over GF(4)), 1 <= i <= 4."""
    if i not in (1, 2, 3, 4):
        raise ValueError("X matrix index must be 1..4")
    return tuple(
        tuple(row) for row in cyclicring.parse_gf4_matrix(_read("x%d.txt" % i))
    )


@lru_cache(maxsize=None)
def x_generator(i):
    """The full generator matrix (I | X_i) over GF(4)."""
    x = x_matrix(i)
    return tuple(
        tuple(1 if c == r else 0 for c in range(8)) + x[r] for r in range(8)
    )


@lru_cache(maxsize=None)
def _all_table_entries():
    """Every published entry, parsed from ``tables.txt`` once."""
    out = []
    for ln in _read("tables.txt").splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        tid, ptext, aut = ln.split(";")
        entry = TableEntry(int(tid), ptext, int(aut))
        entry.tau()  # validate
        if entry.expected_aut_order % 3:
            raise ValueError("table |Aut| must be divisible by 3")
        out.append(entry)
    return tuple(out)


def table_entries(table_id=None):
    """The published (table_id, permutation, |Aut|) entries: all of
    them, or those of one table."""
    if table_id is None:
        return _all_table_entries()
    if table_id not in TABLE_SIZES:
        raise ValueError("table id must be 1..4, got %r" % (table_id,))
    return tuple(e for e in _all_table_entries() if e.table_id == table_id)


def citations_text():
    return _read("citations.txt")
