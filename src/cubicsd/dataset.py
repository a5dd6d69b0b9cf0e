"""Embedded dataset: the [16,8] base code, its automorphism group, the
four GF(4) matrices, the generators of the automorphism groups of their
even parts, and the 264 published table entries.

Everything is shipped as plain-text files under ``data/`` so the ground
truth stays diffable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib.resources import files

from . import cyclicring, gf2, perm

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
def autb_generators():
    return tuple(
        perm.parse_cycles(ln.strip(), 16)
        for ln in _read("autb.txt").splitlines()
        if ln.strip()
    )


@lru_cache(maxsize=None)
def autb_group():
    return perm.PermGroup(list(autb_generators()), 16)


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
def aute_generators(i):
    """48-point generators of Aut(E_i), E_i = phi^-1(X_i) the [48,16]
    even part of every code built from X_i (``data/aute.txt``, lines
    ``i;<cycles>``)."""
    x_matrix(i)  # validate i
    gens = []
    for ln in _read("aute.txt").splitlines():
        if ln.strip():
            tid, text = ln.split(";")
            if int(tid) == i:
                gens.append(perm.parse_cycles(text, 48))
    return tuple(gens)


@lru_cache(maxsize=None)
def h_group(i):
    """H_i, the action of Aut(E_i) on the 16 cycles {3j, 3j+1, 3j+2}, as
    a degree-16 group.  For h in H_i, tau and tau * h build equivalent
    codes from X_i."""
    gens = []
    for g in aute_generators(i):
        img = tuple(g.img[3 * j] // 3 for j in range(16))
        if any(g.img[p] // 3 != img[p // 3] for p in range(48)):
            raise ValueError("aute.txt: a generator splits a cycle")
        gens.append(perm.Permutation(img))
    return perm.PermGroup(gens, 16)


@lru_cache(maxsize=None)
def x_generator(i):
    """The full generator matrix (I | X_i) over GF(4)."""
    x = x_matrix(i)
    return tuple(
        tuple(1 if c == r else 0 for c in range(8)) + x[r] for r in range(8)
    )


@lru_cache(maxsize=None)
def table_entries(table_id=None):
    """The published (table_id, permutation, |Aut|) entries."""
    if table_id is not None and table_id not in TABLE_SIZES:
        raise ValueError("table id must be 1..4, got %r" % (table_id,))
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
    if table_id is not None:
        out = [e for e in out if e.table_id == table_id]
    return tuple(out)


def citations_text():
    return _read("citations.txt")
