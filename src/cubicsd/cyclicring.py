"""Arithmetic in the even-weight polynomial quotient ring.

P denotes the cyclic code of even-weight polynomials in F2[x]/(x^p - 1)
for an odd prime p.  Elements are stored as p-bit masks (coefficient of
x^i at bit i).  When 2 is a primitive root modulo p, P is a field with
2^(p-1) elements; for p = 3 it is GF(4), with 1 -> e(x) = x + x^2,
omega -> x e(x), omega^2 -> x^2 e(x).

GF(4) scalars are the integers 0..3 in the basis {1, omega}:
0, 1, 2 = omega, 3 = omega^2.  Addition is XOR, conjugation is squaring.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf2

# ---------------------------------------------------------------------------
# GF(4) scalars

GF4_ZERO, GF4_ONE, GF4_OMEGA, GF4_OMEGA2 = 0, 1, 2, 3

_GF4_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)

_GF4_CHARS = {"0": 0, "1": 1, "w": 2, "W": 3}
_GF4_NAMES = {v: k for k, v in _GF4_CHARS.items()}


def gf4_mul(a, b):
    return _GF4_MUL[a][b]


def gf4_add(a, b):
    return a ^ b


def gf4_conj(a):
    """Conjugation on GF(4) is squaring."""
    return _GF4_MUL[a][a]


def parse_gf4_matrix(text):
    """Parse rows of space-separated symbols from {0, 1, w, W}."""
    rows = []
    width = None
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        try:
            row = [_GF4_CHARS[c] for c in ln.split()]
        except KeyError as exc:
            raise ValueError("bad GF(4) symbol %r" % (exc.args[0],)) from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError("ragged rows in GF(4) matrix text")
        rows.append(row)
    if not rows:
        raise ValueError("empty GF(4) matrix text")
    return rows


def format_gf4_matrix(rows):
    return "\n".join(" ".join(_GF4_NAMES[v] for v in row) for row in rows)


def gf4_hermitian_product(u, v):
    """Sum of u_i * conj(v_i) over GF(4)."""
    if len(u) != len(v):
        raise ValueError("length mismatch")
    acc = 0
    for a, b in zip(u, v):
        acc ^= _GF4_MUL[a][gf4_conj(b)]
    return acc


def is_gf4_hermitian_self_orthogonal(rows):
    return all(
        gf4_hermitian_product(r, s) == 0 for r in rows for s in rows
    )


def gf4_code_min_weight(rows):
    """Exact minimum Hamming weight over all 4^k codewords.

    The two GF(4) coordinates-planes (1-part and omega-part) are packed
    into bitmasks, so a codeword is a pair of masks and its weight is
    the popcount of their OR.
    """
    k = len(rows)
    if k > 8:
        raise ValueError("enumeration budget exceeded")
    n = len(rows[0])
    if n > 63:
        raise ValueError("enumeration limited to n <= 63")

    def planes(row):
        b0 = b1 = 0
        for i, val in enumerate(row):
            if val & 1:
                b0 |= 1 << i
            if val & 2:
                b1 |= 1 << i
        return b0, b1

    words = [(0, 0)]
    for row in rows:
        mults = [planes([gf4_mul(c, val) for val in row]) for c in range(4)]
        words = [
            (w0 ^ m0, w1 ^ m1) for (w0, w1) in words for (m0, m1) in mults
        ]
    return min(
        ((w0 | w1).bit_count() for (w0, w1) in words if w0 | w1), default=0
    )


# ---------------------------------------------------------------------------
# The ring P

@dataclass(frozen=True)
class PolyP:
    """An even-weight polynomial in F2[x]/(x^p - 1), as a p-bit mask."""

    p: int
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << self.p):
            raise ValueError("mask exceeds p bits")
        if self.mask.bit_count() % 2:
            raise ValueError("polynomial must have even weight")

    def __add__(self, other):
        self._check(other)
        return PolyP(self.p, self.mask ^ other.mask)

    def __mul__(self, other):
        return poly_mul(self, other)

    def _check(self, other):
        if self.p != other.p:
            raise ValueError("mismatched p")

    def weight(self):
        return self.mask.bit_count()

    @property
    def is_zero(self):
        return self.mask == 0


def poly_zero(p):
    return PolyP(p, 0)


def poly_identity(p):
    """The multiplicative identity of P: x + x^2 + ... + x^(p-1)."""
    return PolyP(p, ((1 << p) - 1) ^ 1)


def poly_mul(a, b):
    """Cyclic convolution in F2[x]/(x^p - 1)."""
    a._check(b)
    p = a.p
    full = (1 << p) - 1
    acc = 0
    bm = b.mask
    i = 0
    while bm:
        if bm & 1:
            acc ^= ((a.mask << i) | (a.mask >> (p - i))) & full if i else a.mask
        bm >>= 1
        i += 1
    return PolyP(p, acc)


def poly_shift(a, t):
    """Multiplication by x^t."""
    p = a.p
    t %= p
    if t == 0:
        return a
    full = (1 << p) - 1
    return PolyP(p, ((a.mask << t) | (a.mask >> (p - t))) & full)


def conj(a):
    """The substitution x -> x^(-1): bit i moves to bit (p - i) mod p."""
    out = 0
    for i in range(a.p):
        if a.mask >> i & 1:
            out |= 1 << ((a.p - i) % a.p)
    return PolyP(a.p, out)


def poly_pow(a, e):
    acc = poly_identity(a.p)
    base = a
    while e:
        if e & 1:
            acc = poly_mul(acc, base)
        base = poly_mul(base, base)
        e >>= 1
    return acc


def all_elements(p):
    """All 2^(p-1) elements of P (even-weight masks)."""
    return [
        PolyP(p, m) for m in range(1 << p) if m.bit_count() % 2 == 0
    ]


# ---------------------------------------------------------------------------
# GF(4) <-> P (p = 3)

_EMBED = (0, 0b110, 0b101, 0b011)  # 0, e, x*e, x^2*e


def gf4_embed(g):
    """The field isomorphism GF(4) -> P for p = 3 (omega -> x e(x))."""
    return PolyP(3, _EMBED[g])


def gf4_embed_alt(g):
    """The alternative isomorphism omega -> x^2 e(x) (x -> x^2 twist)."""
    return PolyP(3, _EMBED[(0, 1, 3, 2)[g]])


def gf4_from_poly(a):
    if a.p != 3:
        raise ValueError("GF(4) correspondence requires p = 3")
    return _EMBED.index(a.mask)


# ---------------------------------------------------------------------------
# Vectors over P and the Hermitian form

def hermitian_form(u, v):
    """Sum over i of u_i(x) v_i(x^(-1)); zero means an isotropic pair."""
    if len(u) != len(v):
        raise ValueError("length mismatch")
    if not u:
        raise ValueError("empty vectors")
    p = u[0].p
    acc = poly_zero(p)
    for a, b in zip(u, v):
        if a.p != p or b.p != p:
            raise ValueError("mismatched p")
        acc = acc + poly_mul(a, conj(b))
    return acc


def hermitian_form_power(u, v):
    """The power-form variant: sum of u_i * v_i^(2^((p-1)/2)).

    For p with 2 a primitive root this agrees with :func:`hermitian_form`.
    """
    p = u[0].p
    e = 1 << ((p - 1) // 2)
    acc = poly_zero(p)
    for a, b in zip(u, v):
        acc = acc + poly_mul(a, poly_pow(b, e))
    return acc


# ---------------------------------------------------------------------------
# Special structure at p = 7 and p = 5

def idempotent_split(p):
    """The idempotents e1 = 1+x+x^2+x^4 and e2 = 1+x^3+x^5+x^6 of P (p=7)."""
    if p != 7:
        raise ValueError("split implemented for p=7 only")
    e1 = PolyP(7, 0b0010111)
    e2 = PolyP(7, 0b1101001)
    return e1, e2


def ideal_elements(e):
    """The ideal {0, e, xe, ..., x^(p-1) e} generated by an idempotent."""
    seen = {0}
    out = [poly_zero(e.p)]
    for t in range(e.p):
        el = poly_shift(e, t)
        if el.mask not in seen:
            seen.add(el.mask)
            out.append(el)
    return out


def circulant(a):
    """The p x p circulant whose first row is the coefficient vector.

    Row j holds the coefficients shifted right by j; any nonzero
    even-weight circulant has GF(2) rank p - 1.
    """
    p = a.p
    rows = [poly_shift(a, j).mask for j in range(p)]
    return gf2.BinaryMatrix(p, tuple(rows))
