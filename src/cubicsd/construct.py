"""Building [48,24] codes from an order-3 fixed-point-free automorphism.

The automorphism sigma is laid out with its cycles first and contiguous:
cycle j occupies coordinates p*j .. p*j + p - 1 (0-based), fixed points
follow.  A code invariant under sigma splits into the fixed subcode
(words constant on every cycle) and the even subcode (words of even
weight on every cycle); the first projects to a binary code of length
c + f, the second maps cycle-wise to vectors over the even-weight
polynomial ring P.  ``AutType`` is both the type and this layout:
``AutType.sigma()`` is the standard sigma.

``DecomposedEngine`` holds what the search needs for one X_i: the table
``m_table`` and the coset filter, both from the weight formula
2a + 3b - 4s.  It enumerates no codewords; a built code's weights come
from ``gf2.BinaryCode.low_weight_words``.  The filter rejects a tau on
the images of the 12 weight-4 base words first, which leaves ~0.2-3% of
taus, and checks all 255 nonzero base words only for those.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cyclicring, dataset, gf2, perm
from .cyclicring import PolyP


@dataclass(frozen=True)
class AutType:
    """An automorphism type: prime order p, c p-cycles, f fixed points."""

    p: int
    c: int
    f: int

    def __post_init__(self):
        if self.p < 3 or self.p % 2 == 0:
            raise ValueError("p must be an odd prime")
        if self.c < 1 or self.f < 0:
            raise ValueError("need c >= 1 and f >= 0")

    @property
    def n(self):
        return self.p * self.c + self.f

    def __str__(self):
        return "%d-(%d,%d)" % (self.p, self.c, self.f)

    def sigma(self):
        """The standard automorphism (1,2,..,p)(p+1,..,2p)... as a permutation."""
        p, c, n = self.p, self.c, self.n
        img = list(range(n))
        for j in range(c):
            base = p * j
            for i in range(p):
                img[base + i] = base + (i + 1) % p
        return perm.Permutation(tuple(img))


STANDARD_3_16_0 = AutType(3, 16, 0)


# ---------------------------------------------------------------------------
# The maps pi and phi

def pi_inverse(word, layout):
    """Lift a length-(c+f) word: bit j is replicated over cycle j."""
    if not 0 <= word < (1 << (layout.c + layout.f)):
        raise ValueError("length mismatch")
    p, c = layout.p, layout.c
    cyc = (1 << p) - 1
    out = 0
    for j in range(c):
        if word >> j & 1:
            out |= cyc << (p * j)
    fixed = word >> c
    return out | (fixed << (p * c))


def pi_project(word, layout):
    """One bit per cycle / fixed point; inverse of :func:`pi_inverse` on
    sigma-fixed words."""
    p, c, f = layout.p, layout.c, layout.f
    out = 0
    for j in range(c):
        if word >> (p * j) & 1:
            out |= 1 << j
    out |= (word >> (p * c)) << c
    return out


def phi_vector(word, layout):
    """Cycle restrictions of an even-subcode word, as PolyP entries."""
    p, c = layout.p, layout.c
    mask = (1 << p) - 1
    return tuple(PolyP(p, (word >> (p * j)) & mask) for j in range(c))


def phi_inverse(vec, layout):
    """Lay a P-vector onto the cycle coordinates (zeros on fixed points)."""
    p = layout.p
    if len(vec) != layout.c:
        raise ValueError("length mismatch")
    out = 0
    for j, a in enumerate(vec):
        if a.p != p:
            raise ValueError("mismatched p")
        out |= a.mask << (p * j)
    return out


def phi_inverse_rows(vec, layout):
    """The p-1 binary rows spanning the cycle-shift orbit of a P-vector.

    The shifts x^t * vec, t = 0..p-2, span the same GF(2) space as the
    full orbit; zero rows are dropped.
    """
    rows = []
    for t in range(layout.p - 1):
        shifted = tuple(cyclicring.poly_shift(a, t) for a in vec)
        row = phi_inverse(shifted, layout)
        if row:
            rows.append(row)
    return rows


def gf4_row_to_pvector(row):
    """Embed a GF(4) row as a vector over P (p = 3)."""
    return tuple(cyclicring.gf4_embed(v) for v in row)


# ---------------------------------------------------------------------------
# The code builder for type 3-(16,0)

def permuted_base_rows(tau, gb=None):
    """RREF rows of the base code with coordinates permuted by tau."""
    if gb is None:
        gb = dataset.gb_matrix()
    if tau.degree != gb.n_cols:
        raise ValueError("tau degree mismatch")
    rows = [tau.apply_to_word(r) for r in gb.rows]
    return gf2.rref(rows, gb.n_cols)[0]


def even_part_rows(xi_index):
    """The 16 binary rows spanning E_i = phi^-1(X_i), the [48,16] even
    part shared by every code built from X_i."""
    rows = []
    for grow in dataset.x_generator(xi_index):
        rows.extend(
            phi_inverse_rows(gf4_row_to_pvector(grow), STANDARD_3_16_0)
        )
    return rows


def build_code(tau, xi_index):
    """The [48,24] code generated by the lifted tau-permuted base code and
    the embedded GF(4) code (I | X_i).

    Raises RuntimeError on rank deficiency or failed self-duality, which
    would indicate an implementation bug rather than bad input.
    """
    layout = STANDARD_3_16_0
    rows = [pi_inverse(r, layout) for r in permuted_base_rows(tau)]
    rows.extend(even_part_rows(xi_index))
    code = gf2.BinaryCode.from_rows(rows, layout.n)
    if code.k != 24:
        raise RuntimeError("construction produced rank %d != 24" % code.k)
    if not code.is_self_dual():
        raise RuntimeError("construction failed self-duality")
    return code


def build_table_code(entry):
    return build_code(entry.tau(), entry.table_id)


# ---------------------------------------------------------------------------
# Decomposed weight engine (p=3, c=16, f=0)

# Rows of the fixed-side filter per call; keeps the m_table gather in cache.
FILTER_CHUNK = 1024

# The minimum distance a constructed code must reach to be a hit.
MIN_DISTANCE = 10


class DecomposedEngine:
    """The minimum-distance filter for codes C_i^tau with fixed X_i.

    The cycle-support mask of each of the 4^8 words of the embedded
    GF(4) code is tabulated once per X_i; only the 256-word fixed side
    depends on tau.  The search table and filter use that a mixed
    codeword has weight 2a + 3b - 4s, where a is the GF(4) weight of the
    even part, b the weight of the projected fixed part, and s the size
    of their common cycle support.
    """

    def __init__(self, xi_index):
        self.xi_index = xi_index
        rows = even_part_rows(xi_index)
        if len(rows) != 16:
            raise RuntimeError("expected 16 binary rows for the even part")
        words = gf2.span(np.array(rows, dtype=np.uint64))
        support = np.zeros(1 << 16, dtype=np.uint16)
        for j in range(16):
            cyc = (words >> np.uint64(3 * j)) & np.uint64(7)
            support |= (cyc != 0).astype(np.uint16) << np.uint16(j)
        self.support = support
        self._m_table = None
        # The fixed side of the filter: bit i of base row k, and three
        # times the weight of each nonzero base word, in gf2.span order
        # (a coordinate permutation keeps every weight).
        base = np.array(dataset.gb_matrix().rows, dtype=np.uint16)
        self._base_bits = base >> np.arange(16, dtype=np.uint16)[:, None] & 1
        fixed = gf2.span(base)[1:]
        weights = np.bitwise_count(fixed)
        self._fixed_weight3 = 3 * weights.astype(np.int16)
        # The first stage of the filter: the bit positions of each
        # lightest base word (the 12 weight-4 words of B), one per row.
        light = fixed[weights == weights.min()]
        bit_of = light[:, None] >> np.arange(16, dtype=np.uint16) & 1
        self._light_support = np.nonzero(bit_of)[1].reshape(len(light), -1)
        self._even_min = int(np.bitwise_count(words[1:]).min())

    # -- whole-code delegations; perfbench/ still traces and calls them ----

    def weight_enumerator(self, tau):
        return build_code(tau, self.xi_index).weight_enumerator()

    def words_of_weights(self, tau):
        return build_code(tau, self.xi_index).low_weight_words()

    def min_distance(self, tau):
        return build_code(tau, self.xi_index).min_distance()

    # -- the coset filter --------------------------------------------------

    def filter_images(self, images):
        """Which taus give a code of minimum distance >= MIN_DISTANCE.

        ``images`` is a (T, 16) integer array, row t the image tuple of
        one tau; a row that is not a permutation of 0..15 raises
        ValueError.  The 255 nonzero fixed parts of C_i^tau are the base
        code's words with bit i moved to bit tau(i), so no reduction is
        needed: the minimum weight over words with fixed part u is
        ``m_table()[u] + 3 wt(u)``, and words without one weigh 2a.

        A tau is rejected as soon as one fixed part is too light, so the
        filter runs in two exact stages.  The first checks only the
        images of the lightest base words, which reject almost every
        tau; the second checks all 255 words of the few rows left.
        """
        images = np.asarray(images)
        if images.shape[-1:] != (16,) or images.dtype.kind not in "iu":
            raise ValueError(
                "tau images must be integers with a last axis of 16, got "
                "%s of shape %s" % (images.dtype, images.shape)
            )
        # Distinct powers of two for a permutation, so sums are exact; a
        # value outside 0..15 shifts to 0 or to a bit above 15.
        bits = np.left_shift(np.uint16(1), images.reshape(-1, 16))
        if not (np.bitwise_or.reduce(bits, axis=1) == 0xFFFF).all():
            raise ValueError("every tau image row must permute 0..15")
        bits = bits.astype(np.uint16, copy=False)
        table = self.m_table()
        light = bits[:, self._light_support].sum(axis=2, dtype=np.uint16)
        light_weight3 = 3 * self._light_support.shape[1]
        alive = np.flatnonzero(
            np.take(table, light).min(axis=1) + light_weight3 >= MIN_DISTANCE
        )
        hits = np.zeros(len(bits), dtype=bool)
        for lo in range(0, len(alive), FILTER_CHUNK):
            rows = alive[lo : lo + FILTER_CHUNK]
            fixed = gf2.span(bits[rows] @ self._base_bits)[:, 1:]
            weights = np.take(table, fixed) + self._fixed_weight3
            hits[rows] = weights.min(axis=1) >= MIN_DISTANCE
        return hits & (self._even_min >= MIN_DISTANCE)

    def min_weight_at_least(self, tau):
        """True iff the constructed code has minimum distance >= MIN_DISTANCE."""
        return bool(self.filter_images(tau.img)[0])

    # -- the precomputed search table --------------------------------------

    def m_table(self):
        """For every 16-bit mask u: min over even words v of 2a - 4s.

        Adding 3*wt(u) gives the minimum weight over all codewords with
        fixed part u.  With S the support of v, 2a - 4s sums, over the
        cycles j, 0 if j is not in S, +2 if j is in S but not in u, and
        -2 if j is in both.  So a min-plus pass per bit turns the table
        "0 on supports, infinite elsewhere" into m, one bit j at a time
        moving from S-coordinates to u-coordinates.
        """
        if self._m_table is None:
            f = np.full(1 << 16, 1000, dtype=np.int16)
            f[self.support] = 0
            for j in range(16):
                pair = f.reshape(-1, 2, 1 << j)
                off, on = pair[:, 0], pair[:, 1]
                u_off, u_on = np.minimum(off, on + 2), np.minimum(off, on - 2)
                pair[:, 0], pair[:, 1] = u_off, u_on
            self._m_table = f
        return self._m_table


# ---------------------------------------------------------------------------
# Self-duality condition checker

def _subspace_intersection(rows_a, rows_b, n):
    """Basis of the intersection of two GF(2) row spaces (Zassenhaus)."""
    # Stack [a | a] and [b | 0] with the first block in the low bits
    # (pivoted first); rows whose first block reduces to zero carry an
    # intersection vector in the second block.
    aug = [r | (r << n) for r in rows_a] + [r for r in rows_b]
    reduced, _ = gf2.rref(aug, 2 * n)
    mask = (1 << n) - 1
    inter = [r >> n for r in reduced if (r & mask) == 0 and (r >> n)]
    return gf2.rref(inter, n)[0]


@dataclass
class ConditionReport:
    """Structured pass/fail result of the decomposition checks."""

    checks: list

    def add(self, name, passed, detail=""):
        self.checks.append((name, bool(passed), detail))

    @property
    def passed(self):
        return all(ok for _, ok, _ in self.checks)

    def as_dict(self):
        return {
            "passed": self.passed,
            "checks": [
                {"name": n, "passed": ok, "detail": d}
                for n, ok, d in self.checks
            ],
        }


def verify_selfdual_conditions(code, layout=STANDARD_3_16_0):
    """Extract the fixed/even subcodes of a sigma-invariant code and check
    the decomposition dimensions and both self-duality conditions."""
    p, c, f, n = layout.p, layout.c, layout.f, layout.n
    if code.n != n:
        raise ValueError("code length does not match layout")
    sigma = layout.sigma()
    if code.permuted(sigma.img) != code:
        raise ValueError("sigma is not an automorphism of the code")

    report = ConditionReport([])

    # Fixed subcode: intersection with the pi-lifted full space.
    fixed_space = [pi_inverse(1 << j, layout) for j in range(c + f)]
    f_rows = _subspace_intersection(code.rows, fixed_space, n)
    # Even subcode: per-cycle even-weight space, zero on fixed points.
    even_space = []
    for j in range(c):
        base = p * j
        for i in range(1, p):
            even_space.append((1 << base) | (1 << (base + i)))
    e_rows = _subspace_intersection(code.rows, even_space, n)

    dim_f, dim_e = len(f_rows), len(e_rows)
    report.add(
        "dim_fixed", dim_f == (c + f) // 2, "dim F = %d, want %d" % (dim_f, (c + f) // 2)
    )
    report.add(
        "dim_even",
        dim_e == c * (p - 1) // 2,
        "dim E = %d, want %d" % (dim_e, c * (p - 1) // 2),
    )
    # Direct sum: dimensions add up and the two subspaces meet trivially.
    inter = _subspace_intersection(f_rows, e_rows, n)
    report.add(
        "direct_sum",
        not inter and dim_f + dim_e == code.k,
        "F + E must be all of C",
    )

    # Condition (i): the projected fixed subcode is self-dual.
    c_pi = gf2.BinaryCode.from_rows(
        [pi_project(r, layout) for r in f_rows], c + f
    )
    report.add("projected_self_dual", c_pi.is_self_dual(), "C_pi of length %d" % (c + f))

    # Condition (ii): every pair of even-subcode rows is isotropic.
    vecs = [phi_vector(r, layout) for r in e_rows]
    iso = all(
        cyclicring.hermitian_form(u, v).is_zero for u in vecs for v in vecs
    )
    report.add("isotropic_pairs", iso, "sum u_i(x) v_i(x^-1) = 0 for all pairs")
    return report
