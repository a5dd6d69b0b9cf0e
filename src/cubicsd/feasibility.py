"""The type sieve: which odd-prime automorphism types p-(c,f) are
possible for a binary self-dual [n, n/2, d] code.

Three layers of elimination are applied in order.  The combinatorial
bounds use the staircase function g(k) and a parity condition on c.
The congruence layer compares the admissible A_10 values of the full
code against the forced weight distribution of the fixed subcode.
The remaining types are settled by published nonexistence results,
shipped as a citations file; the locally checkable fragments of those
arguments are re-verified here.

For (n, d) = (48, 10) the pipeline leaves exactly one type, 3-(16,0).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, gcd

from . import cyclicring, dataset, gf2
from .construct import AutType

# The two admissible A_10 values for a singly-even self-dual
# [48,24,10] code (weight enumerators W_48,1 and W_48,2).
A10_CANDIDATES = (704, 768)

STATUSES = (
    "survives",
    "eliminated_bound_i",
    "eliminated_bound_ii",
    "eliminated_parity_iii",
    "eliminated_congruence",
    "eliminated_external",
)


@dataclass(frozen=True)
class EliminationReport:
    """Verdict for one automorphism type, with the instantiated reason."""

    type: AutType
    status: str
    detail: str
    citation: str | None = None

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError("unknown status %r" % self.status)
        if self.status == "eliminated_external" and not self.citation:
            raise ValueError("external elimination needs a citation")

    @property
    def eliminated(self):
        return self.status != "survives"

    def as_dict(self):
        out = {
            "type": str(self.type),
            "status": self.status,
            "detail": self.detail,
        }
        if self.citation:
            out["citation"] = self.citation
        return out


def g(k, d):
    """The staircase bound d + ceil(d/2) + ... + ceil(d/2^(k-1))."""
    if k < 1:
        raise ValueError("need k >= 1")
    if d < 1:
        raise ValueError("need d >= 1")
    return sum(ceil(d / 2**i) for i in range(k))


def multiplicative_order(a, m):
    if gcd(a, m) != 1:
        raise ValueError("%d is not a unit modulo %d" % (a, m))
    x = a % m
    k = 1
    while x != 1:
        x = x * a % m
        k += 1
    return k


def is_primitive_root(a, p):
    return multiplicative_order(a, p) == p - 1


def odd_primes_below(n):
    return [p for p in range(3, n, 2) if all(p % q for q in range(3, p, 2))]


def _strict(d, k):
    # The refinement clause: equality in the bound is impossible once
    # d <= 2^(k-2).
    return k >= 2 and d <= 2 ** (k - 2)


def bound_report(t, d):
    """Apply the combinatorial bounds (i), (ii) and the parity test (iii)."""
    p, c, f = t.p, t.c, t.f
    k1 = (p - 1) * c // 2
    need = g(k1, d)
    if p * c < need or (p * c == need and _strict(d, k1)):
        reason = "pc = %d < g(%d) = %d" % (p * c, k1, need)
        if p * c == need:
            reason = (
                "pc = %d = g(%d) but d = %d <= 2^%d forbids equality"
                % (p * c, k1, d, k1 - 2)
            )
        return EliminationReport(t, "eliminated_bound_i", reason)
    if f > c:
        k2 = (f - c) // 2
        need = g(k2, d)
        if f < need or (f == need and _strict(d, k2)):
            reason = "f = %d < g(%d) = %d" % (f, k2, need)
            if f == need:
                reason = (
                    "f = %d = g(%d) but d = %d <= 2^%d forbids equality"
                    % (f, k2, d, k2 - 2)
                )
            return EliminationReport(t, "eliminated_bound_ii", reason)
    if c % 2 and is_primitive_root(2, p):
        return EliminationReport(
            t,
            "eliminated_parity_iii",
            "2 is a primitive root modulo %d, so c must be even; c = %d"
            % (p, c),
        )
    return EliminationReport(t, "survives", "passes bounds (i)-(iii)")


def feasible_types(n, d):
    """All types p-(c,f) with pc + f = n, with their bound verdicts.

    Returns a list of (AutType, EliminationReport) over every odd prime
    p < n and every c >= 1 with f = n - pc >= 0.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if n % 2:
        raise ValueError("n must be even")
    if d < 2:
        raise ValueError("need d >= 2")
    out = []
    for p in odd_primes_below(n):
        for c in range(1, n // p + 1):
            t = AutType(p, c, n - p * c)
            out.append((t, bound_report(t, d)))
    return out


def surviving_types(n, d):
    return [t for t, rep in feasible_types(n, d) if not rep.eliminated]


def congruence_eliminate(t, a10_candidates=A10_CANDIDATES):
    """Eliminate a type via A_i = B_i (mod p) at weight 10.

    Applicable when the fixed subcode can have no weight-10 word at all,
    which forces A_10 = 0 (mod p).  That happens for 47-(1,1), where the
    fixed code is the length-48 repetition code, and for 23-(2,2), where
    fixed words have weight 23a + b with a <= 2, b <= 2.
    """
    if (t.p, t.c, t.f) not in ((47, 1, 1), (23, 2, 2)):
        raise ValueError("congruence argument not applicable to %s" % t)
    residues = {a10: a10 % t.p for a10 in a10_candidates}
    if all(residues.values()):
        detail = "B_10 = 0 forces A_10 = 0 (mod %d), but %s" % (
            t.p,
            ", ".join(
                "%d mod %d = %d" % (a, t.p, r) for a, r in residues.items()
            ),
        )
        return EliminationReport(t, "eliminated_congruence", detail)
    return EliminationReport(
        t, "survives", "some admissible A_10 is 0 modulo %d" % t.p
    )


def _parse_type(text):
    head, rest = text.split("-")
    c, f = rest.strip("()").split(",")
    return AutType(int(head), int(c), int(f))


def _check_weight_doubling(rng_seed=5):
    """Nonzero entries of a P-vector lift to binary weight 2 per entry
    for p = 3, so a phi-image of weight w pulls back to binary weight 2w."""
    import random

    from . import construct

    layout = construct.STANDARD_3_16_0
    rnd = random.Random(rng_seed)
    for _ in range(50):
        vec = tuple(
            cyclicring.PolyP(3, rnd.choice((0, 0b110, 0b101, 0b011)))
            for _ in range(16)
        )
        lifted = construct.phi_inverse(vec, layout)
        wt_p = sum(1 for v in vec if v.mask)
        if gf2.weight(lifted) != 2 * wt_p:
            return False
    return True


def _check_idempotents_p7():
    """e1 + e2 = identity of P, e1*e2 = 0, conj swaps them, and each
    ideal is a field with 8 elements."""
    e1, e2 = cyclicring.idempotent_split(7)
    ident = cyclicring.poly_identity(7)
    if cyclicring.PolyP(7, e1.mask ^ e2.mask) != ident:
        return False
    if cyclicring.poly_mul(e1, e2).mask != 0:
        return False
    if cyclicring.conj(e1) != e2:
        return False
    for e in (e1, e2):
        ideal = cyclicring.ideal_elements(e)
        if len(ideal) != 8:
            return False
        nonzero = [a for a in ideal if a.mask]
        # every nonzero element invertible within the ideal
        for a in nonzero:
            images = {cyclicring.poly_mul(a, b).mask for b in nonzero}
            if images != {b.mask for b in nonzero}:
                return False
    return True


def _check_circulant_rank_p5():
    """Every nonzero even-weight polynomial modulo x^5 - 1 gives a
    circulant of rank exactly 4, and the Singleton bound makes a
    [8,4,5] code over the 16-element field MDS."""
    count = 0
    for a in cyclicring.all_elements(5):
        if not a.mask:
            continue
        count += 1
        mat = cyclicring.circulant(a)
        _, pivots = gf2.rref(mat.rows, mat.n_cols)
        if len(pivots) != 4:
            return False
    return count == 15 and 8 - 4 + 1 == 5


_LOCAL_CHECKS = {
    "3-(12,12)": (
        _check_weight_doubling,
        "phi weight doubling confirms d(E) <= 2*4 = 8 < 10",
    ),
    "7-(6,6)": (
        _check_idempotents_p7,
        "idempotent identities for the ring split confirmed",
    ),
    "5-(8,8)": (
        _check_circulant_rank_p5,
        "rank-4 circulant fact and MDS arithmetic confirmed",
    ),
}


def external_eliminations():
    """Eliminations resting on published classifications.

    Reads the citations file and re-runs the locally checkable fragment
    of each argument where one exists; a failing local check raises.
    """
    out = []
    for ln in dataset.citations_text().splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        type_text, status, citation, note = ln.split(";")
        t = _parse_type(type_text)
        if status != "eliminated_external":
            raise ValueError("unexpected status %r in citations" % status)
        detail = note
        local = _LOCAL_CHECKS.get(type_text)
        if local is not None:
            check, message = local
            if not check():
                raise RuntimeError(
                    "local consistency check failed for %s" % type_text
                )
            detail = "%s; %s" % (note, message)
        out.append(EliminationReport(t, status, detail, citation=citation))
    return out


def full_pipeline(n=48, d=10):
    """Bounds, congruences, then external facts; the complete verdict list.

    For (48, 10) exactly one type survives: 3-(16,0).  The congruences
    use the A_10 of [48,24,10] codes and the citations settle those
    codes only, so any other (n, d) raises ValueError.
    """
    bounds = feasible_types(n, d)
    if (n, d) != (48, 10):
        raise ValueError(
            "the congruences and citations hold only for (n, d) = (48, 10),"
            " not (%d, %d)" % (n, d)
        )
    reports = []
    external = {str(r.type): r for r in external_eliminations()}
    for t, rep in bounds:
        if rep.eliminated:
            reports.append(rep)
            continue
        if (t.p, t.c, t.f) in ((47, 1, 1), (23, 2, 2)):
            rep = congruence_eliminate(t)
            if rep.eliminated:
                reports.append(rep)
                continue
        ext = external.get(str(t))
        reports.append(ext if ext is not None else rep)
    return reports


def final_survivors(n=48, d=10):
    return [r.type for r in full_pipeline(n, d) if not r.eliminated]
