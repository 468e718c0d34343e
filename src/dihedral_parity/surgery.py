"""Curve surgery: rewrite an integral model so that one chosen prime p0
keeps its exact local reduction data while every other place becomes
semistable, with a designated auxiliary prime v turning (split)
multiplicative.

The construction shifts coefficients by CRT-chosen amounts:

  step 1  a1 += d1   d1 = 0 mod p0^n, makes a1 odd (when p0 != 2) so 2
                     never divides c4, and a1 = 0 mod v;
  step 2  a2 += d2   a2 = 1 mod v, and (when 3 is not p0 or v) b2 = 1
          a3 += d3   mod 3 so 3 never divides c4; a3 = a4 = 0 mod v;
          a4 += d4   all shifts vanish mod p0^n; a small bump on d4
                     avoids the degenerate c4 = 0;
  step 3  a6 += c    c walks through c0, c0 + M, c0 + 2M, ... with
                     M = p0^n v and c0 = 0 mod p0^n, c0 = -a6 mod v (so
                     the fibre at v is nodal), and stops at the first c
                     whose Delta = Delta' + c (c6' - 432 c) is nonzero and
                     shares no prime other than p0 with c4'.

Steps 1 and 2 keep 2, 3 and v out of c4; any other prime q of c4 divides
Delta for at most two step counts mod q (-432 M^2 is a unit mod q), so the
walk stops within a few steps.  Its stopping test is the certificate:
gcd(c4, Delta) is a power of p0, which proves semistability outside p0
without factoring c4 or the (typically enormous) new discriminant.
"""

from __future__ import annotations

from math import gcd

from .arith import is_prime
from .records import Record
from .tate import local_reduction, valuation
from .weierstrass import A6_QUADRATIC_COEFF, WeierstrassCurve, raw_invariants

N_CAP = 4096
# step-3 candidates tried before giving up; a handful suffice in practice
WALK_CAP = 1000


class NonCoprimeModuliError(ValueError):
    """CRT moduli share a common factor."""


class SurgeryFailedError(RuntimeError):
    """The construction could not reach a certified result."""


def crt(congruences) -> tuple[int, int]:
    """Solve x = r_i (mod m_i) for pairwise coprime moduli; returns
    (x, product of moduli) with 0 <= x < product."""
    x, modulus = 0, 1
    for m, r in congruences:
        if m < 1:
            raise ValueError(f"modulus must be positive, got {m}")
        g = gcd(modulus, m)
        if g != 1:
            raise NonCoprimeModuliError(f"moduli share the factor {g}")
        diff = (r - x) % m
        x += modulus * ((diff * pow(modulus % m, -1, m)) % m)
        modulus *= m
    return x % modulus, modulus


class SurgeryPlan(Record):
    """Full trace of one surgery run."""
    __slots__ = ("original", "p0", "v", "n", "d1", "d2", "d3", "d4", "c",
                 "after_step1", "after_step2", "final")

    def __init__(self, *, original: WeierstrassCurve, p0: int, v: int, n: int,
                 d1: int, d2: int, d3: int, d4: int, c: int,
                 after_step1: tuple[int, int, int, int, int],
                 after_step2: tuple[int, int, int, int, int],
                 final: WeierstrassCurve):
        self.original, self.p0, self.v, self.n = original, p0, v, n
        self.d1, self.d2, self.d3, self.d4, self.c = d1, d2, d3, d4, c
        self.after_step1, self.after_step2, self.final = after_step1, after_step2, final


def residual_gcd(c4: int, delta: int, p0: int) -> int:
    """gcd(c4, Delta) with every factor p0 removed: 1 exactly when no prime
    other than p0 divides both, i.e. the model is semistable outside p0."""
    g = gcd(c4, delta)
    while g % p0 == 0:
        g //= p0
    return g


def _attempt(curve: WeierstrassCurve, p0: int, v: int, n: int) -> SurgeryPlan:
    a1, a2, a3, a4, a6 = curve.coefficients()
    P = p0 ** n

    cong1 = [(P, 0), (v, (-a1) % v)]
    if p0 != 2:
        cong1.append((2, (1 - a1) % 2))
    d1, _ = crt(cong1)
    a1n = a1 + d1

    cong2 = [(P, 0), (v, (1 - a2) % v)]
    if p0 != 3 and v != 3:
        cong2.append((3, (1 - a1n * a1n - a2) % 3))
    d2, _ = crt(cong2)
    a2n = a2 + d2

    d3, _ = crt([(P, 0), (v, (-a3) % v)])
    a3n = a3 + d3

    d4, m4 = crt([(P, 0), (v, (-a4) % v)])
    for _bump in range(3):
        a4n = a4 + d4
        # the step-2 model may be singular, so it stays a raw tuple
        *_, c4p, c6p, deltap = raw_invariants((a1n, a2n, a3n, a4n, a6))
        if c4p != 0:
            break
        d4 += m4
    else:
        raise SurgeryFailedError("could not steer away from c4 = 0")

    c, step = crt([(P, 0), (v, (-a6) % v)])
    for _ in range(WALK_CAP):
        delta = deltap + c * (c6p + A6_QUADRATIC_COEFF * c)
        if delta and residual_gcd(c4p, delta, p0) == 1:
            break
        c += step
    else:
        raise SurgeryFailedError(
            f"no a6 shift among {WALK_CAP} candidates cleared gcd(c4, Delta)")
    a6n = a6 + c

    return SurgeryPlan(
        original=curve, p0=p0, v=v, n=n, d1=d1, d2=d2, d3=d3, d4=d4, c=c,
        after_step1=(a1n, a2, a3, a4, a6),
        after_step2=(a1n, a2n, a3n, a4n, a6),
        final=WeierstrassCurve(a1n, a2n, a3n, a4n, a6n))


def _p0_data(curve: WeierstrassCurve, p0: int) -> tuple[str, int, int, int]:
    """Kodaira type, minimal discriminant valuation, Tamagawa number and
    conductor exponent of the curve at p0, from Tate's algorithm."""
    d = local_reduction(curve, p0)
    return (d.kodaira, d.delta, d.tamagawa, d.conductor_exp)


def closeness_check(original: WeierstrassCurve, surgered: WeierstrassCurve,
                    p0: int) -> bool:
    """The two curves have identical local data at p0 (see _p0_data)."""
    return _p0_data(original, p0) == _p0_data(surgered, p0)


def make_semistable(curve: WeierstrassCurve, p0: int, v: int,
                    n: int | None = None) -> SurgeryPlan:
    """Run the surgery.  n is the p0-adic agreement depth; by default it
    starts just above the discriminant valuation at p0 and doubles until
    the p0 data survives unchanged (capped)."""
    if not is_prime(p0):
        raise ValueError(f"p0 must be prime, got {p0}")
    if not is_prime(v) or v == 2 or v == p0:
        raise ValueError(f"v must be an odd prime different from p0, got {v}")
    if n is not None and (not isinstance(n, int) or isinstance(n, bool) or n < 1):
        raise ValueError(f"n must be a positive integer, got {n}")
    if n is None:
        start = max(8, valuation(abs(curve.discriminant), p0) + 3)
        # start, 2 start, 4 start, ... up to N_CAP
        depths = [start << i for i in range((N_CAP // start).bit_length())]
        failure = (f"no agreement depth up to {N_CAP} preserved the local "
                   f"data at {p0}")
    else:
        depths = [n]
        failure = f"local data at {p0} not preserved with n = {n}"
    for depth in depths:
        plan = _attempt(curve, p0, v, depth)
        if closeness_check(curve, plan.final, p0):
            return plan
    raise SurgeryFailedError(failure)


class SurgeryCertificate(Record):
    """The outcome of `certify`, with the data it read."""
    __slots__ = ("ok", "p0_match", "p0_before", "p0_after", "v_class", "v_split",
                 "residual_gcd")

    def __init__(self, *, ok: bool, p0_match: bool, p0_before: tuple[str, int, int, int],
                 p0_after: tuple[str, int, int, int], v_class: str, v_split: str,
                 residual_gcd: int):
        self.ok, self.p0_match, self.p0_before, self.p0_after = ok, p0_match, p0_before, p0_after
        self.v_class, self.v_split, self.residual_gcd = v_class, v_split, residual_gcd


def certify(plan: SurgeryPlan) -> SurgeryCertificate:
    """Independent check of the surgery outcome.

    Verifies the p0 data matched, the v fibre is multiplicative, and that
    gcd(c4, Delta) of the result is a pure p0 power, which rules out
    additive reduction anywhere else without factoring Delta.  The criteria
    are its own; the reductions it reads are the ones the plan's curves
    keep (`tate.local_reduction`), so the p0 data that `closeness_check`
    computed is read again, not recomputed.
    """
    before = _p0_data(plan.original, plan.p0)
    after = _p0_data(plan.final, plan.p0)
    p0_match = before == after
    vdata = local_reduction(plan.final, plan.v)
    g = residual_gcd(plan.final.c4, plan.final.discriminant, plan.p0)
    ok = p0_match and vdata.reduction_class == "multiplicative" and g == 1
    return SurgeryCertificate(
        ok=ok, p0_match=p0_match,
        p0_before=before, p0_after=after,
        v_class=vdata.reduction_class, v_split=vdata.split_label,
        residual_gcd=g)
