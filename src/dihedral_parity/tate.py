"""Reduction data of an integral model at a prime: Kodaira symbol, minimal
discriminant valuation, Tamagawa number, conductor exponent, split type.

The step chain is the classical reduction-type algorithm run entirely in
exact arithmetic.  One vanishing test finds each singular point and
multiple root, at every prime: a point is singular when the curve's
equation and both its partials vanish there mod l, a root t is multiple
when the polynomial and its derivative vanish at t, and a root of the star
step's cubic P is triple when 3t + A, half of P'', vanishes too.  The test
runs over every residue at 2 and 3, and from 5 on over the one candidate
a closed form gives.  Root tests are closed forms: a quadratic with unit
leading coefficient has a root in F_l unless its discriminant is a
non-residue (at l = 2, unless f(0) and f(1) are odd), and the separable
cubic P of type I0* has one root when its discriminant is a non-residue,
else three or none as T^l is or is not T mod P.  There is no floating
point and no randomness anywhere.  The conductor exponent is read off from
the valuation of the minimal discriminant and the component count of the
special fibre.

A curve keeps its reductions: `local_reduction` runs the algorithm once per
curve object and prime and hands the same frozen `LocalReductionData` to
every later call, through the curve's `_reductions` slot.  The memo lives
and dies with the curve; equal curves built apart reduce apart, and the
intermediate models of the algorithm are never memoized.  No reduction
returns its input curve as `minimal_model` (at a good prime it is an equal
copy), so a curve and its memo form no reference cycle and are freed by
reference counting alone.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass

from .arith import (BIG, check_prime, factor, is_prime, jacobi,  # noqa: F401 (re-exported)
                    valuation)
from .weierstrass import WeierstrassCurve, transform


class NotApplicableError(ValueError):
    """Asked for a quantity (e.g. split type) outside its defining case."""


def _inv(a: int, ell: int) -> int:
    """a^-1 mod ell; every caller passes a unit, so a non-unit is a fault."""
    try:
        return pow(a % ell, -1, ell)
    except ValueError:
        raise RuntimeError(f"{a} has no inverse mod {ell}") from None


# ---------------------------------------------------------------------------
# Root tests over F_ell in closed form.

def _quad_has_root(A: int, B: int, C: int, ell: int) -> bool:
    """Whether A Y^2 + B Y + C, with A a unit mod ell, has a root in F_ell."""
    if ell == 2:
        return C % 2 == 0 or (A + B + C) % 2 == 0
    return jacobi(B * B - 4 * A * C, ell) != -1


def _cubic_root_count(A: int, B: int, C: int, ell: int) -> int:
    """Number of roots in F_ell of the separable cubic P = T^3 + A T^2 + B T + C.

    Above 3, Frobenius permutes the three roots, with the sign of the
    discriminant's Legendre symbol: a transposition fixes one root, and an
    even permutation fixes all three (T^ell = T mod P) or none.
    """
    if ell <= 3:
        return sum((t ** 3 + A * t * t + B * t + C) % ell == 0 for t in range(ell))
    disc = A * A * B * B - 4 * B ** 3 - 4 * A ** 3 * C - 27 * C * C + 18 * A * B * C
    if jacobi(disc, ell) == -1:
        return 1

    def mulmod(u, v):
        w = [0] * 5
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                w[i + j] += x * y
        for k in (4, 3):  # T^k = -T^(k-3) (A T^2 + B T + C) mod P
            top = w[k] % ell
            w[k - 1] -= A * top
            w[k - 2] -= B * top
            w[k - 3] -= C * top
        return w[0] % ell, w[1] % ell, w[2] % ell

    power = (1, 0, 0)  # T^ell mod P, left to right along the bits of ell
    for bit in bin(ell)[2:]:
        power = mulmod(power, power)
        if bit == "1":
            power = mulmod(power, (0, 1, 0))
    return 3 if power == (0, 1, 0) else 0


def _quad_double_root(A: int, B: int, C: int, ell: int):
    """The double root of A Y^2 + B Y + C over F_ell, or None if separable.

    A must be a unit mod ell.  Above 2 the only candidate is -B / 2A.
    """
    for t in range(2) if ell == 2 else (-B * _inv(2 * A, ell) % ell,):
        if (A * t * t + B * t + C) % ell == 0 and (2 * A * t + B) % ell == 0:
            return t
    return None


def _cubic_multiple_root(A: int, B: int, C: int, ell: int):
    """Multiple root of T^3 + A T^2 + B T + C over F_ell.

    Returns (root, multiplicity) with multiplicity in {2, 3}, or None when
    the cubic is separable over the algebraic closure.  Above 3 a multiple
    root also solves P - (T/3 + A/9) P' = 0, a linear equation with root
    (AB - 9C) / (6B - 2A^2) unless 3B = A^2; then P' = 3 (T + A/3)^2, and
    the only candidate is -A/3.
    """
    if ell <= 3:
        candidates = range(ell)
    elif (3 * B - A * A) % ell:
        candidates = ((A * B - 9 * C) * _inv(6 * B - 2 * A * A, ell) % ell,)
    else:
        candidates = (-A * _inv(3, ell) % ell,)
    for t in candidates:
        if (t ** 3 + A * t * t + B * t + C) % ell == 0 \
                and (3 * t * t + 2 * A * t + B) % ell == 0:
            return t, 3 if (3 * t + A) % ell == 0 else 2
    return None


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalReductionData:
    prime: int
    kodaira: str
    delta: int              # valuation of the minimal discriminant
    tamagawa: int
    conductor_exp: int
    reduction_class: str    # "good" | "multiplicative" | "additive"
    split: bool | None      # None unless multiplicative
    minimal_model: WeierstrassCurve

    @property
    def split_label(self) -> str:
        if self.split is None:
            return "n/a"
        return "split" if self.split else "nonsplit"


def _singular_point(E: WeierstrassCurve, ell: int) -> tuple[int, int]:
    """Coordinates mod ell of the unique singular point of the reduction.

    Above 3, completing the square gives the only candidate: there
    u = 12x + b2 is -c6/c4 at a node and 0 at a cusp, and 2y = -a1 x - a3.
    """
    a1, a2, a3, a4, a6 = E.coefficients()
    if ell <= 3:
        candidates = itertools.product(range(ell), repeat=2)
    else:
        u = -E.c6 * _inv(E.c4, ell) if E.c4 % ell else 0
        x = (u - E.b2) * _inv(12, ell) % ell
        candidates = ((x, -(a1 * x + a3) * _inv(2, ell) % ell),)
    for x, y in candidates:
        if (y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x - a6) % ell == 0 \
                and (a1 * y - 3 * x * x - 2 * a2 * x - a4) % ell == 0 \
                and (2 * y + a1 * x + a3) % ell == 0:
            return x, y
    raise RuntimeError(f"no singular point mod {ell}; model {E} inconsistent")


def _arrange_for_star(E: WeierstrassCurve, ell: int) -> WeierstrassCurve:
    """Translate so that ell | a1, a2; ell^2 | a3, a4; ell^3 | a6.

    Valid once the II/III/IV tests have all failed on the model with its
    singular point at the origin.  The (s, t) are step 6 of Tate's
    algorithm (Silverman, Advanced Topics IV.9; Cremona).
    """
    if ell == 2:
        s, t = E.a2 % 2, 2 * ((E.a6 // 4) % 2)
    else:
        s = -E.a1 * _inv(2, ell) % ell
        t = -E.a3 * _inv(2, ell * ell) % (ell * ell)
    E = transform(E, 1, 0, s, t)
    if (E.a1 % ell or E.a2 % ell or E.a3 % ell ** 2 or E.a4 % ell ** 2
            or E.a6 % ell ** 3):
        raise RuntimeError(f"star arrangement failed at {ell} for {E}")
    return E


def local_reduction(curve: WeierstrassCurve, ell: int) -> LocalReductionData:
    """Full reduction data of curve at the prime ell, computed on the first
    call for this curve object and ell and kept in its `_reductions`."""
    check_prime(ell, "ell", ValueError)
    try:
        memo = curve._reductions
    except AttributeError:
        memo = curve._reductions = {}
    try:
        return memo[ell]
    except KeyError:
        data = memo[ell] = _reduce(curve, ell)
        return data


def _reduce(curve: WeierstrassCurve, ell: int) -> LocalReductionData:
    """Tate's algorithm on curve at the prime ell."""
    E = curve

    def out(kodaira, delta, tamagawa, conductor, cls, split, model):
        return LocalReductionData(ell, kodaira, delta, tamagawa, conductor,
                                  cls, split, model)

    while True:
        disc = E.discriminant
        n = valuation(disc, ell)
        if n == 0:
            # a copy when curve is its own minimal model: the memo entry
            # would otherwise hold curve, and curve the memo, in a cycle
            model = E if E is not curve else WeierstrassCurve(*E.coefficients())
            return out("I0", 0, 1, 0, "good", None, model)

        x0, y0 = _singular_point(E, ell)
        E = transform(E, 1, x0, 0, y0)

        if E.b2 % ell != 0:
            # Node with independent tangents: type I_n.  Split iff the
            # tangent-cone quadratic T^2 + a1 T - a2 factors over F_ell.
            split = _quad_has_root(1, E.a1, -E.a2, ell)
            if split:
                c = n
            else:
                c = 2 if n % 2 == 0 else 1
            return out(f"I{n}", n, c, 1, "multiplicative", split, E)

        if valuation(E.a6, ell) < 2:
            return out("II", n, 1, n, "additive", None, E)
        if valuation(E.b8, ell) < 3:
            return out("III", n, 2, n - 1, "additive", None, E)
        if valuation(E.b6, ell) < 3:
            a3d, a6d = E.a3 // ell, E.a6 // ell ** 2
            c = 3 if _quad_has_root(1, a3d, -a6d, ell) else 1
            return out("IV", n, c, n - 2, "additive", None, E)

        E = _arrange_for_star(E, ell)
        A, B, C = E.a2 // ell, E.a4 // ell ** 2, E.a6 // ell ** 3
        mult = _cubic_multiple_root(A, B, C, ell)

        if mult is None:
            # P separable: type I0*, component group from its rational roots.
            c = 1 + _cubic_root_count(A, B, C, ell)
            return out("I0*", n, c, n - 4, "additive", None, E)

        root, m = mult
        if m == 2:
            E = transform(E, 1, ell * root, 0, 0)
            k = 1
            while True:
                if k > n:
                    raise RuntimeError(f"runaway I_k* loop at {ell} for {curve}")
                # odd k: a quadratic in y (a3, a6); even k: one in x (a2, a4, a6)
                r_ = (k + 4) // 2
                cc = E.a6 // ell ** (k + 3)
                if k % 2:
                    quad = (1, E.a3 // ell ** r_, -cc)
                else:
                    quad = (E.a2 // ell, E.a4 // ell ** r_, cc)
                dr = _quad_double_root(*quad, ell)
                if dr is None:
                    c = 4 if _quad_has_root(*quad, ell) else 2
                    return out(f"I{k}*", n, c, n - 4 - k, "additive", None, E)
                if k % 2:
                    E = transform(E, 1, 0, 0, ell ** r_ * dr)
                else:
                    E = transform(E, 1, ell ** (r_ - 1) * dr, 0, 0)
                k += 1

        # triple root: move it to T = 0 and test the IV*/III*/II* tail.
        E = transform(E, 1, ell * root, 0, 0)
        b, cc = E.a3 // ell ** 2, E.a6 // ell ** 4
        dr = _quad_double_root(1, b, -cc, ell)
        if dr is None:
            c = 3 if _quad_has_root(1, b, -cc, ell) else 1
            return out("IV*", n, c, n - 6, "additive", None, E)
        E = transform(E, 1, 0, 0, ell ** 2 * dr)
        if valuation(E.a4, ell) < 4:
            return out("III*", n, 2, n - 7, "additive", None, E)
        if valuation(E.a6, ell) < 6:
            return out("II*", n, 1, n - 8, "additive", None, E)
        # Non-minimal: scale down by ell and start over.
        E = transform(E, ell, 0, 0, 0)


def kodaira_symbol(curve: WeierstrassCurve, ell: int) -> str:
    return local_reduction(curve, ell).kodaira


def tamagawa_number(curve: WeierstrassCurve, ell: int) -> int:
    return local_reduction(curve, ell).tamagawa


def conductor_exponent(curve: WeierstrassCurve, ell: int) -> int:
    return local_reduction(curve, ell).conductor_exp


def split_type(curve: WeierstrassCurve, ell: int) -> str:
    data = local_reduction(curve, ell)
    if data.reduction_class != "multiplicative":
        raise NotApplicableError(
            f"split type undefined: reduction at {ell} is {data.reduction_class}")
    return data.split_label


def j_pole_order(curve: WeierstrassCurve, ell: int) -> int:
    """The valuation at ell of the denominator of j = c4^3 / Delta:
    v(Delta) - 3 v(c4) when that is positive, else 0.  Invariant under
    rescaling, so no minimality is required of the input model."""
    c4 = curve.c4
    if c4 == 0:
        return 0
    return max(0, valuation(curve.discriminant, ell) - 3 * valuation(c4, ell))


def potential_class(curve: WeierstrassCurve, ell: int) -> str:
    """"potentially good" or "potentially multiplicative" at ell, as j is
    integral at ell or not."""
    return ("potentially multiplicative" if j_pole_order(curve, ell)
            else "potentially good")


def bad_primes(curve: WeierstrassCurve, known: Iterable[int] = ()) -> list[int]:
    """The primes dividing the model's discriminant, ascending.  The primes
    among `known` are divided out first and only the cofactor left is
    factored, so this raises FactoringBudgetError only on that cofactor."""
    n = abs(curve.discriminant)
    found = []
    for q in known:
        if q > 1 and n % q == 0 and is_prime(q):
            found.append(q)
            while n % q == 0:
                n //= q
    return sorted(found + list(factor(n)))
