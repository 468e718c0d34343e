"""Correctness oracles for the benchmark, written apart from the library.

Nothing here imports `dihedral_parity`.  The formulas are the textbook
ones: Weierstrass invariants from the coefficients, Papadopoulos' table of
reduction types from the valuations of c4, c6 and Delta at primes >= 5,
the Legendre-symbol split test, square classes by integer square roots,
and character sums evaluated in a prime field that contains the p^n-th
roots of unity, so every comparison stays exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from sympy import isprime

INF = 10 ** 9

# The potential-good sign table of the paper: rows are the tame order e of
# inertia, columns p mod 12.  The sign is the root-number factor
# (-3/p) for e in {3, 6}, (-1/p) for e = 4 and 1 for e = 2.
PAPER_TABLE = {
    (6, 1): 1, (6, 5): -1, (6, 7): 1, (6, 11): -1,
    (4, 1): 1, (4, 5): 1, (4, 7): -1, (4, 11): -1,
    (3, 1): 1, (3, 5): -1, (3, 7): 1, (3, 11): -1,
    (2, 1): 1, (2, 5): 1, (2, 7): 1, (2, 11): 1,
}


def val(x: int, ell: int) -> int:
    if x == 0:
        return INF
    v = 0
    while x % ell == 0:
        x //= ell
        v += 1
    return v


def legendre(a: int, ell: int) -> int:
    a %= ell
    if a == 0:
        return 0
    return 1 if pow(a, (ell - 1) // 2, ell) == 1 else -1


# --- Weierstrass models ----------------------------------------------------

def c4_c6_delta(a) -> tuple[int, int, int]:
    a1, a2, a3, a4, a6 = a
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
    delta = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return c4, c6, delta


def change_rst(a, r: int, s: int, t: int) -> tuple[int, ...]:
    """Coefficients after x = x' + r, y = y' + s x' + t (u = 1)."""
    a1, a2, a3, a4, a6 = a
    return (a1 + 2 * s,
            a2 - s * a1 + 3 * r - s * s,
            a3 + r * a1 + 2 * t,
            a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
            a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1)


def scale_up(a, u: int) -> tuple[int, ...]:
    """The non-minimal model with a_i multiplied by u^i."""
    return tuple(x * u ** i for x, i in zip(a, (1, 2, 3, 4, 6)))


_POT_GOOD_TYPES = {2: "II", 3: "III", 4: "IV", 6: "I0*", 8: "IV*", 9: "III*", 10: "II*"}


def reduction_at(a, ell: int) -> dict:
    """Reduction data at a prime ell >= 5 from Papadopoulos' table.

    Returns kodaira, delta, conductor, the set of possible Tamagawa numbers
    (one element wherever the table pins it), split (None unless
    multiplicative) and pot_mult (whether v(j) < 0).
    """
    if ell < 5:
        raise ValueError("the valuation table needs ell >= 5")
    c4, c6, d = c4_c6_delta(a)
    while val(c4, ell) >= 4 and val(c6, ell) >= 6 and val(d, ell) >= 12:
        c4, c6, d = c4 // ell ** 4, c6 // ell ** 6, d // ell ** 12
    n = val(d, ell)
    if n == 0:
        return dict(kodaira="I0", delta=0, conductor=0, tamagawa={1}, split=None,
                    pot_mult=False)
    if val(c4, ell) == 0:
        split = legendre(-c6, ell) == 1
        tam = n if split else (2 if n % 2 == 0 else 1)
        return dict(kodaira=f"I{n}", delta=n, conductor=1, tamagawa={tam}, split=split,
                    pot_mult=True)
    if 3 * val(c4, ell) < n:
        return dict(kodaira=f"I{n - 6}*", delta=n, conductor=2, tamagawa={2, 4},
                    split=None, pot_mult=True)
    kodaira = _POT_GOOD_TYPES[n]
    # On y^2 = x^3 - 27 c4 x - 54 c6 the component group is read off Tate's
    # auxiliary polynomials; -54 = -6 * 3^2 leaves the square class of -6 c6.
    if kodaira in ("II", "II*"):
        tam = 1
    elif kodaira in ("III", "III*"):
        tam = 2
    elif kodaira in ("IV", "IV*"):
        tam = 3 if legendre(-6 * c6 // ell ** (n // 2), ell) == 1 else 1
    else:
        A, B = (-27 * c4 // ell ** 2) % ell, (-54 * c6 // ell ** 3) % ell
        tam = 1 + sum(1 for x in range(ell) if (x ** 3 + A * x + B) % ell == 0)
    return dict(kodaira=kodaira, delta=n, conductor=2, tamagawa={tam}, split=None,
                pot_mult=False)


def reduction_matches(data, ell: int, a) -> bool:
    """Whether a LocalReductionData-like object agrees with the table."""
    want = reduction_at(a, ell)
    return (data.kodaira == want["kodaira"] and data.delta == want["delta"]
            and data.conductor_exp == want["conductor"]
            and data.tamagawa in want["tamagawa"] and data.split == want["split"])


# --- surgery ---------------------------------------------------------------

def surgery_problems(original, final, shifts, p0: int, v: int, n: int) -> list[str]:
    """Everything wrong with a surgery result; empty when it is correct."""
    out = []
    d1, d2, d3, d4, c = shifts
    if tuple(final) != (original[0] + d1, original[1] + d2, original[2] + d3,
                        original[3] + d4, original[4] + c):
        out.append("final model is not the original plus the shifts")
    if any(x % p0 ** n for x in shifts):
        out.append(f"a shift is not 0 mod {p0}^{n}")
    c4, _, d = c4_c6_delta(final)
    if d == 0:
        return out + ["final model is singular"]
    g = gcd(c4, d)
    while g % p0 == 0:
        g //= p0
    if g != 1:
        out.append(f"gcd(c4, Delta) has the stray factor {g}")
    if d % v or c4 % v == 0:
        out.append(f"v = {v} is not a multiplicative prime of the result")
    if p0 >= 5:
        before, after = reduction_at(original, p0), reduction_at(final, p0)
        if (before["kodaira"], before["delta"]) != (after["kodaira"], after["delta"]):
            out.append(f"type at p0 moved from {before['kodaira']} to {after['kodaira']}")
    return out


# --- regulator constants ---------------------------------------------------

def is_square_class_of(x: Fraction, p: int) -> bool:
    """Whether x is p times a rational square."""
    m = x.numerator * x.denominator * p
    return m > 0 and isqrt(m) ** 2 == m


# --- characters in a prime field -------------------------------------------

class RootField:
    """F_q with a primitive m-th root of unity w, m = p^n; the image of
    zeta is w, so a cyclotomic coefficient vector maps to sum c_i w^i."""

    def __init__(self, p: int, n: int):
        m = p ** n
        k = (2 ** 61) // m
        while not isprime(k * m + 1):
            k += 1
        q = k * m + 1
        g = 2
        while True:
            w = pow(g, (q - 1) // m, q)
            if pow(w, m // p, q) != 1:
                break
            g += 1
        self.p, self.n, self.m, self.q, self.w = p, n, m, q, w

    def ev(self, coeffs, inverse: bool = False) -> int:
        w = pow(self.w, -1, self.q) if inverse else self.w
        return sum(c * pow(w, i, self.q) for i, c in enumerate(coeffs)) % self.q

    def small(self, x: int) -> int:
        """The integer of absolute value below q/2 that is x mod q."""
        x %= self.q
        return x if x <= self.q // 2 else x - self.q

    def class_sizes(self) -> list[int]:
        return [1] + [2] * ((self.m - 1) // 2) + [self.m]

    def gram(self, chars) -> list[list[int]]:
        """Inner products of class functions given as lists of coefficient
        vectors, one per class of D_2m in the library's class order."""
        sizes = self.class_sizes()
        inv_order = pow(2 * self.m, -1, self.q)
        vals = [[self.ev(c) for c in ch] for ch in chars]
        conj = [[self.ev(c, inverse=True) for c in ch] for ch in chars]
        return [[self.small(inv_order * sum(s * x * y for s, x, y in zip(sizes, a, b)))
                 for b in conj] for a in vals]

    def irreducible_at_rotation(self, index: int, a: int) -> int:
        """Value of the index-th irreducible (1, eta, I(chi_1), ...) at s^a."""
        if index < 2:
            return 1
        k = index - 1
        return (pow(self.w, k * a % self.m, self.q)
                + pow(self.w, -k * a % self.m, self.q)) % self.q

    def frobenius_rhs(self, level: int, t: int, index: int) -> int:
        """<psi_t, Res chi_index> on C_{p^level}, psi_t(s^(i step)) = w^(t i step)."""
        step = self.p ** (self.n - level)
        mk = self.p ** level
        total = 0
        for i in range(mk):
            a = i * step
            psi = pow(self.w, t * a % self.m, self.q)
            total += psi * self.irreducible_at_rotation(index, -a % self.m)
        return self.small(total * pow(mk, -1, self.q))
