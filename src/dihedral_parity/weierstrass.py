"""Exact arithmetic on integral Weierstrass models y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6.

Everything here is computed over Z (or Fraction for j), never floats.  A
curve's b/c-invariants and discriminant are fields of the curve, set once
from raw_invariants when it is built.
"""

from __future__ import annotations

from fractions import Fraction

from .records import Record


class SingularModelError(ValueError):
    """The coefficients define a singular cubic (discriminant zero)."""


class InvalidTransformError(ValueError):
    """Coordinate change with u = 0, or one whose image is not integral."""


# Shifting a6 by c fixes c4 and lowers c6 by 864c, so Delta, a quadratic
# in a6 with this leading coefficient, changes by exactly c (c6 - 432 c);
# see a6_shift_delta below.
A6_QUADRATIC_COEFF = -432


def raw_invariants(coeffs) -> tuple[int, int, int, int, int, int, int]:
    """(b2, b4, b6, b8, c4, c6, Delta) of a coefficient tuple
    (a1, a2, a3, a4, a6); singular tuples are allowed."""
    a1, a2, a3, a4, a6 = coeffs
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
    delta = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return b2, b4, b6, b8, c4, c6, delta


class WeierstrassCurve(Record):
    """An integral nonsingular model; equality and hash read a1 ... a6 only.

    `_reductions` is `tate.local_reduction`'s memo, ell -> reduction data,
    made on the first reduction of this object.
    """
    __slots__ = ("a1", "a2", "a3", "a4", "a6",
                 "b2", "b4", "b6", "b8", "c4", "c6", "discriminant", "_reductions")
    _uncompared = ("b2", "b4", "b6", "b8", "c4", "c6", "discriminant")

    def __init__(self, a1: int, a2: int, a3: int, a4: int, a6: int):
        coeffs = (a1, a2, a3, a4, a6)
        for name, v in zip(("a1", "a2", "a3", "a4", "a6"), coeffs):
            if not isinstance(v, int) or isinstance(v, bool):
                raise TypeError(f"coefficient {name} must be an int, got {v!r}")
        self.a1, self.a2, self.a3, self.a4, self.a6 = coeffs
        (self.b2, self.b4, self.b6, self.b8, self.c4, self.c6,
         self.discriminant) = raw_invariants(coeffs)
        if self.discriminant == 0:
            raise SingularModelError(f"singular model {coeffs}")

    def coefficients(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @property
    def j_invariant(self) -> Fraction:
        return Fraction(self.c4 ** 3, self.discriminant)

    def __repr__(self) -> str:
        return f"WeierstrassCurve{self.coefficients()}"


class InvariantSet(Record):
    """The b/c-invariants, the discriminant and j of one model."""
    __slots__ = ("b2", "b4", "b6", "b8", "c4", "c6", "discriminant", "j")

    def __init__(self, *, b2: int, b4: int, b6: int, b8: int, c4: int, c6: int,
                 discriminant: int, j: Fraction):
        self.b2, self.b4, self.b6, self.b8 = b2, b4, b6, b8
        self.c4, self.c6, self.discriminant, self.j = c4, c6, discriminant, j


def invariants(curve: WeierstrassCurve) -> InvariantSet:
    """All standard b/c-invariants, the discriminant, and j, exactly."""
    return InvariantSet(b2=curve.b2, b4=curve.b4, b6=curve.b6, b8=curve.b8, c4=curve.c4,
                        c6=curve.c6, discriminant=curve.discriminant, j=curve.j_invariant)


def transform(curve: WeierstrassCurve, u, r, s, t) -> WeierstrassCurve:
    """Apply the coordinate change x = u^2 x' + r, y = u^3 y' + s u^2 x' + t.

    The parameters may be rational, but the image model must again be
    integral; otherwise InvalidTransformError is raised.  Under this change
    Delta scales by u^-12 and c4 by u^-4.
    """
    u, r, s, t = Fraction(u), Fraction(r), Fraction(s), Fraction(t)
    if u == 0:
        raise InvalidTransformError("u = 0 is not an admissible transform")
    a1, a2, a3, a4, a6 = curve.coefficients()
    na1 = (a1 + 2 * s) / u
    na2 = (a2 - s * a1 + 3 * r - s * s) / u ** 2
    na3 = (a3 + r * a1 + 2 * t) / u ** 3
    na4 = (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / u ** 4
    na6 = (a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1) / u ** 6
    new = (na1, na2, na3, na4, na6)
    if any(x.denominator != 1 for x in new):
        raise InvalidTransformError(
            f"transform (u={u}, r={r}, s={s}, t={t}) gives a non-integral model")
    return WeierstrassCurve(*(int(x) for x in new))


def a6_shift_delta(curve: WeierstrassCurve, c: int) -> int:
    """Delta(a6 + c) - Delta(a6), computed from the closed form."""
    return c * (curve.c6 + A6_QUADRATIC_COEFF * c)
