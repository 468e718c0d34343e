"""Regulator constants for the dihedral group D_{2p}, p an odd prime.

Everything is exact: representations are Fraction matrices, pairings are
averaged over the group, determinants come from fraction Gaussian
elimination.  The Brauer relation used throughout is

    Theta = [1] - 2 [D_2] - [C_p] + 2 [D_{2p}]

over the four subgroups up to conjugacy (trivial, a reflection pair, the
rotation subgroup, the whole group).  For a rational representation rho
and a nondegenerate invariant pairing B,

    C_Theta(rho) = prod_H det( (1/|H|) B restricted to rho^H )^{m_H}

which is well defined in Q* modulo squares, independent of B.

Over Q_p the self-dual irreducibles of D_{2p} are the trivial character,
the sign character eta, and the (p-1)-dimensional rho2 = Q[x]/Phi_p
(Phi_p is Eisenstein at p after x -> x+1, hence stays irreducible), so
odd/even p-valuation of C_Theta is decided on that basis.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, prod

from .arith import factor, trial_divide
from .characters import (DihedralContext, ORDER2, TRIVIAL, cyclic_p_power,
                         dihedral_p_power)

Matrix = tuple[tuple[Fraction, ...], ...]


class InvalidRepresentationError(ValueError):
    """Generator matrices do not satisfy the D_{2p} relations."""


class DegeneratePairingError(ValueError):
    """The pairing has the wrong size or is singular on a fixed space."""


# --- small exact linear algebra --------------------------------------------

def _mat(rows) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _identity(k: int) -> Matrix:
    return tuple(tuple(Fraction(int(i == j)) for j in range(k)) for i in range(k))


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
                 for row in a)


def _transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def _matpow(a: Matrix, k: int) -> Matrix:
    out = _identity(len(a))
    for _ in range(k):
        out = _matmul(out, a)
    return out


def _det(a: Matrix) -> Fraction:
    n = len(a)
    rows = [list(r) for r in a]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col] != 0:
                f = rows[r][col] * inv
                for c in range(col, n):
                    rows[r][c] -= f * rows[col][c]
    return det


def _column_space(a: Matrix) -> list[tuple[Fraction, ...]]:
    """Basis of the column space, via row reduction of the transpose."""
    rows = [list(r) for r in _transpose(a)]
    basis = []
    pivot_cols: list[int] = []
    for row in rows:
        row = list(row)
        for b, pc in zip(basis, pivot_cols):
            if row[pc] != 0:
                f = row[pc] / b[pc]
                row = [x - f * y for x, y in zip(row, b)]
        pc = next((i for i, x in enumerate(row) if x != 0), None)
        if pc is not None:
            basis.append(row)
            pivot_cols.append(pc)
    return [tuple(b) for b in basis]


# --- representations -------------------------------------------------------

@dataclass(frozen=True)
class RationalRep:
    """Rational representation of D_{2p} given by the images of the
    rotation generator s (order p) and a reflection t."""
    p: int
    s: Matrix
    t: Matrix

    def __post_init__(self):
        object.__setattr__(self, "s", _mat(self.s))
        object.__setattr__(self, "t", _mat(self.t))
        d = len(self.s)
        if any(len(r) != d for r in self.s) or len(self.t) != d \
                or any(len(r) != d for r in self.t):
            raise InvalidRepresentationError("generator matrices must be square and equal-sized")
        ident = _identity(d)
        if _matpow(self.s, self.p) != ident:
            raise InvalidRepresentationError(f"s^{self.p} != identity")
        if _matmul(self.t, self.t) != ident:
            raise InvalidRepresentationError("t^2 != identity")
        if _matmul(_matmul(self.t, self.s), self.t) != _matpow(self.s, self.p - 1):
            raise InvalidRepresentationError("t s t != s^-1")

    @property
    def dimension(self) -> int:
        return len(self.s)

    @cached_property
    def _s_powers(self) -> list[Matrix]:
        out = [_identity(self.dimension)]
        for _ in range(self.p - 1):
            out.append(_matmul(out[-1], self.s))
        return out

    def image(self, g: tuple[int, int]) -> Matrix:
        i, e = g
        m = self._s_powers[i % self.p]
        return _matmul(m, self.t) if e else m

    def elements(self):
        return [(i, e) for e in (0, 1) for i in range(self.p)]


def trivial_rep(p: int) -> RationalRep:
    return RationalRep(p, ((1,),), ((1,),))


def sign_rep(p: int) -> RationalRep:
    return RationalRep(p, ((1,),), ((-1,),))


def faithful_rep(p: int) -> RationalRep:
    """The (p-1)-dimensional irreducible over Q: the action on Q[x]/Phi_p
    with s = multiplication by x and t the inversion x^i -> x^(p-i)."""
    d = p - 1
    s = [[0] * d for _ in range(d)]
    for i in range(1, d):
        s[i][i - 1] = 1          # x * x^(i-1) = x^i
    for i in range(d):
        s[i][d - 1] = -1         # x * x^(p-2) = x^(p-1) = -(1 + ... + x^(p-2))
    t = [[0] * d for _ in range(d)]
    t[0][0] = 1
    for i in range(1, d):
        if p - i <= d - 1:
            t[p - i][i] = 1      # x^i -> x^(p-i)
        else:
            for r in range(d):   # x^1 -> x^(p-1) = -(1 + ... + x^(p-2))
                t[r][i] = -1
    return RationalRep(p, s, t)


def direct_sum(*reps: RationalRep) -> RationalRep:
    if not reps:
        raise ValueError("need at least one summand")
    p = reps[0].p
    if any(r.p != p for r in reps):
        raise InvalidRepresentationError("summands belong to different groups")

    def block(mats):
        total = sum(len(m) for m in mats)
        out = [[Fraction(0)] * total for _ in range(total)]
        off = 0
        for m in mats:
            for i, row in enumerate(m):
                for j, x in enumerate(row):
                    out[off + i][off + j] = x
            off += len(m)
        return out

    return RationalRep(p, block([r.s for r in reps]), block([r.t for r in reps]))


# --- pairings and the constant ---------------------------------------------

def invariant_pairing(rep: RationalRep, seed: int = 0) -> Matrix:
    """Symmetric invariant nondegenerate pairing: a seeded random symmetric
    integer matrix averaged over the group.  Singular draws are rethrown
    from the same stream, so the result is deterministic per seed."""
    rng = random.Random(seed)
    d = rep.dimension
    scale = Fraction(1, 2 * rep.p)
    for _ in range(64):
        raw = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
        sym = _mat([[raw[i][j] + raw[j][i] for j in range(d)] for i in range(d)])
        total = None
        for g in rep.elements():
            m = rep.image(g)
            term = _matmul(_matmul(_transpose(m), sym), m)
            total = term if total is None else tuple(
                tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(total, term))
        pairing = tuple(tuple(scale * x for x in row) for row in total)
        if _det(pairing) != 0:
            return pairing
    raise DegeneratePairingError(f"no nondegenerate pairing found from seed {seed}")


_THETA = ((TRIVIAL, 1), (ORDER2, -2), (cyclic_p_power(1), -1),
          (dihedral_p_power(1), 2))


def regulator_constant(rep: RationalRep, pairing: Matrix | None = None,
                       seed: int = 0) -> Fraction:
    """C_Theta(rep) as an exact rational, well defined modulo squares."""
    dim = rep.dimension
    if pairing is None:
        pairing = invariant_pairing(rep, seed)
    elif len(pairing) != dim or any(len(row) != dim for row in pairing):
        raise DegeneratePairingError(
            f"supplied pairing is not {dim} x {dim}, the dimension of the representation")
    ctx = DihedralContext(rep.p)
    result = Fraction(1)
    for tag, weight in _THETA:
        elems = ctx.subgroup(tag).elements
        order = len(elems)
        proj = None
        for g in elems:
            m = rep.image(g)
            proj = m if proj is None else tuple(
                tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(proj, m))
        proj = tuple(tuple(Fraction(x, order) for x in row) for row in proj)
        basis = _column_space(proj)
        if not basis:
            continue  # empty Gram determinant is 1
        v = _transpose(_mat(basis))  # columns are the fixed-space basis
        scaled = tuple(tuple(Fraction(x, order) for x in row) for row in pairing)
        gram = _matmul(_matmul(_transpose(v), scaled), v)
        d = _det(gram)
        if d == 0:
            raise DegeneratePairingError(
                f"pairing is singular on the vectors fixed by {tag.label}")
        result *= d ** weight
    return result


@dataclass(frozen=True)
class SquareClass:
    """Class of a nonzero rational modulo squares, as its squarefree
    integer representative (sign included)."""
    representative: int

    @classmethod
    def of(cls, x) -> "SquareClass":
        x = Fraction(x)
        if x == 0:
            raise ValueError("zero has no square class")
        n = x.numerator * x.denominator
        small, rest = trial_divide(abs(n))
        rep = prod(q for q, e in small.items() if e % 2)
        if isqrt(rest) ** 2 != rest:
            # a C_Theta's class is supported on 2 and p, so it only gets
            # here for p > TRIAL_BOUND
            rep *= prod(q for q, e in factor(rest).items() if e % 2)
        return cls(rep if n > 0 else -rep)

    @property
    def is_square(self) -> bool:
        return self.representative == 1

    def ord_parity(self, q: int) -> int:
        """Parity of the q-adic valuation (0 or 1)."""
        return 1 if self.representative % q == 0 else 0

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        a, b = self.representative, other.representative
        return SquareClass(a * b // gcd(a, b) ** 2)


def t_theta_member(rep: RationalRep, seed: int = 0) -> bool:
    """Whether rep falls in the parity-relevant class T_Theta, i.e. whether
    C_Theta(rep) has odd p-adic valuation."""
    c = regulator_constant(rep, seed=seed)
    return SquareClass.of(c).ord_parity(rep.p) == 1
