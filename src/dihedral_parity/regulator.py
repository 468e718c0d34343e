"""Regulator constants for the dihedral group D_{2p}, p an odd prime.

Everything is exact and integral: representations, pairings, projectors
and Gram matrices are integer matrices, and determinants come from
fraction-free (Bareiss) elimination.  Only the final combination is a
Fraction.  The images of s^i and t and the projectors are mostly zeros:
each product puts such a factor on the left and adds up the rows of the
right factor that its nonzero entries pick, and a Gram matrix is formed
transposed to keep it there (see _gram).  Those entries are nearly all 1
or -1, and such an entry adds or subtracts the picked row with no
multiplication.  The Brauer relation used throughout is

    Theta = [1] - 2 [D_2] - [C_p] + 2 [D_{2p}]

over the four subgroups up to conjugacy (trivial, a reflection pair, the
rotation subgroup, the whole group).  It is lattice.THETA, and each
subgroup's shape and order are read off its tag (`SubgroupTag.reflects`,
`SubgroupTag.order`), so a projector is built from the powers of s and t
with no group and no walk over the elements.  For a
rational representation rho and a nondegenerate invariant pairing B,

    C_Theta(rho) = prod_H det( (1/|H|) B restricted to rho^H )^{m_H}

which is well defined in Q* modulo squares, independent of B.  Two
identities let the computation stay on integers without changing the
value as a Fraction:

* rho^H is the column space of P = sum_{h in H} rho(h).  Take as basis
  the first columns P_J of P that are independent of the ones before
  them; with k = |J| = dim rho^H the factor for H is
  det(P_J^T B P_J) / |H|^(3k).  Reducing those columns against each
  other (a unit upper-triangular change) leaves the determinant alone.
  For H = 1, P = I and the factor is det(B) itself: the determinant that
  accepted the draw of B, so it is not computed twice.
* A constant scale on B cancels: sum_H m_H dim rho^H = <rho, sum_H m_H
  Ind_H 1> = 0.  So the pairing is an integer sum over the group.

Over Q_p the self-dual irreducibles of D_{2p} are the trivial character,
the sign character eta, and the (p-1)-dimensional rho2 = Q[x]/Phi_p
(Phi_p is Eisenstein at p after x -> x+1, hence stays irreducible), so
odd/even p-valuation of C_Theta is decided on that basis.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt, prod
from operator import add, sub

from .arith import factor, trial_divide
from .lattice import THETA, check_odd_prime
from .records import Record

Matrix = tuple[tuple[int, ...], ...]


class InvalidRepresentationError(ValueError):
    """Generator matrices do not satisfy the D_{2p} relations."""


class DegeneratePairingError(ValueError):
    """No seeded pairing is nondegenerate, or one is singular on a fixed space."""


# --- small exact integer linear algebra ------------------------------------

def _matmul(a: Matrix, b: Matrix) -> Matrix:
    """a b.  Each row of the product is the combination of the rows of b
    picked by the nonzero entries of that row of a, so a sparse a costs
    only its nonzeros.  An entry of 1 or -1 adds or subtracts the picked
    row with no multiplication, and a row whose first nonzero is 1 starts
    from the picked row itself (rows are tuples, so it is shared, not
    copied).  Rows are built through a list: tuple(map(...)) has no length
    to size itself by, and at p = 101 its regrown tuples raised the peak
    by about 10 %."""
    zero = (0,) * (len(b[0]) if b else 0)
    out = []
    for row in a:
        acc = zero
        for x, b_row in zip(row, b):
            if not x:
                continue
            if x == 1:
                acc = b_row if acc is zero else tuple([*map(add, acc, b_row)])
            elif x == -1:
                acc = tuple([*map(sub, acc, b_row)])
            else:
                acc = tuple([u + x * y for u, y in zip(acc, b_row)])
        out.append(acc)
    return tuple(out)


def _matsum(mats) -> Matrix:
    return tuple(tuple(map(sum, zip(*rows))) for rows in zip(*mats))


def _gram(b: Matrix, v: Matrix) -> Matrix:
    """v^T b^T v = (v^T b v)^T, formed as v^T (v^T b)^T so that the sparse
    factor v^T is on the left of both products.  It is v^T b v for a
    symmetric b."""
    vt = tuple(zip(*v))
    return _matmul(vt, tuple(zip(*_matmul(vt, b))))


def _det(a: Matrix) -> int:
    """Determinant by fraction-free elimination; every division is exact
    (Bareiss; Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 2.2.6)."""
    m = [list(row) for row in a]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if m[r][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def _independent_columns(a: Matrix) -> list[int]:
    """Indices of the columns of a that are independent of the columns
    before them, by fraction-free elimination."""
    echelon: list[tuple[int, list[int]]] = []  # (pivot row, reduced column)
    picked = []
    for j, col in enumerate(zip(*a)):
        v = list(col)
        for pc, b in echelon:
            if v[pc]:
                v = [b[pc] * x - v[pc] * y for x, y in zip(v, b)]
        pc = next((i for i, x in enumerate(v) if x), None)
        if pc is not None:
            echelon.append((pc, v))
            picked.append(j)
    return picked


# --- representations -------------------------------------------------------

class RationalRep(Record):
    """Rational representation of D_{2p} given by integer images (every
    entry an int, not a bool) of the rotation generator s (order p) and a
    reflection t; _powers holds s^0, ..., s^(p-1).  p is checked first:
    one that is not an odd prime raises InvalidGroupError."""
    __slots__ = ("p", "s", "t", "_powers")

    def __init__(self, p: int, s: Matrix, t: Matrix):
        check_odd_prime(p)
        if any(type(x) is not int for m in (s, t) for row in m for x in row):
            raise InvalidRepresentationError(
                "generator matrices must have integer entries "
                "(conjugate the representation to an integral model)")
        s, t = (tuple(map(tuple, m)) for m in (s, t))
        d = len(s)
        if any(len(r) != d for r in s) or len(t) != d or any(len(r) != d for r in t):
            raise InvalidRepresentationError("generator matrices must be square and equal-sized")
        ident = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
        powers = [ident]
        for _ in range(p - 1):
            powers.append(_matmul(powers[-1], s))
        if _matmul(powers[-1], s) != ident:
            raise InvalidRepresentationError(f"s^{p} != identity")
        if _matmul(t, t) != ident:
            raise InvalidRepresentationError("t^2 != identity")
        if _matmul(_matmul(t, s), t) != powers[-1]:
            raise InvalidRepresentationError("t s t != s^-1")
        self.p = p
        self.s = s
        self.t = t
        self._powers = powers

    @classmethod
    def _trusted(cls, p: int, s: Matrix, t: Matrix, powers: list) -> "RationalRep":
        """A representation built from checked ones, so with nothing to check."""
        rep = cls.__new__(cls)
        rep.p, rep.s, rep.t, rep._powers = p, s, t, powers
        return rep

    @property
    def dimension(self) -> int:
        return len(self.s)


def trivial_rep(p: int) -> RationalRep:
    return RationalRep(p, ((1,),), ((1,),))


def sign_rep(p: int) -> RationalRep:
    return RationalRep(p, ((1,),), ((-1,),))


def faithful_rep(p: int) -> RationalRep:
    """The (p-1)-dimensional irreducible over Q: the action on Q[x]/Phi_p
    with s = multiplication by x and t the inversion x^i -> x^(p-i).  p is
    checked before any matrix is built."""
    check_odd_prime(p)
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


def _block(mats) -> Matrix:
    """The block-diagonal matrix with the given square integer blocks."""
    total, off, out = sum(len(m) for m in mats), 0, []
    for m in mats:
        left, right = (0,) * off, (0,) * (total - off - len(m))
        out += [left + row + right for row in m]
        off += len(m)
    return tuple(out)


def direct_sum(*reps: RationalRep) -> RationalRep:
    """The direct sum, with s, t and each power of s assembled block by block
    from the summands' own, which their constructors have checked."""
    if not reps:
        raise ValueError("need at least one summand")
    p = reps[0].p
    if any(r.p != p for r in reps):
        raise InvalidRepresentationError("summands belong to different groups")
    return RationalRep._trusted(p, _block([r.s for r in reps]), _block([r.t for r in reps]),
                                [_block(ms) for ms in zip(*(r._powers for r in reps))])


# --- pairings and the constant ---------------------------------------------

def _rotation_sum(sym: Matrix, powers) -> Matrix:
    """sum_{i<k} (s^i)^T S s^i, k = len(powers), over the bits of k: with T_j
    the sum over i < j, T_2j = T_j + (s^j)^T T_j s^j and T_(j+1) = S + s^T T_j s,
    so about 2 log2(k) Gram products, not k.  Each T_j is symmetric with S."""
    total, j = sym, 1
    for bit in bin(len(powers))[3:]:
        total = _matsum((total, _gram(total, powers[j])))
        j *= 2
        if bit == "1":
            total = _matsum((sym, _gram(total, powers[1])))
            j += 1
    return total


def _pairing_and_det(rep: RationalRep, seed: int) -> tuple[Matrix, int]:
    """invariant_pairing(rep, seed) and its determinant, the nonzero one
    that accepted the draw."""
    rng = random.Random(seed)
    d = rep.dimension
    for _ in range(64):
        raw = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
        sym = tuple(tuple(raw[i][j] + raw[j][i] for j in range(d)) for i in range(d))
        rotations = _rotation_sum(sym, rep._powers)
        pairing = _matsum((rotations, _gram(rotations, rep.t)))
        det = _det(pairing)
        if det != 0:
            return pairing, det
    raise DegeneratePairingError(f"no nondegenerate pairing found from seed {seed}")


def invariant_pairing(rep: RationalRep, seed: int = 0) -> Matrix:
    """Symmetric invariant nondegenerate integer pairing: a seeded random
    symmetric integer matrix S summed (not averaged) over the group,
    sum_g rho(g)^T S rho(g), so it is 2p times the group average.  The
    reflections are s^i t, so the sum is R + t^T R t with R the sum over
    the rotations s^i alone.  Singular draws are rethrown from the same
    stream, so the result is deterministic per seed."""
    return _pairing_and_det(rep, seed)[0]


def regulator_constant(rep: RationalRep, seed: int = 0) -> Fraction:
    """C_Theta(rep) as an exact rational, well defined modulo squares, over
    the pairing invariant_pairing(rep, seed).  Each factor's numerator and
    denominator, to the power |m_H|, multiply one integer numerator and
    denominator, on the sides the sign of m_H picks, and one Fraction is
    built from the two at the end."""
    pairing, det = _pairing_and_det(rep, seed)
    p = rep.p
    ident, t = rep._powers[0], rep.t
    rotations = _matsum(rep._powers)
    num = den = 1
    for tag, weight in THETA:
        order = tag.order(p)
        if order == 1:
            # P = I, so the factor is det(I^T B I) / 1^(3d) = det(B)
            top, bottom = det, 1
        else:
            # sum_{h in H} rho(h): its rotations sum to I or to R = sum_i s^i,
            # and its reflections s^i t to R t = t R (t s^i t = s^-i)
            proj = rotations if tag.level else ident
            if tag.reflects:
                proj = _matsum((proj, _matmul(t, proj)))
            cols = _independent_columns(proj)  # none: the empty determinant is 1
            basis = tuple(tuple(row[j] for j in cols) for row in proj)
            top = _det(_gram(pairing, basis))
            if top == 0:
                raise DegeneratePairingError(
                    f"pairing is singular on the vectors fixed by {tag.label}")
            bottom = order ** (3 * len(cols))
        if weight > 0:
            num *= top ** weight
            den *= bottom ** weight
        else:
            num *= bottom ** -weight
            den *= top ** -weight
    return Fraction(num, den)


class SquareClass(Record):
    """Class of a nonzero rational modulo squares, as its squarefree
    integer representative (sign included)."""
    __slots__ = ("representative",)

    def __init__(self, representative: int):
        self.representative = representative

    @classmethod
    def of(cls, x) -> "SquareClass":
        """The class of x, an int or a Fraction (not a bool)."""
        if type(x) not in (int, Fraction):
            raise TypeError(f"square class of {x!r}: need an int or a Fraction")
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


def in_t_theta(square_class: SquareClass, p: int) -> bool:
    """Whether a representation whose C_Theta has this square class falls
    in the parity-relevant class T_Theta, i.e. whether C_Theta has odd
    p-adic valuation."""
    return square_class.ord_parity(p) == 1


def t_theta_member(rep: RationalRep, seed: int = 0) -> bool:
    """Whether rep falls in T_Theta (see in_t_theta)."""
    return in_t_theta(SquareClass.of(regulator_constant(rep, seed=seed)), rep.p)
