"""A second route to the w side of the local identity, for additive
potentially good reduction: root numbers over the quadratic subfield.

With G_v = D_2p, write 1 + eta = Ind 1 and tau = Ind psi from F, the field
fixed by C_p, with psi of order p.  Inductivity in degree 0 gives

    W(E/K_v, 1 + eta + tau) = W(E/F_w) W(E/F_w, psi),

the lambda-factor entering to the fourth power.  (e, f) of the place w of F
come from `base_change.degrees(p, G_v, I_v, C_p)`.  A curve of
multiplicity r contributes the r-th power.  The cases, by name:

* "cyclic G_v": rho restricted to a cyclic G_v is a sum of pairs
  chi + chi^-1 and of squares, so the w side is +1.
* "ell = p, Rohrlich over F_w, e_F = ...": psi is wild and more ramified
  than the curve, which is tame at ell = p >= 5, so W(E/F_w, psi) =
  psi(-1) = 1 (Deligne-Henniart, Invent. Math. 64, 1981), and W(E/F_w) is
  Rohrlich's (Compositio Math. 100, 1996): with e_F = 12 / gcd(12, e delta)
  and q = ell^f, it is 1, (-1/q), (-3/q) or (-2/q) for e_F = 1, 2 or 6, 3,
  or 4, where (a/q) is 1 for even f and the Legendre symbol otherwise.
* "tame psi, Deligne congruence": ell != p and psi is tame; Deligne's
  congruence between epsilon-factors, the paper's tool, gives
  W(E/F_w, psi) = W(E/F_w), so the w side is +1.  This case is recorded,
  not computed.

Nothing here reads `parity`'s case table, its tame order or `arith.jacobi`.
"""

from math import gcd

from dihedral_parity.base_change import AdditivePotGood, degrees
from dihedral_parity.lattice import CYCLIC


def _legendre(a: int, ell: int) -> int:
    """(a/ell) for an odd prime ell not dividing a, by Euler's criterion."""
    return 1 if pow(a % ell, (ell - 1) // 2, ell) == 1 else -1


# Rohrlich's W(E/F_w) for potentially good reduction at ell >= 5: the
# residue a with W = (a/q), by e_F; e_F = 1 gives W = 1
_ROHRLICH = {2: -1, 3: -3, 4: -2, 6: -1}


def w_side(setting) -> tuple[int, str]:
    """(sign, case name) of the w side at a setting with additive
    potentially good reduction."""
    s = setting
    if not isinstance(s.base, AdditivePotGood):
        raise ValueError(f"the referee covers potentially good reduction, not {s.base!r}")
    if s.G_v.kind != "dihedral":
        return 1, "cyclic G_v"
    if s.ell != s.p:
        return 1, "tame psi, Deligne congruence"
    e, f = degrees(s.p, s.G_v, s.I_v, CYCLIC)
    e_F = 12 // gcd(12, e * s.base.delta)
    a = _ROHRLICH.get(e_F)
    w = 1 if a is None or f % 2 == 0 else _legendre(a, s.ell)
    return w ** s.r, f"ell = p, Rohrlich over F_w, e_F = {e_F}"
