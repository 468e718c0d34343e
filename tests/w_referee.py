"""A second route to the w side of the local identity, from root numbers.

Good reduction and potential multiplicative reduction need no subfield:

* "good reduction": the w side is det rho(-1) = 1.
* "potentially multiplicative, Rohrlich sp(2)": with chi the quadratic
  character twisting the curve to split multiplicative reduction (trivial,
  unramified or ramified), the w side is (-1)^<chi, rho|G_v>, since
  det rho = 1 (Rohrlich's formula for sp(2)).  Here rho = 1 + eta + tau,
  and the inner product is summed from `characters.inner_product` with the
  restrictions of 1, eta and tau to G_v.  chi is a character of G_v only
  when it is trivial or eta_v, the restriction of eta; otherwise no
  constituent of rho|G_v is chi and the w side is +1.

Additive potentially good reduction goes through the quadratic subfield.
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

Nothing here reads `parity`'s case table, its character classes, its tame
order or `arith.jacobi`.
"""

from functools import lru_cache
from math import gcd

from dihedral_parity.base_change import AdditivePotGood, Good, NonsplitMult, SplitMult, degrees
from dihedral_parity.characters import DihedralContext, inner_product, irreducibles, restrict
from dihedral_parity.lattice import CYCLIC


def _legendre(a: int, ell: int) -> int:
    """(a/ell) for an odd prime ell not dividing a, by Euler's criterion."""
    return 1 if pow(a % ell, (ell - 1) // 2, ell) == 1 else -1


# Rohrlich's W(E/F_w) for potentially good reduction at ell >= 5: the
# residue a with W = (a/q), by e_F; e_F = 1 gives W = 1
_ROHRLICH = {2: -1, 3: -3, 4: -2, 6: -1}


@lru_cache(maxsize=None)
def _on_decomposition(p, G_v, I_v) -> tuple[int, int, bool, bool]:
    """<1, rho|G_v> and <eta_v, rho|G_v>, for rho = 1 + eta + tau on D_2p,
    then whether eta_v is nontrivial and whether it is unramified (trivial
    on I_v)."""
    ctx = DihedralContext(p, 1)
    G, I = ctx.subgroup(G_v), ctx.subgroup(I_v)
    one, eta, tau = irreducibles(ctx)[:3]
    rho = [restrict(chi, G) for chi in (one, eta, tau)]
    one_v, eta_v = rho[:2]
    return (sum(inner_product(one_v, part) for part in rho),
            sum(inner_product(eta_v, part) for part in rho),
            inner_product(eta_v, one_v) == 0,
            inner_product(restrict(eta, I), restrict(one, I)) == 1)


def _sp2_sign(s) -> int:
    """(-1)^<chi, rho|G_v> at a potentially multiplicative setting."""
    on_one, on_eta, eta_nontrivial, eta_unramified = _on_decomposition(s.p, s.G_v, s.I_v)
    if isinstance(s.base, SplitMult):  # chi is trivial
        return -1 if on_one % 2 else 1
    # chi is quadratic, unramified exactly for nonsplit reduction.  It is
    # eta_v when both are unramified (there is one such character), or both
    # ramified and the setting says so; where the setting leaves that open
    # (G_v = D_2), <eta_v, rho|G_v> is even and the sign +1 either way.
    unramified = isinstance(s.base, NonsplitMult)
    is_eta = (eta_nontrivial and eta_unramified == unramified
              and (unramified or bool(s.eta_equals_chi)))
    return -1 if is_eta and on_eta % 2 else 1


def w_side(setting) -> tuple[int, str]:
    """(sign, case name) of the w side at a setting."""
    s = setting
    if isinstance(s.base, Good):
        return 1, "good reduction"
    if not isinstance(s.base, AdditivePotGood):
        return _sp2_sign(s), "potentially multiplicative, Rohrlich sp(2)"
    if s.G_v.kind != "dihedral":
        return 1, "cyclic G_v"
    if s.ell != s.p:
        return 1, "tame psi, Deligne congruence"
    e, f = degrees(s.p, s.G_v, s.I_v, CYCLIC)
    e_F = 12 // gcd(12, e * s.base.delta)
    a = _ROHRLICH.get(e_F)
    w = 1 if a is None or f % 2 == 0 else _legendre(a, s.ell)
    return w ** s.r, f"ell = p, Rohrlich over F_w, e_F = {e_F}"
