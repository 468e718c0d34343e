"""Local parity engine for elliptic curves in D_{2p} extensions.

A local setting bundles the residue characteristic ell, the reduction of
the curve over the base (one of the five descriptors), the decomposition
and inertia subgroups (G_v, I_v) of a place v of the dihedral field, and
r, the residue degree of K_v over Q_ell, so that the residue field of K_v
has q = ell^r elements: the period term's exponent is
r f floor(delta e / 12) (`AdditivePotGood._period`), and at ell = p with wild
inertia the w side is +1 at even r, where q is a square (`_w_sign`).
Two independently derived closed forms are evaluated:

  * c_parity: the parity of ord_p of the Theta-weighted product of
    Tamagawa numbers and period factors over the subfields of the
    relation Theta = [1] - 2[D_2] - [C_p] + 2[D_{2p}], read from
    `base_change`; terms of even weight are squares, so only the fields
    fixed by 1 and C_p count,
  * w_ratio: the ratio of local root numbers picked up by twisting.

The expected identity is that the two always agree; verify_local reports
both signs, and its verdict reads either branch trace off the closed form
when asked.

Conventions: chi denotes the quadratic character twisting a potentially
multiplicative curve to split multiplicative (trivial for split,
unramified for nonsplit, ramified for additive); eta_v is the quadratic
character of G_v cut out by the rotation subgroup.  The flag
eta_equals_chi records whether those coincide, and is both required and
meaningful only when G_v = I_v = D_{2p} with additive potentially
multiplicative reduction; everywhere else the answer is forced.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, prod
from typing import TYPE_CHECKING

from .arith import FactoringBudgetError, is_prime, jacobi, valuation
from .base_change import (AdditivePotGood, AdditivePotMult, ConstrainedRange, Good,
                          InadmissibleSettingError, NonsplitMult, QuadCharClass,
                          ReductionDescriptor, SplitMult, _degrees, check_ell,
                          check_r)
from .lattice import CYCLIC, DIHEDRAL, ORDER2, THETA, TRIVIAL, SubgroupTag
from .records import Record

if TYPE_CHECKING:
    from collections.abc import Iterator

    from .weierstrass import WeierstrassCurve

POT_GOOD_DELTAS = (2, 3, 4, 6, 8, 9, 10)


class MissingCompletionError(ValueError):
    """A bad prime of the curve has no completion data."""


# The admissible (G_v, I_v): I_v is normal in G_v with cyclic quotient.
_PAIRS = ((TRIVIAL, TRIVIAL), (ORDER2, TRIVIAL), (ORDER2, ORDER2),
          (CYCLIC, TRIVIAL), (CYCLIC, CYCLIC), (DIHEDRAL, CYCLIC),
          (DIHEDRAL, DIHEDRAL))
# _PAIRS by kind: a tag of level <= 1 is fixed by its kind, and strings
# hash and compare without a Python-level Record.__eq__
_PAIR_KINDS = frozenset((G_v.kind, I_v.kind) for G_v, I_v in _PAIRS)


def check_p(p) -> None:
    """Raise InadmissibleSettingError unless p is a prime >= 5."""
    if not isinstance(p, int) or p < 5 or not is_prime(p):
        raise InadmissibleSettingError(f"p must be a prime >= 5, got {p}")


class LocalSetting(Record):
    """One local situation at a place v of the dihedral field, over the
    base field K_v of residue degree r over Q_ell."""
    __slots__ = ("p", "ell", "r", "base", "G_v", "I_v", "eta_equals_chi")

    def __init__(self, p: int, ell: int, r: int, base: ReductionDescriptor,
                 G_v: SubgroupTag, I_v: SubgroupTag,
                 eta_equals_chi: bool | None = None):
        check_p(p)
        check_ell(ell)
        check_r(r)
        for tag in (G_v, I_v):
            if not isinstance(tag, SubgroupTag):
                raise InadmissibleSettingError(f"{tag!r} is not a subgroup tag")
            if tag.level > 1:
                raise InadmissibleSettingError(
                    f"{tag.label} does not live in the D_2p lattice")
        if (G_v.kind, I_v.kind) not in _PAIR_KINDS:
            raise InadmissibleSettingError(
                f"inertia {I_v.label} is impossible under decomposition "
                f"{G_v.label} (quotient must be cyclic)")
        if I_v.kind == "dihedral" and ell != p:
            raise InadmissibleSettingError(
                "dihedral inertia is wild and forces ell = p")
        if not isinstance(base, ReductionDescriptor):
            raise InadmissibleSettingError(f"unknown reduction descriptor {base!r}")
        if (isinstance(base, AdditivePotGood) and ell >= 5
                and base.delta not in POT_GOOD_DELTAS):
            raise InadmissibleSettingError(
                f"delta = {base.delta} cannot occur for a minimal model at ell >= 5")
        needs_flag = (G_v.kind == "dihedral" and I_v.kind == "dihedral"
                      and base.chi is QuadCharClass.RAMIFIED)
        if needs_flag and not isinstance(eta_equals_chi, bool):
            raise InadmissibleSettingError(
                "eta_equals_chi must be set for dihedral inertia with "
                "additive potentially multiplicative reduction")
        if not needs_flag and eta_equals_chi is not None:
            raise InadmissibleSettingError(
                "eta_equals_chi is determined here and must be left as None")
        self.p = p
        self.ell = ell
        self.r = r
        self.base = base
        self.G_v = G_v
        self.I_v = I_v
        self.eta_equals_chi = eta_equals_chi

    # --- derived character classes ------------------------------------

    def eta_class(self) -> QuadCharClass:
        """Class of eta_v, the quadratic character of G_v through the
        rotation quotient."""
        if not self.G_v.reflects:
            return QuadCharClass.TRIVIAL
        # eta_v is a genuine quadratic character, ramified exactly when
        # inertia surjects onto the quotient
        return QuadCharClass.RAMIFIED if self.I_v.reflects else QuadCharClass.UNRAMIFIED

    def eta_chi_agree(self) -> bool | None:
        """Whether eta_v equals chi, when chi exists and G_v = D_2p: they
        differ when their classes do, and two ramified characters agree
        exactly when eta_equals_chi says so."""
        chi = self.base.chi
        if chi is None or self.G_v.kind != "dihedral":
            return None
        eta = self.eta_class()
        if chi is QuadCharClass.RAMIFIED and eta is chi:
            return self.eta_equals_chi
        return eta is chi


def ramification_degree_e(delta: int) -> int:
    """Order of the tame potential-good monodromy: 12 / gcd(delta, 12)."""
    return 12 // gcd(delta, 12)


# --- the two closed forms --------------------------------------------------

# the odd-weight H of Theta, and their labels
_ODD_THETA = tuple(H for H, weight in THETA if weight % 2)
_ODD_LABELS = tuple(H.label for H in _ODD_THETA)

# The one branch of both traces when G_v is cyclic (1, C_2 or C_p).  A
# cyclic group carries no nontrivial Brauer relation (T. and V. Dokchitser,
# "Regulator constants and the parity conjecture", Invent. Math. 178, 2009),
# so both sides are +1 there.
_SMALL_DECOMPOSITION = "small-decomposition"


@lru_cache(maxsize=64)
def _theta_degrees(p: int, inertia: str) -> tuple[tuple[int, int], ...]:
    """At G_v = D_2p with inertia of the given kind, the degrees (e, f) of
    the place above v of the field fixed by each H of _ODD_THETA, from
    `_degrees` once per (p, kind)."""
    I_v = SubgroupTag(inertia, 1)
    return tuple(_degrees(p, DIHEDRAL, I_v, H) for H in _ODD_THETA)


def _theta_parities(s: LocalSetting) -> list[int]:
    """At G_v = D_2p, the ord_p parity of the Tamagawa/period term of each
    odd-weight H of Theta, in _ODD_THETA order.  Only H = 1 and H = C_p
    count, each with one place above v.  The setting has checked p, the
    descriptor and (G_v, I_v), so the degrees of each place feed the
    descriptor's Tamagawa and period rules unchecked."""
    base, p, ell, flag = s.base, s.p, s.ell, s.eta_equals_chi
    parities = []
    for e, f in _theta_degrees(p, s.I_v.kind):
        tam = base._tamagawa(e, f, ell, flag)
        par = tam.ord_parity(p) if tam.__class__ is ConstrainedRange \
            else valuation(tam, p) % 2
        parities.append(par ^ base._period(e, f, ell, p, s.r))
    return parities


def _c_sign(s: LocalSetting) -> int:
    """`c_parity`'s sign at G_v = D_2p."""
    return -1 if sum(_theta_parities(s)) % 2 else 1


def c_parity(setting: LocalSetting) -> tuple[int, dict]:
    """(-1)^(ord_p of the Theta-weighted local Tamagawa/period product),
    plus a trace of the branch and each subfield's ord_p parity.

    A cyclic G_v carries no nontrivial Brauer relation, so the product is
    a square there (`_SMALL_DECOMPOSITION`); for G_v = D_2p the parities
    are those of `_theta_parities`.
    """
    s = setting
    if s.G_v.kind != "dihedral":
        return 1, {"branch": _SMALL_DECOMPOSITION}
    parities = _theta_parities(s)
    trace: dict = {"branch": s.base.branch}
    trace.update(zip(_ODD_LABELS, parities))
    return (-1 if sum(parities) % 2 else 1), trace


def _w_sign(s: LocalSetting) -> int:
    """`w_ratio`'s sign at G_v = D_2p."""
    base = s.base
    chi = base.chi
    if chi is not None:
        # potentially multiplicative: -1 exactly when chi is trivial or eta_v
        return -1 if chi is QuadCharClass.TRIVIAL or s.eta_chi_agree() else 1
    if isinstance(base, Good) or s.ell != s.p or s.I_v.kind != "dihedral" or s.r % 2 == 0:
        return 1
    # additive, potentially good, at ell = p with wild inertia and odd r
    e = ramification_degree_e(base.delta)
    if e in (3, 6):
        return jacobi(-3, s.p)
    if e == 4:
        return jacobi(-1, s.p)
    return 1


def w_ratio(setting: LocalSetting) -> tuple[int, dict]:
    """Ratio of local root numbers across the dihedral twist, plus a
    branch trace.  The sign is `_w_sign`'s, or +1 at a cyclic G_v."""
    s = setting
    if s.G_v.kind != "dihedral":
        return 1, {"branch": _SMALL_DECOMPOSITION}
    sign = _w_sign(s)
    base = s.base
    chi = base.chi
    if chi is not None:
        return sign, {"branch": "pot-multiplicative", "chi_class": chi.value,
                      "eta_class": s.eta_class().value,
                      "eta_equals_chi": s.eta_chi_agree()}
    trace: dict = {"branch": base.branch}
    if isinstance(base, AdditivePotGood) and s.ell == s.p and s.I_v.kind == "dihedral":
        # epsilon is the sign: +1 at even r, else (-3/p), (-1/p) or 1 by e
        trace["tame_order_e"] = ramification_degree_e(base.delta)
        trace["epsilon"] = sign
    return sign, trace


class LocalVerdict(Record):
    """Both sides of the local identity at a setting, and whether they
    agree.  Each trace is read off `c_parity` or `w_ratio` when asked for;
    the traces are shown but not compared."""
    __slots__ = ("setting", "c_side", "w_side", "agree")
    _uncompared = ("c_trace", "w_trace")

    def __init__(self, setting: LocalSetting, c_side: int, w_side: int):
        self.setting = setting
        self.c_side = c_side
        self.w_side = w_side
        self.agree = c_side == w_side

    @property
    def c_trace(self) -> dict:
        return c_parity(self.setting)[1]

    @property
    def w_trace(self) -> dict:
        return w_ratio(self.setting)[1]


def verify_local(setting: LocalSetting) -> LocalVerdict:
    """Both signs of the local identity at the setting: +1 on each side at
    a cyclic G_v (`_SMALL_DECOMPOSITION`), else `_c_sign` and `_w_sign`."""
    if setting.G_v.kind != "dihedral":
        return LocalVerdict(setting, 1, 1)
    return LocalVerdict(setting, _c_sign(setting), _w_sign(setting))


# --- enumeration -----------------------------------------------------------

SWEEP_ELLS = (2, 3, 5, 7, 11, 13)
SWEEP_RS = (1, 2)


class SettingSweep:
    """The settings of `enumerate_settings`, in its order, built one at a
    time as they are read.  It holds the shared descriptors in blocks
    (ell, r, G_v, I_v, cases), so `len` builds no setting, and each
    iteration builds fresh settings: a caller that keeps only what it
    reads off each one holds one setting at a time.  `list(sweep)` gives
    the settings themselves, to compare or keep."""
    __slots__ = ("p", "_blocks", "_len")

    def __init__(self, p: int, blocks: list[tuple]):
        self.p = p
        self._blocks = blocks
        self._len = sum(len(block[4]) for block in blocks)

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[LocalSetting]:
        # each setting is admissible by construction: its slots are filled
        # directly, with none of LocalSetting's checks
        p, new = self.p, LocalSetting.__new__
        for ell, r, G_v, I_v, cases in self._blocks:
            for base, flag in cases:
                s = new(LocalSetting)
                s.p = p
                s.ell = ell
                s.r = r
                s.base = base
                s.G_v = G_v
                s.I_v = I_v
                s.eta_equals_chi = flag
                yield s


def enumerate_settings(p: int, *, n_max: int = 10) -> SettingSweep:
    """All admissible local settings at ell in SWEEP_ELLS and p, r in
    SWEEP_RS, valuations n up to n_max and every delta in POT_GOOD_DELTAS,
    in a fixed deterministic order, as a `SettingSweep` that builds each
    setting when it is read.  Only p and n_max are checked, once: each
    setting is admissible by construction."""
    check_p(p)
    if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 1:
        raise InadmissibleSettingError(
            f"n_max must be a positive integer, got {n_max!r}")
    ns = range(1, n_max + 1)
    # each descriptor is built once and shared by the settings that use it
    unflagged = [Good()] + [cls(n) for n in ns for cls in (SplitMult, NonsplitMult)]
    pot_mult = [AdditivePotMult(n) for n in ns]
    pot_good = [AdditivePotGood(delta) for delta in POT_GOOD_DELTAS]

    def cases(flags):
        return ([(base, None) for base in unflagged]
                + [(base, flag) for base in pot_mult for flag in flags]
                + [(base, None) for base in pot_good])

    # dihedral inertia lies only under G_v = D_2p, where additive
    # potentially multiplicative reduction needs eta_equals_chi
    plain, flagged = cases((None,)), cases((False, True))
    return SettingSweep(p, [(ell, r, G_v, I_v, flagged if I_v.kind == "dihedral" else plain)
                            for ell in sorted(set(SWEEP_ELLS) | {p})
                            for r in SWEEP_RS
                            for G_v, I_v in _PAIRS
                            if I_v.kind != "dihedral" or ell == p])


# --- the potential-good sign table -----------------------------------------

# rows: tame order e in (6, 4, 3, 2); columns: p mod 12 in (1, 5, 7, 11)
FROZEN_POT_GOOD_TABLE: dict[tuple[int, int], int] = {
    (6, 1): 1, (6, 5): -1, (6, 7): 1, (6, 11): -1,
    (4, 1): 1, (4, 5): 1, (4, 7): -1, (4, 11): -1,
    (3, 1): 1, (3, 5): -1, (3, 7): 1, (3, 11): -1,
    (2, 1): 1, (2, 5): 1, (2, 7): 1, (2, 11): 1,
}

_RESIDUE_REPS = {1: 13, 5: 5, 7: 7, 11: 11}


def pot_good_table(side: str) -> dict[tuple[int, int], int]:
    """The 4x4 sign table for odd-multiplicity potential good reduction at
    ell = p, generated from one of the engine's two closed forms
    (side "c" or side "w").  Every delta with the same tame order must
    agree, and the generator checks that."""
    if side not in ("c", "w"):
        raise ValueError(f"side must be 'c' or 'w', got {side!r}")
    sign_of = _c_sign if side == "c" else _w_sign
    table: dict[tuple[int, int], int] = {}
    for e_target in (6, 4, 3, 2):
        deltas = [d for d in POT_GOOD_DELTAS if ramification_degree_e(d) == e_target]
        for residue, p in _RESIDUE_REPS.items():
            # p >= 5 is prime, delta is in POT_GOOD_DELTAS and ell = p:
            # each setting is admissible by construction
            cases = [(AdditivePotGood(delta), None) for delta in deltas]
            signs = set(map(sign_of, SettingSweep(p, [(p, 1, DIHEDRAL, DIHEDRAL, cases)])))
            if len(signs) != 1:
                raise AssertionError(
                    f"deltas of tame order {e_target} disagree at p = {p}: {signs}")
            table[(e_target, residue)] = signs.pop()
    return table


# --- whole curves ----------------------------------------------------------

CompletionMap = dict[int, tuple[SubgroupTag, SubgroupTag, bool | None]]


class GlobalVerdict(Record):
    """The local verdicts at the bad primes of one curve, the products of
    their two signs, and whether every place agrees."""
    __slots__ = ("curve", "p", "locals", "c_product", "w_product", "agree")

    def __init__(self, curve: WeierstrassCurve, p: int, locals: tuple[LocalVerdict, ...]):
        self.curve = curve
        self.p = p
        self.locals = locals
        self.c_product = prod(v.c_side for v in locals)
        self.w_product = prod(v.w_side for v in locals)
        self.agree = all(v.agree for v in locals)


def base_descriptor(curve: WeierstrassCurve, ell: int) -> ReductionDescriptor:
    """Reduction descriptor of the curve at ell, from Tate's algorithm."""
    from .tate import j_pole_order, local_reduction
    data = local_reduction(curve, ell)
    if data.conductor_exp == 0:
        return Good()
    if data.reduction_class == "multiplicative":
        return SplitMult(data.delta) if data.split else NonsplitMult(data.delta)
    n = j_pole_order(curve, ell)
    return AdditivePotMult(n) if n else AdditivePotGood(data.delta)


def global_parity(curve: WeierstrassCurve, p: int, completion: CompletionMap,
                  r: int = 1) -> GlobalVerdict:
    """Run the local identity at every bad prime of the curve and combine.

    completion maps each bad prime to (G_v, I_v, eta_equals_chi-or-None);
    entries for good primes are ignored, missing bad primes are an error,
    and an entry LocalSetting rejects is an error that names its prime.
    The bad primes outside the completion are found by factoring within
    arith's budget; a cofactor that does not factor is a
    MissingCompletionError naming its digit count.  With r > 1, K is not Q
    and may have several places above ell, all with the same data; the
    products take one sign per rational prime, and agreement is unaffected.
    """
    from .tate import bad_primes
    check_p(p)
    check_r(r)
    try:
        primes = bad_primes(curve, known=completion)
    except FactoringBudgetError as exc:
        raise MissingCompletionError(
            f"cannot list the bad primes: after dividing out the completion's "
            f"primes, {exc}") from None
    verdicts = []
    for ell in primes:
        base = base_descriptor(curve, ell)
        if isinstance(base, Good):
            continue  # the model was not minimal at ell
        if ell not in completion:
            raise MissingCompletionError(
                f"no completion data for bad prime {ell}")
        G_v, I_v, flag = completion[ell]
        try:
            setting = LocalSetting(p=p, ell=ell, r=r, base=base,
                                   G_v=G_v, I_v=I_v, eta_equals_chi=flag)
        except InadmissibleSettingError as exc:
            raise InadmissibleSettingError(f"completion for {ell}: {exc}") from None
        verdicts.append(verify_local(setting))
    return GlobalVerdict(curve, p, tuple(verdicts))
