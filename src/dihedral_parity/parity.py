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

The expected identity is that the two always agree; verify_local fills
both signs into its verdict's slots in place, and the verdict derives its
agreement and reads either branch trace off the closed form when asked.

Conventions: chi denotes the quadratic character twisting a potentially
multiplicative curve to split multiplicative (trivial for split,
unramified for nonsplit, ramified for additive); eta_v is the quadratic
character of G_v cut out by the rotation subgroup, of class `_ETA_CLASS`.
The flag eta_equals_chi records whether those coincide (`_eta_agrees`), and
is both required and meaningful only when G_v = I_v = D_{2p} with additive
potentially multiplicative reduction; everywhere else the answer is forced.
"""

from __future__ import annotations

from functools import partial
from math import gcd, prod
from typing import TYPE_CHECKING

from .arith import FactoringBudgetError, check_positive, check_prime, jacobi, valuation
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
# eta_v's class at each pair, keyed by kind, as LocalSetting checks a pair
# (strings hash and compare without Record.__eq__): trivial unless G_v
# reflects, else ramified exactly when inertia surjects onto the quotient
_ETA_CLASS = {(G_v.kind, I_v.kind): QuadCharClass.TRIVIAL if not G_v.reflects
              else QuadCharClass.RAMIFIED if I_v.reflects else QuadCharClass.UNRAMIFIED
              for G_v, I_v in _PAIRS}


def _eta_agrees(chi: QuadCharClass, eta: QuadCharClass, flag: bool | None) -> bool | None:
    """Whether eta_v, of class eta, equals chi: not when their classes
    differ, and for two ramified characters as eta_equals_chi says."""
    return flag if chi is eta is QuadCharClass.RAMIFIED else eta is chi


check_p = partial(check_prime, name="p", error=InadmissibleSettingError, least=5)


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
        if (G_v.kind, I_v.kind) not in _ETA_CLASS:
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
        rotation quotient, from `_ETA_CLASS`."""
        return _ETA_CLASS[self.G_v.kind, self.I_v.kind]

    def eta_chi_agree(self) -> bool | None:
        """Whether eta_v equals chi (`_eta_agrees`), when chi exists and
        G_v = D_2p."""
        chi = self.base.chi
        if chi is None or self.G_v.kind != "dihedral":
            return None
        return _eta_agrees(chi, _ETA_CLASS["dihedral", self.I_v.kind], self.eta_equals_chi)


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


_THETA_DEGREES: dict[tuple[int, str], tuple[tuple[int, int], ...]] = {}


def _theta_degrees(p: int, inertia: str) -> tuple[tuple[int, int], ...]:
    """At G_v = D_2p with inertia of the given kind, the degrees (e, f) of
    the place above v of the field fixed by each H of _ODD_THETA, from
    `_degrees` once per (p, kind) into _THETA_DEGREES (64 entries at most)."""
    if len(_THETA_DEGREES) >= 64:
        _THETA_DEGREES.clear()
    degrees = _THETA_DEGREES[p, inertia] = tuple(
        _degrees(p, DIHEDRAL, SubgroupTag(inertia, 1), H) for H in _ODD_THETA)
    return degrees


def _theta_parities(s: LocalSetting) -> tuple[int, int]:
    """At G_v = D_2p, the ord_p parities of the Tamagawa/period terms of
    H = 1 and H = C_p, the odd-weight H of Theta, in _ODD_THETA order, each
    with one place above v.  The setting has checked p, the descriptor and
    (G_v, I_v), so the degrees of each place feed the descriptor's rules
    unchecked, in straight-line code: an int Tamagawa number is tested
    with tam % p before any valuation loop, and the period rule is called
    only for a descriptor that has one (`ReductionDescriptor._period`)."""
    base, p, ell, flag, kind = s.base, s.p, s.ell, s.eta_equals_chi, s.I_v.kind
    (e1, f1), (e2, f2) = _THETA_DEGREES.get((p, kind)) or _theta_degrees(p, kind)
    tamagawa = base._tamagawa
    tam1 = tamagawa(e1, f1, ell, flag)
    tam2 = tamagawa(e2, f2, ell, flag)
    par1 = (tam1.ord_parity(p) if tam1.__class__ is ConstrainedRange
            else valuation(tam1, p) % 2 if tam1 % p == 0 else 0)
    par2 = (tam2.ord_parity(p) if tam2.__class__ is ConstrainedRange
            else valuation(tam2, p) % 2 if tam2 % p == 0 else 0)
    period = base._period
    if period is None:
        return par1, par2
    return par1 ^ period(e1, f1, ell, p, s.r), par2 ^ period(e2, f2, ell, p, s.r)


def _c_sign(s: LocalSetting) -> int:
    """`c_parity`'s sign at G_v = D_2p."""
    par1, par2 = _theta_parities(s)
    return -1 if par1 ^ par2 else 1


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
    par1, par2 = parities = _theta_parities(s)
    trace: dict = {"branch": s.base.branch}
    trace.update(zip(_ODD_LABELS, parities))
    return (-1 if par1 ^ par2 else 1), trace


def _w_sign(s: LocalSetting) -> int:
    """`w_ratio`'s sign at G_v = D_2p."""
    base = s.base
    chi = base.chi
    if chi is not None:
        # potentially multiplicative: -1 exactly when chi is trivial or eta_v
        return -1 if chi is QuadCharClass.TRIVIAL or _eta_agrees(
            chi, _ETA_CLASS["dihedral", s.I_v.kind], s.eta_equals_chi) else 1
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
    """Both sides of the local identity at a setting, which `verify_local`
    fills in place, and whether they agree.  Agreement is derived from the
    signs, and each trace read off `c_parity` or `w_ratio`, when asked for;
    both are shown but not compared."""
    __slots__ = ("setting", "c_side", "w_side")
    _uncompared = ("agree", "c_trace", "w_trace")

    def __init__(self, setting: LocalSetting, c_side: int, w_side: int):
        self.setting = setting
        self.c_side = c_side
        self.w_side = w_side

    @property
    def agree(self) -> bool:
        return self.c_side == self.w_side

    @property
    def c_trace(self) -> dict:
        return c_parity(self.setting)[1]

    @property
    def w_trace(self) -> dict:
        return w_ratio(self.setting)[1]


def verify_local(setting: LocalSetting) -> LocalVerdict:
    """Both signs of the local identity at the setting: +1 on each side at
    a cyclic G_v (`_SMALL_DECOMPOSITION`), else `_c_sign` and `_w_sign`,
    filled in place as `SettingSweep` fills a setting: no `__init__` frame."""
    v = LocalVerdict.__new__(LocalVerdict)
    v.setting = setting
    if setting.G_v.kind != "dihedral":
        v.c_side = v.w_side = 1
    else:
        v.c_side = _c_sign(setting)
        v.w_side = _w_sign(setting)
    return v


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
    check_positive(n_max, "n_max", InadmissibleSettingError)
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
    agree, and the generator checks that: one sweep over the seven deltas
    per residue prime, its signs grouped by tame order."""
    if side not in ("c", "w"):
        raise ValueError(f"side must be 'c' or 'w', got {side!r}")
    sign_of = _c_sign if side == "c" else _w_sign
    # p >= 5 is prime, delta is in POT_GOOD_DELTAS and ell = p: each
    # setting is admissible by construction
    cases = [(AdditivePotGood(delta), None) for delta in POT_GOOD_DELTAS]
    orders = [ramification_degree_e(delta) for delta in POT_GOOD_DELTAS]
    signs: dict[tuple[int, int], set[int]] = {}
    for residue, p in _RESIDUE_REPS.items():
        sweep = SettingSweep(p, [(p, 1, DIHEDRAL, DIHEDRAL, cases)])
        for e, sign in zip(orders, map(sign_of, sweep)):
            signs.setdefault((e, residue), set()).add(sign)
    table: dict[tuple[int, int], int] = {}
    for e_target in (6, 4, 3, 2):
        for residue, p in _RESIDUE_REPS.items():
            found = signs[e_target, residue]
            if len(found) != 1:
                raise AssertionError(
                    f"deltas of tame order {e_target} disagree at p = {p}: {found}")
            table[(e_target, residue)] = found.pop()
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
