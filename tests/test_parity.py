import functools
import gc
import hashlib
import random
from collections import Counter
from fractions import Fraction
from math import gcd
from time import perf_counter

import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy import primerange

import w_referee
from corpus import TATE_CORPUS
from dihedral_parity import base_change, parity
from dihedral_parity.base_change import (AdditivePotGood, AdditivePotMult,
                                         ConstrainedRange, Good, NonsplitMult,
                                         SplitMult, degrees, omega_ordp_parity,
                                         tamagawa_over)
from dihedral_parity.characters import (ORDER2, THETA, TRIVIAL, cyclic_p_power,
                                        dihedral_p_power)
from dihedral_parity.parity import (_PAIRS, CYCLIC, DIHEDRAL, FROZEN_POT_GOOD_TABLE,
                                    POT_GOOD_DELTAS, InadmissibleSettingError,
                                    LocalSetting, LocalVerdict,
                                    MissingCompletionError, QuadCharClass,
                                    base_descriptor, c_parity,
                                    enumerate_settings, global_parity,
                                    pot_good_table, ramification_degree_e,
                                    verify_local, w_ratio)
from dihedral_parity.tate import bad_primes, local_reduction, valuation
from dihedral_parity.weierstrass import WeierstrassCurve, raw_invariants, transform


def setting(base, G_v=DIHEDRAL, I_v=CYCLIC, p=5, ell=None, r=1, flag=None):
    if ell is None:
        ell = p if I_v.kind == "dihedral" else 7
    return LocalSetting(p=p, ell=ell, r=r, base=base, G_v=G_v, I_v=I_v,
                        eta_equals_chi=flag)


# --- admissibility ---------------------------------------------------------

def test_inadmissible_settings_rejected():
    mk = LocalSetting
    cases = [
        dict(p=4, ell=7, r=1, base=Good(), G_v=DIHEDRAL, I_v=CYCLIC),
        dict(p=3, ell=7, r=1, base=Good(), G_v=DIHEDRAL, I_v=CYCLIC),
        dict(p=2, ell=7, r=1, base=Good(), G_v=DIHEDRAL, I_v=CYCLIC),
        dict(p=5, ell=6, r=1, base=Good(), G_v=DIHEDRAL, I_v=CYCLIC),
        dict(p=5.0, ell=7, r=1, base=Good(), G_v=DIHEDRAL, I_v=CYCLIC),
        dict(p=True, ell=7, r=1, base=Good(), G_v=DIHEDRAL, I_v=CYCLIC),
        dict(p=5, ell=7.0, r=1, base=Good(), G_v=DIHEDRAL, I_v=CYCLIC),
        dict(p=5, ell=True, r=1, base=Good(), G_v=DIHEDRAL, I_v=CYCLIC),
        dict(p=5, ell=7, r=0, base=Good(), G_v=DIHEDRAL, I_v=CYCLIC),
        dict(p=5, ell=7, r=1, base=Good(), G_v=dihedral_p_power(2), I_v=CYCLIC),
        dict(p=5, ell=7, r=1, base=Good(), G_v=TRIVIAL, I_v=ORDER2),
        dict(p=5, ell=7, r=1, base=Good(), G_v=ORDER2, I_v=CYCLIC),
        dict(p=5, ell=7, r=1, base=Good(), G_v=CYCLIC, I_v=ORDER2),
        dict(p=5, ell=7, r=1, base=Good(), G_v=DIHEDRAL, I_v=TRIVIAL),
        dict(p=5, ell=7, r=1, base=Good(), G_v=DIHEDRAL, I_v=DIHEDRAL),
        dict(p=5, ell=5, r=1, base=AdditivePotGood(5), G_v=DIHEDRAL, I_v=DIHEDRAL),
        dict(p=5, ell=5, r=1, base=AdditivePotGood(7), G_v=DIHEDRAL, I_v=CYCLIC),
        dict(p=5, ell=5, r=1, base=AdditivePotMult(1), G_v=DIHEDRAL, I_v=DIHEDRAL),
        dict(p=5, ell=5, r=1, base=Good(), G_v=DIHEDRAL, I_v=DIHEDRAL,
             eta_equals_chi=True),
        dict(p=5, ell=7, r=1, base=AdditivePotMult(1), G_v=DIHEDRAL, I_v=CYCLIC,
             eta_equals_chi=False),
        dict(p=5, ell=7, r=1, base="split", G_v=DIHEDRAL, I_v=CYCLIC),
    ]
    mk(p=5, ell=7, r=1, base=Good(), G_v=DIHEDRAL, I_v=CYCLIC)  # memoises 5 and 7 as primes
    for kwargs in cases:
        with pytest.raises(InadmissibleSettingError):
            mk(**kwargs)


@pytest.mark.parametrize("field", ["G_v", "I_v"])
def test_a_setting_group_must_be_a_subgroup_tag(field):
    kwargs = dict(p=5, ell=7, r=1, base=Good(), G_v=DIHEDRAL, I_v=CYCLIC)
    kwargs[field] = "D2p"
    with pytest.raises(InadmissibleSettingError, match="^'D2p' is not a subgroup tag$"):
        LocalSetting(**kwargs)


@pytest.mark.parametrize("r", [True, False, 1.0, 2.5])
def test_multiplicity_must_be_an_int(r):
    with pytest.raises(InadmissibleSettingError, match=f"^r must be a positive integer, got {r}$"):
        setting(Good(), r=r)


def test_admissible_deltas_depend_on_ell():
    # an additive, potentially good fibre at ell >= 5 has delta in
    # POT_GOOD_DELTAS (types II, III, IV, I0*, IV*, III*, II*), at ell = p
    # or not; delta = 7 is v(Delta) of I_7 and I_1*, which are no such fibre
    for ell in (5, 7):
        with pytest.raises(InadmissibleSettingError):
            setting(AdditivePotGood(7), ell=ell, p=5)
    # delta >= 12 only occurs at the wild primes 2 and 3
    setting(AdditivePotGood(12), ell=2, p=5)
    setting(AdditivePotGood(16), ell=3, p=5)
    with pytest.raises(InadmissibleSettingError):
        setting(AdditivePotGood(12), ell=7, p=5)


# --- character classes -----------------------------------------------------

def test_chi_class():
    assert setting(SplitMult(1)).base.chi is QuadCharClass.TRIVIAL
    assert setting(NonsplitMult(1)).base.chi is QuadCharClass.UNRAMIFIED
    assert setting(AdditivePotMult(1)).base.chi is QuadCharClass.RAMIFIED
    assert setting(Good()).base.chi is None
    assert setting(AdditivePotGood(2)).base.chi is None


@pytest.mark.parametrize("base, branch", [
    (Good(), "good"),
    (SplitMult(2), "split-multiplicative"),
    (NonsplitMult(2), "nonsplit-multiplicative"),
    (AdditivePotMult(2), "additive-pot-multiplicative"),
    (AdditivePotGood(2), "additive-pot-good"),
])
def test_each_descriptor_pins_its_c_branch(base, branch):
    for I_v in (CYCLIC, DIHEDRAL):
        flag = True if I_v is DIHEDRAL and isinstance(base, AdditivePotMult) else None
        assert c_parity(setting(base, I_v=I_v, flag=flag))[1]["branch"] == branch


def test_quad_char_class_is_the_descriptors_class():
    assert parity.QuadCharClass is base_change.QuadCharClass


def test_eta_class():
    assert setting(Good(), G_v=TRIVIAL, I_v=TRIVIAL).eta_class() is QuadCharClass.TRIVIAL
    assert setting(Good(), G_v=CYCLIC, I_v=CYCLIC).eta_class() is QuadCharClass.TRIVIAL
    assert setting(Good(), G_v=ORDER2, I_v=TRIVIAL).eta_class() is QuadCharClass.UNRAMIFIED
    assert setting(Good(), G_v=ORDER2, I_v=ORDER2).eta_class() is QuadCharClass.RAMIFIED
    assert setting(Good(), G_v=DIHEDRAL, I_v=CYCLIC).eta_class() is QuadCharClass.UNRAMIFIED
    assert setting(Good(), G_v=DIHEDRAL, I_v=DIHEDRAL,
                   p=5, ell=5).eta_class() is QuadCharClass.RAMIFIED


def test_the_eta_table_is_the_reflects_rule():
    """_ETA_CLASS holds the seven pairs of _PAIRS: eta_v is trivial when G_v
    has no reflection, else ramified exactly when I_v has one."""
    rule = {(False, False): QuadCharClass.TRIVIAL, (True, False): QuadCharClass.UNRAMIFIED,
            (True, True): QuadCharClass.RAMIFIED}
    assert sorted(parity._ETA_CLASS) == sorted((G.kind, I.kind) for G, I in _PAIRS)
    assert len(parity._ETA_CLASS) == 7
    for G_v, I_v in _PAIRS:
        assert parity._ETA_CLASS[G_v.kind, I_v.kind] is rule[G_v.reflects, I_v.reflects]


def test_eta_chi_agree():
    assert setting(SplitMult(2)).eta_chi_agree() is False
    assert setting(NonsplitMult(2)).eta_chi_agree() is True
    assert setting(NonsplitMult(2), I_v=DIHEDRAL).eta_chi_agree() is False
    assert setting(AdditivePotMult(2)).eta_chi_agree() is False
    assert setting(AdditivePotMult(2), I_v=DIHEDRAL, flag=True).eta_chi_agree() is True
    assert setting(AdditivePotMult(2), I_v=DIHEDRAL, flag=False).eta_chi_agree() is False
    assert setting(SplitMult(2), G_v=CYCLIC, I_v=CYCLIC).eta_chi_agree() is None
    assert setting(Good()).eta_chi_agree() is None


def _eta_chi_agree_by_cases(s):
    """The case table that eta_chi_agree replaces."""
    if s.G_v.kind != "dihedral" or s.base.chi is None:
        return None
    if isinstance(s.base, SplitMult):
        return False  # chi trivial, eta_v is not
    if isinstance(s.base, NonsplitMult):
        return s.I_v.kind == "cyclic"
    if s.I_v.kind == "cyclic":
        return False  # eta_v unramified, chi ramified
    return s.eta_equals_chi


@pytest.mark.parametrize("p", [5, 7])
def test_eta_chi_agree_matches_the_case_table(p):
    outcomes = set()
    for s in enumerate_settings(p):
        want = _eta_chi_agree_by_cases(s)
        assert s.eta_chi_agree() is want, s
        outcomes.add(want)
    assert outcomes == {None, False, True}


# --- branch spot checks ----------------------------------------------------

def check(s, c_want, w_want):
    v = verify_local(s)
    assert (v.c_side, v.w_side) == (c_want, w_want)
    assert v.agree == (c_want == w_want)
    return v


def test_small_decomposition_is_inert():
    for G_v, I_v in ((TRIVIAL, TRIVIAL), (ORDER2, ORDER2), (CYCLIC, CYCLIC)):
        v = check(setting(SplitMult(3), G_v=G_v, I_v=I_v), 1, 1)
        assert v.c_trace["branch"] == "small-decomposition"


def test_multiplicative_branches():
    check(setting(Good()), 1, 1)
    # Tamagawa numbers n e_H: 25 over the field fixed by 1, 5 over C_p's
    v = check(setting(SplitMult(5)), -1, -1)
    assert (v.c_trace["1"], v.c_trace["Cp"]) == (0, 1)
    v = check(setting(SplitMult(3)), -1, -1)  # 15 and 3
    assert (v.c_trace["1"], v.c_trace["Cp"]) == (1, 0)
    check(setting(NonsplitMult(3)), -1, -1)
    check(setting(NonsplitMult(3), I_v=DIHEDRAL), 1, 1)


def test_pot_multiplicative_branches():
    check(setting(AdditivePotMult(2)), 1, 1)
    check(setting(AdditivePotMult(2), I_v=DIHEDRAL, flag=True), -1, -1)
    check(setting(AdditivePotMult(2), I_v=DIHEDRAL, flag=False), 1, 1)


def test_pot_good_branches():
    check(setting(AdditivePotGood(9), ell=5), 1, 1)  # cyclic inertia
    check(setting(AdditivePotGood(2), I_v=DIHEDRAL), -1, -1)  # floor 1 - 0
    check(setting(AdditivePotGood(2), I_v=DIHEDRAL, r=2), 1, 1)
    check(setting(AdditivePotGood(9), I_v=DIHEDRAL), 1, 1)  # floor 7 - 1
    check(setting(AdditivePotGood(10), I_v=DIHEDRAL), -1, -1)  # floor 8 - 1
    v = check(setting(AdditivePotGood(4), I_v=DIHEDRAL, p=7, ell=7), 1, 1)
    assert v.w_trace["tame_order_e"] == 3
    assert v.w_trace["epsilon"] == 1  # -3 is a square mod 7


# --- the degree table and the frozen sweep ----------------------------------

@pytest.mark.parametrize("I_v", [CYCLIC, DIHEDRAL])
def test_theta_degree_table_is_degrees(I_v):
    """Each (p, kind) entry of the degree cache equals `degrees`, and the
    cache keeps at most 64 entries."""
    odd = [H for H, weight in THETA if weight % 2]
    for p in primerange(5, 400):
        want = tuple(degrees(p, DIHEDRAL, I_v, H) for H in odd)
        assert parity._theta_degrees(p, I_v.kind) == want, p
        assert parity._THETA_DEGREES[p, I_v.kind] == want, p
        assert len(parity._THETA_DEGREES) <= 64


def test_sweeps_and_traces_match_their_frozen_digest():
    # every verdict with both traces, then the two generated sign tables
    digest = hashlib.sha1()
    for p in (5, 7, 11, 13, 17, 19):
        for s in enumerate_settings(p):
            v = verify_local(s)
            digest.update(repr((v, v.c_trace, v.w_trace)).encode())
    digest.update(repr((pot_good_table("c"), pot_good_table("w"))).encode())
    assert digest.hexdigest() == "f3389ab71f13df67a437f306920229b041a49bad"


# --- the frozen sign table -------------------------------------------------

def test_pot_good_table_both_sides_match_frozen():
    assert pot_good_table("c") == FROZEN_POT_GOOD_TABLE
    assert pot_good_table("w") == FROZEN_POT_GOOD_TABLE
    with pytest.raises(ValueError):
        pot_good_table("x")


def test_pot_good_table_keys_run_by_tame_order_then_residue():
    want = [(e, residue) for e in (6, 4, 3, 2) for residue in (1, 5, 7, 11)]
    for side in ("c", "w"):
        assert list(pot_good_table(side)) == want


@pytest.mark.parametrize("side, kernel", [("c", "_c_sign"), ("w", "_w_sign")])
def test_pot_good_table_rejects_deltas_of_one_order_that_disagree(monkeypatch, side, kernel):
    # delta 10 has tame order 6, as delta 2 has; flip its sign at p = 7 alone
    sign = getattr(parity, kernel)

    def flipped(s):
        got = sign(s)
        return -got if (s.p, s.base.delta) == (7, 10) else got

    monkeypatch.setattr(parity, kernel, flipped)
    with pytest.raises(AssertionError,
                       match=r"^deltas of tame order 6 disagree at p = 7: \{(-1, 1|1, -1)\}$"):
        pot_good_table(side)


def test_w_referee_agrees_on_every_potentially_good_setting():
    """The w side from root numbers over the quadratic subfield
    (tests/w_referee.py) against w_ratio, on every potentially good
    setting of the sweep for p from 5 to 43."""
    cases = Counter()
    for p in [q for q in RESIDUE_PRIMES if 5 <= q <= 43]:
        for s in enumerate_settings(p):
            if isinstance(s.base, AdditivePotGood):
                sign, case = w_referee.w_side(s)
                assert sign == w_ratio(s)[0], (s, case)
                cases[case] += 1
    assert sum(cases.values()) == 6888
    # e_F = 4 and 6 arise only under I_v = C_p, where f = 2 makes W = 1
    assert set(cases) == {"cyclic G_v", "tame psi, Deligne congruence"} | {
        f"ell = p, Rohrlich over F_w, e_F = {e_F}" for e_F in (1, 2, 3, 4, 6)}


def test_w_referee_agrees_on_every_criterion_1_setting():
    """The referee against w_ratio on all 11328 settings of the acceptance
    sweep (p in 5, 7, 11, 13); good and potentially multiplicative
    reduction read rho|G_v through `restrict` and `inner_product`."""
    t0 = perf_counter()
    cases = Counter()
    for p in (5, 7, 11, 13):
        for s in enumerate_settings(p):
            sign, case = w_referee.w_side(s)
            assert sign == w_ratio(s)[0], (s, case)
            cases[case, sign] += 1
    elapsed = perf_counter() - t0
    assert sum(cases.values()) == 11328 and elapsed < 2.0, elapsed
    assert cases["good reduction", 1] == 296
    sp2 = "potentially multiplicative, Rohrlich sp(2)"
    assert (cases[sp2, -1], cases[sp2, 1]) == (1120, 7840)


def test_w_referee_regenerates_the_frozen_table():
    """Rows: the tame order 12 / gcd(12, delta) over the base; columns: p
    mod 12, at one prime each; every delta of a row agrees."""
    table = {}
    for e in (6, 4, 3, 2):
        for residue, p in {1: 13, 5: 5, 7: 7, 11: 11}.items():
            signs = {w_referee.w_side(setting(AdditivePotGood(delta), I_v=DIHEDRAL,
                                              p=p))[0]
                     for delta in POT_GOOD_DELTAS if 12 // gcd(12, delta) == e}
            assert len(signs) == 1, (e, p)
            table[(e, residue)] = signs.pop()
    assert table == FROZEN_POT_GOOD_TABLE


def test_ramification_degree_e():
    assert [ramification_degree_e(d) for d in (2, 3, 4, 6, 8, 9, 10)] == \
        [6, 4, 3, 2, 3, 4, 6]


# --- enumeration -----------------------------------------------------------

@pytest.mark.parametrize("p", [5, 7])
def test_enumeration_shape(p):
    settings = enumerate_settings(p, n_max=3)
    # 6 primes, 2 r values; 17 bases over 6 pairs, 20 over the all-dihedral
    # pair which only exists at ell = p
    assert len(settings) == 5 * 2 * 6 * 17 + 2 * (6 * 17 + 20)
    assert list(settings) == list(enumerate_settings(p, n_max=3))
    # the same listing with fresh descriptors built for every setting
    reference = []
    for ell in sorted({2, 3, 5, 7, 11, 13, p}):
        for r in (1, 2):
            for G_v, I_v in _PAIRS:
                if I_v.kind == "dihedral" and ell != p:
                    continue
                flags = (False, True) if I_v.kind == "dihedral" else (None,)
                cases = ([(Good, (), None)]
                         + [(cls, (n,), None) for n in (1, 2, 3)
                            for cls in (SplitMult, NonsplitMult)]
                         + [(AdditivePotMult, (n,), flag) for n in (1, 2, 3) for flag in flags]
                         + [(AdditivePotGood, (delta,), None) for delta in POT_GOOD_DELTAS])
                reference += [LocalSetting(p=p, ell=ell, r=r, base=cls(*args), G_v=G_v,
                                           I_v=I_v, eta_equals_chi=flag)
                              for cls, args, flag in cases]
    assert list(settings) == reference
    for s in settings:
        needs = (s.G_v.kind == "dihedral" and s.I_v.kind == "dihedral"
                 and isinstance(s.base, AdditivePotMult))
        assert (s.eta_equals_chi is not None) == needs


def _live_settings() -> int:
    return sum(1 for o in gc.get_objects() if type(o) is LocalSetting)


def test_sweep_length_builds_no_setting():
    gc.collect()
    before = _live_settings()
    sweep = enumerate_settings(13)
    assert len(sweep) == 2832
    assert _live_settings() == before


def test_each_iteration_builds_fresh_equal_settings():
    sweep = enumerate_settings(7, n_max=2)
    first, second = list(sweep), list(sweep)
    assert len(first) == len(sweep) and first == second
    assert first == list(enumerate_settings(7, n_max=2))
    assert first != list(enumerate_settings(7, n_max=3))
    assert not any(a is b for a, b in zip(first, second))
    # the descriptors are built once per sweep and shared
    assert all(a.base is b.base for a, b in zip(first, second))


def test_a_sweep_holds_one_setting_at_a_time():
    """Mapping verify_local over a sweep and keeping the signs, as the
    algebra workload and the CLI do, leaves no earlier setting alive."""
    gc.collect()
    before = _live_settings()
    signs = []
    for v in map(verify_local, enumerate_settings(13)):
        signs.append((v.c_side, v.w_side))
        if len(signs) == 1416:
            assert _live_settings() - before <= 2
    assert len(signs) == 2832


@pytest.mark.parametrize("n_max", ["3", -1, 0, True, False, 2.0, None])
def test_enumeration_checks_n_max(n_max):
    with pytest.raises(InadmissibleSettingError) as got:
        enumerate_settings(5, n_max=n_max)
    assert str(got.value) == f"n_max must be a positive integer, got {n_max!r}"


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_enumerated_settings_pass_the_checked_constructor(p):
    """enumerate_settings skips LocalSetting's checks; each setting it lists
    is one the checked constructor builds equal, field for field."""
    for s in enumerate_settings(p):
        fields = {name: getattr(s, name) for name in LocalSetting._fields}
        assert LocalSetting(**fields) == s


@pytest.mark.parametrize("p", [5, 7, 11, 13, 37])
def test_verdicts_are_the_two_closed_forms(p):
    """verify_local computes the two signs alone; each verdict is the one
    built from the signs of c_parity and w_ratio, and its traces are
    theirs.  n_max = 2p + 1 reaches every class key (37 = 1 mod 12 too)."""
    for s in enumerate_settings(p, n_max=2 * p + 1):
        c, c_trace = c_parity(s)
        w, w_trace = w_ratio(s)
        v = verify_local(s)
        assert (v.setting, v.c_side, v.w_side, v.agree) == (s, c, w, c == w)
        assert v == LocalVerdict(s, c, w)
        assert v.c_trace == c_trace and v.w_trace == w_trace


def test_a_verdict_derives_its_agreement():
    s = setting(SplitMult(2))
    assert LocalVerdict(s, -1, 1).agree is False
    assert LocalVerdict(s, 1, -1).agree is False
    assert LocalVerdict(s, -1, -1).agree is True
    assert LocalVerdict(s, 1, 1).agree is True
    # the derived agreement is shown after the signs and before the traces
    assert repr(LocalVerdict(s, 1, -1)) == (
        f"LocalVerdict(setting={s!r}, c_side=1, w_side=-1, agree=False, "
        f"c_trace={c_parity(s)[1]!r}, w_trace={w_ratio(s)[1]!r})")


@pytest.mark.parametrize("p", [1, 2, 3, 4, 25, 5.0, None])
def test_enumeration_checks_p_as_a_setting_does(p):
    with pytest.raises(InadmissibleSettingError) as want:
        LocalSetting(p=p, ell=7, r=1, base=Good(), G_v=DIHEDRAL, I_v=CYCLIC)
    with pytest.raises(InadmissibleSettingError) as got:
        enumerate_settings(p)
    assert str(got.value) == str(want.value) == f"p must be a prime >= 5, got {p}"


@pytest.mark.parametrize("p", [5, 17])
def test_local_setting_admits_exactly_the_enumerated_pairs(p):
    """Of the 16 pairs of D_2p subgroup tags, LocalSetting accepts (G_v, I_v)
    at ell exactly when enumerate_settings produces it there."""
    enumerated = {(s.ell, s.G_v, s.I_v) for s in enumerate_settings(p, n_max=1)}
    ells = sorted({ell for ell, _, _ in enumerated})
    assert ells == sorted({2, 3, 5, 7, 11, 13, p})
    tags = [tag for tag, _ in THETA]
    for ell in ells:
        for G_v in tags:
            for I_v in tags:
                try:
                    LocalSetting(p=p, ell=ell, r=1, base=Good(), G_v=G_v, I_v=I_v)
                    accepted = True
                except InadmissibleSettingError:
                    accepted = False
                assert accepted == ((ell, G_v, I_v) in enumerated), \
                    (ell, G_v.label, I_v.label)


@pytest.mark.parametrize("G_v", [tag for tag, _ in THETA], ids=lambda tag: tag.label)
@pytest.mark.parametrize("I_v", [tag for tag, _ in THETA], ids=lambda tag: tag.label)
def test_each_ordered_pair_is_judged_as_pairs_says(G_v, I_v):
    """Each of the 16 ordered pairs of D_2p tags is accepted exactly when it
    is in _PAIRS, and a rejected one names both groups."""
    if (G_v, I_v) in _PAIRS:
        assert LocalSetting(p=5, ell=5, r=1, base=Good(), G_v=G_v, I_v=I_v).I_v is I_v
        return
    with pytest.raises(InadmissibleSettingError) as raised:
        LocalSetting(p=5, ell=5, r=1, base=Good(), G_v=G_v, I_v=I_v)
    assert str(raised.value) == (f"inertia {I_v.label} is impossible under decomposition "
                                 f"{G_v.label} (quotient must be cyclic)")


@pytest.mark.parametrize("p", [5, 7])
def test_identity_holds_on_enumeration(p):
    for s in enumerate_settings(p, n_max=3):
        v = verify_local(s)
        assert v.agree, s


# --- past the sweep --------------------------------------------------------

def _primes_below(bound):
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for q in range(2, int(bound ** 0.5) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytearray(len(range(q * q, bound, q)))
    return [q for q in range(bound) if sieve[q]]


RESIDUE_PRIMES = _primes_below(2 * 10 ** 4)
LARGE_GROUP_PRIMES = [q for q in RESIDUE_PRIMES if 5 <= q < 500]


@st.composite
def local_fields(draw):
    """The fields of a LocalSetting: p < 500, ell < 2 10^4 or ell = p,
    n <= 10^6, r <= 50, an admissible (G_v, I_v) and the flag where one is
    required.  delta is not screened, so some draws are inadmissible."""
    p = draw(st.sampled_from(LARGE_GROUP_PRIMES))
    G_v, I_v = draw(st.sampled_from(_PAIRS))
    if I_v.kind == "dihedral":
        ell = p
    else:
        ell = draw(st.one_of(st.just(p), st.sampled_from(RESIDUE_PRIMES)))
    kind = draw(st.sampled_from(
        [Good, SplitMult, NonsplitMult, AdditivePotMult, AdditivePotGood]))
    if kind is Good:
        base = Good()
    elif kind is AdditivePotGood:
        base = kind(draw(st.one_of(st.sampled_from(POT_GOOD_DELTAS),
                                   st.integers(1, 12), st.integers(1, 10 ** 6))))
    else:
        base = kind(draw(st.integers(1, 10 ** 6)))
    flag = None
    if G_v.kind == I_v.kind == "dihedral" and kind is AdditivePotMult:
        flag = draw(st.booleans())
    return dict(p=p, ell=ell, r=draw(st.integers(1, 50)), base=base,
                G_v=G_v, I_v=I_v, eta_equals_chi=flag)


@settings(max_examples=1000, deadline=None)
@given(local_fields())
def test_identity_holds_past_the_sweep(fields):
    # the only rejection left: a delta no minimal model has at ell >= 5
    base = fields["base"]
    impossible = (isinstance(base, AdditivePotGood) and fields["ell"] >= 5
                  and base.delta not in POT_GOOD_DELTAS)
    try:
        s = LocalSetting(**fields)
    except InadmissibleSettingError:
        assert impossible
        return
    assert not impossible
    assert c_parity(s)[0] == w_ratio(s)[0], s


# --- dual route: Theta-weighted Tamagawa/period bookkeeping ----------------

def theta_route_sign(s: LocalSetting) -> int:
    """Recompute the c side from the base-change primitives: only the
    odd-weight subgroups (trivial and C_p) of Theta survive mod squares,
    each weighted by how many places of that subfield sit over v."""
    order = {"trivial": 1, "order2": 2, "cyclic": s.p, "dihedral": 2 * s.p}
    mult_full = 2 * s.p // order[s.G_v.kind]
    mult_quad = 1 if s.G_v.kind in ("order2", "dihedral") else 2
    becomes = None
    if isinstance(s.base, AdditivePotMult) and s.I_v.kind == "dihedral":
        becomes = s.eta_equals_chi
    total = 0
    for H, mult in ((TRIVIAL, mult_full), (CYCLIC, mult_quad)):
        tam = tamagawa_over(s.base, s.p, s.G_v, s.I_v, H,
                            ell=s.ell, becomes_split=becomes)
        if isinstance(tam, ConstrainedRange):
            par = tam.ord_parity(s.p)
        else:
            par = valuation(tam, s.p) % 2
        if s.ell not in (2, 3):
            if omega_ordp_parity(s.base, s.ell, s.p, s.r, s.G_v, s.I_v, H) == -1:
                par += 1
        total += mult * par
    return -1 if total % 2 else 1


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_c_parity_matches_theta_route(p):
    # theta_route_sign takes no shortcut for a cyclic decomposition group;
    # valuations up to 2p + 1 take in n = p and n = 2p, where p | n
    for s in enumerate_settings(p, n_max=2 * p + 1):
        assert c_parity(s)[0] == theta_route_sign(s), s
        assert verify_local(s).agree, s


# --- criterion 1 for every p: the class key --------------------------------

# one prime of each class mod 12 that p >= 5 can have
CLASS_PRIMES = (13, 5, 7, 11)


def _class_key(s: LocalSetting, kinds: dict) -> tuple:
    """p mod 12; ell as 2, 3, p or other; r mod 2; G_v; I_v; the
    descriptor's kind, n mod 2 and ord_p(n) mod 2, and delta; and the
    flag.  kinds keeps the descriptor's part per descriptor object, which
    a sweep shares among its settings."""
    base, p, ell = s.base, s.p, s.ell
    part = kinds.get(id(base))
    if part is None:
        n = getattr(base, "n", None)
        part = kinds[id(base)] = (type(base).__name__,
                                  None if n is None else (n % 2, valuation(n, p) % 2),
                                  getattr(base, "delta", None))
    place = ell if ell in (2, 3) else "p" if ell == p else "other"
    return (p % 12, place, s.r % 2, s.G_v.label, s.I_v.label, part, s.eta_equals_chi)


def _class_values(s: LocalSetting) -> tuple:
    c, trace = c_parity(s)
    return c, w_ratio(s)[0], tuple(trace.items())


@functools.lru_cache(maxsize=1)
def _dihedral_class_table() -> dict:
    """Key -> (c sign, w sign, c trace) over every setting with G_v = D_2p
    of `enumerate_settings(p, n_max=2p + 1)` for each prime 5 <= p <= 113.
    At a cyclic G_v both closed forms return +1 and a fixed trace before
    they read the setting, so only D_2p settings can split a key."""
    table = {}
    for p in primerange(5, 114):
        kinds = {}
        for s in enumerate_settings(p, n_max=2 * p + 1):
            if s.G_v is DIHEDRAL:
                key, values = _class_key(s, kinds), _class_values(s)
                assert table.setdefault(key, values) == values, (s, table[key])
    return table


def test_the_class_key_fixes_both_signs_and_the_c_trace():
    """(a): settings with one key get one pair of signs and one c trace, on
    every prime up to 113, p | n included."""
    table = _dihedral_class_table()
    assert {key[0] for key in table} == {1, 5, 7, 11}
    assert {key[5][1] for key in table} == {None, (0, 0), (0, 1), (1, 0), (1, 1)}


def test_one_prime_of_each_class_sweeps_every_key():
    """(b): one prime of each class mod 12, with n_max = 2p + 1, reaches
    every key of (a), with its signs and trace, and both sides agree on
    each of its settings.  By (a), that is criterion 1 for every p up to
    113, and the key is what carries it past."""
    table = _dihedral_class_table()
    reached = set()
    for p in CLASS_PRIMES:
        kinds = {}
        for s in enumerate_settings(p, n_max=2 * p + 1):
            key, (c, w, trace) = _class_key(s, kinds), _class_values(s)
            assert c == w, s
            if s.G_v is DIHEDRAL:
                assert table[key] == (c, w, trace), s
            reached.add(key)
    assert set(table) <= reached
    assert {key[0] for key in reached} == {1, 5, 7, 11}


# --- whole curves ----------------------------------------------------------

def curve(coeffs):
    return WeierstrassCurve(*coeffs)


def test_base_descriptor_against_corpus():
    for coeffs, ell, _, delta, _, f, split in TATE_CORPUS:
        E = curve(coeffs)
        base = base_descriptor(E, ell)
        if f == 0:
            assert base == Good()
        elif f == 1:
            want = SplitMult if split == "split" else NonsplitMult
            assert base == want(delta)
        elif E.c4 != 0 and valuation(E.j_invariant.denominator, ell) > 0:
            assert isinstance(base, AdditivePotMult)
        else:
            assert base == AdditivePotGood(delta)


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_base_descriptor_against_the_rational_j(ell):
    # the additive descriptors as they read from j = c4^3 / Delta, a
    # Fraction: AdditivePotMult of v(denominator) when j is not integral
    rng = random.Random(ell)
    kinds = set()
    for _ in range(200):
        coeffs = tuple(ell ** rng.randint(0, 3) * rng.randint(-9, 9) for _ in range(5))
        *_, c4, c6, delta = raw_invariants(coeffs)
        if delta == 0:
            continue
        if rng.random() < 0.5:  # the twist by ell of the c4/c6 model
            coeffs = (0, 0, 0, -27 * ell ** 2 * c4, -54 * ell ** 3 * c6)
        E = curve(coeffs)
        data = local_reduction(E, ell)
        if data.reduction_class != "additive":
            continue
        pole = valuation(E.j_invariant.denominator, ell)
        want = AdditivePotMult(pole) if pole else AdditivePotGood(data.delta)
        assert base_descriptor(E, ell) == want, (coeffs, ell)
        kinds.add(type(want))
    assert kinds == {AdditivePotMult, AdditivePotGood}


def test_global_parity_split_curve():
    v = global_parity(curve((0, -1, 1, -10, -20)), 5,
                      {11: (DIHEDRAL, CYCLIC, None)})
    assert (v.c_product, v.w_product, v.agree) == (-1, -1, True)
    assert len(v.locals) == 1
    assert v.locals[0].setting.base == SplitMult(5)


def test_global_parity_nonsplit_curve():
    v = global_parity(curve((0, 0, 1, -1, 0)), 5,
                      {37: (DIHEDRAL, CYCLIC, None)})
    assert (v.c_product, v.w_product, v.agree) == (-1, -1, True)
    v = global_parity(curve((0, 0, 1, -1, 0)), 5,
                      {37: (CYCLIC, CYCLIC, None)})
    assert (v.c_product, v.w_product, v.agree) == (1, 1, True)


def test_global_parity_additive_curve():
    v = global_parity(curve((0, 0, 1, 0, -7)), 5,
                      {3: (DIHEDRAL, CYCLIC, None)})
    assert v.locals[0].setting.base == AdditivePotGood(9)
    assert (v.c_product, v.w_product, v.agree) == (1, 1, True)


def test_global_parity_skips_nonminimal_good_primes():
    # the same curve scaled by u = 2: discriminant picks up 2^12 but the
    # reduction at 2 is still good, so no completion data is needed there
    E = curve((0, 0, 8, -16, 0))
    assert E.discriminant == 37 * 2 ** 12
    v = global_parity(E, 5, {37: (DIHEDRAL, CYCLIC, None)})
    assert [lv.setting.ell for lv in v.locals] == [37]
    assert (v.c_product, v.w_product) == (-1, -1)


def test_global_parity_missing_completion():
    with pytest.raises(MissingCompletionError):
        global_parity(curve((0, -1, 1, -10, -20)), 5, {})


def test_global_parity_names_the_prime_of_an_inadmissible_entry():
    E = curve((0, -1, 1, -10, -20))
    with pytest.raises(InadmissibleSettingError,
                       match=r"^completion for 11: inertia Cp is impossible"):
        global_parity(E, 5, {11: (TRIVIAL, CYCLIC, None)})
    # p and r belong to no entry, so they are checked first and plainly
    with pytest.raises(InadmissibleSettingError, match=r"^p must be a prime >= 5, got 3$"):
        global_parity(E, 3, {11: (DIHEDRAL, CYCLIC, None)})
    with pytest.raises(InadmissibleSettingError, match=r"^r must be a positive integer"):
        global_parity(E, 5, {11: (DIHEDRAL, CYCLIC, None)}, r=0)


def test_global_parity_multiplies_over_places():
    # 14a1 is nonsplit at 2 and split at 7
    v = global_parity(curve((1, 0, 1, 4, -6)), 5,
                      {2: (DIHEDRAL, CYCLIC, None), 7: (DIHEDRAL, CYCLIC, None)})
    assert [lv.c_side for lv in v.locals] == [-1, -1]
    assert (v.c_product, v.w_product, v.agree) == (1, 1, True)


# --- whole-curve fuzz and metamorphic checks -------------------------------

@st.composite
def _deep_curves(draw):
    """A prime ell in {2, 3, 5, 7} and a nonsingular model whose
    coefficients carry random powers of ell, as deep as the starred and
    non-minimal fibres there.  Three times in four the model is replaced by
    the quadratic twist by d of y^2 = x^3 - 27 c4 x - 54 c6; with ell | d
    that turns multiplicative reduction at an odd ell into additive,
    potentially multiplicative reduction."""
    ell = draw(st.sampled_from((2, 3, 5, 7)))
    coeffs = tuple(ell ** draw(st.integers(0, i)) * draw(st.integers(-9, 9))
                   for i in (2, 3, 4, 5, 7))
    *_, c4, c6, delta = raw_invariants(coeffs)
    assume(delta != 0)
    d = draw(st.sampled_from((None, -1, ell, -ell)))
    if d is not None:
        coeffs = (0, 0, 0, -27 * d ** 2 * c4, -54 * d ** 3 * c6)
    return WeierstrassCurve(*coeffs), ell


@st.composite
def _completions(draw, E, p):
    """A random admissible (G_v, I_v, flag) at every bad prime of E, with
    dihedral inertia only at p, the flag where one is required, and now
    and then one prime left out."""
    completion = {}
    for q in bad_primes(E):
        G_v, I_v = draw(st.sampled_from(
            [pair for pair in _PAIRS if pair[1].kind != "dihedral" or q == p]))
        flag = None
        if I_v.kind == "dihedral" and isinstance(base_descriptor(E, q), AdditivePotMult):
            flag = draw(st.booleans())
        completion[q] = (G_v, I_v, flag)
    if completion and draw(st.integers(0, 9)) == 0:
        del completion[draw(st.sampled_from(sorted(completion)))]
    return completion


def _signs(E, p, completion):
    v = global_parity(E, p, completion)
    assert v.agree and v.c_product == v.w_product, v
    return {lv.setting.ell: (lv.c_side, lv.w_side) for lv in v.locals}


_small_shift = st.integers(-20, 20)


@settings(max_examples=150, deadline=None)
@given(st.data(), _deep_curves(), st.sampled_from((5, 7)),
       _small_shift, _small_shift, _small_shift)
def test_whole_curve_signs_agree_and_survive_changes_of_model(data, curve_ell, p, r, s, t):
    E, ell = curve_ell
    completion = data.draw(_completions(E, p))
    try:
        signs = _signs(E, p, completion)
    except MissingCompletionError:
        left_out = set(bad_primes(E)) - set(completion)
        assert any(base_descriptor(E, q) != Good() for q in left_out)
        return
    assert _signs(transform(E, 1, r, s, t), p, completion) == signs
    # u = 1/ell multiplies a_i by ell^i: a non-minimal model of the same curve
    assert _signs(transform(E, Fraction(1, ell), 0, 0, 0), p, completion) == signs
