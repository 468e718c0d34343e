import dataclasses
import gc
import hashlib
import importlib.util
import itertools
import random
from collections import Counter
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import factorint, prevprime

from corpus import CONDUCTORS, TATE_CORPUS
from dihedral_parity.arith import jacobi
from dihedral_parity.parity import (_PAIRS, InadmissibleSettingError, LocalSetting,
                                    base_descriptor, verify_local)
from dihedral_parity.tate import (NotApplicableError, _cubic_multiple_root, _inv,
                                  _cubic_root_count, _quad_double_root, _quad_has_root, _reduce,
                                  _singular_point, conductor_exponent, j_pole_order,
                                  kodaira_symbol, local_reduction, potential_class, split_type,
                                  tamagawa_number, valuation)
from dihedral_parity.weierstrass import (SingularModelError, WeierstrassCurve,
                                         raw_invariants, transform)


@pytest.mark.parametrize("coeffs,ell,kod,delta,tam,f,split", TATE_CORPUS)
def test_oracle_corpus(coeffs, ell, kod, delta, tam, f, split):
    data = local_reduction(WeierstrassCurve(*coeffs), ell)
    assert data.kodaira == kod
    assert data.delta == delta
    assert data.tamagawa == tam
    assert data.conductor_exp == f
    assert data.split_label == (split or "n/a")


def test_corpus_covers_everything():
    # normalise: I5 -> In, I2* -> In*; I0 and I0* stay themselves
    norm = set()
    for row in TATE_CORPUS:
        k = row[2]
        if k in ("I0", "I0*", "II", "III", "IV", "II*", "III*", "IV*"):
            norm.add(k)
        elif k.endswith("*"):
            norm.add("In*")
        else:
            norm.add("In")
    assert norm >= {"I0", "In", "II", "III", "IV", "I0*", "In*", "IV*", "III*", "II*"}
    assert {row[1] for row in TATE_CORPUS} >= {2, 3, 5, 7, 11}
    assert len(TATE_CORPUS) >= 20


def test_idempotent_on_minimal_model():
    for coeffs, ell, *_ in TATE_CORPUS:
        data = local_reduction(WeierstrassCurve(*coeffs), ell)
        again = local_reduction(data.minimal_model, ell)
        assert (again.kodaira, again.delta, again.tamagawa, again.conductor_exp) \
            == (data.kodaira, data.delta, data.tamagawa, data.conductor_exp)


def test_non_minimal_model_is_reduced():
    # u = 2 blow-up of y^2 = x^3 - x
    big = WeierstrassCurve(0, 0, 0, -16, 0)
    data = local_reduction(big, 2)
    assert (data.kodaira, data.delta, data.tamagawa, data.conductor_exp) \
        == ("III", 6, 2, 5)
    assert valuation(abs(data.minimal_model.discriminant), 2) == 6


def test_conductors():
    for coeffs, want in CONDUCTORS:
        e = WeierstrassCurve(*coeffs)
        n = 1
        for ell in sorted(int(q) for q in factorint(abs(e.discriminant))):
            n *= ell ** local_reduction(e, ell).conductor_exp
        assert n == want, (coeffs, n, want)


def test_split_detection_against_quadratic_residue():
    # for multiplicative reduction away from 2, 3: split iff -c6 is a
    # square mod ell
    for coeffs, ell, kod, _, _, _, split in TATE_CORPUS:
        if split is None or ell < 5:
            continue
        e = WeierstrassCurve(*coeffs)
        data = local_reduction(e, ell)
        c6 = data.minimal_model.c6
        assert (jacobi((-c6) % ell, ell) == 1) == (split == "split")


def test_split_type_only_for_multiplicative():
    assert split_type(WeierstrassCurve(0, -1, 1, -10, -20), 11) == "split"
    with pytest.raises(NotApplicableError):
        split_type(WeierstrassCurve(0, 0, 0, -1, 0), 2)  # additive
    with pytest.raises(NotApplicableError):
        split_type(WeierstrassCurve(0, -1, 1, -10, -20), 3)  # good


def test_potential_class():
    assert potential_class(WeierstrassCurve(0, 0, 0, 0, 5), 5) == "potentially good"
    assert potential_class(WeierstrassCurve(0, 0, 0, 25, 0), 5) == "potentially good"
    # additive with a j-pole
    assert potential_class(WeierstrassCurve(0, 15, 0, 25, 0), 5) == "potentially multiplicative"
    # multiplicative reduction is itself potentially multiplicative
    assert potential_class(WeierstrassCurve(0, -1, 1, -10, -20), 11) == "potentially multiplicative"
    # scale invariance: same answer on a non-minimal model
    assert potential_class(WeierstrassCurve(0, 0, 0, -16, 0), 2) == "potentially good"


def test_wrappers_agree_with_local_reduction():
    e = WeierstrassCurve(0, 0, 0, 5, 0)
    data = local_reduction(e, 5)
    assert kodaira_symbol(e, 5) == data.kodaira
    assert tamagawa_number(e, 5) == data.tamagawa
    assert conductor_exponent(e, 5) == data.conductor_exp


def test_valuation_and_legendre_basics():
    assert valuation(40, 2) == 3
    assert valuation(-45, 3) == 2
    assert valuation(7, 5) == 0
    assert valuation(0, 5) > 10 ** 8  # sentinel for "infinite"
    assert jacobi(4, 5) == 1
    assert jacobi(2, 5) == -1
    assert jacobi(0, 5) == 0
    with pytest.raises(ValueError):
        local_reduction(WeierstrassCurve(0, 0, 0, -1, 0), 4)


def test_random_curves_satisfy_structural_bounds():
    rng = random.Random(23)
    bound = {2: 8, 3: 5}
    for _ in range(120):
        coeffs = [rng.randint(-15, 15) for _ in range(5)]
        try:
            e = WeierstrassCurve(*coeffs)
        except SingularModelError:
            continue
        for ell in (2, 3, 5):
            data = local_reduction(e, ell)
            assert data.tamagawa >= 1
            assert 0 <= data.delta <= valuation(abs(e.discriminant), ell) if e.discriminant % ell == 0 else data.delta == 0
            assert data.conductor_exp <= bound.get(ell, 2)
            assert (data.conductor_exp == 0) == (data.delta == 0)
            if data.reduction_class == "multiplicative":
                assert data.conductor_exp == 1
                assert data.kodaira == f"I{data.delta}"


# --- invariance under changes of model ---------------------------------------

def _local_data(curve, ell):
    d = local_reduction(curve, ell)
    return d.kodaira, d.delta, d.tamagawa, d.conductor_exp, d.split


@st.composite
def _curve_at(draw, ells=(2, 3, 5, 7)):
    """A prime ell in ells and a nonsingular model whose coefficients carry
    random powers of ell, so that every Kodaira family, the starred ones
    included, comes up."""
    ell = draw(st.sampled_from(ells))
    coeffs = tuple(ell ** draw(st.integers(0, 4)) * draw(st.integers(-9, 9))
                   for _ in range(5))
    assume(raw_invariants(coeffs)[6] != 0)
    return WeierstrassCurve(*coeffs), ell


_shift = st.integers(-30, 30)


@settings(max_examples=400, deadline=None)
@given(_curve_at(), _shift, _shift, _shift)
def test_local_data_invariant_under_change_of_model(curve_ell, r, s, t):
    E, ell = curve_ell
    want = _local_data(E, ell)
    assert _local_data(transform(E, 1, r, s, t), ell) == want
    # u = 1/ell multiplies a_i by ell^i: a non-minimal model of the same curve
    assert _local_data(transform(E, Fraction(1, ell), 0, 0, 0), ell) == want
    assert _local_data(transform(E, Fraction(1, ell), r, s, t), ell) == want


# --- a frozen digest of the reduction data ------------------------------------

def _class_of(kodaira):
    """I5 -> In, I2* -> In*; every other symbol is its own class."""
    if kodaira in ("I0", "I0*", "II", "III", "IV", "II*", "III*", "IV*"):
        return kodaira
    return "In*" if kodaira.endswith("*") else "In"


def _weighted_models(seed, count):
    """count models at primes 2 to 13: a_i carries ell^(i w - e) for a
    weight w in {0, 1, 2} and a small deficit e, so that every Kodaira class
    and non-minimal models come up, then a random integral translation moves
    the singular point off the origin."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ell = rng.choice((2, 3, 5, 7, 11, 13))
        w = rng.choice((0, 1, 1, 2))
        coeffs = tuple(ell ** max(0, i * w - rng.choice((0, 0, 1, 2)))
                       * rng.randint(-2 * ell, 2 * ell) for i in (1, 2, 3, 4, 6))
        if raw_invariants(coeffs)[6] == 0:
            continue
        shift = (rng.randint(-ell * ell, ell * ell) for _ in range(3))
        out.append((transform(WeierstrassCurve(*coeffs), 1, *shift), ell))
    return out


def test_reduction_data_match_their_frozen_digest():
    # every field of LocalReductionData, the minimal model's coefficients
    # included, on 3000 seeded models; any change to what Tate's algorithm
    # returns changes the digest
    digest = hashlib.sha256()
    classes = Counter()
    for E, ell in _weighted_models(2024, 3000):
        data = _reduce(E, ell)
        digest.update(repr(tuple(getattr(data, f.name) for f in dataclasses.fields(data)
                                 if f.name != "minimal_model")
                           + data.minimal_model.coefficients()).encode())
        classes[_class_of(data.kodaira)] += 1
    assert len(classes) == 10 and min(classes.values()) >= 20, classes
    assert digest.hexdigest() == "5e0f18309e319ffd134bcd88378547e29d9cfbea4ed30608fc2ec70eddfea3d5"


# --- the multiplicity test of the star step ------------------------------------

def _multiplicity_by_division(A, B, C, ell, t):
    """Multiplicity of t as a root of T^3 + A T^2 + B T + C over F_ell, by
    repeated synthetic division."""
    q = [C, B, A, 1]
    mult = 0
    while len(q) > 1:
        rem, out = 0, []
        for c in reversed(q):
            rem = (rem * t + c) % ell
            out.append(rem)
        if rem:
            break
        mult += 1
        q = list(reversed(out[:-1]))
    return mult


def test_inverse_mod_ell_calls_a_non_unit_an_internal_fault():
    # a RuntimeError, so the CLI exits 3, not 2 as for bad input
    assert _inv(3, 5) == 2
    assert _inv(-7, 11) == 3
    with pytest.raises(RuntimeError, match="^10 has no inverse mod 5$"):
        _inv(10, 5)


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_cubic_multiple_root_against_synthetic_division(ell):
    # a multiple root of a cubic over a perfect field is rational, so
    # searching F_ell finds it whenever there is one
    outcomes = set()
    for A, B, C in itertools.product(range(ell), repeat=3):
        multiple = [(t, m) for t in range(ell)
                    if (m := _multiplicity_by_division(A, B, C, ell, t)) >= 2]
        want = multiple[0] if multiple else None
        assert _cubic_multiple_root(A, B, C, ell) == want, (A, B, C)
        assert _cubic_multiple_root(A - ell, B + ell, C + 2 * ell, ell) == want
        outcomes.add(None if want is None else want[1])
    assert outcomes == {None, 2, 3}


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_singular_point_on_every_singular_reduction(ell):
    # every model with a_i in [0, ell) whose reduction is singular: the
    # reduction has exactly one point where f and both partials vanish
    count = 0
    for a1, a2, a3, a4, a6 in itertools.product(range(ell), repeat=5):
        disc = raw_invariants((a1, a2, a3, a4, a6))[6]
        if disc == 0 or disc % ell:
            continue
        singular = [(x, y) for x, y in itertools.product(range(ell), repeat=2)
                    if (y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x - a6) % ell == 0
                    and (a1 * y - 3 * x * x - 2 * a2 * x - a4) % ell == 0
                    and (2 * y + a1 * x + a3) % ell == 0]
        assert len(singular) == 1, (a1, a2, a3, a4, a6)
        assert _singular_point(WeierstrassCurve(a1, a2, a3, a4, a6), ell) == singular[0]
        count += 1
    assert count == {2: 12, 3: 68, 5: 571, 7: 2287}[ell]


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_quad_double_root_against_search(ell):
    # the double root of A Y^2 + B Y + C is where it and 2 A Y + B vanish
    outcomes = set()
    for A, B, C in itertools.product(range(1, ell), range(ell), range(ell)):
        double = [t for t in range(ell)
                  if (A * t * t + B * t + C) % ell == 0 and (2 * A * t + B) % ell == 0]
        want = double[0] if double else None
        assert len(double) <= 1
        assert _quad_double_root(A, B, C, ell) == want, (A, B, C)
        assert _quad_double_root(A - ell, B + 3 * ell, C - 2 * ell, ell) == want
        outcomes.add(want is None)
    assert outcomes == {False, True}


# --- root tests over F_ell -----------------------------------------------------

def _horner(coeffs, t):
    value = 0
    for c in reversed(coeffs):
        value = value * t + c
    return value


def _root_search(coeffs, ell):
    """(roots, multiple roots) in F_ell of sum(c_i T^i), coefficients low
    first, by evaluating the polynomial and its derivative at every t."""
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    roots = multiple = 0
    for t in range(ell):
        if _horner(coeffs, t) % ell == 0:
            roots += 1
            multiple += _horner(deriv, t) % ell == 0
    return roots, multiple


def _check_quadratic(A, B, C, ell):
    has_root = _quad_has_root(A, B, C, ell)
    assert has_root == (_root_search([C, B, A], ell)[0] > 0), (A, B, C, ell)
    return has_root


def _check_cubic(A, B, C, ell):
    """The cubic rule against search, or None for an inseparable cubic (a
    multiple root over a perfect field is rational, so search finds it)."""
    roots, multiple = _root_search([C, B, A, 1], ell)
    if multiple:
        return None
    assert _cubic_root_count(A, B, C, ell) == roots, (A, B, C, ell)
    return roots


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_quadratic_rule_on_every_quadratic(ell):
    outcomes = {_check_quadratic(A, B, C, ell)
                for A in range(1, ell) for B, C in itertools.product(range(ell), repeat=2)}
    assert outcomes == {False, True}
    # representatives outside [0, ell) give the same answers
    for A, B, C in itertools.product(range(1, ell), range(ell), range(ell)):
        assert _quad_has_root(A - ell, B + 3 * ell, C - 2 * ell, ell) \
            == _quad_has_root(A, B, C, ell)


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_cubic_rule_on_every_separable_cubic(ell):
    outcomes = {_check_cubic(A, B, C, ell)
                for A, B, C in itertools.product(range(ell), repeat=3)}
    # F_2 has too few points for three roots
    assert outcomes == ({None, 0, 1} if ell == 2 else {None, 0, 1, 3})


@pytest.mark.parametrize("ell", [101, 1009, 10007])
def test_root_rules_on_random_coefficients(ell):
    rng = random.Random(ell)
    quadratic, cubic = set(), set()
    for _ in range(40):
        A = rng.randrange(1, ell) + ell * rng.randint(-2, 1)  # a unit mod ell
        B, C = rng.randrange(-5 * ell, 5 * ell), rng.randrange(-5 * ell, 5 * ell)
        quadratic.add(_check_quadratic(A, B, C, ell))
        cubic.add(_check_cubic(rng.randrange(-5 * ell, 5 * ell), B, C, ell))
    # and cubics with three chosen roots, distinct or not
    for _ in range(10):
        r1, r2, r3 = (rng.randrange(ell) for _ in range(3))
        A, B, C = -(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3
        cubic.add(_check_cubic(A, B, C, ell))
    assert quadratic == {False, True}
    assert cubic >= {0, 1, 3}


@pytest.mark.parametrize("ell", [2, 3, 5, 7, 11, 13, 31])
def test_split_label_against_the_tangent_cone(ell):
    # models singular at the origin mod ell, moved by a random (r, s, t)
    rng = random.Random(100 + ell)
    labels = set()
    for _ in range(60):
        coeffs = (rng.randrange(-3 * ell, 3 * ell), rng.randrange(-3 * ell, 3 * ell),
                  ell * rng.randint(-9, 9), ell * rng.randint(-9, 9), ell * rng.randint(-9, 9))
        if raw_invariants(coeffs)[6] == 0:
            continue
        E = transform(WeierstrassCurve(*coeffs), 1, *(rng.randrange(-3 * ell, 3 * ell)
                                                      for _ in range(3)))
        a1, a2, a3, a4, a6 = E.coefficients()
        x0, y0 = next((x, y) for x in range(ell) for y in range(ell)
                      if (y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x - a6) % ell == 0
                      and (a1 * y - 3 * x * x - 2 * a2 * x - a4) % ell == 0
                      and (2 * y + a1 * x + a3) % ell == 0)
        # the tangent cone at (x0, y0) is Y^2 + a1 X Y - (3 x0 + a2) X^2
        roots, multiple = _root_search([-(3 * x0 + a2), a1, 1], ell)
        data = local_reduction(E, ell)
        assert (data.reduction_class == "multiplicative") == (multiple == 0), (E, ell)
        if not multiple:
            assert data.split == (roots > 0), (E, ell)
            labels.add(data.split_label)
    assert labels == {"split", "nonsplit"}


# --- the per-curve memo ----------------------------------------------------------

def test_a_curve_keeps_its_reductions():
    E = WeierstrassCurve(0, 0, 0, -16, 0)
    data = local_reduction(E, 2)
    assert local_reduction(E, 2) is data
    # an equal curve built apart reduces apart, to equal data
    twin = WeierstrassCurve(0, 0, 0, -16, 0)
    assert local_reduction(twin, 2) is not data
    assert local_reduction(twin, 2) == data


def test_a_good_prime_leaves_no_reference_cycle():
    # at a good prime the minimal model is an equal copy, not the curve, so
    # a dropped curve and its memo are freed without the cyclic collector
    E = WeierstrassCurve(0, 0, 1, -1, 0)
    data = local_reduction(E, 5)
    assert data.reduction_class == "good" and local_reduction(E, 5) is data
    assert data.minimal_model == E and data.minimal_model is not E
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        good = sum(local_reduction(WeierstrassCurve(0, 0, 1, a4, 1), 10007).reduction_class
                   == "good" for a4 in range(2000))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert good > 1990


def test_a_bad_ell_raises_on_every_call():
    E = WeierstrassCurve(0, 0, 0, -1, 0)
    for _ in range(2):
        with pytest.raises(ValueError):
            local_reduction(E, 4)
    local_reduction(E, 2)
    for bad in (4, 1, 0, -2, 2.0):
        with pytest.raises(ValueError):
            local_reduction(E, bad)


def test_reductions_leave_equality_hash_and_repr_alone():
    E = WeierstrassCurve(0, -1, 1, -10, -20)
    before = (repr(E), hash(E))
    for ell in (2, 3, 5, 11):
        local_reduction(E, ell)
    twin = WeierstrassCurve(0, -1, 1, -10, -20)
    assert (repr(E), hash(E)) == before == (repr(twin), hash(twin))
    assert E == twin and not E != twin
    assert repr(E) == "WeierstrassCurve(0, -1, 1, -10, -20)"


@settings(max_examples=300, deadline=None)
@given(_curve_at(), st.integers(0, 2))
def test_memoized_reduction_equals_a_fresh_one(curve_ell, k):
    E, ell = curve_ell
    # u = ell^-k multiplies a_i by ell^(i k): non-minimal when k > 0
    E = transform(E, Fraction(1, ell ** k), 0, 0, 0)
    first = local_reduction(E, ell)
    fresh = _reduce(WeierstrassCurve(*E.coefficients()), ell)
    assert local_reduction(E, ell) is first
    for field in dataclasses.fields(first):
        assert getattr(first, field.name) == getattr(fresh, field.name), field.name


# --- referees independent of the algorithm -------------------------------------


def _is_square_unit_part(x, ell):
    """Whether x / ell^v(x) is a square in Z_ell (x != 0)."""
    x //= ell ** valuation(x, ell)
    return x % 8 == 1 if ell == 2 else jacobi(x, ell) == 1


def _non_residue(ell):
    """A unit d at ell with Q_ell(sqrt d) / Q_ell unramified of degree 2."""
    if ell == 2:
        return 5
    return next(d for d in range(2, ell) if jacobi(d, ell) == -1)


def _twist(E, d):
    """The quadratic twist by d of the model y^2 = x^3 - 27 c4 x - 54 c6."""
    return WeierstrassCurve(0, 0, 0, -27 * d ** 2 * E.c4, -54 * d ** 3 * E.c6)


@st.composite
def _referee_curve_at(draw, ells):
    """A model from `_curve_at`, or, half of the time, its twist by -1 or
    by +-ell, which makes multiplicative fibres I_n* and reaches the deep
    fibres at 2 and 3."""
    E, ell = draw(_curve_at(ells))
    d = draw(st.sampled_from((None, None, None, -1, ell, -ell)))
    return (E if d is None else _twist(E, d)), ell


@settings(max_examples=300, deadline=None)
@given(_referee_curve_at((2, 3, 5, 7, 11, 13)))
def test_unramified_quadratic_twist(curve_ell):
    # E and its twist by a non-square unit d become isomorphic over the
    # unramified Q_ell(sqrt d), and Neron models commute with etale base
    # change: the Kodaira symbol, v(Delta_min) and f agree, while the
    # twist swaps split and nonsplit (Tamagawa numbers may differ).
    E, ell = curve_ell
    data = local_reduction(E, ell)
    tdata = local_reduction(_twist(E, _non_residue(ell)), ell)
    assert (tdata.kodaira, tdata.delta, tdata.conductor_exp) \
        == (data.kodaira, data.delta, data.conductor_exp), (E, ell)
    assert tdata.reduction_class == data.reduction_class
    if data.reduction_class == "multiplicative":
        assert tdata.split is not data.split
        # and the Tate curve fixes which is which: split exactly when -c6
        # is a square in Q_ell, on any model (c6 scales by u^6)
        assert data.split == _is_square_unit_part(-E.c6, ell), (E, ell)


def _components(kodaira):
    """Number of irreducible components of the special fibre, over the
    algebraic closure of F_ell, read off from the Kodaira symbol."""
    fixed = {"I0": 1, "II": 1, "III": 2, "IV": 3, "I0*": 5,
             "IV*": 7, "III*": 8, "II*": 9}
    if kodaira in fixed:
        return fixed[kodaira]
    if kodaira.endswith("*"):
        return 5 + int(kodaira[1:-1])
    return int(kodaira[1:])


@settings(max_examples=400, deadline=None)
@given(_referee_curve_at((2, 3, 5, 7, 11)), st.integers(0, 1))
def test_conductor_bounds(curve_ell, k):
    # f <= 2 + 6 v_ell(2) + 3 v_ell(3) (Brumer-Kramer, Compositio Math. 92,
    # 1994): 8 at 2, 5 at 3, 2 above.  Additive reduction has f >= 2, and
    # above 3 it is tame, so f = 2 and Ogg's formula makes v(Delta_min) one
    # more than the number of components.
    E, ell = curve_ell
    data = local_reduction(transform(E, Fraction(1, ell ** k), 0, 0, 0), ell)
    f = data.conductor_exp
    assert f <= {2: 8, 3: 5}.get(ell, 2), (E, ell)
    want_class = {0: "good", 1: "multiplicative"}.get(f, "additive")
    assert data.reduction_class == want_class, (E, ell)
    if ell >= 5 and f == 2:
        assert data.delta == _components(data.kodaira) + 1, (E, ell)


# Isogenous curves over Q_ell have isomorphic ell'-adic Tate modules for
# ell' != ell, so the same conductor exponent, reduction class and split
# label at every prime, 2 and 3 included (Serre-Tate), while their Kodaira
# symbols and Tamagawa numbers may differ.

def _two_isogenous(a, b):
    """y^2 = x^3 + a x^2 + b x and its quotient by the 2-torsion point (0, 0)."""
    return (0, a, 0, b, 0), (0, -2 * a, 0, a * a - 4 * b, 0)


def _three_isogenous(a1, a3):
    """y^2 + a1 xy + a3 y = x^3 and its quotient by the 3-torsion points
    (0, 0) and (0, -a3) (Velu)."""
    E = (a1, 0, a3, 0, 0)
    F = (a1, 0, a3, -5 * a1 * a3, -a1 ** 3 * a3 - 7 * a3 ** 2)
    # a guard on the formula: the discriminants Velu's quotient must have
    assert raw_invariants(E)[6] == a3 ** 3 * (a1 ** 3 - 27 * a3)
    assert raw_invariants(F)[6] == a3 * (a1 ** 3 - 27 * a3) ** 3
    return E, F


@st.composite
def _isogenous_pair_at(draw, ells):
    """A prime ell in ells and a 2- or 3-isogenous pair of curves, each
    moved by its own integral change of model and, sometimes, rescaled by
    ell to a non-minimal model; the coefficients carry random powers of
    ell, so that the deep fibres at 2 and 3 come up."""
    ell = draw(st.sampled_from(ells))

    def coefficient():
        return ell ** draw(st.integers(0, 4)) * draw(st.integers(-12, 12))

    pair = draw(st.sampled_from((_two_isogenous, _three_isogenous)))(coefficient(),
                                                                      coefficient())
    assume(all(raw_invariants(c)[6] for c in pair))
    models = []
    for coeffs in pair:
        E = transform(WeierstrassCurve(*coeffs), 1, *(draw(_shift) for _ in range(3)))
        if draw(st.integers(0, 3)) == 0:
            E = transform(E, Fraction(1, ell), 0, 0, 0)
        models.append(E)
    return models, ell


@settings(max_examples=600, deadline=None)
@given(_isogenous_pair_at((2, 3, 5, 7, 11, 13)))
def test_isogenous_curves_share_conductor_class_and_split(case):
    (E, F), ell = case
    d, e = local_reduction(E, ell), local_reduction(F, ell)
    assert ((d.conductor_exp, d.reduction_class, d.split_label)
            == (e.conductor_exp, e.reduction_class, e.split_label)), (E, F, ell)


def _place_verdicts(curve, ell, p):
    """verify_local's (c side, w side) at ell for every admissible (G_v, I_v)
    of D_2p, every flag and r in (1, 2), or None where the setting is
    inadmissible."""
    base = base_descriptor(curve, ell)
    out = []
    for (G_v, I_v), flag, r in itertools.product(_PAIRS, (None, False, True), (1, 2)):
        try:
            setting = LocalSetting(p, ell, r, base, G_v, I_v, flag)
        except InadmissibleSettingError:
            out.append(None)
            continue
        verdict = verify_local(setting)
        out.append((verdict.c_side, verdict.w_side))
    return out


# For p >= 5 the isogeny's degree, 2 or 3, is prime to p, so ord_p of each
# Tamagawa/period ratio and each root number agree for E and E': every
# place's verdict is the same, from Tate's algorithm through
# base_descriptor to both closed forms, although the descriptors may not.
@settings(max_examples=600, deadline=None)
@given(_isogenous_pair_at((2, 3, 5, 7, 11, 13)), st.sampled_from((5, 7)))
def test_isogenous_curves_share_local_parity_verdicts(case, p):
    (E, F), ell = case
    verdicts = _place_verdicts(E, ell, p)
    assert any(verdicts)
    assert verdicts == _place_verdicts(F, ell, p), (E, F, ell, p)


@cache
def _bench_oracle():
    """bench/oracle.py, Papadopoulos' valuation table written apart from the
    library (it imports nothing from it)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@st.composite
def _oracle_case(draw):
    """A prime 5 <= ell <= 10^5 and a model from `_referee_curve_at`'s
    recipe at ell, moved by u = ell^-k and an integral shift, so that it is
    non-minimal when k > 0."""
    ell = draw(st.one_of(st.sampled_from((5, 7, 11, 13)),
                         st.integers(5, 10 ** 5).map(lambda x: prevprime(x + 1))))
    E, _ = draw(_referee_curve_at((ell,)))
    k = draw(st.integers(0, 2))
    return transform(E, Fraction(1, ell ** k), draw(_shift), draw(_shift), draw(_shift)), ell


@settings(max_examples=200, deadline=None)
@given(_oracle_case())
def test_against_the_valuation_table(curve_ell):
    # Above 3 the reduction type is read off v(c4), v(c6) and v(Delta) of a
    # minimal model (Papadopoulos, Math. Comp. 1993), as bench/oracle.py
    # does; the table leaves the Tamagawa number of I_n* at 2 or 4.
    E, ell = curve_ell
    data = local_reduction(E, ell)
    want = _bench_oracle().reduction_at(E.coefficients(), ell)
    got = (data.kodaira, data.delta, data.conductor_exp, data.split)
    assert got == (want["kodaira"], want["delta"], want["conductor"], want["split"]), (E, ell)
    assert data.tamagawa in want["tamagawa"], (E, ell)


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_j_pole_order_is_the_valuation_of_js_denominator(ell):
    rng = random.Random(ell)
    classes = set()
    for _ in range(300):
        coeffs = tuple(ell ** rng.randint(0, 3) * rng.randint(-9, 9) for _ in range(5))
        if raw_invariants(coeffs)[6] == 0:
            continue
        E = WeierstrassCurve(*coeffs)
        n = j_pole_order(E, ell)
        assert n == valuation(E.j_invariant.denominator, ell)
        classes.add(potential_class(E, ell))
        assert (potential_class(E, ell) == "potentially multiplicative") == (n > 0)
    assert classes == {"potentially good", "potentially multiplicative"}
