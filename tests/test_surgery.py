from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dihedral_parity.surgery import (NonCoprimeModuliError, SurgeryFailedError,
                                     certify, closeness_check, crt, make_semistable)
from dihedral_parity.tate import local_reduction, valuation
from dihedral_parity.weierstrass import (A6_QUADRATIC_COEFF, WeierstrassCurve,
                                         raw_invariants)


# --- CRT -------------------------------------------------------------------

def test_crt_values():
    assert crt([(3, 2), (5, 3), (7, 2)]) == (23, 105)
    assert crt([]) == (0, 1)
    assert crt([(2, 1)]) == (1, 2)
    x, m = crt([(8, 5), (9, 2), (5, 0)])
    assert m == 360 and x % 8 == 5 and x % 9 == 2 and x % 5 == 0


def test_crt_errors():
    with pytest.raises(NonCoprimeModuliError):
        crt([(4, 1), (6, 5)])
    with pytest.raises(ValueError):
        crt([(0, 0)])


@pytest.mark.parametrize("modulus", [True, False, 0, -3, 3.0, "3"], ids=repr)
def test_crt_admits_only_positive_int_moduli(modulus):
    # True is an int >= 1, and used to pass as the modulus 1
    with pytest.raises(ValueError, match="^modulus must be a positive integer, got "):
        crt([(5, 1), (modulus, 0)])


# --- raw invariant helpers -------------------------------------------------

def test_raw_formulas_match_curve_properties():
    # 11a1 and 37a1 (b2, b4, b6, b8, c4, c6, Delta) as published
    assert raw_invariants((0, -1, 1, -10, -20)) == (-4, -20, -79, -21, 496, 20008, -161051)
    assert raw_invariants((0, 0, 1, -1, 0)) == (0, -2, 1, -1, 48, -216, 37)
    # singular tuples are allowed: a node and a cusp
    assert raw_invariants((0, 1, 0, 0, 0))[4:] == (16, -64, 0)
    assert raw_invariants((0, 0, 0, 0, 0)) == (0,) * 7
    for coeffs in [(0, -1, 1, -10, -20), (1, 0, 1, 4, -6), (0, 0, 0, 25, 0)]:
        E = WeierstrassCurve(*coeffs)
        assert raw_invariants(coeffs) == (E.b2, E.b4, E.b6, E.b8, E.c4, E.c6,
                                          E.discriminant)


def test_raw_gamma_drives_the_a6_shift():
    # the shift law's gamma is c6 of the unshifted model
    coeffs = (1, 0, 1, 4, -6)
    *_, c6, delta = raw_invariants(coeffs)
    for c in (-7, -1, 1, 2, 11):
        shifted = coeffs[:4] + (coeffs[4] + c,)
        diff = raw_invariants(shifted)[6] - delta
        assert diff == c * (c6 + A6_QUADRATIC_COEFF * c)


# --- the construction ------------------------------------------------------

POOL = [
    ((0, -1, 1, -10, -20), 11, 3),  # split I5 kept at 11
    ((0, 0, 1, -1, 0), 37, 5),      # nonsplit I1 kept at 37
    ((0, 0, 0, 0, 1), 2, 3),        # additive IV kept at 2
    ((0, 0, 0, 0, 1), 3, 5),        # additive III kept at 3
    ((0, 0, 1, 0, -7), 3, 7),       # additive IV* kept at 3
    ((0, -1, 0, -4, 4), 2, 5),      # additive I1* kept at 2
    ((0, 0, 0, 25, 0), 5, 3),       # additive I0* kept at 5
]


@pytest.mark.parametrize("coeffs,p0,v", POOL)
def test_surgery_pool(coeffs, p0, v):
    E = WeierstrassCurve(*coeffs)
    plan = make_semistable(E, p0, v)
    cert = certify(plan)
    assert cert.ok
    assert cert.p0_match and cert.p0_before == cert.p0_after
    assert cert.v_class == "multiplicative"
    assert cert.v_split == "split"
    assert cert.residual_gcd == 1
    assert closeness_check(E, plan.final, p0)


@pytest.mark.parametrize("coeffs,p0,v", POOL)
def test_plan_congruences(coeffs, p0, v):
    E = WeierstrassCurve(*coeffs)
    plan = make_semistable(E, p0, v)
    P = p0 ** plan.n
    for d in (plan.d1, plan.d2, plan.d3, plan.d4, plan.c):
        assert d % P == 0
    F = plan.final
    assert F.a1 % v == 0 and F.a3 % v == 0 and F.a4 % v == 0 and F.a6 % v == 0
    assert F.a2 % v == 1
    if p0 != 2:
        assert F.a1 % 2 == 1
        assert F.c4 % 2 == 1
    if 3 not in (p0, v):
        assert F.b2 % 3 == 1
        assert F.c4 % 3 != 0
    # the certificate: no prime other than p0 divides both c4 and Delta
    g = gcd(F.c4, F.discriminant)
    while g % p0 == 0:
        g //= p0
    assert g == 1
    # step traces reassemble into the final model
    a1, a2, a3, a4, a6 = E.coefficients()
    assert plan.after_step1 == (a1 + plan.d1, a2, a3, a4, a6)
    assert plan.after_step2[0] == a1 + plan.d1
    assert F.coefficients() == plan.after_step2[:4] + (a6 + plan.c,)
    # shift identity connecting step 2 to the final discriminant
    *_, c6, delta = raw_invariants(plan.after_step2)
    assert F.discriminant - delta == plan.c * (c6 + A6_QUADRATIC_COEFF * plan.c)


def test_depth_starts_above_discriminant_valuation():
    E = WeierstrassCurve(0, -1, 1, -10, -20)
    plan = make_semistable(E, 11, 3)
    assert plan.n >= valuation(abs(E.discriminant), 11) + 3
    data = local_reduction(plan.final, 11)
    assert (data.kodaira, data.tamagawa) == ("I5", 5)
    vdata = local_reduction(plan.final, 3)
    assert vdata.reduction_class == "multiplicative"
    assert vdata.split_label == "split"


def test_large_p0_certifies_without_factoring():
    # the step-2 c4 has 65 digits here; sympy did not factor it within 30 s
    E = WeierstrassCurve(-10, -47, -48, -47, 33)
    plan = make_semistable(E, 101, 3)
    assert certify(plan).ok


@st.composite
def _surgery_input(draw):
    """A small nonsingular model, a prime p0 and an odd prime v != p0."""
    coeffs = tuple(draw(st.integers(-50, 50)) for _ in range(5))
    assume(raw_invariants(coeffs)[6] != 0)
    p0 = draw(st.sampled_from((2, 3, 5, 7, 11, 101, 389)))
    v = draw(st.sampled_from([q for q in (3, 5, 7, 11, 13) if q != p0]))
    return WeierstrassCurve(*coeffs), p0, v


@settings(max_examples=400, deadline=None)
@given(_surgery_input())
def test_surgery_certifies_random_curves(inputs):
    E, p0, v = inputs
    plan = make_semistable(E, p0, v)
    assert certify(plan).ok
    P = p0 ** plan.n
    assert all(d % P == 0 for d in (plan.d1, plan.d2, plan.d3, plan.d4, plan.c))


def test_explicit_shallow_depth_fails():
    E = WeierstrassCurve(0, 0, 1, 0, -7)  # delta = 3^9 at p0 = 3
    with pytest.raises(SurgeryFailedError):
        make_semistable(E, 3, 5, n=1)


def test_explicit_adequate_depth_succeeds():
    E = WeierstrassCurve(0, 0, 1, 0, -7)
    plan = make_semistable(E, 3, 5, n=12)
    assert plan.n == 12
    assert certify(plan).ok


def test_parameter_validation():
    E = WeierstrassCurve(0, -1, 1, -10, -20)
    with pytest.raises(ValueError):
        make_semistable(E, 4, 3)
    with pytest.raises(ValueError):
        make_semistable(E, 11, 2)
    with pytest.raises(ValueError):
        make_semistable(E, 11, 11)
    with pytest.raises(ValueError):
        make_semistable(E, 11, 9)


@pytest.mark.parametrize("n", [0, -2, 2.5, "8", True, False])
def test_depth_must_be_a_positive_integer(n):
    E = WeierstrassCurve(0, -1, 1, -10, -20)
    with pytest.raises(ValueError, match=f"n must be a positive integer, got {n!r}"):
        make_semistable(E, 11, 3, n=n)
