import random
from fractions import Fraction

import pytest

from dihedral_parity.weierstrass import (A6_QUADRATIC_COEFF, InvalidTransformError,
                                         SingularModelError, WeierstrassCurve,
                                         a6_shift_delta, invariants, transform)


def random_curve(rng, span=20):
    while True:
        coeffs = [rng.randint(-span, span) for _ in range(5)]
        try:
            return WeierstrassCurve(*coeffs)
        except SingularModelError:
            continue


def test_invariant_identities():
    rng = random.Random(11)
    for _ in range(200):
        e = random_curve(rng)
        assert 4 * e.b8 == e.b2 * e.b6 - e.b4 ** 2
        assert 1728 * e.discriminant == e.c4 ** 3 - e.c6 ** 2
        assert e.j_invariant == Fraction(e.c4 ** 3, e.discriminant)


def test_invariants_bundle():
    e = WeierstrassCurve(1, -1, 1, -14, 29)
    inv = invariants(e)
    assert (inv.b2, inv.b4, inv.b6, inv.b8) == (e.b2, e.b4, e.b6, e.b8)
    assert (inv.c4, inv.c6) == (e.c4, e.c6)
    assert inv.discriminant == e.discriminant
    assert inv.j == e.j_invariant


def test_transform_scaling_laws():
    rng = random.Random(7)
    for _ in range(50):
        e = random_curve(rng)
        u = rng.choice([1, 2, 3])
        r, s, t = (rng.randint(-3, 3) for _ in range(3))
        # enlarge the model first so the u-division stays integral
        big = transform(e, Fraction(1, u), 0, 0, 0)
        assert big.discriminant == e.discriminant * u ** 12
        assert big.c4 == e.c4 * u ** 4
        moved = transform(e, 1, r, s, t)
        assert moved.discriminant == e.discriminant
        assert moved.c4 == e.c4
        assert moved.j_invariant == e.j_invariant


def test_transform_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        e = random_curve(rng)
        u = rng.choice([1, 2])
        r, s, t = (rng.randint(-4, 4) for _ in range(3))
        big = transform(e, Fraction(1, u), Fraction(r), Fraction(s), Fraction(t))
        # the inverse change of variables
        back = transform(big, u, -r * u ** 2, -s * u, (r * s - t) * u ** 3)
        assert back == e


def test_transform_rejects_bad_parameters():
    e = WeierstrassCurve(0, 0, 0, -1, 0)
    with pytest.raises(InvalidTransformError):
        transform(e, 0, 0, 0, 0)
    with pytest.raises(InvalidTransformError):
        transform(e, 2, 0, 0, 0)  # a4 = -1/16 is not integral


def test_singular_models_rejected():
    with pytest.raises(SingularModelError):
        WeierstrassCurve(0, 0, 0, 0, 0)
    with pytest.raises(SingularModelError):
        WeierstrassCurve(0, -3, 0, 3, -1)  # (x-1)^3


def test_coefficients_must_be_ints():
    with pytest.raises(TypeError):
        WeierstrassCurve(0, 0, 0, -1.0, 0)
    with pytest.raises(TypeError):
        WeierstrassCurve(0, 0, 0, True, 0)


def test_a6_shift_quadratic_coefficient_value():
    assert A6_QUADRATIC_COEFF == -432


def test_a6_shift_identity_matches_direct_difference():
    rng = random.Random(19)
    checked = 0
    while checked < 300:
        e = random_curve(rng, span=30)
        c = rng.randint(-50, 50)
        shifted = (e.a1, e.a2, e.a3, e.a4, e.a6 + c)
        try:
            f = WeierstrassCurve(*shifted)
        except SingularModelError:
            # the closed form must still hold: difference is -Delta(e)
            assert a6_shift_delta(e, c) == -e.discriminant
            checked += 1
            continue
        assert a6_shift_delta(e, c) == f.discriminant - e.discriminant
        checked += 1


def test_a6_shift_gamma_consistency():
    e = WeierstrassCurve(1, 2, 3, 4, 5)
    e1 = WeierstrassCurve(e.a1, e.a2, e.a3, e.a4, e.a6 + 1)
    # the law's gamma is c6: a unit a6 shift keeps c4 and lowers c6 by 864
    assert (e1.c4, e1.c6) == (e.c4, e.c6 - 864)
    one = a6_shift_delta(e, 1)
    assert one == e.c6 + A6_QUADRATIC_COEFF
    # derivative check: shifting by 1 twice equals shifting by 2
    assert one + a6_shift_delta(e1, 1) == a6_shift_delta(e, 2)
