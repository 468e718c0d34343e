import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import factorint

from corpus import CONDUCTORS, TATE_CORPUS
from dihedral_parity.arith import jacobi
from dihedral_parity.tate import (NotApplicableError, _cubic_multiple_root,
                                  conductor_exponent, kodaira_symbol, local_reduction,
                                  potential_class, split_type, tamagawa_number,
                                  valuation)
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
def _curve_at(draw):
    """A prime ell in {2, 3, 5, 7} and a nonsingular model whose
    coefficients carry random powers of ell, so that every Kodaira family,
    the starred ones included, comes up."""
    ell = draw(st.sampled_from((2, 3, 5, 7)))
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
