from fractions import Fraction

import pytest

from dihedral_parity.regulator import (DegeneratePairingError,
                                       InvalidRepresentationError, RationalRep,
                                       SquareClass, direct_sum, faithful_rep,
                                       invariant_pairing, regulator_constant,
                                       sign_rep, t_theta_member, trivial_rep)


# --- representations -------------------------------------------------------

def test_rep_relation_validation():
    with pytest.raises(InvalidRepresentationError):
        RationalRep(5, ((-1,),), ((1,),))  # s^5 = -1
    with pytest.raises(InvalidRepresentationError):
        RationalRep(5, ((1,),), ((2,),))  # t^2 = 4
    good = faithful_rep(5)
    ident = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    with pytest.raises(InvalidRepresentationError):
        RationalRep(5, good.s, ident)  # t s t = s, not s^-1
    with pytest.raises(InvalidRepresentationError):
        RationalRep(5, ((1, 0), (0, 1)), ((1,),))  # size mismatch


def test_faithful_rep_shape():
    for p in (3, 5, 7):
        rep = faithful_rep(p)
        assert rep.dimension == p - 1
        assert len(rep.elements()) == 2 * p


def test_direct_sum():
    a = direct_sum(trivial_rep(5), sign_rep(5))
    assert a.dimension == 2
    with pytest.raises(InvalidRepresentationError):
        direct_sum(trivial_rep(5), trivial_rep(7))
    with pytest.raises(ValueError):
        direct_sum()


# --- pairings --------------------------------------------------------------

def test_pairing_is_symmetric_invariant_deterministic():
    rep = faithful_rep(5)
    B = invariant_pairing(rep, seed=3)
    assert B == invariant_pairing(rep, seed=3)
    assert B == tuple(zip(*B))
    for g in rep.elements():
        m = rep.image(g)
        mt = tuple(zip(*m))
        lhs = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*B))
                    for row in mt)
        lhs = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*m))
                    for row in lhs)
        assert lhs == B


def test_pairing_redraws_past_singular_seed():
    # seed 23 first draws 0 for a 1-dim rep; the stream must recover
    B = invariant_pairing(trivial_rep(5), seed=23)
    assert B[0][0] != 0


def test_singular_supplied_pairing_rejected():
    zero = ((Fraction(0),),)
    with pytest.raises(DegeneratePairingError):
        regulator_constant(trivial_rep(5), pairing=zero)


def test_pairing_singular_on_a_fixed_space_rejected():
    # nondegenerate on the whole space, but it pairs the trivial line only
    # with the sign line, so it vanishes on the vectors fixed by D2
    rep = direct_sum(trivial_rep(5), sign_rep(5), faithful_rep(5))
    hyperbolic = ((0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
                  (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))
    with pytest.raises(DegeneratePairingError, match="fixed by D2"):
        regulator_constant(rep, pairing=hyperbolic)
    # a pairing of the wrong size is rejected before any fixed space
    for wrong in (tuple(row[:4] for row in hyperbolic[:4]),
                  tuple(row + (0,) for row in hyperbolic) + ((0,) * 6 + (1,),)):
        with pytest.raises(DegeneratePairingError, match="not 6 x 6"):
            regulator_constant(rep, pairing=wrong)


# --- the constant ----------------------------------------------------------

@pytest.mark.parametrize("p", [5, 7])
def test_constant_on_one_dimensionals_is_exact(p):
    # the pairing scalar cancels, so these are equalities, not just classes
    for seed in range(6):
        assert regulator_constant(trivial_rep(p), seed=seed) == Fraction(1, p)
        assert regulator_constant(sign_rep(p), seed=seed) == p


@pytest.mark.parametrize("p", [5, 7])
def test_square_class_is_seed_independent(p):
    rep = faithful_rep(p)
    classes = {SquareClass.of(regulator_constant(rep, seed=s)) for s in range(12)}
    assert len(classes) == 1


@pytest.mark.parametrize("p", [5, 7])
def test_faithful_constant_has_odd_p_valuation(p):
    c = regulator_constant(faithful_rep(p))
    assert SquareClass.of(c).ord_parity(p) == 1


def test_constant_multiplicative_on_sums():
    for summands in [(trivial_rep(5), sign_rep(5)),
                     (sign_rep(5), faithful_rep(5)),
                     (trivial_rep(5), trivial_rep(5))]:
        whole = SquareClass.of(regulator_constant(direct_sum(*summands)))
        parts = SquareClass.of(1)
        for r in summands:
            parts = parts * SquareClass.of(regulator_constant(r))
        assert whole == parts


@pytest.mark.parametrize("p", [5, 7])
def test_t_theta_membership(p):
    assert t_theta_member(trivial_rep(p))       # ord_p(1/p) = -1
    assert t_theta_member(sign_rep(p))          # ord_p(p) = 1
    assert t_theta_member(faithful_rep(p))
    assert not t_theta_member(direct_sum(trivial_rep(p), sign_rep(p)))
    assert not t_theta_member(direct_sum(faithful_rep(p), faithful_rep(p)))


# --- square classes --------------------------------------------------------

def test_square_class_basics():
    assert SquareClass.of(Fraction(9, 4)).is_square
    assert SquareClass.of(Fraction(1, 5)) == SquareClass.of(5)
    assert SquareClass.of(-18).representative == -2
    assert SquareClass.of(50).representative == 2
    assert SquareClass.of(Fraction(5, 7)).representative == 35
    assert (SquareClass.of(10) * SquareClass.of(5)).representative == 2
    assert SquareClass.of(75).ord_parity(3) == 1
    assert SquareClass.of(75).ord_parity(5) == 0
    with pytest.raises(ValueError):
        SquareClass.of(0)
