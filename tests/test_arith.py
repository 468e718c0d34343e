"""Primality and factoring in `arith`, against sympy as the reference."""

import random
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import factorint, isprime, nextprime, primerange

from dihedral_parity import arith
from dihedral_parity.arith import (FactoringBudgetError, factor, is_prime, jacobi,
                                   trial_divide)
from dihedral_parity.base_change import ConstrainedRange
from dihedral_parity.regulator import SquareClass
from dihedral_parity.tate import j_pole_order
from dihedral_parity.weierstrass import WeierstrassCurve

# Strong pseudoprimes to the first 9, 12 and 13 prime bases: the last is
# PSI_13, which only the strong Lucas step rejects.
STRONG_PSEUDOPRIMES = (3825123056546413051, 318665857834031151167461,
                       3317044064679887385961981)


def chernick_carmichael(count: int) -> list[int]:
    """(6k+1)(12k+1)(18k+1) with all three factors prime is a Carmichael number."""
    out, k = [], 1
    while len(out) < count:
        k += 1
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(isprime(f) for f in factors):
            out.append(factors[0] * factors[1] * factors[2])
    return out


def test_is_prime_agrees_with_sympy_below_10_5():
    assert [n for n in range(10 ** 5) if is_prime(n) != isprime(n)] == []


def test_is_prime_rejects_negative_numbers_and_non_integers():
    assert not any(is_prime(n) for n in (-1, -2, -3, -7, -(10 ** 30), True, False))
    for n in (5.0, 5.5, "5", None):
        with pytest.raises(ValueError):
            is_prime(n)


def test_is_prime_cache_keeps_types_apart():
    assert is_prime(5) and not is_prime(1)
    # 5.0 == 5 and True == 1, but neither may answer from those entries
    with pytest.raises(ValueError):
        is_prime(5.0)
    assert is_prime(True) is False
    assert is_prime.cache_parameters() == {"maxsize": 64, "typed": True}


def test_strong_lucas_pseudoprimes_below_10_5():
    # OEIS A217255: the odd composites that pass the strong Lucas test with
    # Selfridge's parameters; every odd prime passes it
    passing = [n for n in range(43 * 43, 10 ** 5, 2)
               if arith._strong_lucas_probable_prime(n) and not isprime(n)]
    assert passing == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199,
                       40309, 58519, 75077, 97439]
    assert all(arith._strong_lucas_probable_prime(q)
               for q in range(43 * 43, 10 ** 5, 2) if isprime(q))


@settings(max_examples=300, deadline=None)
@given(st.integers(10 ** 19, 10 ** 60))
def test_is_prime_agrees_with_sympy_on_large_numbers(n):
    assert is_prime(n) == isprime(n)


def test_is_prime_on_random_primes_and_their_products():
    rng = random.Random(6)
    for _ in range(100):
        q = nextprime(rng.randrange(10 ** 19, 10 ** 60))
        assert is_prime(q)
        assert not is_prime(q * nextprime(rng.randrange(2, 10 ** 6)))
        assert not is_prime(q * q)


def test_is_prime_on_pseudoprimes():
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                  321197185, 5394826801, 232250619601, 9746347772161]
    for n in carmichael + chernick_carmichael(40) + list(STRONG_PSEUDOPRIMES):
        assert is_prime(n) == isprime(n) is False, n
    # PSI_13 passes every Miller-Rabin base and fails only the Lucas test
    d, s = arith.PSI_13 - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    assert all(arith._strong_probable_prime(arith.PSI_13, a, d, s)
               for a in arith.MR_BASES)
    assert not arith._strong_lucas_probable_prime(arith.PSI_13)


def test_factor_agrees_with_sympy():
    # seeded rather than drawn by hypothesis: rho's budget fails, rarely, on
    # a balanced semiprime near 10^22, and a draw that hit one would flake
    rng = random.Random(22)
    for n in [rng.randrange(1, 10 ** 22) for _ in range(100)] + \
            [nextprime(rng.randrange(10 ** 9)) * nextprime(rng.randrange(10 ** 9))
             for _ in range(10)]:
        assert factor(n) == factorint(n), n


def test_factor_prime_powers_and_squares():
    q, r = nextprime(10 ** 8), nextprime(10 ** 9)
    for n in (q ** 2, q ** 3 * r ** 2, (q * r) ** 2, 2 ** 100 * q, r ** 5):
        assert factor(n) == factorint(n)
    assert factor(1) == {}
    with pytest.raises(ValueError):
        factor(0)


def test_jacobi_is_eulers_criterion_at_odd_primes():
    for p in primerange(3, 200):
        for a in range(p):
            euler = pow(a, (p - 1) // 2, p)
            assert jacobi(a, p) == (-1 if euler == p - 1 else euler), (a, p)
            assert jacobi(a - 3 * p, p) == jacobi(a, p)


def test_trial_divide_splits_off_small_primes():
    assert trial_divide(2 ** 5 * 997 ** 2 * 1009 * 1013) == ({2: 5, 997: 2}, 1009 * 1013)
    # a cofactor below TRIAL_BOUND^2 has no factor left to find: it is prime
    assert trial_divide(991 * 1009) == ({991: 1, 1009: 1}, 1)
    assert trial_divide(1) == ({}, 1)


def test_factor_stops_at_the_budget(monkeypatch):
    monkeypatch.setattr(arith, "RHO_STEP_BUDGET", 2000)
    q, r = nextprime(10 ** 12), nextprime(10 ** 13)
    with pytest.raises(FactoringBudgetError) as exc:
        factor(6 * q * r)
    assert exc.value.digits == len(str(q * r))
    assert f"{exc.value.digits}-digit cofactor" in str(exc.value)


def square_class_reference(x: Fraction) -> int:
    n = x.numerator * x.denominator
    rep = 1
    for q, e in factorint(abs(n)).items():
        if e % 2:
            rep *= q
    return rep if n > 0 else -rep


fractions = st.fractions(min_value=-(10 ** 12), max_value=10 ** 12,
                         max_denominator=10 ** 8).filter(bool)


@settings(max_examples=200, deadline=None)
@given(fractions, fractions)
def test_square_class_agrees_with_sympy(x, y):
    a, b = SquareClass.of(x), SquareClass.of(y)
    assert a.representative == square_class_reference(x)
    assert a * b == SquareClass.of(x * y)


@pytest.mark.parametrize("call", [
    lambda: arith.valuation(12, 1),
    lambda: arith.valuation(12, 0),
    lambda: ConstrainedRange((1, 2)).ord_parity(-1),
    lambda: j_pole_order(WeierstrassCurve(0, 0, 1, -1, 0), 1),
])
def test_valuation_below_two_raises_at_once(call):
    # each of these once looped forever; an alarm turns a hang into a failure
    def hang(signum, frame):
        raise TimeoutError("no answer within 1 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(ValueError, match="^valuation needs ell >= 2, got "):
            call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
