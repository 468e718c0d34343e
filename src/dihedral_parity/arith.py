"""Primality testing and budgeted factoring of integers.

is_prime runs strong Miller-Rabin tests to the first 13 prime bases.  No
composite below PSI_13 = 3317044064679887385961981 passes all of them
(Sorenson and Webster, Math. Comp. 86 (2017)), so below that bound the
answer is proven.  From PSI_13 on, a strong Lucas test with Selfridge's
parameters follows, which makes the whole a strengthened Baillie-PSW test
(Baillie and Wagstaff, Math. Comp. 35 (1980)); it has no known
counterexample.

factor strips the primes below TRIAL_BOUND by trial division and splits
what is left with Pollard-Brent rho (Brent, BIT 20 (1980)).  The rho steps
of one call are capped at RHO_STEP_BUDGET, so no input can make a caller
hang: past the cap, FactoringBudgetError names the size of the cofactor
left.  Rho finds a prime q in about sqrt(q) steps, so every integer whose
second-largest prime factor is below about 10^11 factors within the cap.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt

MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to every base in MR_BASES
PSI_13 = 3317044064679887385961981

TRIAL_BOUND = 1000
RHO_STEP_BUDGET = 1 << 20
# rho steps between two gcd tests
_RHO_BATCH = 128

# Stand-in for the valuation of 0; larger than any valuation that can occur.
BIG = 10 ** 9


class FactoringBudgetError(ValueError):
    """Pollard rho used up its step budget on a composite cofactor."""

    def __init__(self, digits: int):
        self.digits = digits
        super().__init__(f"a {digits}-digit cofactor did not factor within "
                         f"{RHO_STEP_BUDGET} Pollard rho steps")


def _primes_below(n: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for q in range(2, isqrt(n - 1) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, n, q)))
    return tuple(q for q in range(n) if sieve[q])


_TRIAL_PRIMES = _primes_below(TRIAL_BOUND)


# --- primality ---------------------------------------------------------------

def _strong_probable_prime(n: int, a: int, d: int, s: int) -> bool:
    """Strong Fermat test of odd n to base a, where n - 1 = d 2^s, d odd."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a / n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def valuation(x: int, ell: int) -> int:
    """ord_ell(x), with ord_ell(0) = BIG, for ell >= 2."""
    if ell < 2:
        raise ValueError(f"valuation needs ell >= 2, got {ell}")
    if x == 0:
        return BIG
    v = 0
    while x % ell == 0:
        x //= ell
        v += 1
    return v


def _half(x: int, n: int) -> int:
    """x / 2 modulo odd n."""
    x %= n
    return (x + n if x & 1 else x) // 2


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test of odd n > 41^2 with Selfridge's parameters: D is
    the first of 5, -7, 9, -11, ... with (D / n) = -1, P = 1, Q = (1 - D)/4."""
    if isqrt(n) ** 2 == n:
        return False  # no such D exists for a square
    D = 5
    while True:
        j = jacobi(D, n)
        if j == -1:
            break
        if j == 0:
            return False  # |D| < n shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k, Q^k from k = 1 up to k = d along the bits of d
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V = U * V % n, (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = _half(U + V, n), _half(D * U + V, n)
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


# Groups and local settings test the same few p and ell thousands of times.
# The cache is typed, so 5.0 and True do not hit the entries of 5 and 1.
@lru_cache(maxsize=64, typed=True)
def is_prime(n: int) -> bool:
    """Whether the integer n is prime; proven below PSI_13, Baillie-PSW above."""
    if not isinstance(n, int):
        raise ValueError(f"{n!r} is not an integer")
    if n < 2:
        return False
    for q in MR_BASES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:
        return True  # no prime factor below 43
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if not all(_strong_probable_prime(n, a, d, s) for a in MR_BASES):
        return False
    return n < PSI_13 or _strong_lucas_probable_prime(n)


# --- factoring ---------------------------------------------------------------

def trial_divide(n: int) -> tuple[dict[int, int], int]:
    """({prime: exponent} over the primes below TRIAL_BOUND, cofactor) of n >= 1."""
    factors: dict[int, int] = {}
    for q in _TRIAL_PRIMES:
        if q * q > n:
            break
        if n % q == 0:
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            factors[q] = e
    if 1 < n < TRIAL_BOUND ** 2:
        factors[n] = 1  # no factor below TRIAL_BOUND, so prime
        n = 1
    return factors, n


def _rho(n: int, steps: int) -> tuple[int, int]:
    """(a proper divisor of the composite non-square n, steps left), by
    Pollard-Brent rho with x -> x^2 + c for c = 1, 2, ... in turn."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if steps < r:
                raise FactoringBudgetError(len(str(n)))
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            steps -= r
            k = 0
            while k < r and g == 1:
                if steps <= 0:
                    raise FactoringBudgetError(len(str(n)))
                ys = y
                batch = min(_RHO_BATCH, r - k, steps)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += batch
                steps -= batch
            r *= 2
        if g == n:
            # the last batch met the cycle: redo it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g, steps


def factor(n: int) -> dict[int, int]:
    """{prime: exponent} of the integer n >= 1, primes ascending.  Raises
    FactoringBudgetError when rho runs past RHO_STEP_BUDGET steps."""
    if n < 1:
        raise ValueError(f"can only factor positive integers, got {n}")
    factors, rest = trial_divide(n)
    steps = RHO_STEP_BUDGET
    pending = [(rest, 1)] if rest > 1 else []
    while pending:
        m, e = pending.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + e
            continue
        root = isqrt(m)
        if root * root == m:
            pending.append((root, 2 * e))
            continue
        d, steps = _rho(m, steps)
        pending += [(d, e), (m // d, e)]
    return dict(sorted(factors.items()))
