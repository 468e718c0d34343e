"""Primality, the checks on integer arguments, and budgeted factoring.

is_prime runs strong Miller-Rabin tests to the first 13 prime bases.  No
composite below PSI_13 = 3317044064679887385961981 passes all of them
(Sorenson and Webster, Math. Comp. 86 (2017)), so below that bound the
answer is proven.  From PSI_13 on, a strong Lucas test with Selfridge's
parameters follows, which makes the whole a strengthened Baillie-PSW test
(Baillie and Wagstaff, Math. Comp. 35 (1980)); it has no known
counterexample.

check_prime and check_positive admit a caller's integer: an int, not a
bool, that is a prime of at most PRIME_MAX_DIGITS digits (the bound checked
first) or at least 1 (`is_positive_int`, which `ConstrainedRange` also
applies to its members).  Each raises the caller's error class and names
a rejected value through `brief`.

factor strips the primes below TRIAL_BOUND by trial division and splits
what is left with Pollard-Brent rho (Brent, BIT 20 (1980)).  Its work is
capped, so no input can make a caller hang: a cofactor past
PRIME_MAX_DIGITS digits is refused before primality, and the rho steps of
one call may cost at most RHO_STEP_BUDGET steps on an operand of
RHO_UNIT_BITS bits, a step on a larger operand being charged as the
square of its size.  Past either cap, FactoringBudgetError names the size
of the cofactor left.  Rho finds a prime q in about sqrt(q) steps, so every
integer whose cofactor after trial division has at most RHO_UNIT_BITS bits
(96 digits) and whose second-largest prime factor is below about 10^11
factors within the cap.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt

MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to every base in MR_BASES
PSI_13 = 3317044064679887385961981

# The most digits a prime argument, or a cofactor that factor tests for
# primality, may have.  In one process is_prime took 0.19 s on the prime
# 10^499 + 153, 0.46 s on 2^2203 - 1 (664 digits) and 1.48 s on 2^3217 - 1
# (969 digits) (2-core Xeon, Python 3.11).
PRIME_MAX_DIGITS = 500
_PRIME_LIMIT = 10 ** PRIME_MAX_DIGITS

TRIAL_BOUND = 1000
RHO_STEP_BUDGET = 1 << 20
# A rho step on an operand of b bits is charged ceil((b / RHO_UNIT_BITS)^2)
# steps of the budget.  One step took 1.4 us at 96 digits, 4.1 us at 200
# and 16 us at 500, so the whole budget is about 1.5 s at any size.
RHO_UNIT_BITS = 320
# rho steps between two gcd tests
_RHO_BATCH = 128

# Stand-in for the valuation of 0; larger than any valuation that can occur.
BIG = 10 ** 9


class FactoringBudgetError(ValueError):
    """A cofactor past PRIME_MAX_DIGITS digits, or one that Pollard rho did
    not split within its budget."""

    def __init__(self, digits: int):
        self.digits = digits
        why = (f"has more than the {PRIME_MAX_DIGITS} digits that factor tries"
               if digits > PRIME_MAX_DIGITS else
               f"did not factor within the work of {RHO_STEP_BUDGET} Pollard rho steps")
        super().__init__(f"a {digits}-digit cofactor {why}")


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


def digits(n: int) -> int:
    """The number of decimal digits of |n|, 0 for 0, counted without str,
    which refuses an int past Python's limit (4300 digits by default)."""
    n = abs(n)
    d = n.bit_length() * 30103 // 100000 + 1  # 0.30103 is just above log10(2)
    return d - (n < 10 ** (d - 1))


def brief(n) -> str:
    """n as it reads, an int in digits and anything else by repr, so that
    "5" does not read as 5, or its size past 40 characters: no message
    echoes a huge token, and none formats an int past Python's limit."""
    if isinstance(n, int):
        if not -10 ** 39 < n < 10 ** 40:
            return f"<{digits(n)} digits>"
        text = str(n)
    else:
        text = repr(n)
    return text if len(text) <= 40 else f"<{len(text)} characters>"


def check_prime(n, name: str, error: type[Exception], least: int = 2) -> None:
    """Raise error unless n is an int, not a bool, and a prime >= least (2, 3
    or 5) of at most PRIME_MAX_DIGITS digits; the bound is checked first."""
    if isinstance(n, int) and not isinstance(n, bool) and n >= least:
        if n >= _PRIME_LIMIT:
            raise error(f"{name} has {digits(n)} digits, more than the "
                        f"{PRIME_MAX_DIGITS} a prime argument may have")
        if is_prime(n):
            return
    words = {2: "prime", 3: "an odd prime", 5: "a prime >= 5"}[least]
    raise error(f"{name} must be {words}, got {brief(n)}")


def is_positive_int(n) -> bool:
    """Whether n is an int, not a bool, and at least 1."""
    return isinstance(n, int) and not isinstance(n, bool) and n >= 1


def check_positive(n, name: str, error: type[Exception]) -> None:
    """Raise error unless n is a positive integer (`is_positive_int`)."""
    if not is_positive_int(n):
        raise error(f"{name} must be a positive integer, got {brief(n)}")


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
                raise FactoringBudgetError(digits(n))
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            steps -= r
            k = 0
            while k < r and g == 1:
                if steps <= 0:
                    raise FactoringBudgetError(digits(n))
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
    FactoringBudgetError when the cofactor after trial division has more
    than PRIME_MAX_DIGITS digits, or when rho runs past its budget."""
    check_positive(n, "n", ValueError)
    factors, rest = trial_divide(n)
    if rest >= _PRIME_LIMIT:
        raise FactoringBudgetError(digits(rest))
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
        cost = -(-m.bit_length() ** 2 // RHO_UNIT_BITS ** 2)  # ceil((bits / unit)^2)
        d, left = _rho(m, steps // cost)
        steps -= (steps // cost - left) * cost
        pending += [(d, e), (m // d, e)]
    return dict(sorted(factors.items()))
