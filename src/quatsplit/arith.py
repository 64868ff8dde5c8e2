"""Exact modular arithmetic: primality, Legendre symbols, totients, orders.

Everything here is a pure function on plain ints.  Inputs that the public
contracts bound to 64 bits are range-checked; Python ints make overflow a
non-issue beyond that.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable

from .errors import EqualPrimesError, InvalidInputError

UINT64_MAX = 2**64 - 1

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Deterministic Miller-Rabin witness tiers; each set is proven complete for
# n below the paired bound, and the last tier covers the whole 64-bit range.
_MR_TIERS = (
    (2047, (2,)),
    (1373653, (2, 3)),
    (9080191, (31, 73)),
    (25326001, (2, 3, 5)),
    (3215031751, (2, 3, 5, 7)),
    (4759123141, (2, 7, 61)),
    (1122004669633, (2, 13, 23, 1662803)),
    (2152302898747, (2, 3, 5, 7, 11)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (2**64, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64 (no probabilistic error)."""
    if n < 0 or n > UINT64_MAX:
        raise InvalidInputError(f"is_prime expects 0 <= n < 2**64, got {n}")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    witnesses: tuple[int, ...] = _MR_TIERS[-1][1]
    for bound, tier in _MR_TIERS:
        if n < bound:
            witnesses = tier
            break
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> None:
    """Raise unless p is a positive prime below 2**64."""
    if p > UINT64_MAX:
        raise InvalidInputError(f"expected a prime below 2**64, got {p}")
    if p < 2 or not is_prime(p):
        raise InvalidInputError(f"expected a positive prime, got {p}")


def require_distinct_primes(p1: int, p2: int) -> None:
    """Raise unless p1, p2 are distinct positive primes."""
    require_prime(p1)
    require_prime(p2)
    if p1 == p2:
        raise EqualPrimesError(f"the two primes must be distinct, got {p1} twice")


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) in {-1, 0, +1} for an odd prime p below 2**64.

    Euler's criterion: a^((p-1)/2) mod p.  Negative a is reduced mod p first.
    """
    if not (3 <= p <= UINT64_MAX and is_prime(p)):
        raise InvalidInputError(f"legendre modulus must be an odd prime below 2**64, got {p}")
    return legendre_unchecked(a, p)


def legendre_unchecked(a: int, p: int) -> int:
    """legendre(a, p) for a p that the caller has already proved an odd prime."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1, ascending primes; bounded time for n < 2**64.

    Trial division by 2, 3 and 6k +- 1 runs while f*f <= min(n, 2**32), so
    below 2**32 it is all there is.  A cofactor n >= f*f left after it has
    no prime below 2**16, so at most three prime factors, which
    _prime_factors finds.  A cofactor of 2**64 or more raises
    InvalidInputError.
    """
    if n < 1:
        raise InvalidInputError(f"factorize expects n >= 1, got {n}")
    argument, factors = n, []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
    limit = n if n < 2**32 else 2**32
    f = 5
    while f * f <= limit:
        for p in (f, f + 2):
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                factors.append((p, e))
                limit = n if n < 2**32 else 2**32
        f += 6
    if n > UINT64_MAX:
        raise InvalidInputError(f"factorize expects a cofactor below 2**64 after trial division, got {argument}")
    if n >= f * f:
        factors += sorted(Counter(_prime_factors(n)).items())
    elif n > 1:
        factors.append((n, 1))
    return factors


def _prime_factors(n: int) -> list[int]:
    """The primes of n > 1 with multiplicity, for n < 2**64 with no prime below 2**16.

    is_prime proves a prime n.  A composite one is split by Pollard's rho
    with Floyd's cycle test (Cohen, A Course in Computational Algebraic
    Number Theory, 8.5): the walk x -> x*x + c mod n repeats mod a prime q
    of n after about sqrt(q) <= 2**16 steps.  A walk that repeats mod n at
    the same time finds no factor, and the next c is tried.
    """
    if is_prime(n):
        return [n]
    c, d = 0, n
    while d == n:
        c += 1
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(x - y, n)
    return _prime_factors(d) + _prime_factors(n // d)


def euler_phi(n: int) -> int:
    """Euler's totient: count of 1 <= k <= n coprime to n."""
    if n < 1:
        raise InvalidInputError(f"euler_phi expects n >= 1, got {n}")
    phi = 1
    for p, e in factorize(n):
        phi *= p ** (e - 1) * (p - 1)
    return phi


def order_dividing(a: int, n: int, f: int, primes: Iterable[int]) -> int:
    """The multiplicative order of a mod n, from a multiple f of it and the primes of f.

    The caller vouches that a**f == 1 (mod n) and that primes lists every
    prime dividing f.  Each prime q of f is divided out while a**(f/q) stays
    1 (Cohen, Alg. 1.4.3), so only O(log f) pow calls are left.
    """
    for q in primes:
        while f % q == 0 and pow(a, f // q, n) == 1:
            f //= q
    return f


def primes_up_to(n: int) -> list[int]:
    """Ascending primes <= n (sieve of Eratosthenes)."""
    if n < 2:
        return []
    sieve = bytearray((1,)) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(2, n + 1) if sieve[p]]
