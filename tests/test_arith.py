"""Modular-arithmetic primitives against brute-force oracles."""

import math
import random

import pytest

from quatsplit.arith import (
    euler_phi,
    factorize,
    is_prime,
    is_squarefree,
    legendre,
    prime_power,
    primes_up_to,
)
from quatsplit.cyclotomic import canonical_n, factorization_shape
from quatsplit.errors import InvalidInputError


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def brute_legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if a in {x * x % p for x in range(1, p)} else -1


def test_is_prime_pinned():
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(0)
    # 7918 = 2 * 37 * 107
    assert 2 * 37 * 107 == 7918 and not is_prime(7918)
    assert is_prime(2**31 - 1)
    assert not is_prime(561)  # Carmichael
    assert not is_prime(3825123056546413051)  # strong pseudoprime to many bases


def test_is_prime_matches_trial_division():
    for n in range(10_000):
        assert is_prime(n) == trial_division_is_prime(n), n


def test_is_prime_range_checks():
    with pytest.raises(InvalidInputError):
        is_prime(-1)
    with pytest.raises(InvalidInputError):
        is_prime(2**64)
    assert not is_prime(2**64 - 1)


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert len(primes_up_to(200)) == 46
    assert len(primes_up_to(500)) == 95


def test_legendre_pinned():
    assert {x * x % 7 for x in range(1, 7)} == {1, 2, 4}
    assert legendre(2, 7) == 1
    assert legendre(14, 7) == 0
    assert legendre(-1, 5) == 1  # (-1)^((5-1)/2) = 1
    assert legendre(3, 7) == -1


def test_legendre_matches_brute_force():
    for p in primes_up_to(100):
        if p == 2:
            continue
        for a in range(-p, 2 * p + 1):
            assert legendre(a, p) == brute_legendre(a, p), (a, p)


def test_legendre_rejects_bad_modulus():
    for p in (2, 9, 1, 0, -7, 15):
        with pytest.raises(InvalidInputError):
            legendre(3, p)


def test_legendre_multiplicativity():
    rng = random.Random(0xA1)
    odd_primes = [p for p in primes_up_to(500) if p != 2]
    for _ in range(10_000):
        p = rng.choice(odd_primes)
        a = rng.randrange(1, 10**6)
        b = rng.randrange(1, 10**6)
        if a % p == 0 or b % p == 0:
            continue
        assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_legendre_reciprocity():
    odd_primes = [p for p in primes_up_to(150) if p != 2]
    for p in odd_primes:
        for q in odd_primes:
            if p == q:
                continue
            expected = (-1) ** ((p - 1) // 2 * ((q - 1) // 2))
            assert legendre(p, q) * legendre(q, p) == expected, (p, q)


def test_legendre_supplements():
    for p in primes_up_to(1000):
        if p == 2:
            continue
        assert legendre(-1, p) == (-1) ** ((p - 1) // 2)
        assert legendre(2, p) == (-1) ** ((p * p - 1) // 8)


def test_legendre_periodicity():
    rng = random.Random(0xA2)
    odd_primes = [p for p in primes_up_to(300) if p != 2]
    for _ in range(10_000):
        p = rng.choice(odd_primes)
        a = rng.randrange(-(10**6), 10**6)
        k = rng.randrange(-5, 6)
        assert legendre(a, p) == legendre(a + k * p, p)


def test_euler_phi_pinned():
    assert euler_phi(9) == 6
    assert euler_phi(8) == 4
    assert euler_phi(1) == 1


def test_euler_phi_matches_gcd_count():
    for n in range(1, 500):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1), n


# The residual degree f of a prime p not dividing n is the multiplicative
# order of p mod n, which cyclotomic computes from phi(n).


def test_multiplicative_order_pinned():
    # powers of 2 mod 7: 2, 4, 1
    assert factorization_shape(2, 7).f == 3
    assert factorization_shape(13, 12).f == 1
    # powers of 2 mod 9: 2, 4, 8, 7, 5, 1
    assert factorization_shape(2, 9).f == 6


def test_multiplicative_order_divides_phi():
    rng = random.Random(0xA3)
    primes = primes_up_to(2000)
    checked = 0
    while checked < 10_000:
        n = canonical_n(rng.randrange(3, 2000))
        p = rng.choice(primes)
        if n % p == 0:
            continue
        assert euler_phi(n) % factorization_shape(p, n).f == 0, (p, n)
        checked += 1


def test_multiplicative_order_matches_stepping():
    """The order from phi(n) equals the first power that steps back to 1."""
    for n in range(3, 400):
        if n % 4 == 2:
            continue
        for p in primes_up_to(60):
            if n % p == 0:
                continue
            x, f = p % n, 1
            while x != 1:
                x = x * p % n
                f += 1
            assert factorization_shape(p, n).f == f, (p, n)


def test_prime_power_matches_factorize():
    for n in range(20_000):
        factors = factorize(n) if n else []
        assert prime_power(n) == (factors[0] if len(factors) == 1 else None), n


def test_prime_power_64_bit():
    """Up to 2**64 without trial division: the float root must round to the exact one."""
    largest = 2**64 - 59  # the largest prime below 2**64
    assert prime_power(largest) == (largest, 1)
    assert prime_power(1000000000000000003) == (1000000000000000003, 1)
    for ell, k in ((2, 63), (3, 40), (7, 22), (65521, 4), (2642239, 3), (2**31 - 1, 2), (2**32 - 5, 2)):
        assert prime_power(ell**k) == (ell, k)
        assert prime_power(ell**k - 1) is None  # each has two distinct prime factors
    assert prime_power((2**32 - 5) * (2**32 - 17)) is None  # two 32-bit primes
    assert prime_power(2**64 - 1) is None
    with pytest.raises(InvalidInputError):
        prime_power(2**64)


def test_factorize_and_squarefree():
    assert factorize(1) == []
    assert factorize(7918) == [(2, 1), (37, 1), (107, 1)]
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert is_squarefree(-7) and is_squarefree(30)
    assert not is_squarefree(12) and not is_squarefree(-45)
    with pytest.raises(InvalidInputError):
        is_squarefree(0)


def _squarefree_by_factorize(n: int) -> bool:
    return all(e == 1 for _, e in factorize(abs(n)))


def test_is_squarefree_matches_factorize():
    """Trial division up to the cube root, then a square test, decides as full factoring does."""
    for n in range(1, 30_000):
        assert is_squarefree(n) is _squarefree_by_factorize(n), n
        assert is_squarefree(-n) is is_squarefree(n), n
    # the cofactor left after trial division: q**2, q*q' and their small multiples, q near 10**6
    q, q2 = 999_983, 1_000_003
    for cofactor in (q * q, q * q2, q2 * q2, q, q * 1_000_033):
        for k in (1, 2, 3, 4, 6, 25, 30, 49, 997):
            assert is_squarefree(cofactor * k) is _squarefree_by_factorize(cofactor * k), (cofactor, k)


def test_is_squarefree_64_bit():
    """Bounded work below 2**64: trial division stops at the cube root."""
    largest = 2**64 - 59  # the largest prime below 2**64
    assert is_squarefree(largest) and is_squarefree(-largest)
    assert is_squarefree(1000000000000000003)
    assert not is_squarefree((2**32 - 5) ** 2)
    assert is_squarefree((2**32 - 5) * (2**32 - 17))
    assert not is_squarefree(2_642_239**3)  # trial division reaches the largest prime cube below 2**64
    assert is_squarefree(2**64 - 1)  # 3 * 5 * 17 * 257 * 641 * 65537 * 6700417
