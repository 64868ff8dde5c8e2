"""Modular-arithmetic primitives against brute-force oracles."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quatsplit.arith as arith_module
from quatsplit.arith import euler_phi, factorize, is_prime, legendre, primes_up_to, require_prime
from quatsplit.classify import Quadratic
from quatsplit.cyclotomic import canonical_n, factorization_shape
from quatsplit.errors import InvalidInputError, NonSquarefreeError


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
    # a modulus past 2**64 is named as legendre's, not as is_prime's argument
    with pytest.raises(InvalidInputError, match=r"^legendre modulus .* below 2\*\*64, got 18446744073709551629$") as info:
        legendre(3, 2**64 + 13)
    assert "is_prime" not in str(info.value)


def test_require_prime_bounds_its_argument():
    for p in (9, 1, 0, -7):
        with pytest.raises(InvalidInputError, match=f"^expected a positive prime, got {p}$"):
            require_prime(p)
    with pytest.raises(InvalidInputError, match=r"^expected a prime below 2\*\*64, got 18446744073709551629$") as info:
        require_prime(2**64 + 13)
    assert "is_prime" not in str(info.value)


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


def _assert_factorization(n, factors):
    """factors is n's factorization: ascending primes, exponents >= 1, product n."""
    primes = [q for q, _ in factors]
    assert primes == sorted(set(primes)), n
    assert all(is_prime(q) and e >= 1 for q, e in factors), n
    assert math.prod(q**e for q, e in factors) == n


def test_factorize_exhaustive():
    for n in range(1, 30_000):
        _assert_factorization(n, factorize(n))


@settings(max_examples=200, deadline=2000, database=None)
@given(st.integers(min_value=1, max_value=2**64 - 1))
def test_factorize_64_bit_property(n):
    _assert_factorization(n, factorize(n))


def test_factorize_64_bit():
    """Bounded time below 2**64: trial division stops at 2**16, then is_prime and Pollard's rho."""
    largest = 2**64 - 59  # the largest prime below 2**64
    assert factorize(largest) == [(largest, 1)]
    assert factorize(1000000000000000003) == [(1000000000000000003, 1)]
    assert factorize(2_642_239**3) == [(2_642_239, 3)]  # the largest prime cube below 2**64
    assert factorize((2**31 - 1) ** 2) == [(2**31 - 1, 2)]
    assert factorize((2**32 - 5) ** 2) == [(2**32 - 5, 2)]
    assert factorize((2**32 - 5) * (2**32 - 17)) == [(2**32 - 17, 1), (2**32 - 5, 1)]  # two 32-bit primes
    assert factorize(2**64 - 1) == [(3, 1), (5, 1), (17, 1), (257, 1), (641, 1), (65537, 1), (6700417, 1)]
    # l**k, and the exact factorization of l**k - 1
    one_less = {
        (2, 63): [(7, 2), (73, 1), (127, 1), (337, 1), (92737, 1), (649657, 1)],
        (3, 40): [(2, 5), (5, 2), (11, 2), (41, 1), (61, 1), (1181, 1), (42521761, 1)],
        (7, 22): [(2, 4), (3, 1), (23, 1), (1123, 1), (293459, 1), (10746341, 1)],
        (65521, 4): [(2, 6), (3, 2), (5, 1), (7, 1), (13, 1), (37, 1), (181, 2), (569, 1), (101957, 1)],
        (2642239, 3): [(2, 1), (3, 3), (181, 1), (811, 1), (1087, 1), (2140886101, 1)],
        (2**31 - 1, 2): [(2, 32), (3, 2), (7, 1), (11, 1), (31, 1), (151, 1), (331, 1)],
        (2**32 - 5, 2): [(2, 3), (3, 2), (5, 1), (7, 1), (11, 1), (19, 1), (31, 1), (151, 1), (331, 1), (22605091, 1)],
    }
    for (ell, k), factors in one_less.items():
        assert factorize(ell**k) == [(ell, k)]
        assert factorize(ell**k - 1) == factors
        _assert_factorization(ell**k - 1, factors)
    assert factorize(2**70) == [(2, 70)]
    with pytest.raises(InvalidInputError):
        factorize(0)
    with pytest.raises(InvalidInputError):
        factorize(2**64 + 13)  # a prime: its cofactor after trial division is 2**64 or more
    # the error names factorize's argument, not the cofactor it could not prove prime
    with pytest.raises(InvalidInputError, match=f"^factorize expects .* got {2 * (2**64 + 13)}$"):
        factorize(2 * (2**64 + 13))


def test_factorize_below_2_32_is_trial_division(monkeypatch):
    """Below 2**32 nothing but trial division runs: no primality test is called."""
    calls = []
    monkeypatch.setattr(arith_module, "is_prime", lambda n: calls.append(n) or True)
    for n in (2**32 - 1, 2**32 - 5, 65521**2, 65519 * 65521, 2**31 - 1, 10**7 - 1):
        _assert_factorization(n, factorize(n))
    assert calls == []
    factorize(2**64 - 59)
    assert calls  # above 2**32 the cofactor is proved prime


def test_factorize_and_squarefree():
    assert factorize(1) == []
    assert factorize(7918) == [(2, 1), (37, 1), (107, 1)]
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert Quadratic(-7).d == -7 and Quadratic(30).d == 30
    for d in (12, -45):
        with pytest.raises(NonSquarefreeError):
            Quadratic(d)
