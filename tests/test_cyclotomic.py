"""Cyclotomic factorization shapes against order/totient oracles."""

import pytest

from quatsplit.arith import euler_phi, primes_up_to
from quatsplit.cyclotomic import canonical_n, factorization_shape
from quatsplit.errors import InvalidInputError
from quatsplit.quadratic import SplittingType, make_quadratic, splitting_type


def brute_order(a: int, n: int) -> int:
    x, f = a % n, 1
    while x != 1:
        x = x * a % n
        f += 1
    return f


CANONICAL = [n for n in range(3, 101) if n % 4 != 2]


def test_canonical_n():
    assert canonical_n(6) == 3
    assert canonical_n(10) == 5
    assert canonical_n(12) == 12
    assert canonical_n(14) == 7
    assert canonical_n(54) == 27
    with pytest.raises(InvalidInputError):
        canonical_n(2)


def test_canonical_n_idempotent():
    for n in range(3, 500):
        assert canonical_n(canonical_n(n)) == canonical_n(n)
        assert canonical_n(n) % 4 != 2


def test_factorization_shape_pinned():
    assert brute_order(2, 7) == 3
    shape = factorization_shape(2, 7)
    assert (shape.e, shape.f, shape.g) == (1, 3, 2)
    # 29 = 4*7 + 1 splits completely
    shape = factorization_shape(29, 7)
    assert (shape.e, shape.f, shape.g) == (1, 1, 6)
    # 3 is totally ramified in Q(zeta_9)
    shape = factorization_shape(3, 9)
    assert (shape.e, shape.f, shape.g) == (6, 1, 1)
    # mixed case: 3 | 12, residual part 4
    shape = factorization_shape(3, 12)
    assert (shape.e, shape.f, shape.g) == (2, 2, 1)
    # 2 | 8
    shape = factorization_shape(2, 8)
    assert (shape.e, shape.f, shape.g) == (4, 1, 1)


def test_factorization_shape_rejects_non_canonical():
    with pytest.raises(InvalidInputError):
        factorization_shape(3, 10)


def test_shape_product_sweep():
    """e*f*g = phi(n) for all primes < 1000 and canonical n <= 100; p not
    dividing n gives e = 1 and f the brute-force order of p mod n."""
    primes = primes_up_to(1000)
    for n in CANONICAL:
        phi = euler_phi(n)
        for p in primes:
            shape = factorization_shape(p, n)
            assert shape.e * shape.f * shape.g == phi, (p, n)
            if n % p != 0:
                assert shape.e == 1, (p, n)
                assert shape.f == brute_order(p, n), (p, n)


def test_splits_completely_sweep():
    """p splits completely in Q(zeta_n), shape (1, 1, phi(n)), iff p ≡ 1 (mod n)."""
    primes = primes_up_to(1000)
    for n in CANONICAL:
        phi = euler_phi(n)
        for p in primes:
            shape = factorization_shape(p, n)
            assert ((shape.e, shape.f, shape.g) == (1, 1, phi)) == (p % n == 1), (p, n)


def test_tower_consistency_with_quadratic_subfield():
    """A prime that splits completely in Q(zeta_l) splits in the quadratic
    subfield Q(sqrt(+-l)) sitting inside it (+l for l ≡ 1, -l for l ≡ 3 mod 4)."""
    primes = primes_up_to(1000)
    for ell in (3, 5, 7, 11, 19, 23):
        field = make_quadratic(ell if ell % 4 == 1 else -ell)
        for p in primes:
            shape = factorization_shape(p, ell)
            if shape.e == 1 and shape.f == 1:
                assert splitting_type(p, field) is SplittingType.SPLIT, (p, ell)
