"""Quadratic-field splitting against Legendre-symbol and divisibility oracles."""

import math

import pytest

from quatsplit.arith import primes_up_to
from quatsplit.errors import DisallowedValueError, InvalidInputError, NonSquarefreeError
from quatsplit.classify import Quadratic
from quatsplit.quadratic import SplittingType, splitting_type


def brute_is_square_mod(a: int, p: int) -> bool:
    a %= p
    return a in {x * x % p for x in range(p)}


def _squarefree(bound: int) -> list[int]:
    """The squarefree d with 0 < |d| <= bound, d != 1, ascending: a sieve by the squares k*k <= bound."""
    free = bytearray((1,)) * (bound + 1)
    for k in range(2, math.isqrt(bound) + 1):
        free[k * k :: k * k] = bytearray(len(free[k * k :: k * k]))
    return [d for d in range(-bound, bound + 1) if d not in (0, 1) and free[abs(d)]]


def _discriminant(d: int) -> int:
    """The discriminant of Q(sqrt d): d when d % 4 == 1, else 4d."""
    return d if d % 4 == 1 else 4 * d


def test_quadratic_discriminants():
    """The primes that ramify in Q(sqrt d) are those of its discriminant."""
    # -1 % 4 == 3 and -7 % 4 == 1
    for d, disc in ((-1, -4), (-7, -7), (5, 5), (2, 8), (-3, -3), (-30, -120)):
        assert _discriminant(d) == disc
        ramified = {p for p in primes_up_to(100) if splitting_type(p, Quadratic(d)) is SplittingType.RAMIFIED}
        assert ramified == {p for p in primes_up_to(100) if disc % p == 0}, d


def test_quadratic_rejects_bad_d():
    with pytest.raises(NonSquarefreeError):
        Quadratic(12)
    with pytest.raises(NonSquarefreeError):
        Quadratic(-45)
    with pytest.raises(DisallowedValueError):
        Quadratic(0)
    with pytest.raises(DisallowedValueError):
        Quadratic(1)
    for d in (2**64, -(2**64), 2**64 + 1):
        with pytest.raises(InvalidInputError):
            Quadratic(d)
    assert Quadratic(-(2**64 - 1)).d == -(2**64 - 1)  # 3 * 5 * 17 * 257 * 641 * 65537 * 6700417


def test_discriminant_residues():
    """The discriminant is 1 mod 4 exactly when 2 is unramified, 0 mod 4 when it ramifies."""
    for d in _squarefree(60):
        ramified = splitting_type(2, Quadratic(d)) is SplittingType.RAMIFIED
        assert _discriminant(d) % 4 == (0 if ramified else 1), d


def test_quadratic_squarefree_check_matches_sieve():
    """Quadratic(d) is made exactly for the squarefree d, and raises NonSquarefreeError for the rest."""
    bound = 30_000
    free = set(_squarefree(bound))
    for d in range(-bound, bound + 1):
        if d in (0, 1):
            continue
        if d in free:
            assert Quadratic(d).d == d
        else:
            with pytest.raises(NonSquarefreeError):
                Quadratic(d)


def test_quadratic_squarefree_check_64_bit():
    """The squarefree verdicts near 2**64, where a cofactor is left after trial division."""
    largest = 2**64 - 59  # the largest prime below 2**64
    for d in (largest, -largest, 1000000000000000003, (2**32 - 5) * (2**32 - 17), 2**64 - 1):
        assert Quadratic(d).d == d
    for d in ((2**32 - 5) ** 2, 2_642_239**3, (2**31 - 1) ** 2):
        with pytest.raises(NonSquarefreeError):
            Quadratic(d)
    # q**2, q*q' and their small multiples, q a prime near 10**6
    q, q2 = 999_983, 1_000_003
    for cofactor in (q * q, q * q2, q2 * q2, q, q * 1_000_033):
        for k in (1, 2, 3, 4, 6, 25, 30, 49, 997):
            d = -cofactor * k
            if cofactor in (q * q, q2 * q2) or k in (4, 25, 49):
                with pytest.raises(NonSquarefreeError):
                    Quadratic(d)
            else:
                assert Quadratic(d).d == d


def test_splitting_type_pinned():
    assert splitting_type(5, Quadratic(-1)) is SplittingType.SPLIT
    assert splitting_type(2, Quadratic(-1)) is SplittingType.RAMIFIED  # d % 4 == 3
    assert splitting_type(2, Quadratic(17)) is SplittingType.SPLIT  # d % 8 == 1
    assert splitting_type(2, Quadratic(5)) is SplittingType.INERT  # d % 8 == 5
    assert splitting_type(2, Quadratic(2)) is SplittingType.RAMIFIED  # d % 4 == 2
    assert splitting_type(3, Quadratic(-3)) is SplittingType.RAMIFIED
    assert splitting_type(7, Quadratic(-7)) is SplittingType.RAMIFIED


def test_splitting_type_rejects_non_prime():
    with pytest.raises(InvalidInputError):
        splitting_type(6, Quadratic(-1))


def test_odd_prime_splitting_exhaustive():
    """Trichotomy plus agreement with a brute quadratic-residue oracle."""
    fields = [Quadratic(d) for d in _squarefree(49)]
    primes = [p for p in primes_up_to(1000) if p != 2]
    for field in fields:
        for p in primes:
            kind = splitting_type(p, field)
            if _discriminant(field.d) % p == 0:
                assert kind is SplittingType.RAMIFIED, (field.d, p)
                # d squarefree, p odd: p | disc iff p | d
                assert field.d % p == 0, (field.d, p)
            elif brute_is_square_mod(_discriminant(field.d), p):
                assert kind is SplittingType.SPLIT, (field.d, p)
            else:
                assert kind is SplittingType.INERT, (field.d, p)
            # ramified at odd p only when p | d
            if field.d % p != 0:
                assert kind is not SplittingType.RAMIFIED, (field.d, p)
