"""Quadratic-field splitting against Legendre-symbol and divisibility oracles."""

import pytest

from quatsplit.arith import is_squarefree, primes_up_to
from quatsplit.errors import DisallowedValueError, InvalidInputError, NonSquarefreeError
from quatsplit.classify import Quadratic
from quatsplit.quadratic import SplittingType, splitting_type


def brute_is_square_mod(a: int, p: int) -> bool:
    a %= p
    return a in {x * x % p for x in range(p)}


def test_quadratic_discriminants():
    assert Quadratic(-1).discriminant == -4  # -1 % 4 == 3
    assert Quadratic(-7).discriminant == -7  # -7 % 4 == 1
    assert Quadratic(5).discriminant == 5
    assert Quadratic(2).discriminant == 8
    assert Quadratic(-3).discriminant == -3


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
    for d in range(-60, 61):
        if d in (0, 1) or not is_squarefree(d):
            continue
        disc = Quadratic(d).discriminant
        assert disc % 4 in (0, 1), d


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
    fields = [Quadratic(d) for d in range(-49, 50) if d not in (0, 1) and is_squarefree(d)]
    primes = [p for p in primes_up_to(1000) if p != 2]
    for field in fields:
        for p in primes:
            kind = splitting_type(p, field)
            if field.discriminant % p == 0:
                assert kind is SplittingType.RAMIFIED, (field.d, p)
                # d squarefree, p odd: p | disc iff p | d
                assert field.d % p == 0, (field.d, p)
            elif brute_is_square_mod(field.discriminant, p):
                assert kind is SplittingType.SPLIT, (field.d, p)
            else:
                assert kind is SplittingType.INERT, (field.d, p)
            # ramified at odd p only when p | d
            if field.d % p != 0:
                assert kind is not SplittingType.RAMIFIED, (field.d, p)
