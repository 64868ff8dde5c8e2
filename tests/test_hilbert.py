"""Local Hilbert symbols, ramified places, and the discriminant fast path."""

import random
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatsplit.arith import is_prime, primes_up_to
from quatsplit.errors import EqualPrimesError, InvalidInputError
from quatsplit.hilbert import (
    INFINITE_PLACE,
    Place,
    discriminant_fast_path,
    hilbert_symbol,
    prime_pair_symbols,
    ramified_places,
)

DYADIC = Place(2)


def test_place_basics():
    assert str(Place(7)) == "7"
    assert str(INFINITE_PLACE) == "inf"
    assert Place(7).prime == 7 and INFINITE_PLACE.prime is None
    for prime in (6, 1, -7):
        with pytest.raises(InvalidInputError):
            Place(prime)
    with pytest.raises(InvalidInputError, match=r"^finite places .* below 2\*\*64, got 18446744073709551629$") as info:
        Place(2**64 + 13)
    assert "is_prime" not in str(info.value)


def test_infinite_place_sign_rule():
    assert hilbert_symbol(3, 7, INFINITE_PLACE) == 1
    assert hilbert_symbol(-3, 7, INFINITE_PLACE) == 1
    assert hilbert_symbol(3, -7, INFINITE_PLACE) == 1
    assert hilbert_symbol(-3, -7, INFINITE_PLACE) == -1


def test_odd_place_pinned():
    # (3, 7)_3 reduces to (7 | 3) = (1 | 3) = +1
    assert hilbert_symbol(3, 7, Place(3)) == 1
    # (3, 7)_7 = (3 | 7) = -1
    assert hilbert_symbol(3, 7, Place(7)) == -1
    # (5, 3)_5 = (3 | 5) = -1
    assert hilbert_symbol(5, 3, Place(5)) == -1
    # unit-unit at odd p is always +1
    assert hilbert_symbol(3, 5, Place(7)) == 1
    # square valuations drop out: (9, 7)_3 = +1
    assert hilbert_symbol(9, 7, Place(3)) == 1
    # both ramified: (3, 3)_3 = (-1 * 3^2, ...) -> (-1)^eps(3) * ... = (-1|3) = -1
    assert hilbert_symbol(3, 3, Place(3)) == -1


# (u, w)_2 for odd units: -1 exactly when u = w = 3 (mod 4).
UNIT_TABLE = {
    (1, 1): 1, (1, 3): 1, (1, 5): 1, (1, 7): 1,
    (3, 1): 1, (3, 3): -1, (3, 5): 1, (3, 7): -1,
    (5, 1): 1, (5, 3): 1, (5, 5): 1, (5, 7): 1,
    (7, 1): 1, (7, 3): -1, (7, 5): 1, (7, 7): -1,
}

# (2u, w)_2: the extra factor of 2 contributes (-1)^omega(w), where
# omega(w) = 1 exactly when w = 3 or 5 (mod 8).
TWICE_UNIT_TABLE = {
    (1, 1): 1, (1, 3): -1, (1, 5): -1, (1, 7): 1,
    (3, 1): 1, (3, 3): 1, (3, 5): -1, (3, 7): -1,
    (5, 1): 1, (5, 3): -1, (5, 5): -1, (5, 7): 1,
    (7, 1): 1, (7, 3): 1, (7, 5): -1, (7, 7): -1,
}


def test_dyadic_unit_classes():
    for (u, w), expected in UNIT_TABLE.items():
        for du in (0, 8, 16, -8):
            for dw in (0, 8, -8):
                assert hilbert_symbol(u + du, w + dw, DYADIC) == expected, (u + du, w + dw)


def test_dyadic_twice_unit_classes():
    for (u, w), expected in TWICE_UNIT_TABLE.items():
        assert hilbert_symbol(2 * u, w, DYADIC) == expected, (2 * u, w)
        # symmetry of the symbol
        assert hilbert_symbol(w, 2 * u, DYADIC) == expected, (w, 2 * u)


def test_dyadic_pinned():
    assert hilbert_symbol(3, 2, DYADIC) == -1  # 3 = 3 (mod 8) ramifies H(3, 2) at 2
    assert hilbert_symbol(7, 2, DYADIC) == 1
    assert hilbert_symbol(17, 2, DYADIC) == 1
    assert hilbert_symbol(-1, -1, DYADIC) == -1  # Hamilton quaternions


def test_rejects_zero_arguments():
    with pytest.raises(InvalidInputError):
        hilbert_symbol(0, 5, DYADIC)
    with pytest.raises(InvalidInputError):
        ramified_places(3, 0)


def test_ramified_places_pinned():
    data = ramified_places(3, 2)
    assert [str(v) for v in data.ramified] == ["2", "3"]
    assert data.reduced_discriminant == 6
    data = ramified_places(7, 3)
    assert [str(v) for v in data.ramified] == ["2", "7"]
    assert data.reduced_discriminant == 14
    data = ramified_places(5, 2)
    assert [str(v) for v in data.ramified] == ["2", "5"]
    assert data.reduced_discriminant == 10
    data = ramified_places(7, 2)
    assert data.ramified == ()
    assert data.reduced_discriminant == 1


def test_ramified_places_negative_arguments():
    data = ramified_places(-1, -1)
    assert [str(v) for v in data.ramified] == ["2", "inf"]
    assert data.reduced_discriminant == 2


def test_split_detection():
    for a, b in [(7, 2), (2, 7), (5, 11), (-1, 2), (13, 3)]:
        data = ramified_places(a, b)
        assert (data.reduced_discriminant == 1) == (len(data.ramified) == 0), (a, b)


def test_product_formula_prime_pairs():
    primes = primes_up_to(200)
    for p in primes:
        for q in primes:
            if p == q:
                continue
            assert len(ramified_places(p, q).ramified) % 2 == 0, (p, q)


def test_product_formula_and_symmetry_random():
    rng = random.Random(0xB1)
    for _ in range(2000):
        a = rng.randrange(-1000, 1001) or 1
        b = rng.randrange(-1000, 1001) or 1
        data = ramified_places(a, b)
        assert len(data.ramified) % 2 == 0, (a, b)
        flipped = ramified_places(b, a)
        assert data.ramified == flipped.ramified, (a, b)
        assert data.reduced_discriminant == flipped.reduced_discriminant, (a, b)


def test_fast_path_pinned():
    assert discriminant_fast_path(7, 3) == 14  # case 1
    assert discriminant_fast_path(3, 2) == 6  # case 2
    assert discriminant_fast_path(5, 3) == 15  # case 3: (5|3) = (2|3) = -1
    assert discriminant_fast_path(13, 3) is None  # (13|3) = +1: nothing applies
    assert discriminant_fast_path(2, 3) == 6  # order-insensitive
    assert discriminant_fast_path(2, 5) == 10  # case 3 after swapping
    assert discriminant_fast_path(7, 2) is None  # H(7, 2) splits; lemma silent


def test_fast_path_rejects_equal_primes():
    with pytest.raises(EqualPrimesError):
        discriminant_fast_path(5, 5)


def test_fast_path_proves_each_prime_once(monkeypatch):
    """The fast path proves p and q prime once each; its symbols do not prove them again."""
    import quatsplit.arith as arith_module

    calls = 0
    is_prime = arith_module.is_prime

    def counted(n):
        nonlocal calls
        calls += 1
        return is_prime(n)

    monkeypatch.setattr(arith_module, "is_prime", counted)
    for p, q in ((7, 3), (3, 7), (3, 2), (5, 3), (2, 5), (13, 3), (19, 11)):
        calls = 0
        discriminant_fast_path(p, q)
        assert calls <= 2, (p, q, calls)


def test_fast_path_agrees_with_ramified_places():
    primes = primes_up_to(200)
    covered = 0
    for p in primes:
        for q in primes:
            if p == q:
                continue
            fast = discriminant_fast_path(p, q)
            if fast is not None:
                covered += 1
                assert fast == ramified_places(p, q).reduced_discriminant, (p, q)
    assert covered > 0


def _assert_symbols_match_hilbert_symbol(p, q):
    """prime_pair_symbols(p, q) is hilbert_symbol at 2, p and q, and the place it omits,
    infinity, does not ramify."""
    expected = tuple(hilbert_symbol(p, q, place) for place in (DYADIC, Place(p), Place(q)))
    assert prime_pair_symbols(p, q) == expected, (p, q)
    assert hilbert_symbol(p, q, INFINITE_PLACE) == 1, (p, q)


def test_prime_pair_symbols_match_hilbert_symbol():
    primes = primes_up_to(600)
    for p in primes:
        for q in primes:
            if p != q:
                _assert_symbols_match_hilbert_symbol(p, q)


# The largest prime below 2**64 is 2**64 - 59, so the next prime from here stays in range.
_PRIMES_64 = st.one_of(
    st.sampled_from(primes_up_to(50)),
    st.integers(2, 2**64 - 59).map(lambda n: next(p for p in count(n) if is_prime(p))),
)


@settings(max_examples=300, deadline=None, database=None)
@given(st.tuples(_PRIMES_64, _PRIMES_64).filter(lambda pair: pair[0] != pair[1]))
def test_prime_pair_symbols_match_hilbert_symbol_64_bit(pair):
    _assert_symbols_match_hilbert_symbol(*pair)
