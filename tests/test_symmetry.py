"""H(p1, p2) and H(p2, p1) get the same answer, on every path (hypothesis).

The local Hilbert symbols are symmetric at every place (Serre, A Course in
Arithmetic, III.1.1), so the two algebras are isomorphic. A verify sweep
relies on it: the oracle evaluates each unordered pair once and gives the
reversed order the same outcome. These properties pin the identity on the
point paths, which still evaluate both orders.
"""

from itertools import count

from hypothesis import given, settings
from hypothesis import strategies as st

from quatsplit.arith import factorize, is_prime, primes_up_to
from quatsplit.classify import Biquadratic, Cyclotomic, Kummer, Quadratic, classify
from quatsplit.hilbert import INFINITE_PLACE, Place, hilbert_symbol
from quatsplit.oracle import division_oracle

SETTINGS = settings(max_examples=300, deadline=None, database=None)


def _next_prime(n: int) -> int:
    return next(p for p in count(n) if is_prime(p))


_SQUAREFREE = [d for d in range(-40, 41) if d not in (0, 1) and all(e == 1 for _, e in factorize(abs(d)))]

FIELDS = st.one_of(
    st.sampled_from(_SQUAREFREE).map(Quadratic),
    st.tuples(st.sampled_from(_SQUAREFREE), st.sampled_from(_SQUAREFREE))
    .filter(lambda ds: ds[0] != ds[1])
    .map(lambda ds: Biquadratic(*ds)),
    st.sampled_from((3, 4, 5, 7, 8, 9, 11, 12, 19, 23, 27, 49)).map(Cyclotomic),
    st.sampled_from(((3, 1), (3, 3), (7, 1), (7, 2), (11, 1), (19, 1))).map(lambda lk: Kummer(*lk)),
)

# Small primes hit every residue case; primes above 10**5 keep trial division cheap.
PRIMES = st.one_of(st.sampled_from(primes_up_to(200)), st.integers(10**5, 10**7).map(_next_prime))
PRIME_PAIRS = st.tuples(PRIMES, PRIMES).filter(lambda pair: pair[0] != pair[1])


@SETTINGS
@given(field=FIELDS, pair=PRIME_PAIRS)
def test_classify_symmetric(field, pair):
    p1, p2 = pair
    forward, backward = classify(field, p1, p2), classify(field, p2, p1)
    assert forward.outcome is backward.outcome
    assert forward.certainty is backward.certainty


@SETTINGS
@given(field=FIELDS, pair=PRIME_PAIRS)
def test_division_oracle_symmetric(field, pair):
    p1, p2 = pair
    assert division_oracle(field, p1, p2) is division_oracle(field, p2, p1)


PLACES = st.one_of(
    st.just(INFINITE_PLACE),
    st.just(Place(2)),
    st.sampled_from(primes_up_to(200)[1:]).map(Place),
    st.integers(10**5, 10**12).map(_next_prime).map(Place),
)


@st.composite
def _symbol_arguments(draw):
    """A place and two nonzero entries, each carrying a power of the place's prime."""
    place = draw(PLACES)
    base = place.prime or 1
    a, b = (
        draw(st.integers(-(10**6), 10**6).filter(bool)) * base ** draw(st.integers(0, 3)) for _ in range(2)
    )
    return a, b, place


@SETTINGS
@given(_symbol_arguments())
def test_hilbert_symbol_symmetric(arguments):
    a, b, place = arguments
    assert hilbert_symbol(a, b, place) == hilbert_symbol(b, a, place)
