"""Independent local-global division test.

H(p, q) over a number field K that is Galois over Q is a division algebra
exactly when some place where H_Q(p, q) ramifies has odd local degree in K:
the local division quaternion algebra survives precisely the odd-degree
local extensions, and Galois uniformity makes "the" local degree above a
rational place well defined.  This route never looks at the classification
criteria, so agreement between the two is a real cross-check.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from functools import lru_cache

from . import arith, cyclotomic, quadratic
from .classify import (
    Biquadratic,
    Cyclotomic,
    FieldDescriptor,
    Kummer,
    Outcome,
    Quadratic,
)
from .errors import InternalInvariantError, UnsupportedFieldError
from .hilbert import INFINITE_PLACE, Place, prime_pair_symbols, ramified_places


_SPLIT = quadratic.SplittingType.SPLIT


@lru_cache(maxsize=1024)
def local_degree(field: FieldDescriptor, place: Place) -> int:
    """Degree over Q_v of the completion of K above the place v.

    Cyclotomic n: e * f from the factorization shape (2 at infinity, the
    fields are complex).  Quadratic d: 1 when v splits, else 2; at infinity
    2 iff d < 0.  Biquadratic: 1, 2 or 4 by how many of the three quadratic
    subfields v splits in.  Kummer fields are not supported: their local
    degrees depend on the radicand, which is deliberately not modeled.
    The field checked itself when it was made and the place has proved its
    prime, so neither is checked again here.
    """
    match field:
        case Quadratic(d):
            if place.prime is None:
                return 2 if d < 0 else 1
            return 1 if quadratic.splitting_type_unchecked(place.prime, d) is _SPLIT else 2
        case Biquadratic(d1, d2):
            if place.prime is None:
                return 2 if (d1 < 0 or d2 < 0) else 1
            # The third subfield is Q(sqrt d1*d2), and d1*d2 = g**2 * (d1/g) * (d2/g)
            # with coprime squarefree factors, so nothing needs factoring or checking.
            g = math.gcd(d1, d2)
            ds = (d1, d2, (d1 // g) * (d2 // g))
            split_count = sum(quadratic.splitting_type_unchecked(place.prime, d) is _SPLIT for d in ds)
            # Splitting in two of the three subfields forces the third.
            if split_count == 2:
                raise InternalInvariantError(f"inconsistent splitting at {place} in Q(sqrt {d1}, sqrt {d2})")
            return {3: 1, 1: 2, 0: 4}[split_count]
        case Cyclotomic(n):
            if place.prime is None:
                return 2
            shape = cyclotomic.factorization_shape_unchecked(place.prime, cyclotomic.canonical_n(n))
            return shape.e * shape.f
    raise UnsupportedFieldError(f"no local degrees for {field}")


def _parity_field(field: FieldDescriptor) -> FieldDescriptor:
    """Q(zeta_{l**k}) for Kummer(l, k), else field: the oracle needs only local degree parities.

    [K : Q(zeta_{l**k})] divides l**k, which is odd, so a local degree of K is
    the one of Q(zeta_{l**k}) times an odd factor (Prop 4.1 decides K so too).
    """
    return Cyclotomic(field.ell**field.k) if isinstance(field, Kummer) else field


def division_oracle(field: FieldDescriptor, p1: int, p2: int) -> Outcome:
    """DIVISION iff some ramified place of H_Q(p1, p2) has odd local degree in K."""
    arith.require_distinct_primes(p1, p2)
    field = _parity_field(field)
    ramified = ramified_places(p1, p2).ramified
    # Positive slots: the infinite place never ramifies, so only finite
    # degrees can decide.
    if INFINITE_PLACE in ramified:
        raise InternalInvariantError(f"the infinite place ramifies in H_Q({p1}, {p2})")
    if any(local_degree(field, v) % 2 == 1 for v in ramified):
        return Outcome.DIVISION
    return Outcome.SPLIT


# The oracle's two answers; sweep_oracle's codes index this table.
_OUTCOMES = (Outcome.DIVISION, Outcome.SPLIT)


def sweep_oracle(
    field: FieldDescriptor, primes: Sequence[int]
) -> tuple[tuple[Outcome, ...], Callable[[int, int], int]]:
    """(outcomes, code_of): division_oracle(field, p1, p2) is outcomes[code_of(p1, p2)]
    for every pair of distinct p1, p2 taken from primes, as sweep_classifier
    returns its verdicts with their index function.  outcomes is
    (DIVISION, SPLIT), so a code is 0 or 1.

    For a verify sweep: each prime, and 2, becomes a Place once, which
    proves it prime, and its local degree in K is read once.  Only 2, p1
    and p2 can ramify in H_Q(p1, p2), so a pair costs
    hilbert.prime_pair_symbols, the local symbols there in closed form with
    the product-formula check, then set lookups of the odd-degree primes.
    The local symbols are symmetric, (a, b)_v = (b, a)_v at every place
    (Serre, A Course in Arithmetic, III.1.1), so H(p1, p2) and H(p2, p1)
    have the same answer, and a sweep asks the returned function about each
    unordered pair once, with p1 < p2.  code_of trusts its arguments.
    """
    field = _parity_field(field)
    odd = frozenset(p for p in (2, *primes) if local_degree(field, Place(p)) % 2 == 1)

    def code_of(p1: int, p2: int) -> int:
        at_2, at_p1, at_p2 = prime_pair_symbols(p1, p2)
        if (at_p1 == -1 and p1 in odd) or (at_p2 == -1 and p2 in odd) or (at_2 == -1 and 2 in odd):
            return 0
        return 1

    return _OUTCOMES, code_of
