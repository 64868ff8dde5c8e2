"""Local Hilbert symbols over Q, ramified places of H_Q(a, b), and the
reduced discriminant.

Conventions for the local symbol (a, b)_v with a = p**alpha * u, b = p**beta * w:

  odd p:   (a, b)_p = (-1)**(alpha*beta*eps(p)) * (u|p)**beta * (w|p)**alpha
  p = 2:   (a, b)_2 = (-1)**(eps(u)*eps(w) + alpha*omega(w) + beta*omega(u))
  v = inf: -1 iff a < 0 and b < 0

where eps(u) = (u - 1)/2 mod 2 and omega(u) = (u**2 - 1)/8 mod 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import arith
from .errors import InternalInvariantError, InvalidInputError


@dataclass(frozen=True)
class Place:
    """A place of Q: a finite prime, or the infinite (real) place as prime=None."""

    prime: int | None

    def __post_init__(self) -> None:
        if self.prime is not None and (self.prime < 2 or not arith.is_prime(self.prime)):
            raise InvalidInputError(f"finite places carry a prime, got {self.prime}")

    @property
    def is_finite(self) -> bool:
        return self.prime is not None

    def __str__(self) -> str:
        return "inf" if self.prime is None else str(self.prime)


INFINITE_PLACE = Place(prime=None)


def _split_valuation(n: int, p: int) -> tuple[int, int]:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _eps(u: int) -> int:
    return ((u - 1) // 2) % 2


def _omega(u: int) -> int:
    return ((u * u - 1) // 8) % 2


def hilbert_symbol(a: int, b: int, place: Place) -> int:
    """(a, b)_v in {+1, -1}: +1 iff H(a, b) splits over the completion at v."""
    if a == 0 or b == 0:
        raise InvalidInputError("hilbert_symbol needs nonzero arguments")
    if place.prime is None:
        return -1 if (a < 0 and b < 0) else 1
    p = place.prime
    alpha, u = _split_valuation(a, p)
    beta, w = _split_valuation(b, p)
    if p == 2:
        exponent = _eps(u) * _eps(w) + alpha * _omega(w) + beta * _omega(u)
        return -1 if exponent % 2 else 1
    sign = 1
    if alpha % 2 and beta % 2 and _eps(p):
        sign = -sign
    # The place proved p prime when it was made.
    if beta % 2:
        sign *= arith.legendre_unchecked(u, p)
    if alpha % 2:
        sign *= arith.legendre_unchecked(w, p)
    return sign


def prime_pair_symbols(p: int, q: int) -> tuple[int, int, int, int]:
    """The local symbols (p, q)_v of H_Q(p, q) at v = 2, p, q and infinity, in that order.

    hilbert_symbol's formulas with the valuations known (Serre, A Course in
    Arithmetic, III.1.2, Thm. 1): (q|p) at p and (p|q) at q, both by Euler's
    criterion; at 2, (-1)**(eps(p)*eps(q)) for odd p, q, and (-1)**omega(q)
    when p = 2 (then the symbol at p is the one at 2).  No other place can
    ramify.  Raises InternalInvariantError when the ramified places are odd
    in number, which Hilbert reciprocity forbids.  The caller has proved p, q
    distinct primes.
    """
    if p == 2:
        at_2 = at_p = -1 if _omega(q) else 1
        at_q = arith.legendre_unchecked(2, q)
        product = at_2 * at_q
    elif q == 2:
        at_2 = at_q = -1 if _omega(p) else 1
        at_p = arith.legendre_unchecked(2, p)
        product = at_2 * at_p
    else:
        # eps(u) = 1 exactly when u ≡ 3 (mod 4)
        at_2 = -1 if p % 4 == 3 and q % 4 == 3 else 1
        at_p = arith.legendre_unchecked(q, p)
        at_q = arith.legendre_unchecked(p, q)
        product = at_2 * at_p * at_q
    at_inf = -1 if (p < 0 and q < 0) else 1
    if product * at_inf == -1:
        raise InternalInvariantError(f"Hilbert product formula violated for ({p}, {q})")
    return at_2, at_p, at_q, at_inf


@dataclass(frozen=True)
class RamificationData:
    """Ramified places of H_Q(a, b); the reduced discriminant is the product
    of the finite ones (1 when none ramify, which happens iff H splits over Q)."""

    ramified: tuple[Place, ...]
    reduced_discriminant: int


def ramified_places(a: int, b: int) -> RamificationData:
    """Evaluate the local symbol at every prime dividing 2ab and at infinity.

    Any ramified prime divides 2ab, so the candidate set is complete; the
    ramified places are the finite ones ascending, then infinity.  Raises
    InternalInvariantError when their number is odd, which Hilbert
    reciprocity forbids.
    """
    if a == 0 or b == 0:
        raise InvalidInputError("H(a, b) needs nonzero a, b")
    candidates = {2}
    for n in (a, b):
        candidates.update(p for p, _ in arith.factorize(abs(n)))
    ramified = [v for v in map(Place, sorted(candidates)) if hilbert_symbol(a, b, v) == -1]
    if hilbert_symbol(a, b, INFINITE_PLACE) == -1:
        ramified.append(INFINITE_PLACE)
    if len(ramified) % 2:
        raise InternalInvariantError(f"Hilbert product formula violated for ({a}, {b})")
    disc = 1
    for v in ramified:
        if v.prime is not None:
            disc *= v.prime
    return RamificationData(ramified=tuple(ramified), reduced_discriminant=disc)


def discriminant_fast_path(p: int, q: int) -> int | None:
    """Closed-form reduced discriminant of H_Q(p, q) for the covered prime pairs.

    The lemma's three cases, in either argument order, since H(p, q) and
    H(q, p) are isomorphic:

      1. p % 4 == q % 4 == 3 and (q|p) != 1          ->  2p
      2. q == 2 and p % 8 == 3                       ->  2p
      3. p or q == 1 (mod 4), q odd, and (p|q) == -1 ->  pq

    Each case is a reading of prime_pair_symbols(p, q), so the product of
    the places where those symbols are -1 is returned.  Returns None when no
    case applies in either order, which is when no place ramifies and H(p, q)
    splits over Q.
    """
    arith.require_distinct_primes(p, q)
    at_2, at_p, at_q, _ = prime_pair_symbols(p, q)
    # when p or q is 2, its symbol is the one at 2, and the set holds 2 once
    ramified = {v for v, symbol in ((2, at_2), (p, at_p), (q, at_q)) if symbol == -1}
    return math.prod(ramified) if ramified else None
