"""Cyclotomic fields Q(zeta_n): canonical labels and prime factorization shape.

Fields are identified by the canonical index n alone (n >= 3, n % 4 != 2);
no root-of-unity arithmetic happens anywhere.  Every question answered here
is arithmetic on n, p mod n, and symbols.
"""

from __future__ import annotations

from functools import lru_cache

from . import arith
from .errors import InvalidInputError
from .values import Value


class FactorizationShape(Value):
    """(e, f, g): ramification index, residual degree, number of primes over p."""

    __slots__ = ("e", "f", "g")
    e: int
    f: int
    g: int

    def __init__(self, e: int, f: int, g: int) -> None:
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)


def canonical_n(n: int) -> int:
    """Canonical index: Q(zeta_{2m}) = Q(zeta_m) for odd m, so halve n % 4 == 2."""
    if n < 3:
        raise InvalidInputError(f"cyclotomic index must be >= 3, got {n}")
    return n // 2 if n % 4 == 2 else n


def factorization_shape(p: int, n: int) -> FactorizationShape:
    """Shape of p Z[zeta_n] = (P_1 ... P_g)**e with residual degree f.

    For p not dividing n: e = 1 and f is the multiplicative order of p mod n.
    For p | n, write n = p**a * m with p not dividing m: the p-power part is
    totally ramified, so e = phi(p**a) and f is the order of p mod m (1 when
    m <= 2).  In all cases e * f * g = phi(n).  n must be below 2**64, the
    bound of Cyclotomic and of the factoring of phi.
    """
    arith.require_prime(p)
    if n > arith.UINT64_MAX:
        raise InvalidInputError(f"cyclotomic index must be below 2**64, got {n}")
    if n < 3 or n % 4 == 2:
        raise InvalidInputError(f"expected a canonical cyclotomic index, got {n} (see canonical_n)")
    return factorization_shape_unchecked(p, n)


def factorization_shape_unchecked(p: int, n: int) -> FactorizationShape:
    """factorization_shape(p, n) for a prime p and canonical n that the caller has already checked."""
    m, p_power = n, 1
    while m % p == 0:
        m //= p
        p_power *= p
    phi_m, phi_m_primes = _unit_group(m)
    f = arith.order_dividing(p, m, phi_m, phi_m_primes)
    # phi(p**a) = p**a - p**(a-1), and 1 when a = 0
    return FactorizationShape(e=p_power - p_power // p, f=f, g=phi_m // f)


@lru_cache(maxsize=64)
def _unit_group(m: int) -> tuple[int, tuple[int, ...]]:
    """phi(m) and the primes dividing it, the start of every order mod m.

    A field n meets at most 1 + omega(n) <= 16 moduli m (n with one prime
    part removed), so a sweep factors each of them once instead of once per
    prime.
    """
    phi = arith.euler_phi(m)
    return phi, tuple(q for q, _ in arith.factorize(phi))
