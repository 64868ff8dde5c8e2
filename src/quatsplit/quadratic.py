"""How rational primes split in Q(sqrt(d)), given as the classify.Quadratic descriptor."""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING

from . import arith

if TYPE_CHECKING:
    from .classify import Quadratic


class SplittingType(Enum):
    RAMIFIED = "Ramified"
    SPLIT = "Split"
    INERT = "Inert"


def splitting_type(p: int, field: Quadratic) -> SplittingType:
    """How the rational prime p factors in the ring of integers of Q(sqrt(d)).

    Odd p: ramified iff p divides the discriminant, split iff the Legendre
    symbol (disc|p) is +1, inert iff -1.  p = 2 goes by d mod 8: ramified for
    d % 4 in {2, 3}, split for d % 8 == 1, inert for d % 8 == 5.
    """
    arith.require_prime(p)
    return splitting_type_unchecked(p, field.d)


def splitting_type_unchecked(p: int, d: int) -> SplittingType:
    """splitting_type(p, Quadratic(d)) for a prime p and a squarefree d not in {0, 1}
    that the caller vouches for; d may be 2**64 or more.

    For odd p, (disc|p) = (d|p), since disc is d or 4d, so d is read as it is.
    """
    if p == 2:
        if d % 4 in (2, 3):
            return SplittingType.RAMIFIED
        return SplittingType.SPLIT if d % 8 == 1 else SplittingType.INERT
    symbol = arith.legendre_unchecked(d, p)
    if symbol == 0:
        return SplittingType.RAMIFIED
    return SplittingType.SPLIT if symbol == 1 else SplittingType.INERT
