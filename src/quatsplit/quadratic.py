"""Quadratic fields Q(sqrt(d)): discriminants and rational-prime splitting."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from . import arith
from .errors import DisallowedValueError, InvalidInputError, NonSquarefreeError


class SplittingType(Enum):
    RAMIFIED = "Ramified"
    SPLIT = "Split"
    INERT = "Inert"


@dataclass(frozen=True)
class QuadraticField:
    """Q(sqrt(d)) for squarefree d not in {0, 1}, with its field discriminant."""

    d: int
    discriminant: int


@lru_cache(maxsize=64)
def make_quadratic(d: int) -> QuadraticField:
    """Validate d and attach the discriminant: d when d % 4 == 1, else 4d.

    |d| must be below 2**64, which bounds the squarefree check. Cached, so
    the classifier and the oracle check each d once, not once per sweep
    prime; a bad d raises, so only good fields are kept.
    """
    if abs(d) > arith.UINT64_MAX:
        raise InvalidInputError(f"d must be below 2**64 in absolute value, got {d}")
    if d in (0, 1):
        raise DisallowedValueError(f"d must not be 0 or 1, got {d}")
    if not arith.is_squarefree(d):
        raise NonSquarefreeError(f"d must be squarefree, got {d}")
    disc = d if d % 4 == 1 else 4 * d
    return QuadraticField(d=d, discriminant=disc)


def splitting_type(p: int, field: QuadraticField) -> SplittingType:
    """How the rational prime p factors in the ring of integers of Q(sqrt(d)).

    Odd p: ramified iff p divides the discriminant, split iff the Legendre
    symbol (disc|p) is +1, inert iff -1.  p = 2 goes by d mod 8: ramified for
    d % 4 in {2, 3}, split for d % 8 == 1, inert for d % 8 == 5.
    """
    arith.require_prime(p)
    return splitting_type_unchecked(p, field)


def splitting_type_unchecked(p: int, field: QuadraticField) -> SplittingType:
    """splitting_type(p, field) for a p that the caller has already proved prime."""
    if p == 2:
        if field.d % 4 in (2, 3):
            return SplittingType.RAMIFIED
        return SplittingType.SPLIT if field.d % 8 == 1 else SplittingType.INERT
    symbol = arith.legendre_unchecked(field.discriminant, p)
    if symbol == 0:
        return SplittingType.RAMIFIED
    return SplittingType.SPLIT if symbol == 1 else SplittingType.INERT
