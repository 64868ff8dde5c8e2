"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """An argument violates an operation's preconditions."""


class NonSquarefreeError(InvalidInputError):
    """A quadratic field parameter d has a square factor."""


class DisallowedValueError(InvalidInputError):
    """A quadratic field parameter d is 0 or 1."""


class EqualPrimesError(InvalidInputError):
    """The two primes defining H(p1, p2) must be distinct."""


class BadModulusError(InvalidInputError):
    """Prime-power and Kummer criteria need a prime l with l % 4 == 3."""


class UnsupportedFieldError(ValueError):
    """No decision criterion covers the requested base field."""


class InternalInvariantError(RuntimeError):
    """A mathematical invariant the computation relies on failed: a defect, not bad input."""
