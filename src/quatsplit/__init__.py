"""quatsplit: exact division/split decisions for quaternion algebras H(p1, p2)
over quadratic, biquadratic, cyclotomic, and Kummer base fields, with an
independent local-global oracle for cross-validation."""

from .arith import euler_phi, is_prime, legendre, primes_up_to
from .classify import (
    Biquadratic,
    Certainty,
    Cyclotomic,
    FieldDescriptor,
    Kummer,
    Outcome,
    Quadratic,
    TraceStep,
    Verdict,
    classify,
)
from .cyclotomic import FactorizationShape, canonical_n, factorization_shape
from .errors import (
    BadModulusError,
    DisallowedValueError,
    EqualPrimesError,
    InternalInvariantError,
    InvalidInputError,
    NonSquarefreeError,
    UnsupportedFieldError,
)
from .hilbert import (
    INFINITE_PLACE,
    Place,
    RamificationData,
    discriminant_fast_path,
    hilbert_symbol,
    ramified_places,
)
from .oracle import division_oracle, local_degree
from .quadratic import SplittingType, splitting_type

__version__ = "0.1.0"

__all__ = [
    "BadModulusError",
    "Biquadratic",
    "Certainty",
    "Cyclotomic",
    "DisallowedValueError",
    "EqualPrimesError",
    "FactorizationShape",
    "FieldDescriptor",
    "INFINITE_PLACE",
    "InternalInvariantError",
    "InvalidInputError",
    "Kummer",
    "NonSquarefreeError",
    "Outcome",
    "Place",
    "Quadratic",
    "RamificationData",
    "SplittingType",
    "TraceStep",
    "UnsupportedFieldError",
    "Verdict",
    "canonical_n",
    "classify",
    "discriminant_fast_path",
    "division_oracle",
    "euler_phi",
    "factorization_shape",
    "hilbert_symbol",
    "is_prime",
    "legendre",
    "local_degree",
    "primes_up_to",
    "ramified_places",
    "splitting_type",
]
