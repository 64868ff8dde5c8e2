"""Division-vs-split decisions for H(p1, p2) over quadratic, biquadratic,
cyclotomic, and Kummer base fields, with per-case evaluation traces.

Every criterion evaluation is recorded as a (criterion-id, fired) step; a
verdict is Division exactly when some step fired.  Criterion ids are stable
strings asserted by the test suite and rendered by the CLI:

  thm3.1/case1, thm3.1/case2/p≡3mod8, thm3.1/case2/p≡5mod8,
  thm3.1/case3a, thm3.1/case3b            quadratic base Q(sqrt(d))
  thm3.4/... (same shape as thm3.1)       biquadratic base Q(sqrt(d1), sqrt(d2))
  prop3.3/case{1,2,3}                     cyclotomic n = 7
  prop3.5/main                            cyclotomic n = 8
  prop3.6/case{1,2,3a,3b}                 cyclotomic n = 9
  prop3.7/case{1,2,3a,3b}                 cyclotomic n = 11
  prop3.8/case{1,2}                       cyclotomic n = 12
  prop3.9/p1≡1mod5, prop3.9/p2≡1mod5      cyclotomic n = 5 (sufficient only)
  prop4.1/case{1,2,3a,3b}                 cyclotomic n = l**k, l ≡ 3 (mod 4)
  reduction/*                             field rewrites, always marked fired

The "a"/"b" suffixes name the two symmetric branches of the both-odd,
both ≡ 3 (mod 4) case: "a" checks the symbol condition at p1, "b" at p2.

Every exact verdict comes from one evaluator, Theorem 3.1/3.4 over the
squarefree d of the quadratic subfields Q(sqrt d) plus an "every d ≡ 1
(mod 8)" escape flag.  The cyclotomic ids above come from one reduction
table, which maps each canonical n (and l**k) to its subfield and to the
ids the paper publishes; where a proposition publishes one id for two raw
cases of the theorem, the two are OR-merged into that one step.  So every
field has a fixed table of at most seven verdicts (four for n = 5), and the
evaluator returns an index into it.  A field descriptor checks itself when
it is made; only support is decided here.  There is one decision path:
sweep_classifier resolves the field and proves the primes once, binds the
evaluator to a table of which primes split in the subfield and returns it
with the verdict table; a verify sweep runs it over all its primes, and
classify runs it on its own pair.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial
from typing import NamedTuple, Union

from . import arith, cyclotomic
from .errors import BadModulusError, DisallowedValueError, EqualPrimesError, InvalidInputError
from .errors import NonSquarefreeError, UnsupportedFieldError


class Outcome(Enum):
    DIVISION = "Division"
    SPLIT = "Split"
    UNKNOWN = "Unknown"


class Certainty(Enum):
    EXACT = "Exact"
    SUFFICIENT_ONLY = "SufficientOnly"


class TraceStep(NamedTuple):
    criterion: str
    fired: bool


@dataclass(frozen=True)
class Verdict:
    outcome: Outcome
    certainty: Certainty
    trace: tuple[TraceStep, ...]

    @property
    def fired(self) -> tuple[str, ...]:
        """Ids of the criteria that fired, in evaluation order."""
        return tuple(step.criterion for step in self.trace if step.fired)

    def criteria(self) -> tuple[TraceStep, ...]:
        """The trace without reduction bookkeeping entries."""
        return tuple(s for s in self.trace if not s.criterion.startswith("reduction/"))


# --- base-field descriptors -------------------------------------------------


@dataclass(frozen=True)
class Quadratic:
    """Q(sqrt d) for squarefree d not in {0, 1}, with |d| < 2**64, which bounds the squarefree check."""

    d: int

    def __post_init__(self) -> None:
        if abs(self.d) > arith.UINT64_MAX:
            raise InvalidInputError(f"d must be below 2**64 in absolute value, got {self.d}")
        if self.d in (0, 1):
            raise DisallowedValueError(f"d must not be 0 or 1, got {self.d}")
        if not arith.is_squarefree(self.d):
            raise NonSquarefreeError(f"d must be squarefree, got {self.d}")

    @property
    def discriminant(self) -> int:
        """The field discriminant: d when d % 4 == 1, else 4d."""
        return self.d if self.d % 4 == 1 else 4 * self.d

    def __str__(self) -> str:
        return f"quadratic:{self.d}"


@dataclass(frozen=True)
class Biquadratic:
    """Q(sqrt d1, sqrt d2) for distinct d1, d2, each a valid Quadratic d."""

    d1: int
    d2: int

    def __post_init__(self) -> None:
        Quadratic(self.d1)
        Quadratic(self.d2)
        if self.d1 == self.d2:
            raise InvalidInputError(f"biquadratic field needs distinct d1, d2, got {self.d1} twice")

    def __str__(self) -> str:
        return f"biquadratic:{self.d1},{self.d2}"


@dataclass(frozen=True)
class Cyclotomic:
    """Q(zeta_n) for 3 <= n < 2**64; n need not be canonical, nor supported by classify."""

    n: int

    def __post_init__(self) -> None:
        if self.n > arith.UINT64_MAX:
            raise InvalidInputError(f"cyclotomic index must be below 2**64, got {self.n}")
        cyclotomic.canonical_n(self.n)  # raises for n < 3

    def __str__(self) -> str:
        return f"cyclotomic:{self.n}"


@dataclass(frozen=True)
class Kummer:
    """A Kummer extension of Q(zeta_{l**k}), for a prime l ≡ 3 (mod 4), k >= 1 and l**k < 2**64."""

    ell: int
    k: int

    def __post_init__(self) -> None:
        ell, k = self.ell, self.k
        if ell < 2 or not arith.is_prime(ell) or ell % 4 != 3:
            raise BadModulusError(f"need a prime l ≡ 3 (mod 4), got {ell}")
        if k < 1:
            raise InvalidInputError(f"exponent k must be >= 1, got {k}")
        # l >= 3, so k >= 64 is out of range anyway; testing k first avoids computing a huge l**k.
        if k >= 64 or ell**k > arith.UINT64_MAX:
            raise InvalidInputError(f"l**k must be below 2**64, got {ell}^{k}")

    def __str__(self) -> str:
        return f"kummer:{self.ell}^{self.k}"


FieldDescriptor = Union[Quadratic, Biquadratic, Cyclotomic, Kummer]


# --- the thm3.1/thm3.4 criterion ---------------------------------------------

# The criterion has five raw cases, in this order: with both primes odd,
# case1, case3a and case3b; with one prime 2, case2 for the odd prime p ≡ 3
# and p ≡ 5 (mod 8).  At most one fires.  _criterion returns the index of
# the case that fired, or _NONE_ODD / _NONE_TWO when none did.
_NONE_ODD, _NONE_TWO = 5, 6


def _verdicts(ids: tuple[str, ...]) -> tuple[Verdict, ...]:
    """The verdict for each index the criterion returns, the five raw cases named by ids.

    Raw cases that share an id are OR-merged into one trace step: that is how
    a proposition that publishes one id for two raw cases keeps its id.
    """
    odd_labels, two_labels = dict.fromkeys(ids[:3]), dict.fromkeys(ids[3:])
    verdicts = []
    for result in range(7):
        hit = ids[result] if result < 5 else None
        labels = odd_labels if result in (0, 1, 2, _NONE_ODD) else two_labels
        trace = tuple(TraceStep(label, label == hit) for label in labels)
        outcome = Outcome.SPLIT if hit is None else Outcome.DIVISION
        verdicts.append(Verdict(outcome=outcome, certainty=Certainty.EXACT, trace=trace))
    return tuple(verdicts)


def _splits(ds: tuple[int, ...], p: int) -> bool:
    """True when the odd prime p splits in every Q(sqrt d), d in ds: (d|p) = (disc|p) = 1."""
    for d in ds:
        if arith.legendre_unchecked(d, p) != 1:
            return False
    return True


def _criterion(split: Callable[[int], bool], escape: bool, p1: int, p2: int) -> int:
    """Theorem 3.1 over Q(sqrt d) (one discriminant), 3.4 over Q(sqrt d1, sqrt d2) (two).

    H(p1, p2) is a division algebra exactly when one raw case holds:
      case1   p1 or p2 ≡ 1 (mod 4), (p1|p2) = -1, and p1 or p2 splits;
      case3a  p1 ≡ p2 ≡ 3 (mod 4), (p2|p1) = -1, and p1 splits or escape;
      case3b  the same with p1 and p2 exchanged;
      case2   one prime is 2, the other p ≡ 3 or 5 (mod 8), and p splits or escape;
    where "splits" means in every subfield, as split(p) answers for odd p, and
    escape says that every d ≡ 1 (mod 8), so that 2 splits.  Returns the
    index of the verdict in the table _verdicts builds.  The caller has
    proved p1, p2 distinct primes.
    """
    if p1 != 2 and p2 != 2:
        symbol = arith.legendre_unchecked(p1, p2)
        if p1 % 4 == 3 and p2 % 4 == 3:
            # Reciprocity: (p2|p1) = -(p1|p2), so case3a needs (p1|p2) = 1.
            if symbol == 1:
                return 1 if escape or split(p1) else _NONE_ODD
            return 2 if escape or split(p2) else _NONE_ODD
        if symbol == -1 and (split(p1) or split(p2)):
            return 0
        return _NONE_ODD
    p = p1 if p2 == 2 else p2
    residue = p % 8
    if (residue == 3 or residue == 5) and (escape or split(p)):
        return 3 if residue == 3 else 4
    return _NONE_TWO


def _n5_criterion(split: Callable[[int], bool], escape: bool, p1: int, p2: int) -> int:
    """Prop 3.9 over Q(zeta_5), a sufficient condition only; split and escape are unused.

    Tried in both argument orders since H(p1, p2) and H(p2, p1) are
    isomorphic; returns 2 * hit1 + hit2, the index of the verdict for the
    two results in the table _n5_verdicts builds.
    """
    hit1 = p1 % 5 == 1 and arith.legendre_unchecked(p2, p1) == -1
    hit2 = p2 % 5 == 1 and arith.legendre_unchecked(p1, p2) == -1
    return 2 * hit1 + hit2


def _n5_verdicts() -> tuple[Verdict, ...]:
    # No split criterion is known for this field, so the fallback is Unknown rather than Split.
    verdicts = []
    for hit1 in (False, True):
        for hit2 in (False, True):
            steps = (TraceStep("prop3.9/p1≡1mod5", hit1), TraceStep("prop3.9/p2≡1mod5", hit2))
            outcome = Outcome.DIVISION if hit1 or hit2 else Outcome.UNKNOWN
            verdicts.append(Verdict(outcome=outcome, certainty=Certainty.SUFFICIENT_ONLY, trace=steps))
    return tuple(verdicts)


class _Row(NamedTuple):
    """How one field decides: verdicts[rule(split, escape, p1, p2)] over the subfields Q(sqrt d), d in ds."""

    rule: Callable[..., int]
    ds: tuple[int, ...]
    escape: bool
    verdicts: tuple[Verdict, ...]


def _prop_ids(
    prop: str, case1: str = "case1", case3a: str = "case3a", case3b: str = "case3b"
) -> tuple[str, ...]:
    return tuple(f"{prop}/{case}" for case in (case1, case3a, case3b, "case2", "case2"))


_THM31_IDS = ("thm3.1/case1", "thm3.1/case3a", "thm3.1/case3b", "thm3.1/case2/p≡3mod8", "thm3.1/case2/p≡5mod8")
_THM34_IDS = ("thm3.4/case1", "thm3.4/case3a", "thm3.4/case3b", "thm3.4/case2/p≡3mod8", "thm3.4/case2/p≡5mod8")
_THM31 = _verdicts(_THM31_IDS)
_THM34 = _verdicts(_THM34_IDS)
_PROP41 = _verdicts(_prop_ids("prop4.1"))


def _reduced(label: str, row: _Row) -> _Row:
    """row with the reduction step label put first on every verdict."""
    verdicts = tuple(
        Verdict(outcome=v.outcome, certainty=v.certainty, trace=(TraceStep(label, True),) + v.trace)
        for v in row.verdicts
    )
    return row._replace(verdicts=verdicts)


# The reduction table: canonical n -> the quadratic or biquadratic subfield of
# Q(zeta_n) whose criterion decides H(p1, p2), and the ids the paper publishes
# for it.  Props 3.5 and 3.8 publish fewer ids because splitting in
# Q(i, sqrt 2) needs p ≡ 1 (mod 8) and in Q(i, sqrt -3) p ≡ 1 (mod 12): only
# case1 and, for n = 12, case2 with p ≡ 5 (mod 8) can fire there.  n = 5 has
# only the sufficient condition of Prop 3.9.
_CYCLOTOMIC = {
    3: _reduced("reduction/Q(ζ3)→Q(√-3)", _Row(_criterion, (-3,), False, _THM31)),
    4: _reduced("reduction/Q(ζ4)→Q(i)", _Row(_criterion, (-1,), False, _THM31)),
    5: _Row(_n5_criterion, (), False, _n5_verdicts()),
    7: _Row(_criterion, (-7,), True, _verdicts(_prop_ids("prop3.3", case3a="case3", case3b="case3"))),
    8: _Row(_criterion, (-1, 2), False, _verdicts(("prop3.5/main",) * 5)),
    9: _Row(_criterion, (-3,), False, _verdicts(_prop_ids("prop3.6"))),
    11: _Row(_criterion, (-11,), False, _verdicts(_prop_ids("prop3.7"))),
    12: _Row(_criterion, (-1, -3), False, _verdicts(_prop_ids("prop3.8", case3a="case1", case3b="case1"))),
}


def _cyclotomic_row(m: int) -> _Row:
    """The row for canonical m; Prop 4.1: Q(zeta_{l**k}) with l ≡ 3 (mod 4) decides like Q(sqrt -l)."""
    row = _CYCLOTOMIC.get(m)
    if row is not None:
        return row
    power = arith.prime_power(m)
    if power is None or power[0] % 4 != 3:
        raise UnsupportedFieldError(
            f"no criterion for cyclotomic n = {m}; supported: 3-12 and prime powers l**k with l ≡ 3 (mod 4)"
        )
    ell = power[0]
    return _Row(_criterion, (-ell,), ell % 8 == 7, _PROP41)


# --- public entry points ------------------------------------------------------


@lru_cache(maxsize=64)
def _resolve(field: FieldDescriptor) -> _Row:
    """field's row, with the reduction steps of Kummer and non-canonical n on the verdicts.

    Cached: descriptors are frozen, and an unsupported field raises, so only rows are kept.
    """
    match field:
        case Quadratic(d):
            return _Row(_criterion, (d,), d % 8 == 1, _THM31)
        case Biquadratic(d1, d2):
            return _Row(_criterion, (d1, d2), d1 % 8 == 1 and d2 % 8 == 1, _THM34)
        case Cyclotomic(n):
            m = cyclotomic.canonical_n(n)
            row = _cyclotomic_row(m)
            return row if m == n else _reduced(f"reduction/n{n}→n{m}", row)
        case Kummer(ell, k):
            return _reduced(f"reduction/kummer({ell}^{k})→cyclotomic({ell**k})", _resolve(Cyclotomic(ell**k)))
    raise UnsupportedFieldError(f"unrecognized field descriptor: {field!r}")


def sweep_classifier(
    field: FieldDescriptor, primes: Sequence[int]
) -> tuple[tuple[Verdict, ...], Callable[[int, int], int]]:
    """(verdicts, code_of): verdicts[code_of(p1, p2)] decides H(p1, p2) over field,
    for distinct p1, p2 taken from primes.

    verdicts is the field's fixed table of at most seven verdicts.  The field
    is resolved (an unsupported one raises), and every prime is proved
    prime, once here instead of per pair.  Whether each prime splits in the
    field's subfield is tabulated, and the reduction steps are on the verdicts up front, so a
    pair costs one symbol (p1|p2) and lookups.  code_of trusts its arguments.
    """
    row = _resolve(field)
    for p in primes:
        arith.require_prime(p)
    split = frozenset(p for p in primes if p != 2 and _splits(row.ds, p))
    return row.verdicts, partial(row.rule, split.__contains__, row.escape)


def classify(field: FieldDescriptor, p1: int, p2: int) -> Verdict:
    """The decision for H(p1, p2) over field: sweep_classifier run on the one pair.

    An unsupported field raises before the primes are looked at, then p1
    and p2 are proved distinct primes.
    """
    verdicts, code_of = sweep_classifier(field, (p1, p2))
    if p1 == p2:
        raise EqualPrimesError(f"the two primes must be distinct, got {p1} twice")
    return verdicts[code_of(p1, p2)]
