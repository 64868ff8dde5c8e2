"""Local degrees and the local-global division oracle."""

import pytest

from quatsplit.arith import factorize, primes_up_to
from quatsplit.classify import (
    Biquadratic,
    Cyclotomic,
    Kummer,
    Outcome,
    Quadratic,
    classify,
    sweep_classifier,
)
from quatsplit.errors import EqualPrimesError, InternalInvariantError, UnsupportedFieldError
from quatsplit.hilbert import INFINITE_PLACE, Place, ramified_places
from quatsplit.oracle import division_oracle, local_degree, sweep_oracle

PRIMES_200 = primes_up_to(200)
PAIRS_200 = [(p1, p2) for p1 in PRIMES_200 for p2 in PRIMES_200 if p1 != p2]


def test_local_degree_pinned():
    assert local_degree(Cyclotomic(7), Place(2)) == 3
    assert local_degree(Cyclotomic(9), Place(3)) == 6
    assert local_degree(Quadratic(-7), Place(2)) == 1
    assert local_degree(Quadratic(-3), Place(2)) == 2
    assert local_degree(Quadratic(-3), Place(3)) == 2
    # 17 ≡ 1 (mod 8) splits completely in Q(zeta_8): K_v = Q_v
    assert local_degree(Cyclotomic(8), Place(17)) == 1


def test_local_degree_infinite_place():
    assert local_degree(Cyclotomic(7), INFINITE_PLACE) == 2
    assert local_degree(Quadratic(-3), INFINITE_PLACE) == 2
    assert local_degree(Quadratic(5), INFINITE_PLACE) == 1
    assert local_degree(Biquadratic(-1, 2), INFINITE_PLACE) == 2
    assert local_degree(Biquadratic(2, 5), INFINITE_PLACE) == 1


def test_local_degree_biquadratic_values():
    # 2 is totally ramified in Q(zeta_8) = Q(i, sqrt 2)
    assert local_degree(Biquadratic(-1, 2), Place(2)) == 4
    # 17 = 1 (mod 8) splits completely
    assert local_degree(Biquadratic(-1, 2), Place(17)) == 1
    # 7 splits in Q(sqrt -3) only: degree 2 in Q(zeta_12)
    assert local_degree(Biquadratic(-1, -3), Place(7)) == 2


def test_local_degree_biquadratic_matches_cyclotomic():
    """Q(zeta_8) and Q(zeta_12) seen through their biquadratic presentations."""
    places = [Place(p) for p in PRIMES_200] + [INFINITE_PLACE]
    for biq, cyc in [(Biquadratic(-1, 2), Cyclotomic(8)), (Biquadratic(-1, -3), Cyclotomic(12))]:
        for v in places:
            assert local_degree(biq, v) == local_degree(cyc, v), (biq, v)


def test_local_degree_kummer_unsupported():
    """Kummer local degrees depend on the radicand, so local_degree refuses them; the
    oracle answers for Kummer(l, k) as for Q(zeta_{l**k}), whose degrees have the same parity."""
    with pytest.raises(UnsupportedFieldError, match="^no local degrees for kummer:3\\^1$"):
        local_degree(Kummer(3, 1), Place(7))
    for ell in (3, 7, 11, 19, 23):
        for k in (1, 2):
            kummer, cyclotomic = Kummer(ell, k), Cyclotomic(ell**k)
            for p1, p2 in PAIRS_200:
                assert division_oracle(kummer, p1, p2) is division_oracle(cyclotomic, p1, p2), (kummer, p1, p2)


def test_division_oracle_pinned():
    assert division_oracle(Cyclotomic(7), 3, 2) is Outcome.DIVISION
    assert division_oracle(Cyclotomic(7), 7, 2) is Outcome.SPLIT
    assert division_oracle(Cyclotomic(9), 19, 2) is Outcome.DIVISION
    assert division_oracle(Quadratic(-3), 5, 2) is Outcome.SPLIT


def test_oracle_trusts_the_biquadratic_third_subfield():
    """Q(sqrt d1*d2) is not re-checked, so d1*d2 may pass 2**64 when d1 and d2 do not."""
    field = Biquadratic(10**18 + 3, 10**18 + 9)
    pairs = [(2, 3), (2, 5), (3, 5), (3, 7), (7, 3), (11, 13), (13, 2)]
    outcomes = {division_oracle(field, p1, p2) for p1, p2 in pairs}
    assert outcomes == {Outcome.DIVISION, Outcome.SPLIT}
    for p1, p2 in pairs:
        assert division_oracle(field, p1, p2) is classify(field, p1, p2).outcome, (p1, p2)


def test_division_oracle_validates_primes():
    with pytest.raises(EqualPrimesError):
        division_oracle(Cyclotomic(7), 3, 3)


def test_empty_ramification_splits_everywhere():
    fields = [
        Quadratic(-3),
        Quadratic(5),
        Biquadratic(-1, -3),
        Cyclotomic(7),
        Cyclotomic(20),
        Cyclotomic(100),
    ]
    checked = 0
    for p1, p2 in PAIRS_200:
        if ramified_places(p1, p2).reduced_discriminant == 1:
            checked += 1
            for field in fields:
                assert division_oracle(field, p1, p2) is Outcome.SPLIT, (field, p1, p2)
    assert checked > 0


def test_odd_degree_transfer():
    """Q(zeta_{l^k}) decides exactly like its quadratic subfield Q(sqrt -l)."""
    for ell, k in [(3, 1), (3, 2), (7, 1), (7, 2), (11, 1), (19, 1), (23, 1)]:
        cyc = Cyclotomic(ell**k)
        quad = Quadratic(-ell)
        for p1, p2 in PAIRS_200:
            assert division_oracle(cyc, p1, p2) is division_oracle(quad, p1, p2), (ell, k, p1, p2)


def test_tower_monotonicity_at_even_indices():
    for p1, p2 in PAIRS_200:
        assert division_oracle(Cyclotomic(6), p1, p2) is division_oracle(Cyclotomic(3), p1, p2)
        assert division_oracle(Cyclotomic(10), p1, p2) is division_oracle(Cyclotomic(5), p1, p2)


def test_oracle_agrees_with_quadratic_criterion():
    """Independent re-derivation of the quadratic-base theorem."""
    ds = [d for d in range(-30, 31) if d not in (0, 1) and all(e == 1 for _, e in factorize(abs(d)))]
    for d in ds:
        field = Quadratic(d)
        for p1, p2 in PAIRS_200:
            expected = classify(Quadratic(d), p1, p2).outcome
            assert division_oracle(field, p1, p2) is expected, (d, p1, p2)


# The fields of the golden reports.
GOLDEN_FIELDS = (
    [Quadratic(-5), Quadratic(17), Biquadratic(-1, 2), Biquadratic(-1, -3)]
    + [Cyclotomic(n) for n in (3, 4, 5, 7, 8, 9, 11, 12, 19, 27, 49)]
    + [Kummer(7, 2)]
)


@pytest.mark.parametrize("field", GOLDEN_FIELDS, ids=str)
def test_sweep_oracle_matches_division_oracle(field):
    primes = primes_up_to(300)
    # Built from the odd primes too: the degree at 2 must count without 2 among the primes.
    for sweep_primes in (primes, primes[1:]):
        outcomes, code_of = sweep_oracle(field, sweep_primes)
        assert outcomes == (Outcome.DIVISION, Outcome.SPLIT)
        for p1 in sweep_primes:
            for p2 in sweep_primes:
                if p1 != p2:
                    assert outcomes[code_of(p1, p2)] is division_oracle(field, p1, p2), (field, p1, p2)


@pytest.mark.parametrize("field", [Cyclotomic(5), Cyclotomic(10)], ids=str)
def test_prop39_is_exact_over_q_zeta_5(field):
    """Prop 3.9 decides H(p1, p2) over Q(zeta_5) exactly, so every Unknown verdict is Split.

    Only 2, p1 and p2 can ramify in H_Q(p1, p2).  A prime q != 5 has local
    degree ord_5(q) in Q(zeta_5), which is odd only for q ≡ 1 (mod 5), and 5
    has degree 4; so 2 never counts, and H(p1, p2) is a division algebra
    exactly when some p_i ≡ 1 (mod 5) ramifies, which for such a p_i means
    (p_j|p_i) = -1: Prop 3.9's condition in one argument order or the other.
    Q(zeta_10) is the same field.  The verdicts stay Unknown: the paper
    states the condition as sufficient only.
    """
    primes = primes_up_to(1000)
    verdicts, code_of = sweep_classifier(field, primes)
    outcomes, oracle_of = sweep_oracle(field, primes)
    unknown = 0
    for p1 in primes:
        for p2 in primes:
            if p1 != p2:
                verdict = verdicts[code_of(p1, p2)].outcome
                oracle = outcomes[oracle_of(min(p1, p2), max(p1, p2))]
                assert verdict in (Outcome.DIVISION, Outcome.UNKNOWN), (p1, p2)
                assert (verdict is Outcome.DIVISION) == (oracle is Outcome.DIVISION), (p1, p2)
                unknown += verdict is Outcome.UNKNOWN
    assert unknown > 0


def test_invariant_failures_raise(monkeypatch):
    """Broken local inputs trip the oracle's invariant checks, never an assert."""
    import quatsplit.hilbert as hilbert_module
    import quatsplit.quadratic as quadratic_module

    with monkeypatch.context() as patch:
        patch.setattr(hilbert_module, "hilbert_symbol", lambda a, b, place: -1 if place.prime == 2 else 1)
        with pytest.raises(InternalInvariantError):
            ramified_places(3, 5)
    with monkeypatch.context() as patch:
        # an even count, but the infinite place ramifies for positive primes
        patch.setattr(
            hilbert_module, "hilbert_symbol", lambda a, b, place: -1 if place.prime in (2, None) else 1
        )
        with pytest.raises(InternalInvariantError):
            division_oracle(Cyclotomic(7), 3, 5)
    local_degree.cache_clear()
    try:
        with monkeypatch.context() as patch:
            # 11 split in Q(i) and Q(sqrt 2) but not in Q(sqrt -2): impossible
            split, inert = quadratic_module.SplittingType.SPLIT, quadratic_module.SplittingType.INERT
            patch.setattr(
                quadratic_module, "splitting_type_unchecked", lambda p, d: inert if d == -2 else split
            )
            with pytest.raises(InternalInvariantError):
                local_degree(Biquadratic(-1, 2), Place(11))
    finally:
        local_degree.cache_clear()


def test_local_degree_cache_is_bounded():
    """Point queries that share nothing cannot grow the cache past its bound."""
    local_degree.cache_clear()
    try:
        for p in primes_up_to(20_000)[:1500]:
            local_degree(Cyclotomic(7), Place(p))
        assert local_degree.cache_info().currsize <= 1024
    finally:
        local_degree.cache_clear()
