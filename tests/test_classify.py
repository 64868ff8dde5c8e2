"""Decision criteria: pinned examples, coherence sweeps, and error contracts."""

import pytest

from quatsplit.arith import primes_up_to
from quatsplit.classify import (
    Biquadratic,
    Certainty,
    Cyclotomic,
    Kummer,
    Outcome,
    Quadratic,
    classify,
)
from quatsplit.errors import (
    BadModulusError,
    DisallowedValueError,
    EqualPrimesError,
    InvalidInputError,
    NonSquarefreeError,
    UnsupportedFieldError,
)

PRIMES_200 = primes_up_to(200)
PAIRS_200 = [(p1, p2) for p1 in PRIMES_200 for p2 in PRIMES_200 if p1 != p2]
PAIRS_100 = [(p1, p2) for p1 in primes_up_to(100) for p2 in primes_up_to(100) if p1 != p2]


def test_quadratic_pinned():
    v = classify(Quadratic(-7), 3, 2)
    assert v.outcome is Outcome.DIVISION and v.certainty is Certainty.EXACT
    assert v.fired == ("thm3.1/case2/p≡3mod8",)

    v = classify(Quadratic(-1), 5, 2)
    assert v.outcome is Outcome.DIVISION
    assert v.fired == ("thm3.1/case2/p≡5mod8",)

    v = classify(Quadratic(-3), 5, 2)
    assert v.outcome is Outcome.SPLIT
    assert v.fired == ()


SYMMETRY_FIELDS = (
    [Quadratic(d) for d in (-7, -3, -1, 2, 5, -11, 13)]
    + [Biquadratic(-1, 2), Biquadratic(-1, -3), Biquadratic(17, -7)]
    + [Cyclotomic(n) for n in (*range(3, 13), 27)]
    + [Kummer(3, 2), Kummer(7, 1), Kummer(11, 2)]
)


def test_symmetric_in_primes():
    """H(p1, p2) and H(p2, p1) are isomorphic, so every field decides them alike."""
    for field in SYMMETRY_FIELDS:
        for p1, p2 in PAIRS_100:
            a, b = classify(field, p1, p2), classify(field, p2, p1)
            assert (a.outcome, a.certainty) == (b.outcome, b.certainty), (field, p1, p2)


def test_biquadratic_pinned():
    v = classify(Biquadratic(-1, 2), 17, 3)
    assert v.outcome is Outcome.DIVISION
    assert v.fired == ("thm3.4/case1",)

    v = classify(Biquadratic(-1, -3), 13, 2)
    assert v.outcome is Outcome.DIVISION
    assert v.fired == ("thm3.4/case2/p≡5mod8",)

    v = classify(Biquadratic(-1, 2), 7, 3)
    assert v.outcome is Outcome.SPLIT
    assert v.fired == ()


def test_cyclotomic_pinned():
    v = classify(Cyclotomic(7), 3, 2)
    assert v.outcome is Outcome.DIVISION
    assert "prop3.3/case2" in v.fired

    v = classify(Cyclotomic(12), 13, 2)
    assert v.outcome is Outcome.DIVISION
    assert "prop3.8/case2" in v.fired

    v = classify(Cyclotomic(9), 19, 2)
    assert v.outcome is Outcome.DIVISION
    assert "prop3.6/case2" in v.fired

    v = classify(Cyclotomic(7), 7, 2)
    assert v.outcome is Outcome.SPLIT

    v = classify(Cyclotomic(8), 17, 3)
    assert v.outcome is Outcome.DIVISION
    assert v.fired == ("prop3.5/main",)

    v = classify(Cyclotomic(5), 11, 2)
    assert v.outcome is Outcome.DIVISION and v.certainty is Certainty.SUFFICIENT_ONLY
    assert "prop3.9/p1≡1mod5" in v.fired

    v = classify(Cyclotomic(5), 7, 3)
    assert v.outcome is Outcome.UNKNOWN and v.certainty is Certainty.SUFFICIENT_ONLY
    assert v.fired == ()


def test_cyclotomic_reduction_traces():
    v = classify(Cyclotomic(6), 7, 3)
    assert v.trace[0].criterion == "reduction/n6→n3" and v.trace[0].fired
    v = classify(Cyclotomic(3), 7, 3)
    assert v.trace[0].criterion == "reduction/Q(ζ3)→Q(√-3)"
    v = classify(Cyclotomic(4), 5, 3)
    assert v.trace[0].criterion == "reduction/Q(ζ4)→Q(i)"


def test_reduction_coherence():
    """n = 6 decides exactly like n = 3, and n = 10 like n = 5."""
    for p1, p2 in PAIRS_200:
        a, b = classify(Cyclotomic(6), p1, p2), classify(Cyclotomic(3), p1, p2)
        assert (a.outcome, a.certainty, a.criteria()) == (b.outcome, b.certainty, b.criteria()), (p1, p2)
        a, b = classify(Cyclotomic(10), p1, p2), classify(Cyclotomic(5), p1, p2)
        assert (a.outcome, a.certainty, a.criteria()) == (b.outcome, b.certainty, b.criteria()), (p1, p2)


def test_specialization_coherence():
    """The prime-power criterion specializes to the per-n propositions: the
    Kummer fields below reduce to n = 27, 49, 121, which prop 4.1 decides."""
    cases = [(3, 3, 3), (3, 3, 9), (7, 2, 7), (11, 2, 11)]
    for ell, k, n in cases:
        for p1, p2 in PAIRS_200:
            direct = classify(Kummer(ell, k), p1, p2)
            vian = classify(Cyclotomic(n), p1, p2)
            assert direct.outcome is vian.outcome, (ell, k, n, p1, p2)


def test_prop41_k_independence():
    """Same outcome for every k; same criteria wherever l**k goes through prop 4.1."""
    for ell in (3, 7, 11):
        for p1, p2 in PAIRS_100:
            verdicts = {k: classify(Kummer(ell, k), p1, p2) for k in (1, 2, 3)}
            assert len({(v.outcome, v.certainty) for v in verdicts.values()}) == 1, (ell, p1, p2)
            prop41 = {v.criteria() for k, v in verdicts.items() if ell**k > 12}
            assert len(prop41) == 1, (ell, p1, p2)


def test_prop41_pinned():
    v = classify(Cyclotomic(27), 19, 2)
    assert v.outcome is Outcome.DIVISION and v.fired == ("prop4.1/case2",)
    v = classify(Cyclotomic(49), 3, 2)
    assert v.outcome is Outcome.DIVISION and v.fired == ("prop4.1/case2",)
    # (13|5) = (3|5) = -1 and (-11|5) = (-1|5)(11|5) = +1: case 1 fires
    v = classify(Cyclotomic(121), 13, 5)
    assert v.outcome is Outcome.DIVISION and v.fired == ("prop4.1/case1",)


def test_prop41_rejects_out_of_scope():
    with pytest.raises(BadModulusError):
        classify(Kummer(5, 1), 7, 3)
    with pytest.raises(InvalidInputError):
        classify(Kummer(3, 0), 7, 5)
    # l**k must be below 2**64: 3**40 < 2**64 < 3**41
    assert classify(Kummer(3, 40), 7, 5).certainty is Certainty.EXACT
    for k in (41, 20000, 10**12):
        with pytest.raises(InvalidInputError) as info:
            classify(Kummer(3, k), 7, 5)
        assert not isinstance(info.value, BadModulusError)


def test_kummer_matches_cyclotomic():
    assert classify(Kummer(3, 1), 7, 3).outcome is classify(Cyclotomic(3), 7, 3).outcome
    v = classify(Kummer(7, 1), 3, 2)
    assert v.outcome is Outcome.DIVISION
    assert v.trace[0].criterion == "reduction/kummer(7^1)→cyclotomic(7)"
    # p = ell is fine here: the cyclotomic route covers it
    v = classify(Kummer(3, 2), 3, 7)
    assert v.outcome in (Outcome.DIVISION, Outcome.SPLIT)
    for ell, k in [(3, 2), (7, 1), (11, 2), (19, 1), (23, 1)]:
        for p1, p2 in PAIRS_100[:500]:
            a = classify(Kummer(ell, k), p1, p2)
            b = classify(Cyclotomic(ell**k), p1, p2)
            assert a.outcome is b.outcome and a.certainty is b.certainty, (ell, k, p1, p2)


def test_point_classify_relabels_once(monkeypatch):
    """A field's reduction steps are put on its verdicts once, not on every classify call."""
    import quatsplit.classify as classify_module

    # the package root re-exports nothing, so the submodule import binds the module
    assert classify_module.classify is classify
    calls = 0
    reduced = classify_module._reduced

    def counted(label, row):
        nonlocal calls
        calls += 1
        return reduced(label, row)

    monkeypatch.setattr(classify_module, "_reduced", counted)
    classify_module._resolve.cache_clear()
    try:
        first = classify(Kummer(7, 1), 3, 2)
        second = classify(Kummer(7, 1), 11, 5)
    finally:
        classify_module._resolve.cache_clear()
    assert calls == 1
    assert first.trace[0] == second.trace[0] == ("reduction/kummer(7^1)→cyclotomic(7)", True)


def test_kummer_rejects_bad_modulus():
    with pytest.raises(BadModulusError):
        classify(Kummer(5, 1), 7, 3)
    with pytest.raises(BadModulusError):
        classify(Kummer(9, 1), 7, 3)


def test_unsupported_cyclotomic_indices():
    for n in (13, 16, 17, 20, 21, 24, 25, 100):
        with pytest.raises(UnsupportedFieldError):
            classify(Cyclotomic(n), 7, 3)
    # 2 * 13 canonicalizes to the unsupported 13
    with pytest.raises(UnsupportedFieldError):
        classify(Cyclotomic(26), 7, 3)
    # but prime-power indices beyond 12 are fine
    assert classify(Cyclotomic(27), 7, 3).certainty is Certainty.EXACT
    assert classify(Cyclotomic(19), 7, 3).certainty is Certainty.EXACT
    assert classify(Cyclotomic(49), 7, 3).certainty is Certainty.EXACT


def test_descriptors_check_themselves_when_made():
    """A bad field raises when its descriptor is made, before any entry point sees it."""
    with pytest.raises(InvalidInputError, match="below 2\\*\\*64"):
        Cyclotomic(2**89 - 1)
    with pytest.raises(InvalidInputError, match="below 2\\*\\*64"):
        Cyclotomic(2**64)
    with pytest.raises(InvalidInputError, match="below 2\\*\\*64") as info:
        Kummer(3, 41)
    assert not isinstance(info.value, BadModulusError)
    with pytest.raises(InvalidInputError, match="distinct") as info:
        Biquadratic(5, 5)
    assert not isinstance(info.value, NonSquarefreeError)
    # Support is classify's question: Q(zeta_13) is a valid field that it refuses.
    with pytest.raises(UnsupportedFieldError):
        classify(Cyclotomic(13), 7, 3)


def test_input_validation():
    with pytest.raises(EqualPrimesError):
        classify(Cyclotomic(7), 3, 3)
    with pytest.raises(EqualPrimesError):
        classify(Quadratic(-7), 2, 2)
    with pytest.raises(InvalidInputError):
        classify(Cyclotomic(7), 9, 2)
    with pytest.raises(InvalidInputError):
        classify(Quadratic(-7), -3, 2)
    with pytest.raises(NonSquarefreeError):
        classify(Quadratic(12), 7, 3)
    with pytest.raises(DisallowedValueError):
        classify(Quadratic(1), 7, 3)
    with pytest.raises(InvalidInputError):
        classify(Biquadratic(-1, -1), 7, 3)
    with pytest.raises(NonSquarefreeError):
        classify(Biquadratic(-1, 12), 7, 3)


def test_verdict_invariants_sweep():
    """Exact verdicts are Division or Split; Unknown only for n in {5, 10}."""
    for n in (3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 19, 27):
        for p1, p2 in PAIRS_100[:800]:
            v = classify(Cyclotomic(n), p1, p2)
            if v.certainty is Certainty.EXACT:
                assert v.outcome in (Outcome.DIVISION, Outcome.SPLIT), (n, p1, p2)
            if v.outcome is Outcome.UNKNOWN:
                assert v.certainty is Certainty.SUFFICIENT_ONLY
                assert n in (5, 10), (n, p1, p2)
            assert (v.outcome is Outcome.DIVISION) == any(s.fired for s in v.criteria()), (n, p1, p2)


def test_biquadratic_cyclotomic_coherence():
    """Q(zeta_8) = Q(i, sqrt 2) and Q(zeta_12) = Q(i, sqrt -3)."""
    for p1, p2 in PAIRS_200:
        assert classify(Cyclotomic(8), p1, p2).outcome is classify(Biquadratic(-1, 2), p1, p2).outcome, (p1, p2)
        assert classify(Cyclotomic(12), p1, p2).outcome is classify(Biquadratic(-1, -3), p1, p2).outcome, (p1, p2)


def test_dispatcher():
    assert classify(Quadratic(-7), 3, 2).outcome is Outcome.DIVISION
    assert classify(Biquadratic(-1, -3), 13, 2).outcome is Outcome.DIVISION
    assert classify(Cyclotomic(9), 19, 2).outcome is Outcome.DIVISION
    assert classify(Kummer(7, 1), 3, 2).outcome is Outcome.DIVISION
    with pytest.raises(UnsupportedFieldError):
        classify(Cyclotomic(13), 3, 2)


def test_field_descriptor_strings():
    assert str(Quadratic(-7)) == "quadratic:-7"
    assert str(Biquadratic(-1, -3)) == "biquadratic:-1,-3"
    assert str(Cyclotomic(9)) == "cyclotomic:9"
    assert str(Kummer(3, 2)) == "kummer:3^2"
