"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The results are exact arithmetic theorems, so every check is exact agreement
or an exhaustive/seeded property; there are no numeric tolerances anywhere.
Run with `pytest tests/test_acceptance.py -v -s` to see the status lines.
"""

import random
import time

from quatsplit.arith import legendre, primes_up_to
from quatsplit.classify import Cyclotomic, Kummer, Outcome, Quadratic, classify
from quatsplit.hilbert import discriminant_fast_path, ramified_places
from quatsplit.oracle import division_oracle

PRIMES_200 = primes_up_to(200)
PAIRS_200 = [(p1, p2) for p1 in PRIMES_200 for p2 in PRIMES_200 if p1 != p2]
PRIMES_500 = primes_up_to(500)
PAIRS_500 = [(p1, p2) for p1 in PRIMES_500 for p2 in PRIMES_500 if p1 != p2]


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_classifier_equals_oracle():
    assert len(PRIMES_200) == 46 and len(PAIRS_200) == 2070
    start = time.perf_counter()
    disagreements = []
    for n in (3, 4, 6, 7, 8, 9, 11, 12):
        field = Cyclotomic(n)
        for p1, p2 in PAIRS_200:
            verdict = classify(Cyclotomic(n), p1, p2)
            oracle = division_oracle(field, p1, p2)
            if verdict.outcome is not oracle:
                disagreements.append((n, p1, p2, verdict.outcome.value, oracle.value, verdict.trace))
    elapsed = time.perf_counter() - start
    for row in disagreements[:20]:
        print("  disagreement:", row)
    report(
        1,
        "criterion-vs-oracle equivalence",
        not disagreements and elapsed < 10.0,
        f"8 fields x 2070 ordered pairs, {len(disagreements)} disagreements, {elapsed:.2f}s",
    )


def test_criterion_2_prime_power_equivalence():
    """Prime-power fields through classify(Kummer(l, k), ...): oracle
    agreement, and the same outcome for k = 1 and k = 2 (the same criteria
    when both go through prop 4.1, i.e. l**1 > 12)."""
    disagreements = []
    k_dependent = []
    for ell in (3, 7, 11, 19, 23):
        verdicts_by_k = {}
        for k in (1, 2):
            field = Cyclotomic(ell**k)
            for p1, p2 in PAIRS_200:
                if ell in (p1, p2):
                    continue
                verdict = classify(Kummer(ell, k), p1, p2)
                oracle = division_oracle(field, p1, p2)
                if verdict.outcome is not oracle:
                    disagreements.append((ell, k, p1, p2, verdict.outcome.value, oracle.value))
                if k == 1:
                    verdicts_by_k[(p1, p2)] = verdict
                    continue
                first = verdicts_by_k[(p1, p2)]
                if (first.outcome, first.certainty) != (verdict.outcome, verdict.certainty) or (
                    ell > 12 and first.criteria() != verdict.criteria()
                ):
                    k_dependent.append((ell, p1, p2))
    report(
        2,
        "prime-power criterion equivalence",
        not disagreements and not k_dependent,
        f"l in {{3,7,11,19,23}}, k in {{1,2}}: {len(disagreements)} disagreements, "
        f"{len(k_dependent)} k-dependent verdicts",
    )


def test_criterion_3_fast_path_reproduction():
    mismatches = []
    covered = 0
    for p, q in PAIRS_500:
        fast = discriminant_fast_path(p, q)
        if fast is None:
            continue
        covered += 1
        general = ramified_places(p, q).reduced_discriminant
        if fast != general:
            mismatches.append((p, q, fast, general))
    report(
        3,
        "closed-form discriminant reproduction",
        not mismatches and covered > 0,
        f"{covered} covered pairs of {len(PAIRS_500)}, {len(mismatches)} mismatches",
    )


def test_criterion_4_product_formula():
    odd_sized = []
    for p, q in PAIRS_500:
        if len(ramified_places(p, q).ramified) % 2:
            odd_sized.append((p, q))
    rng = random.Random(20260808)
    random_checked = 0
    while random_checked < 10_000:
        a = rng.randrange(-1000, 1001)
        b = rng.randrange(-1000, 1001)
        if a == 0 or b == 0:
            continue
        if len(ramified_places(a, b).ramified) % 2:
            odd_sized.append((a, b))
        random_checked += 1
    report(
        4,
        "Hilbert product formula",
        not odd_sized,
        f"{len(PAIRS_500)} prime pairs + {random_checked} random pairs, {len(odd_sized)} exceptions",
    )


def test_criterion_5_sufficiency_for_n5_n10():
    primes = primes_up_to(1000)
    fields = (Cyclotomic(5), Cyclotomic(10))
    hypothesis_pairs = [
        (p1, p2)
        for p1 in primes
        for p2 in primes
        if p1 != p2 and p1 % 5 == 1 and legendre(p2, p1) == -1
    ]
    failures = [
        (field, p1, p2)
        for field in fields
        for p1, p2 in hypothesis_pairs
        if division_oracle(field, p1, p2) is not Outcome.DIVISION
    ]
    # informational probe of necessity: oracle divisions not covered by the
    # hypothesis in either argument order
    uncovered = []
    for p1 in primes:
        for p2 in primes:
            if p1 == p2:
                continue
            hit1 = p1 % 5 == 1 and legendre(p2, p1) == -1
            hit2 = p2 % 5 == 1 and legendre(p1, p2) == -1
            if not hit1 and not hit2 and division_oracle(fields[0], p1, p2) is Outcome.DIVISION:
                uncovered.append((p1, p2))
    print(
        f"[acceptance] criterion 5 note: {len(uncovered)} oracle-division pairs <= 1000 "
        "outside the (order-symmetrized) sufficient condition"
    )
    report(
        5,
        "sufficiency over the 5th/10th fields",
        not failures,
        f"{len(hypothesis_pairs)} hypothesis pairs x 2 fields, {len(failures)} failures",
    )


def test_criterion_6_odd_degree_transfer():
    exceptions = []
    for n, d in ((7, -7), (9, -3), (11, -11)):
        cyc, quad = Cyclotomic(n), Quadratic(d)
        for p1, p2 in PAIRS_200:
            if division_oracle(cyc, p1, p2) is not division_oracle(quad, p1, p2):
                exceptions.append((n, d, p1, p2))
    report(
        6,
        "odd-degree transfer",
        not exceptions,
        f"3 field pairs x 2070 ordered pairs, {len(exceptions)} exceptions",
    )


def test_criterion_7_legendre_law_suite():
    rng = random.Random(20260808)
    odd_primes = [p for p in primes_up_to(2000) if p != 2]
    bad = []
    for _ in range(10_000):
        p = rng.choice(odd_primes)
        a = rng.randrange(-(10**6), 10**6)
        b = rng.randrange(-(10**6), 10**6)
        if a % p and b % p and legendre(a * b, p) != legendre(a, p) * legendre(b, p):
            bad.append(("multiplicativity", a, b, p))
        if legendre(a, p) != legendre(a + p * rng.randrange(-3, 4), p):
            bad.append(("periodicity", a, p))
        if legendre(-1, p) != (-1) ** ((p - 1) // 2):
            bad.append(("first supplement", p))
        if legendre(2, p) != (-1) ** ((p * p - 1) // 8):
            bad.append(("second supplement", p))
        q = rng.choice(odd_primes)
        if q != p and legendre(p, q) * legendre(q, p) != (-1) ** ((p - 1) // 2 * ((q - 1) // 2)):
            bad.append(("reciprocity", p, q))
    report(7, "Legendre law suite", not bad, f"10000 seeded cases per law, {len(bad)} violations")


def test_criterion_8_pinned_paper_examples():
    checks = [
        (classify(Cyclotomic(7), 3, 2), "prop3.3/case2"),
        (classify(Cyclotomic(12), 13, 2), "prop3.8/case2"),
        (classify(Cyclotomic(9), 19, 2), "prop3.6/case2"),
        (classify(Quadratic(-7), 3, 2), "thm3.1/case2/p≡3mod8"),
    ]
    problems = []
    for verdict, expected_id in checks:
        if verdict.outcome is not Outcome.DIVISION or expected_id not in verdict.fired:
            problems.append((expected_id, verdict.outcome.value, verdict.fired))
    report(
        8,
        "pinned examples with traces",
        not problems,
        f"4 pinned division verdicts with criterion ids, {len(problems)} problems",
    )
