"""CLI surface: formats, exit codes, report determinism, round-trips."""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quatsplit
from quatsplit import workers
from quatsplit.arith import primes_up_to
from quatsplit.classify import Biquadratic, Cyclotomic, Kummer, Quadratic, classify, sweep_classifier
from quatsplit.cli import (
    EXIT_BAD_ARGS,
    EXIT_DISAGREEMENTS,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_UNSUPPORTED,
    build_sweep_report,
    format_trace,
    main,
    parse_field_spec,
    render_report_csv,
    render_report_json,
)
from quatsplit.errors import InvalidInputError, UnsupportedFieldError
from quatsplit.oracle import division_oracle, local_degree, sweep_oracle


def _env_with_src():
    """The environment for a child Python that imports this checkout's quatsplit."""
    src = str(Path(quatsplit.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_field_spec():
    assert parse_field_spec("quadratic:-7") == Quadratic(-7)
    assert parse_field_spec("biquadratic:-1,-3") == Biquadratic(-1, -3)
    assert parse_field_spec("cyclotomic:7") == Cyclotomic(7)
    assert parse_field_spec("cyclotomic:14") == Cyclotomic(7)  # canonicalized
    assert parse_field_spec("kummer:3^2") == Kummer(3, 2)
    for bad in ("septic:3", "cyclotomic", "kummer:3", "biquadratic:-1", "quadratic:x"):
        with pytest.raises(InvalidInputError):
            parse_field_spec(bad)
    # n is canonicalized only after the descriptor checked it, so its own message stands
    for n in (2, -5):
        with pytest.raises(InvalidInputError, match=f"^cyclotomic index must be >= 3, got {n}$"):
            parse_field_spec(f"cyclotomic:{n}")


def test_classify_text(capsys):
    code, out, _ = run_cli(capsys, "classify", "--field", "cyclotomic:7", "--p", "3", "--q", "2")
    assert code == EXIT_OK
    assert "outcome: Division" in out
    assert "certainty: Exact" in out
    assert "prop3.3/case2:hit" in out


def test_classify_unknown_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "classify", "--field", "cyclotomic:5", "--p", "7", "--q", "3")
    assert code == EXIT_OK
    assert "outcome: Unknown" in out
    assert "certainty: SufficientOnly" in out


def test_classify_quadratic_example(capsys):
    code, out, _ = run_cli(capsys, "classify", "--field", "quadratic:-7", "--p", "3", "--q", "2")
    assert code == EXIT_OK
    assert "outcome: Division" in out
    assert "thm3.1/case2/p≡3mod8:hit" in out


def test_classify_json(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--field", "cyclotomic:9", "--p", "19", "--q", "2", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["field"] == "cyclotomic:9"
    assert payload["outcome"] == "Division"
    assert payload["certainty"] == "Exact"
    assert {"criterion": "prop3.6/case2", "fired": True} in payload["trace"]


def test_classify_csv(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--field", "biquadratic:-1,-3", "--p", "13", "--q", "2", "--format", "csv"
    )
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["field", "p1", "p2", "classify", "certainty", "trace"]
    assert rows[1][:5] == ["biquadratic:-1,-3", "13", "2", "Division", "Exact"]


def test_classify_error_exit_codes(capsys):
    code, _, err = run_cli(capsys, "classify", "--field", "cyclotomic:13", "--p", "3", "--q", "2")
    assert code == EXIT_UNSUPPORTED and "error:" in err
    code, _, _ = run_cli(capsys, "classify", "--field", "kummer:5^1", "--p", "3", "--q", "2")
    assert code == EXIT_UNSUPPORTED
    code, _, _ = run_cli(capsys, "classify", "--field", "quadratic:12", "--p", "3", "--q", "2")
    assert code == EXIT_BAD_ARGS
    code, _, _ = run_cli(capsys, "classify", "--field", "cyclotomic:7", "--p", "3", "--q", "3")
    assert code == EXIT_BAD_ARGS
    code, _, _ = run_cli(capsys, "classify", "--field", "cyclotomic:7", "--p", "9", "--q", "2")
    assert code == EXIT_BAD_ARGS
    code, _, _ = run_cli(capsys, "classify", "--field", "nonsense", "--p", "3", "--q", "2")
    assert code == EXIT_BAD_ARGS
    # a prime past 2**64 is named by what it is, not by is_prime's range check
    huge = str(2**64 + 13)
    for field, p, q, message in (
        ("cyclotomic:7", huge, "5", "expected a prime"),
        ("cyclotomic:7", "5", huge, "expected a prime"),
        (f"kummer:{huge}^1", "3", "2", "l must be a prime"),
    ):
        code, _, err = run_cli(capsys, "classify", "--field", field, "--p", p, "--q", q)
        assert (code, err) == (EXIT_BAD_ARGS, f"error: {message} below 2**64, got {huge}\n")
        assert "is_prime" not in err


BAD_FIELD_EXIT_CODES = {
    "quadratic:12": EXIT_BAD_ARGS,
    "biquadratic:-1,-1": EXIT_BAD_ARGS,
    "cyclotomic:13": EXIT_UNSUPPORTED,
    "kummer:5^1": EXIT_UNSUPPORTED,
    "kummer:3^20000": EXIT_BAD_ARGS,
    f"cyclotomic:{2**64 + 2}": EXIT_BAD_ARGS,
    "cyclotomic:2": EXIT_BAD_ARGS,
    "cyclotomic:-5": EXIT_BAD_ARGS,
}


@pytest.mark.parametrize("primes", [(4, 3), (3, 3)], ids=["non-prime", "repeated"])
@pytest.mark.parametrize("spec", BAD_FIELD_EXIT_CODES)
def test_field_checked_before_primes(capsys, spec, primes):
    """A bad field fails as it does with good primes, whatever is wrong with the primes:
    an invalid one when its spec is parsed, a valid but unsupported one in classify."""
    with pytest.raises((InvalidInputError, UnsupportedFieldError)) as field_error:
        classify(parse_field_spec(spec), 7, 3)
    with pytest.raises((InvalidInputError, UnsupportedFieldError)) as error:
        classify(parse_field_spec(spec), *primes)
    assert type(error.value) is type(field_error.value)
    assert str(error.value) == str(field_error.value)
    p, q = map(str, primes)
    assert run_cli(capsys, "classify", "--field", spec, "--p", p, "--q", q)[0] == BAD_FIELD_EXIT_CODES[spec]


def test_kummer_power_bound_exit_codes(capsys):
    """l**k >= 2**64 is a bad argument for classify and verify, not a traceback."""
    code, _, err = run_cli(capsys, "classify", "--field", "kummer:3^20000", "--p", "7", "--q", "3")
    assert code == EXIT_BAD_ARGS and "2**64" in err
    code, _, err = run_cli(capsys, "verify", "--field", "kummer:3^20000", "--max-prime", "20")
    assert code == EXIT_BAD_ARGS and "2**64" in err


def test_classify_canonicalizes_field(capsys):
    code, out, _ = run_cli(capsys, "classify", "--field", "cyclotomic:14", "--p", "3", "--q", "2")
    assert code == EXIT_OK
    assert "field: cyclotomic:7" in out
    assert "outcome: Division" in out


def test_ramification_text(capsys):
    code, out, _ = run_cli(capsys, "ramification", "--a", "3", "--b", "2")
    assert code == EXIT_OK
    assert "ramified: 2 3" in out
    assert "reduced_discriminant: 6" in out

    code, out, _ = run_cli(capsys, "ramification", "--a", "7", "--b", "2")
    assert code == EXIT_OK
    assert "ramified: (none)" in out
    assert "reduced_discriminant: 1" in out

    code, out, _ = run_cli(capsys, "ramification", "--a", "7", "--b", "3")
    assert "ramified: 2 7" in out and "reduced_discriminant: 14" in out


def test_ramification_json_and_csv(capsys):
    code, out, _ = run_cli(capsys, "ramification", "--a", "-1", "--b", "-1", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["ramified"] == ["2", "inf"]
    assert payload["reduced_discriminant"] == 2

    code, out, _ = run_cli(capsys, "ramification", "--a", "3", "--b", "2", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["a", "b", "ramified", "reduced_discriminant"]
    assert rows[1] == ["3", "2", "2;3", "6"]


# Exact bodies of the point commands: (argv, body) for each format.
POINT_BODIES = [
    (
        ("classify", "--field", "cyclotomic:9", "--p", "19", "--q", "2"),
        "field: cyclotomic:9\np1: 19\np2: 2\noutcome: Division\ncertainty: Exact\ntrace: prop3.6/case2:hit\n",
    ),
    (
        ("classify", "--field", "cyclotomic:9", "--p", "19", "--q", "2", "--format", "json"),
        '{\n  "field": "cyclotomic:9",\n  "p1": 19,\n  "p2": 2,\n  "outcome": "Division",\n'
        '  "certainty": "Exact",\n  "trace": [\n    {\n      "criterion": "prop3.6/case2",\n'
        '      "fired": true\n    }\n  ]\n}\n',
    ),
    (
        ("classify", "--field", "cyclotomic:9", "--p", "19", "--q", "2", "--format", "csv"),
        "field,p1,p2,classify,certainty,trace\ncyclotomic:9,19,2,Division,Exact,prop3.6/case2:hit\n",
    ),
    # The CLI canonicalizes n = 14 to 7, so the body carries no reduction step ...
    (
        ("classify", "--field", "cyclotomic:14", "--p", "3", "--q", "2"),
        "field: cyclotomic:7\np1: 3\np2: 2\noutcome: Division\ncertainty: Exact\ntrace: prop3.3/case2:hit\n",
    ),
    (
        ("classify", "--field", "cyclotomic:14", "--p", "3", "--q", "2", "--format", "json"),
        '{\n  "field": "cyclotomic:7",\n  "p1": 3,\n  "p2": 2,\n  "outcome": "Division",\n'
        '  "certainty": "Exact",\n  "trace": [\n    {\n      "criterion": "prop3.3/case2",\n'
        '      "fired": true\n    }\n  ]\n}\n',
    ),
    (
        ("classify", "--field", "cyclotomic:14", "--p", "3", "--q", "2", "--format", "csv"),
        "field,p1,p2,classify,certainty,trace\ncyclotomic:7,3,2,Division,Exact,prop3.3/case2:hit\n",
    ),
    # ... while a Kummer field does.
    (
        ("classify", "--field", "kummer:7^1", "--p", "3", "--q", "2"),
        "field: kummer:7^1\np1: 3\np2: 2\noutcome: Division\ncertainty: Exact\n"
        "trace: reduction/kummer(7^1)→cyclotomic(7):hit|prop3.3/case2:hit\n",
    ),
    (
        ("classify", "--field", "kummer:7^1", "--p", "3", "--q", "2", "--format", "json"),
        '{\n  "field": "kummer:7^1",\n  "p1": 3,\n  "p2": 2,\n  "outcome": "Division",\n'
        '  "certainty": "Exact",\n  "trace": [\n    {\n      "criterion": "reduction/kummer(7^1)→cyclotomic(7)",\n'
        '      "fired": true\n    },\n    {\n      "criterion": "prop3.3/case2",\n'
        '      "fired": true\n    }\n  ]\n}\n',
    ),
    (
        ("classify", "--field", "kummer:7^1", "--p", "3", "--q", "2", "--format", "csv"),
        "field,p1,p2,classify,certainty,trace\n"
        "kummer:7^1,3,2,Division,Exact,reduction/kummer(7^1)→cyclotomic(7):hit|prop3.3/case2:hit\n",
    ),
    (
        ("classify", "--field", "cyclotomic:5", "--p", "7", "--q", "3"),
        "field: cyclotomic:5\np1: 7\np2: 3\noutcome: Unknown\ncertainty: SufficientOnly\n"
        "trace: prop3.9/p1≡1mod5:miss|prop3.9/p2≡1mod5:miss\n",
    ),
    (
        ("classify", "--field", "cyclotomic:5", "--p", "7", "--q", "3", "--format", "json"),
        '{\n  "field": "cyclotomic:5",\n  "p1": 7,\n  "p2": 3,\n  "outcome": "Unknown",\n'
        '  "certainty": "SufficientOnly",\n  "trace": [\n    {\n      "criterion": "prop3.9/p1≡1mod5",\n'
        '      "fired": false\n    },\n    {\n      "criterion": "prop3.9/p2≡1mod5",\n'
        '      "fired": false\n    }\n  ]\n}\n',
    ),
    (
        ("classify", "--field", "cyclotomic:5", "--p", "7", "--q", "3", "--format", "csv"),
        "field,p1,p2,classify,certainty,trace\n"
        "cyclotomic:5,7,3,Unknown,SufficientOnly,prop3.9/p1≡1mod5:miss|prop3.9/p2≡1mod5:miss\n",
    ),
    (
        ("ramification", "--a", "3", "--b", "2"),
        "a: 3\nb: 2\nramified: 2 3\nreduced_discriminant: 6\n",
    ),
    (
        ("ramification", "--a", "3", "--b", "2", "--format", "json"),
        '{\n  "a": 3,\n  "b": 2,\n  "ramified": [\n    "2",\n    "3"\n  ],\n  "reduced_discriminant": 6\n}\n',
    ),
    (
        ("ramification", "--a", "3", "--b", "2", "--format", "csv"),
        "a,b,ramified,reduced_discriminant\n3,2,2;3,6\n",
    ),
    (
        ("ramification", "--a", "7", "--b", "2"),
        "a: 7\nb: 2\nramified: (none)\nreduced_discriminant: 1\n",
    ),
    (
        ("ramification", "--a", "7", "--b", "2", "--format", "json"),
        '{\n  "a": 7,\n  "b": 2,\n  "ramified": [],\n  "reduced_discriminant": 1\n}\n',
    ),
    (
        ("ramification", "--a", "7", "--b", "2", "--format", "csv"),
        "a,b,ramified,reduced_discriminant\n7,2,,1\n",
    ),
    (
        ("ramification", "--a", "-1", "--b", "-1"),
        "a: -1\nb: -1\nramified: 2 inf\nreduced_discriminant: 2\n",
    ),
    (
        ("ramification", "--a", "-1", "--b", "-1", "--format", "json"),
        '{\n  "a": -1,\n  "b": -1,\n  "ramified": [\n    "2",\n    "inf"\n  ],\n  "reduced_discriminant": 2\n}\n',
    ),
    (
        ("ramification", "--a", "-1", "--b", "-1", "--format", "csv"),
        "a,b,ramified,reduced_discriminant\n-1,-1,2;inf,2\n",
    ),
]


@pytest.mark.parametrize("argv, body", POINT_BODIES, ids=[" ".join(argv) for argv, _ in POINT_BODIES])
def test_point_command_body(capsys, argv, body):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK and err == ""
    assert out == body


def test_ramification_rejects_zero(capsys):
    code, _, err = run_cli(capsys, "ramification", "--a", "0", "--b", "5")
    assert code == EXIT_BAD_ARGS and "error:" in err


def test_ramification_bounds_its_arguments(capsys):
    """|a| and |b| must be below 2**64; 2**64 - 1 itself is in range."""
    top = str(2**64 - 1)
    code, out, _ = run_cli(capsys, "ramification", "--a", top, "--b", f"-{top}")
    assert code == EXIT_OK and out.startswith(f"a: {top}\nb: -{top}\n")
    for name, argv in (("--a", ("--a", str(2**64), "--b", "3")), ("--b", ("--a", "3", "--b", str(-(2**64))))):
        code, out, err = run_cli(capsys, "ramification", *argv)
        assert code == EXIT_BAD_ARGS and out == ""
        assert err == f"error: {name} must be below 2**64 in absolute value\n"


def test_ramification_huge_argument_exits_promptly():
    """A 70-digit a is rejected before anything factors it, and a 64-bit prime or
    product of two 32-bit primes is factored without trial division up to its square root."""
    for a, code, ramified in (
        ("7" * 70, EXIT_BAD_ARGS, None),
        ("1000000000000000003", EXIT_OK, "2 1000000000000000003"),
        (str((2**32 - 17) * (2**32 - 5)), EXIT_OK, "(none)"),
    ):
        result = subprocess.run(
            [sys.executable, "-m", "quatsplit", "ramification", "--a", a, "--b", "3"],
            capture_output=True,
            text=True,
            env=_env_with_src(),
            timeout=60,
        )
        assert result.returncode == code, result.stderr
        if ramified is None:
            assert result.stderr.startswith("error:")
        else:
            assert f"ramified: {ramified}\n" in result.stdout


_NONZERO_64 = st.integers(min_value=1, max_value=2**64 - 1).flatmap(lambda n: st.sampled_from((n, -n)))


@settings(max_examples=100, deadline=2000, database=None)
@given(_NONZERO_64, _NONZERO_64)
def test_ramification_of_any_64_bit_arguments(a, b):
    """ramification answers for every nonzero |a|, |b| < 2**64 within the deadline, and
    Hilbert reciprocity holds: an even number of places ramify."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["ramification", "--a", str(a), "--b", str(b), "--format", "json"])
    assert code == EXIT_OK
    assert len(json.loads(out.getvalue())["ramified"]) % 2 == 0


# Small parameters hit valid and supported fields; wide ones reach past every 2**64 bound.
_PARAM = st.one_of(st.integers(-60, 60), st.integers(-(2**65), 2**65))
_FIELD_SPECS = st.one_of(
    st.builds("quadratic:{}".format, _PARAM),
    st.builds("biquadratic:{},{}".format, _PARAM, _PARAM),
    st.builds("cyclotomic:{}".format, _PARAM),
    st.builds("kummer:{}^{}".format, _PARAM, st.integers(-1, 70)),
)
_PRIME_ARG = st.one_of(st.sampled_from(primes_up_to(200)), st.integers(-(2**65), 2**65))


@settings(max_examples=200, deadline=None, database=None)
@given(_FIELD_SPECS, _PRIME_ARG, _PRIME_ARG, st.integers(0, 60))
def test_classify_and_verify_of_any_field_spec(spec, p, q, max_prime):
    """classify and verify answer every field spec of every kind, valid or not, with parameters
    up to 2**65 in absolute value: each call exits 0, 2 or 3 within 2 s, and never with a traceback."""
    for argv in (
        ["classify", "--field", spec, "--p", str(p), "--q", str(q)],
        ["verify", "--field", spec, "--max-prime", str(max_prime)],
    ):
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert time.perf_counter() - start < 2, argv
        assert code in (EXIT_OK, EXIT_BAD_ARGS, EXIT_UNSUPPORTED), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv


def test_verify_csv_report(capsys, tmp_path):
    out_path = tmp_path / "report.csv"
    code, out, _ = run_cli(
        capsys,
        "verify", "--field", "cyclotomic:7", "--max-prime", "50",
        "--format", "csv", "--out", str(out_path),
    )
    assert code == EXIT_OK
    assert "disagree=0" in out
    body = out_path.read_text(encoding="utf-8")
    rows = list(csv.reader(io.StringIO(body)))
    assert rows[0] == ["field", "p1", "p2", "classify", "certainty", "oracle", "agree", "trace"]
    n_primes = len(primes_up_to(50))
    assert len(rows) - 1 == n_primes * (n_primes - 1)
    assert all(row[6] == "true" for row in rows[1:])
    # ascending (p1, p2) ordering
    keys = [(int(r[1]), int(r[2])) for r in rows[1:]]
    assert keys == sorted(keys)


def test_verify_report_determinism(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code = main(
            ["verify", "--field", "cyclotomic:9", "--max-prime", "60",
             "--format", "json", "--out", str(path)]
        )
        assert code == EXIT_OK
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_verify_unknown_rows(capsys):
    code, out, _ = run_cli(capsys, "verify", "--field", "cyclotomic:5", "--max-prime", "100")
    assert code == EXIT_OK
    summary = {
        line.split(": ")[0]: line.split(": ")[1]
        for line in out.splitlines()
        if ": " in line
    }
    assert int(summary["unknown"]) > 0
    assert int(summary["disagree"]) == 0


def test_verify_kummer_and_quadratic(capsys):
    for spec in ("kummer:7^1", "quadratic:-7", "biquadratic:-1,-3", "cyclotomic:12"):
        code, out, _ = run_cli(capsys, "verify", "--field", spec, "--max-prime", "40")
        assert code == EXIT_OK, spec
        assert "disagree: 0" in out, spec


def test_verify_bad_arguments(capsys):
    code, _, _ = run_cli(capsys, "verify", "--field", "cyclotomic:7", "--max-prime", "20000")
    assert code == EXIT_BAD_ARGS
    code, _, _ = run_cli(capsys, "verify", "--field", "cyclotomic:13", "--max-prime", "40")
    assert code == EXIT_UNSUPPORTED
    # the field is checked before the sweep, even when it has no pairs
    code, _, _ = run_cli(capsys, "verify", "--field", "cyclotomic:13", "--max-prime", "2")
    assert code == EXIT_UNSUPPORTED


def test_verify_disagreement_exit_code(capsys, monkeypatch, tmp_path):
    """Force a bogus oracle to check the exit-4 path; the report is still written."""
    import quatsplit.cli as cli_module
    from quatsplit.classify import Outcome

    monkeypatch.setattr(cli_module, "sweep_oracle", lambda field, primes: ((Outcome.SPLIT,), lambda p1, p2: 0))
    out_path = tmp_path / "bad.csv"
    code, _, _ = run_cli(
        capsys,
        "verify", "--field", "cyclotomic:7", "--max-prime", "20",
        "--format", "csv", "--out", str(out_path),
    )
    assert code == EXIT_DISAGREEMENTS
    assert out_path.exists()
    body = out_path.read_text(encoding="utf-8")
    assert ",false," in body


def _forced_oracle(field, primes):
    """A bogus sweep oracle, symmetric as the real one is: Split when 7 is in the pair, else Division."""
    from quatsplit.classify import Outcome

    return (Outcome.DIVISION, Outcome.SPLIT), lambda p1, p2: 1 if 7 in (p1, p2) else 0


# verify cyclotomic:5 --max-prime 13 under _forced_oracle. Prop 3.9 fires only
# for p ≡ 1 (mod 5), so only with 11, and (p|11) = -1 for p in {2, 7, 13}: the
# six Division rows pair 11 with those, and the two with 7 disagree, each with
# its own trace. The 24 Unknown rows are UNCOVERED unless 7 is in the pair.
FORCED_TEXT = """field: cyclotomic:5
max_prime: 13
pairs: 30
agree: 4
disagree: 2
unknown: 24
UNCOVERED p1=2 p2=3 oracle=Division
UNCOVERED p1=2 p2=5 oracle=Division
UNCOVERED p1=2 p2=13 oracle=Division
UNCOVERED p1=3 p2=2 oracle=Division
UNCOVERED p1=3 p2=5 oracle=Division
UNCOVERED p1=3 p2=11 oracle=Division
UNCOVERED p1=3 p2=13 oracle=Division
UNCOVERED p1=5 p2=2 oracle=Division
UNCOVERED p1=5 p2=3 oracle=Division
UNCOVERED p1=5 p2=11 oracle=Division
UNCOVERED p1=5 p2=13 oracle=Division
DISAGREE p1=7 p2=11 classify=Division oracle=Split trace=prop3.9/p1≡1mod5:miss|prop3.9/p2≡1mod5:hit
UNCOVERED p1=11 p2=3 oracle=Division
UNCOVERED p1=11 p2=5 oracle=Division
DISAGREE p1=11 p2=7 classify=Division oracle=Split trace=prop3.9/p1≡1mod5:hit|prop3.9/p2≡1mod5:miss
UNCOVERED p1=13 p2=2 oracle=Division
UNCOVERED p1=13 p2=3 oracle=Division
UNCOVERED p1=13 p2=5 oracle=Division
"""

FORCED_SHA256 = {
    "csv": "ccee47511443647535db7dcd02b61ee09cd27dccc93777c067124edcfce77f81",
    "json": "3d248da8fedba78b4aefc6e563e6c6df5de38b953fe951430fe831306df74282",
}


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_verify_disagree_and_uncovered_bodies(capsys, monkeypatch, fmt):
    """The DISAGREE and UNCOVERED lines, and the csv/json bodies that carry them, are pinned."""
    import quatsplit.cli as cli_module

    monkeypatch.setattr(cli_module, "sweep_oracle", _forced_oracle)
    code, out, _ = run_cli(capsys, "verify", "--field", "cyclotomic:5", "--max-prime", "13", "--format", fmt)
    assert code == EXIT_DISAGREEMENTS
    if fmt == "text":
        assert out == FORCED_TEXT
    else:
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FORCED_SHA256[fmt]


def test_verify_cell_codes_fit_in_a_byte(capsys, monkeypatch):
    """More (verdict, oracle outcome) pairs than one byte can code is exit 5, before any output."""
    import quatsplit.cli as cli_module
    from quatsplit.classify import Outcome

    monkeypatch.setattr(cli_module, "sweep_oracle", lambda field, primes: ((Outcome.SPLIT,) * 256, lambda p1, p2: 0))
    code, out, err = run_cli(capsys, "verify", "--field", "cyclotomic:7", "--max-prime", "20")
    assert code == EXIT_INTERNAL and out == ""
    assert err.startswith("internal error: ") and err.endswith(" cell codes do not fit in a byte\n")


def test_verify_unwritable_out(capsys, tmp_path):
    """A report path that cannot be opened is a bad argument, not a traceback."""
    for out_path in (tmp_path / "missing" / "x.csv", tmp_path):
        code, out, err = run_cli(
            capsys, "verify", "--field", "cyclotomic:7", "--max-prime", "20", "--out", str(out_path)
        )
        assert code == EXIT_BAD_ARGS and out == ""
        assert err.startswith(f"error: cannot write {out_path}")


# verify cyclotomic:7 at --max-prime 2 (one prime, so one empty block) and 3
# (two rows): the edges of each streamed body.
JSON_EDGE_BODIES = {
    2: """{
  "field": "cyclotomic:7",
  "max_prime": 2,
  "rows": [],
  "summary": {
    "agree": 0,
    "disagree": 0,
    "unknown": 0
  }
}
""",
    3: """{
  "field": "cyclotomic:7",
  "max_prime": 3,
  "rows": [
    {
      "p1": 2,
      "p2": 3,
      "classify": "Division",
      "certainty": "Exact",
      "oracle": "Division",
      "agree": true,
      "trace": "prop3.3/case2:hit"
    },
    {
      "p1": 3,
      "p2": 2,
      "classify": "Division",
      "certainty": "Exact",
      "oracle": "Division",
      "agree": true,
      "trace": "prop3.3/case2:hit"
    }
  ],
  "summary": {
    "agree": 2,
    "disagree": 0,
    "unknown": 0
  }
}
""",
}


_CSV_HEADER = "field,p1,p2,classify,certainty,oracle,agree,trace\n"
_EDGE_ROWS = (
    "cyclotomic:7,2,3,Division,Exact,Division,true,prop3.3/case2:hit\n"
    "cyclotomic:7,3,2,Division,Exact,Division,true,prop3.3/case2:hit\n"
)
EDGE_BODIES = {
    "json": JSON_EDGE_BODIES,
    "csv": {2: _CSV_HEADER, 3: _CSV_HEADER + _EDGE_ROWS},
    "text": {
        max_prime: f"field: cyclotomic:7\nmax_prime: {max_prime}\npairs: {pairs}\nagree: {pairs}\n"
        "disagree: 0\nunknown: 0\n"
        for max_prime, pairs in ((2, 0), (3, 2))
    },
}


def _assert_edge_body(capsys, fmt, max_prime):
    code, out, _ = run_cli(
        capsys, "verify", "--field", "cyclotomic:7", "--max-prime", str(max_prime), "--format", fmt
    )
    assert code == EXIT_OK
    assert out == EDGE_BODIES[fmt][max_prime]


@pytest.mark.parametrize("max_prime", sorted(JSON_EDGE_BODIES))
def test_verify_json_edge_bodies(capsys, max_prime):
    _assert_edge_body(capsys, "json", max_prime)


@pytest.mark.parametrize("fmt, max_prime", [(fmt, max_prime) for fmt in ("csv", "text") for max_prime in (2, 3)])
def test_verify_edge_bodies(capsys, fmt, max_prime):
    """The CSV body of one prime is its header alone: its one block is empty and writes nothing."""
    _assert_edge_body(capsys, fmt, max_prime)


# sha256 of `verify --field kummer:7^2 --max-prime 300` in each format, as in
# tests/test_golden.py. The CSV and JSON rows carry "≡" and "→"; the text body
# is its summary alone, since every row agrees.
_GOLDEN_KUMMER_7_2_300 = {
    "csv": "33a485e07f6217ff907dcaaa37b31ad91ee8de299f332abaa4a5297f8b0339d8",
    "json": "1de1052a9a4fd5e041fa46b0cc90d98fc13d97c242068817e683e8c74c143d13",
    "text": "6699369edb54bca745acda1a6a56302ced65cbef657a5cea342bfc94fc0b24e1",
}


@pytest.mark.parametrize("fmt", sorted(_GOLDEN_KUMMER_7_2_300))
def test_verify_to_a_stdout_without_a_buffer(fmt):
    """A stdout with no binary buffer (an io.StringIO) gets the body decoded, the same UTF-8 bytes."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--field", "kummer:7^2", "--max-prime", "300", "--format", fmt])
    assert code == EXIT_OK
    body = out.getvalue().encode("utf-8")
    assert body.isascii() == (fmt == "text")
    assert hashlib.sha256(body).hexdigest() == _GOLDEN_KUMMER_7_2_300[fmt]


def test_verify_stdout_is_utf8_whatever_its_encoding(tmp_path):
    """stdout gets the UTF-8 bytes --out gets, even where its text encoding cannot encode "→"."""
    argv = [sys.executable, "-m", "quatsplit", "verify", "--field", "kummer:7^2", "--max-prime", "20"]
    argv += ["--format", "csv"]
    env = {**_env_with_src(), "PYTHONIOENCODING": "ascii"}
    result = subprocess.run(argv, capture_output=True, env=env, timeout=60)
    assert result.returncode == EXIT_OK, result.stderr
    out_path = tmp_path / "report.csv"
    subprocess.run([*argv, "--out", str(out_path)], check=True, capture_output=True, env=env, timeout=60)
    assert "→".encode() in result.stdout and result.stdout == out_path.read_bytes()


def _failing_oracle(field, primes):
    """The real sweep oracle, until its 41st pair (in the fourth block, in process) raises an invariant failure."""
    from quatsplit.errors import InternalInvariantError

    outcomes, code_of = sweep_oracle(field, primes)
    calls = 0

    def code(p1, p2):
        nonlocal calls
        calls += 1
        if calls > 40:
            raise InternalInvariantError("forced after 40 pairs")
        return code_of(p1, p2)

    return outcomes, code


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_verify_out_is_atomic(capsys, monkeypatch, tmp_path, fmt):
    """An exit 5 mid-sweep leaves the old --out bytes, and no partial file, behind."""
    import quatsplit.cli as cli_module

    monkeypatch.setattr(cli_module, "sweep_oracle", _failing_oracle)
    old = tmp_path / "report"
    old.write_bytes(b"an earlier report\n")
    new = tmp_path / "new"
    for out_path in (old, new):
        code, out, err = run_cli(
            capsys, "verify", "--field", "cyclotomic:7", "--max-prime", "50",
            "--format", fmt, "--out", str(out_path),
        )
        assert code == EXIT_INTERNAL and out == "" and "internal error:" in err
    assert old.read_bytes() == b"an earlier report\n"
    assert sorted(os.listdir(tmp_path)) == ["report"]


def test_verify_out_replaces_a_file(capsys, tmp_path):
    """A finished report replaces the file through a symlink, keeping its mode, as writing in place did."""
    target = tmp_path / "report.csv"
    target.write_text("stale\n", encoding="utf-8")
    target.chmod(0o640)
    link = tmp_path / "latest.csv"
    link.symlink_to(target.name)
    code, out, _ = run_cli(
        capsys, "verify", "--field", "cyclotomic:7", "--max-prime", "3", "--format", "csv", "--out", str(link)
    )
    assert code == EXIT_OK and out == f"wrote {link}: pairs=2 agree=2 disagree=0 unknown=0\n"
    assert target.read_text(encoding="utf-8").startswith("field,p1,p2,")
    assert link.is_symlink() and (target.stat().st_mode & 0o777) == 0o640
    assert sorted(os.listdir(tmp_path)) == ["latest.csv", "report.csv"]


def test_verify_out_device_is_written_in_place(capsys):
    """A device is not a file to replace: the report goes through it."""
    code, out, _ = run_cli(
        capsys, "verify", "--field", "cyclotomic:7", "--max-prime", "3", "--out", os.devnull
    )
    assert code == EXIT_OK and out.startswith(f"wrote {os.devnull}: pairs=2 ")
    assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_verify_memory_is_flat(tmp_path, fmt):
    """A sweep holds one block of rows at a time, never the report: peak heap stays small."""
    argv = ["verify", "--field", "kummer:11^1", "--max-prime", "1000", "--format", fmt]
    argv += ["--out", str(tmp_path / f"report.{fmt}")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == EXIT_OK  # warm-up: imports and caches
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 2 * 2**20, f"{fmt}: peak {peak / 2**20:.2f} MiB"

SWEEP_FIELDS = (
    Cyclotomic(7),
    Cyclotomic(5),
    Cyclotomic(9),
    Cyclotomic(10),
    Cyclotomic(14),
    Cyclotomic(12),
    Cyclotomic(27),
    Quadratic(17),
    Biquadratic(-1, -3),
    Kummer(3, 2),
    Kummer(7, 1),
)

# Fields whose rows also go through forked workers: the four sufficient-only
# verdicts of n = 5, reduction steps on every trace (14 → 7, Kummer), and a
# biquadratic table.
WORKER_SWEEP_FIELDS = (Cyclotomic(5), Cyclotomic(14), Kummer(3, 2), Biquadratic(-1, -3))


@pytest.mark.parametrize(
    "field, forked",
    [pytest.param(field, False, id=str(field)) for field in SWEEP_FIELDS]
    + [pytest.param(field, True, id=f"{field}-workers") for field in WORKER_SWEEP_FIELDS],
)
def test_verify_round_trip(request, field, forked):
    """Every sweep row equals the point path: classify and division_oracle on its pair.

    forked: every sweep of the test runs in two forked workers (the sweep_workers
    fixture), so each row's codes pass through the pipes first.
    """
    if forked:
        request.getfixturevalue("sweep_workers")
    report = build_sweep_report(field, 60)
    primes = primes_up_to(60)
    expected = []
    for p1 in primes:
        for p2 in primes:
            if p2 != p1:
                verdict, oracle_outcome = classify(field, p1, p2), division_oracle(field, p1, p2)
                expected.append(
                    {
                        "p1": p1,
                        "p2": p2,
                        "classify": verdict.outcome.value,
                        "certainty": verdict.certainty.value,
                        "oracle": oracle_outcome.value,
                        "agree": verdict.outcome is oracle_outcome,
                        "trace": format_trace(verdict),
                    }
                )
    blocks = list(report)
    # one block per p1: the other primes in ascending order, one cell code each
    assert [(p1, others) for p1, others, _ in blocks] == [(p1, [p2 for p2 in primes if p2 != p1]) for p1 in primes]
    assert all(type(cells) is bytes and len(cells) == len(others) for _, others, cells in blocks)
    rows = [
        dict(zip(expected[0], (p1, p2, *report.cells[cell])))
        for p1, others, cells in blocks
        for p2, cell in zip(others, cells)
    ]
    assert rows == expected
    assert all(type(row["agree"]) is bool for row in rows)
    assert report.pairs == len(rows) == len(primes) * (len(primes) - 1)
    assert report.unknown == sum(row["classify"] == "Unknown" for row in expected)
    assert report.agree == sum(row["classify"] != "Unknown" and row["agree"] for row in expected)
    assert report.disagree == sum(row["classify"] != "Unknown" and not row["agree"] for row in expected)
    # the streamed JSON is json.dumps of the whole payload, byte for byte
    payload = {
        "field": str(field),
        "max_prime": 60,
        "rows": expected,
        "summary": {"agree": report.agree, "disagree": report.disagree, "unknown": report.unknown},
    }
    assert b"".join(render_report_json(report)).decode() == json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
    # the streamed CSV is csv.writer's, field cell quoting included; rendering
    # again is pure, and each iteration starts the tallies again
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["field", *expected[0]])
    for row in expected:
        writer.writerow([str(field), *{**row, "agree": "true" if row["agree"] else "false"}.values()])
    assert b"".join(render_report_csv(report)).decode() == buffer.getvalue()
    assert report.pairs == len(rows)


def test_verify_validates_each_prime_once(monkeypatch):
    """A sweep proves each prime prime a bounded number of times, not once per pair."""
    import quatsplit.arith as arith_module

    calls = 0
    is_prime = arith_module.is_prime

    def counted(n):
        nonlocal calls
        calls += 1
        return is_prime(n)

    monkeypatch.setattr(arith_module, "is_prime", counted)
    local_degree.cache_clear()
    try:
        # consume the report: its pairs run only as it is iterated
        rows = sum(len(others) for _, others, _ in build_sweep_report(Cyclotomic(7), 200))
    finally:
        local_degree.cache_clear()
    n = len(primes_up_to(200))
    assert rows == n * (n - 1)
    assert calls <= 2 * n + 4


def test_sweep_evaluates_each_unordered_pair_once(monkeypatch):
    """The oracle runs once per unordered pair, the classifier once per ordered pair."""
    import quatsplit.cli as cli_module
    import quatsplit.oracle as oracle_module

    oracle_calls = classifier_calls = 0
    prime_pair_symbols = oracle_module.prime_pair_symbols
    sweep_classifier_of = cli_module.sweep_classifier

    def counted_prime_pair_symbols(p, q):
        nonlocal oracle_calls
        oracle_calls += 1
        return prime_pair_symbols(p, q)

    def counted_sweep_classifier(field, primes):
        verdicts, code_of = sweep_classifier_of(field, primes)

        def counted(p1, p2):
            nonlocal classifier_calls
            classifier_calls += 1
            return code_of(p1, p2)

        return verdicts, counted

    monkeypatch.setattr(oracle_module, "prime_pair_symbols", counted_prime_pair_symbols)
    monkeypatch.setattr(cli_module, "sweep_classifier", counted_sweep_classifier)
    report = build_sweep_report(Cyclotomic(7), 200)
    n = len(primes_up_to(200))
    assert (oracle_calls, classifier_calls) == (0, 0)  # nothing runs before the report is iterated
    rows = [len(others) for _, others, _ in report]
    assert rows == [n - 1] * n
    assert report.pairs == n * (n - 1)
    assert oracle_calls == n * (n - 1) // 2
    assert classifier_calls == n * (n - 1)


@pytest.mark.parametrize("max_prime", [60, 200])
def test_sweep_factors_the_cyclotomic_modulus_once(monkeypatch, max_prime):
    """The modulus and its totient are factored once per field, not once per sweep prime."""
    import quatsplit.arith as arith_module
    import quatsplit.classify as classify_module
    import quatsplit.cyclotomic as cyclotomic_module

    calls = 0
    factorize = arith_module.factorize

    def counted(n):
        nonlocal calls
        calls += 1
        return factorize(n)

    monkeypatch.setattr(arith_module, "factorize", counted)
    caches = (classify_module._resolve, cyclotomic_module._unit_group, local_degree)
    for cache in caches:
        cache.cache_clear()
    try:
        report = build_sweep_report(Cyclotomic(999999999959), max_prime)
        assert sum(len(others) for _, others, _ in report) == report.pairs > 0
    finally:
        for cache in caches:
            cache.cache_clear()
    assert calls <= 6


@pytest.mark.parametrize("field", [(Quadratic, 1000003), (Biquadratic, -1, 1000003)])
def test_sweep_checks_each_quadratic_d_once(monkeypatch, field):
    """d, or a biquadratic field's d1 and d2, are factored once, by the squarefree check when
    the field is made, and not again per sweep prime; d1*d2 up to squares is squarefree by construction."""
    import quatsplit.arith as arith_module
    import quatsplit.classify as classify_module

    calls = 0
    factorize = arith_module.factorize

    def counted(n):
        nonlocal calls
        calls += 1
        return factorize(n)

    monkeypatch.setattr(arith_module, "factorize", counted)
    caches = (classify_module._resolve, local_degree)
    for cache in caches:
        cache.cache_clear()
    kind, *params = field
    try:
        report = build_sweep_report(kind(*params), 200)
        assert sum(len(others) for _, others, _ in report) == report.pairs > 0
    finally:
        for cache in caches:
            cache.cache_clear()
    assert 0 < calls <= 3


def test_sweep_entries_prove_their_primes():
    """Both sweep entries reject a non-prime before any pair is decided."""
    for build in (sweep_classifier, sweep_oracle):
        with pytest.raises(InvalidInputError):
            build(Cyclotomic(7), [2, 3, 9])


def test_verify_kummer_huge_exponent_exits_promptly():
    """The Kummer bound is checked before l**k is computed, so this cannot hang."""
    result = subprocess.run(
        [sys.executable, "-m", "quatsplit", "verify", "--field", "kummer:3^100000000", "--max-prime", "20"],
        capture_output=True,
        text=True,
        env=_env_with_src(),
        timeout=60,
    )
    assert result.returncode == EXIT_BAD_ARGS
    assert result.stderr.startswith("error:")


@pytest.mark.parametrize("spec", ["cyclotomic:1000000000000000003", "kummer:1000000000000000003^1"])
def test_classify_19_digit_prime_index_exits_promptly(spec):
    """Prop 4.1 recognises n = l**k by factorize, whose trial division of a 64-bit n stops at 2**16."""
    result = subprocess.run(
        [sys.executable, "-m", "quatsplit", "classify", "--field", spec, "--p", "3", "--q", "31"],
        capture_output=True,
        text=True,
        env=_env_with_src(),
        timeout=60,
    )
    assert result.returncode == EXIT_OK, result.stderr
    assert "outcome: Division\n" in result.stdout and "prop4.1/case3b:hit" in result.stdout


@pytest.mark.parametrize(
    "argv, code",
    [
        (["classify", "--field", "quadratic:1000000000000000003", "--p", "3", "--q", "7"], EXIT_OK),
        (["classify", "--field", "biquadratic:-1,1000000000000000003", "--p", "3", "--q", "7"], EXIT_OK),
        (["verify", "--field", "quadratic:1000000000000000003", "--max-prime", "20"], EXIT_OK),
        (["verify", "--field", "quadratic:1000000000000000003", "--max-prime", "1000"], EXIT_OK),
        (["classify", "--field", f"quadratic:{2**64}", "--p", "3", "--q", "7"], EXIT_BAD_ARGS),
        (["verify", "--field", "biquadratic:1000000000000000003,1000000000000000009", "--max-prime", "20"], EXIT_OK),
    ],
    ids=[
        "classify-quadratic",
        "classify-biquadratic",
        "verify-quadratic",
        "verify-quadratic-1000",
        "quadratic-2**64",
        "verify-biquadratic",
    ],
)
def test_quadratic_d_exits_promptly(argv, code):
    """The squarefree check of d factors d, with trial division only up to 2**16, and |d| >= 2**64 is bad input.

    Only the d typed are checked: the third subfield of a biquadratic field,
    here d1*d2 above 2**64, is squarefree by construction.
    """
    result = subprocess.run(
        [sys.executable, "-m", "quatsplit", *argv],
        capture_output=True,
        text=True,
        env=_env_with_src(),
        timeout=60,
    )
    assert result.returncode == code, result.stderr
    if code == EXIT_BAD_ARGS:
        assert result.stderr.startswith("error: d must be below 2**64")
    if argv[-2:] == ["--max-prime", "20"]:
        assert "pairs: 56\nagree: 56\n" in result.stdout


@pytest.mark.parametrize("command", ["classify", "verify"])
def test_cyclotomic_index_of_2_64_or_more_exits_promptly(command):
    """A cyclotomic index n >= 2**64 is bad input, rejected before anything factors it,
    and before it is canonicalized: 2**64 + 2 is not taken for 2**63 + 1."""
    argv = ["--p", "3", "--q", "7"] if command == "classify" else ["--max-prime", "20"]
    for n in (10**68 + 1, 2**64 + 2):
        result = subprocess.run(
            [sys.executable, "-m", "quatsplit", command, "--field", f"cyclotomic:{n}", *argv],
            capture_output=True,
            text=True,
            env=_env_with_src(),
            timeout=60,
        )
        assert result.returncode == EXIT_BAD_ARGS
        assert result.stderr.startswith("error: cyclotomic index must be below 2**64")


@pytest.mark.parametrize(
    "spec",
    [
        "cyclotomic:999999999959",
        "kummer:999999999959^1",
        "cyclotomic:1000000000000000003",
        "kummer:1000000000000000003^1",
        # safe primes l = 2q + 1, q prime: phi(l) = 2q, whose trial division would run to sqrt(q);
        # the last is the largest safe prime below 2**64
        "cyclotomic:200000000000000363",
        "kummer:200000000000000363^1",
        "cyclotomic:18446744073709550147",
    ],
)
def test_verify_large_cyclotomic_index_exits_promptly(spec):
    """Local degrees need the order of p mod n, which must not step through ~n powers of p,
    nor trial-divide n or its totient up to the square root."""
    result = subprocess.run(
        [sys.executable, "-m", "quatsplit", "verify", "--field", spec, "--max-prime", "20"],
        capture_output=True,
        text=True,
        env=_env_with_src(),
        timeout=60,
    )
    assert result.returncode == EXIT_OK, result.stderr
    assert "pairs: 56\nagree: 56\n" in result.stdout


def test_division_oracle_61_bit_prime_exits_promptly():
    """The oracle factors p1 and p2 for their ramified places: the prime 2**61 - 1 is proved
    prime after trial division to 2**16, and the answer is the sweep oracle's."""
    code = (
        "from quatsplit.classify import Cyclotomic\n"
        "from quatsplit.oracle import division_oracle, sweep_oracle\n"
        "field, p1, p2 = Cyclotomic(7), 2**61 - 1, 3\n"
        "outcomes, code_of = sweep_oracle(field, (p1, p2))\n"
        "print(division_oracle(field, p1, p2).value, outcomes[code_of(p1, p2)].value)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_env_with_src(), timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "Division Division\n"


def test_module_entry_point():
    """`python -m quatsplit` runs the CLI, and a bare `import quatsplit` loads none of its modules."""
    result = subprocess.run(
        [sys.executable, "-m", "quatsplit", "classify", "--field", "cyclotomic:7", "--p", "3", "--q", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "outcome: Division" in result.stdout
    loaded = "import sys, quatsplit; print(sorted(m for m in sys.modules if m.startswith('quatsplit.')))"
    result = subprocess.run([sys.executable, "-c", loaded], capture_output=True, text=True, env=_env_with_src())
    assert result.returncode == 0 and result.stdout == "[]\n", result.stderr


_PRINT_MODULES = "\nimport sys\nprint(' '.join(sys.modules))"


def _modules_loaded_by(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running code, less those it holds before.

    Both interpreters run with the same environment, so what site imports cancels out.
    """
    loaded = []
    for script in ("", code):
        result = subprocess.run(
            [sys.executable, "-c", script + _PRINT_MODULES], capture_output=True, text=True, env=_env_with_src()
        )
        assert result.returncode == 0, result.stderr
        loaded.append(set(result.stdout.splitlines()[-1].split()))
    return loaded[1] - loaded[0]


@pytest.mark.parametrize(
    "code, runs, unused",
    [
        ("import quatsplit.cli", "quatsplit.cli", {"dataclasses", "json", "csv", "argparse", "quatsplit.workers"}),
        ("import quatsplit.classify, quatsplit.hilbert, quatsplit.oracle", "quatsplit.oracle", {"dataclasses"}),
        (
            "from quatsplit.cli import main\n"
            "if main(['classify', '--field', 'cyclotomic:7', '--p', '3', '--q', '5']): raise SystemExit(1)",
            "argparse",
            {"dataclasses", "json", "csv", "quatsplit.workers"},
        ),
    ],
    ids=["import cli", "import classify hilbert oracle", "classify"],
)
def test_modules_load_only_what_runs(code, runs, unused):
    """A command loads only what it runs: no dataclasses anywhere, and json, csv,
    argparse and the workers only where they are used."""
    loaded = _modules_loaded_by(code)
    assert runs in loaded
    assert not loaded & unused, sorted(loaded & unused)


def _odd_ramification(a, b, place):
    """A broken local symbol: -1 at 2 only, so one place ramifies."""
    return -1 if place.prime == 2 else 1


def test_internal_invariant_exit_code(capsys, monkeypatch):
    """A failed invariant (here the Hilbert product formula) exits 5."""
    import quatsplit.hilbert as hilbert_module

    with monkeypatch.context() as patch:
        patch.setattr(hilbert_module, "hilbert_symbol", _odd_ramification)
        code, out, err = run_cli(capsys, "ramification", "--a", "3", "--b", "5")
    assert code == EXIT_INTERNAL and out == "" and "internal error:" in err
    # A sweep's symbols come from prime_pair_symbols: a wrong omega flips the
    # dyadic symbol of every H(2, q) and no other symbol.
    omega = hilbert_module._omega
    monkeypatch.setattr(hilbert_module, "_omega", lambda u: 1 - omega(u))
    code, _, err = run_cli(capsys, "verify", "--field", "cyclotomic:7", "--max-prime", "20")
    assert code == EXIT_INTERNAL and "internal error:" in err


_BROKEN_SYMBOL_SCRIPT = """
import sys
import quatsplit.hilbert
from quatsplit.cli import main
quatsplit.hilbert.hilbert_symbol = lambda a, b, place: -1 if place.prime == 2 else 1
sys.exit(main(["ramification", "--a", "3", "--b", "5"]))
"""


def test_internal_invariant_survives_optimize():
    """The invariant checks are not asserts, so `python -O` keeps them."""
    result = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_SYMBOL_SCRIPT],
        capture_output=True,
        text=True,
        env=_env_with_src(),
    )
    assert result.returncode == EXIT_INTERNAL, result.stderr
    assert "internal error:" in result.stderr


# --- the worker path: sweeps whose rows forked workers compute ----------------


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_worker_path_forced_bodies(capsys, monkeypatch, sweep_workers, fmt):
    """The pinned DISAGREE/UNCOVERED bodies of a bogus oracle, from workers."""
    test_verify_disagree_and_uncovered_bodies(capsys, monkeypatch, fmt)


@pytest.mark.parametrize("max_prime", sorted(JSON_EDGE_BODIES))
def test_worker_path_json_edge_bodies(capsys, sweep_workers, max_prime):
    """One prime (no pairs) and two: no more rows than workers. Every format's body, JSON's first."""
    for fmt in EDGE_BODIES:
        _assert_edge_body(capsys, fmt, max_prime)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_worker_path_exception_exits_5(capsys, monkeypatch, sweep_workers, tmp_path, fmt):
    """An invariant failure in a worker is exit 5, with the old --out bytes kept and no stray file."""
    test_verify_out_is_atomic(capsys, monkeypatch, tmp_path, fmt)


def _raising_oracle(field, primes):
    """The real sweep oracle, until p1 = 23 meets a bug that is not an invariant failure."""
    outcomes, code_of = sweep_oracle(field, primes)

    def code(p1, p2):
        if p1 == 23:
            raise ZeroDivisionError("forced at p1 = 23")
        return code_of(p1, p2)

    return outcomes, code


def test_worker_path_any_exception_exits_5(capsys, monkeypatch, sweep_workers):
    import quatsplit.cli as cli_module

    monkeypatch.setattr(cli_module, "sweep_oracle", _raising_oracle)
    code, _, err = run_cli(capsys, "verify", "--field", "cyclotomic:7", "--max-prime", "50")
    assert code == EXIT_INTERNAL
    assert err == "internal error: ZeroDivisionError: forced at p1 = 23\n"


_KILLED_WORKER_SCRIPT = """
import os, signal, sys
import quatsplit.cli as cli
import quatsplit.workers as workers
cli.WORKER_MIN_PAIRS = 0
workers._usable_cpus = lambda: 2
parent, real = os.getpid(), cli.sweep_oracle

def dying_oracle(field, primes):
    outcomes, code_of = real(field, primes)

    def code(p1, p2):
        if p1 == 23 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return code_of(p1, p2)

    return outcomes, code

cli.sweep_oracle = dying_oracle
code = cli.main(["verify", "--field", "cyclotomic:7", "--max-prime", "50", "--format", sys.argv[1]])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(code)
sys.exit("a child is left")
"""


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_worker_path_killed_worker_exits_5(fmt):
    """A worker that dies without a word is exit 5, not a hang, and leaves no child behind."""
    result = subprocess.run(
        [sys.executable, "-c", _KILLED_WORKER_SCRIPT, fmt],
        capture_output=True,
        text=True,
        env=_env_with_src(),
        timeout=60,
    )
    assert result.returncode == EXIT_INTERNAL, result.stderr
    assert result.stderr.startswith("internal error: sweep worker ")


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_path_write_error_stops_workers(capsys, sweep_workers):
    """A report that cannot be written mid-sweep stops the workers with it."""
    code, out, err = run_cli(
        capsys, "verify", "--field", "cyclotomic:7", "--max-prime", "300", "--format", "csv", "--out", "/dev/full"
    )
    _assert_no_child()
    assert code == EXIT_BAD_ARGS and out == "" and err.startswith("error: cannot write /dev/full")


class _InterruptedStdout(io.StringIO):
    """Stdout that a KeyboardInterrupt hits once a few lines are written."""

    def write(self, text):
        if self.getvalue().count("\n") > 3:
            raise KeyboardInterrupt
        return super().write(text)


def test_worker_path_interrupt_stops_workers(sweep_workers):
    """A KeyboardInterrupt in the writer stops the workers, even while its traceback, which holds
    the sweep's frames, is kept (as the interpreter keeps sys.last_traceback)."""
    with pytest.raises(KeyboardInterrupt) as interrupted, contextlib.redirect_stdout(_InterruptedStdout()):
        main(["verify", "--field", "cyclotomic:7", "--max-prime", "300", "--format", "csv"])
    _assert_no_child()
    assert interrupted.tb is not None


def _stalling_oracle(field, primes):
    """The real sweep oracle, except that a worker stalls for two minutes on the row of p1 = 3."""
    (outcomes, code_of), parent, stalled = sweep_oracle(field, primes), os.getpid(), False

    def code(p1, p2):
        nonlocal stalled
        if p1 == 3 and os.getpid() != parent and not stalled:
            stalled = True
            time.sleep(120)
        return code_of(p1, p2)

    return outcomes, code


def test_worker_path_closed_report_stops_workers(monkeypatch, sweep_workers):
    """A report iteration closed after its first block kills the workers, even one stuck in a row."""
    import quatsplit.cli as cli_module

    monkeypatch.setattr(cli_module, "sweep_oracle", _stalling_oracle)
    blocks = iter(build_sweep_report(Cyclotomic(7), 300))
    p1, others, _ = next(blocks)
    assert (p1, others[:2]) == (2, [3, 5])
    start = time.monotonic()
    blocks.close()
    assert time.monotonic() - start < 60
    _assert_no_child()


# sha256 of `verify --field cyclotomic:7 --max-prime 300 --format json`, as in tests/test_golden.py
_GOLDEN_JSON_CYCLOTOMIC_7_300 = "f9a28ed38acfb717880d0985643d88b1738d9e058f089cb764f90a86e83bf791"


def test_worker_path_fork_failure_runs_in_process(capsys, monkeypatch, sweep_workers):
    """When the second fork fails, the first worker is stopped and the rows run here."""
    fork, forks = os.fork, 0

    def failing_second_fork():
        nonlocal forks
        forks += 1
        if forks == 2:
            raise BlockingIOError("fork: resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", failing_second_fork)
    code, out, _ = run_cli(capsys, "verify", "--field", "cyclotomic:7", "--max-prime", "300", "--format", "json")
    assert code == EXIT_OK and forks == 2
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _GOLDEN_JSON_CYCLOTOMIC_7_300


@pytest.mark.parametrize("why", ["one usable CPU", "a CPU quota of one", "another thread alive"])
def test_verify_stays_in_process(capsys, monkeypatch, tmp_path, why):
    """A sweep forks no worker with one usable CPU (by affinity or by CPU quota), or with a second
    thread that a fork would not copy."""
    import threading

    import quatsplit.cli as cli_module

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(cli_module, "WORKER_MIN_PAIRS", 0)
    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    if why == "one usable CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    elif why == "a CPU quota of one":
        (tmp_path / "cpu.max").write_text("100000 100000\n")
        monkeypatch.setattr(workers, "_CPU_MAX", str(tmp_path / "cpu.max"))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    else:
        monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
        threading.Thread(target=release.wait).start()
    try:
        code, out, _ = run_cli(capsys, "verify", "--field", "cyclotomic:7", "--max-prime", "300", "--format", "json")
    finally:
        release.set()
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _GOLDEN_JSON_CYCLOTOMIC_7_300


@pytest.mark.parametrize(
    "cpu_max, usable",
    [
        (None, 4),  # no cgroup v2 quota file
        ("max 100000\n", 4),
        ("100000 100000\n", 1),
        ("150000 100000\n", 2),  # part of a CPU still counts
        ("50000 100000\n", 1),
        ("800000 100000\n", 4),  # the quota never adds CPUs to the affinity set
        ("garbage\n", 4),
    ],
)
def test_usable_cpus_follow_the_cpu_quota(monkeypatch, tmp_path, cpu_max, usable):
    limit = tmp_path / "cpu.max"
    if cpu_max is not None:
        limit.write_text(cpu_max)
    monkeypatch.setattr(workers, "_CPU_MAX", str(limit))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert workers._usable_cpus() == usable

