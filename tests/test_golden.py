"""Golden reports: the sha256 of `verify --max-prime 300` bodies per field.

Any change to a verdict, a criterion id, a trace or a renderer changes a
hash. The CSV fields cover every supported cyclotomic index up to 12, prime
powers l**k with and without the l ≡ 7 (mod 8) escape, both quadratic
discriminant shapes, both biquadratic presentations and the Kummer reduction.
The JSON and text bodies are pinned for an exact field, the sufficient-only
n = 5 (Unknown rows) and the Kummer reduction.
"""

import hashlib

import pytest

from quatsplit.cli import EXIT_OK, main

GOLDEN_CSV_300 = {
    "quadratic:-5": "11c62885c03b4a17db6af0ef1e1de71ff6e7d4c794b5cee770e9c10b90ec1187",
    "quadratic:17": "92863b1be43afc1bcd0fdc94b938ebd31338d3c0222dfb12f1f8cf9579a900a0",
    "biquadratic:-1,2": "13fb08c50430d98630437865857569b1bf9278416d5f815abb36ab3ff8778117",
    "biquadratic:-1,-3": "b7ddc44a70a2d982473bb1cd0682811ed0f20a28fcf3b614e030af53dc171d90",
    "cyclotomic:3": "b602fc55d6772ad539308f07a6159240a33dc6fb80c475637bd98b9840052bb8",
    "cyclotomic:4": "a462a41be6fa5336c8eae6ea873742a00530874478cfa8bac40442dca828c2c8",
    "cyclotomic:5": "04a85f3f54945b7ad694488762e082379392b51696585b44c63ae239ba9f705f",
    "cyclotomic:7": "96e2745d6d03f1b77b4a7f1224534252495960b784afafff4f45395fa070f4f3",
    "cyclotomic:8": "314dcec06d7483b135ee431aab37ff314cbe657a5e92d0e7b454932e2025e9b5",
    "cyclotomic:9": "142bf674fba15892232660b9a5067178761dc2d60d1b5f798d86288d1336cce7",
    "cyclotomic:11": "f217bb174635fa0efe904b8bfd74b367104b175e468d24a944438be784b54d07",
    "cyclotomic:12": "17e8ef5238492592ed2ef9bef9d95ac2a4095c96729feae07e657cc652b30e8a",
    "cyclotomic:19": "03d25c30c741d0774891895ebc0af6ce27786d50cc52a3532fad1607e0778917",
    "cyclotomic:27": "76bf7b964d064d40a2e39e33861e9ca9e29c119f38a46de129f96b20dfe3397e",
    "cyclotomic:49": "93d2e9e3ae3b71486d6e8336ebf7898543a7b8e7b22c290ab26bbd2b73def5a9",
    "kummer:7^2": "33a485e07f6217ff907dcaaa37b31ad91ee8de299f332abaa4a5297f8b0339d8",
}


GOLDEN_JSON_300 = {
    "cyclotomic:5": "82451e7d770bfcb1633fd9280839fb4b88104657a79aca985cdebedcce07418e",
    "cyclotomic:7": "f9a28ed38acfb717880d0985643d88b1738d9e058f089cb764f90a86e83bf791",
    "kummer:7^2": "1de1052a9a4fd5e041fa46b0cc90d98fc13d97c242068817e683e8c74c143d13",
}

GOLDEN_TEXT_300 = {
    "cyclotomic:5": "9ede9d3fddc6630dbd596986aca1b8498286501d79289d31209a587eef746240",
    "cyclotomic:7": "9893ece4072f3a390c69b621bc69f002a5822163fbcff898beec444b9a715eba",
    "kummer:7^2": "6699369edb54bca745acda1a6a56302ced65cbef657a5cea342bfc94fc0b24e1",
}


def _report_sha256(spec, fmt, tmp_path, capsys):
    out_path = tmp_path / f"report.{fmt}"
    code = main(["verify", "--field", spec, "--max-prime", "300", "--format", fmt, "--out", str(out_path)])
    capsys.readouterr()
    assert code == EXIT_OK
    return hashlib.sha256(out_path.read_bytes()).hexdigest()


@pytest.mark.parametrize("spec", sorted(GOLDEN_CSV_300))
def test_golden_report_csv_300(spec, tmp_path, capsys):
    assert _report_sha256(spec, "csv", tmp_path, capsys) == GOLDEN_CSV_300[spec]


@pytest.mark.parametrize("spec", sorted(GOLDEN_JSON_300))
def test_golden_report_json_300(spec, tmp_path, capsys):
    assert _report_sha256(spec, "json", tmp_path, capsys) == GOLDEN_JSON_300[spec]


@pytest.mark.parametrize("spec", sorted(GOLDEN_TEXT_300))
def test_golden_report_text_300(spec, tmp_path, capsys):
    assert _report_sha256(spec, "text", tmp_path, capsys) == GOLDEN_TEXT_300[spec]


GOLDEN_PINS = {"csv": GOLDEN_CSV_300, "json": GOLDEN_JSON_300, "text": GOLDEN_TEXT_300}


@pytest.mark.parametrize("fmt, spec", [(fmt, spec) for fmt, pins in GOLDEN_PINS.items() for spec in sorted(pins)])
def test_golden_report_from_workers(fmt, spec, sweep_workers, tmp_path, capsys):
    """The same bodies when forked workers compute the rows."""
    assert _report_sha256(spec, fmt, tmp_path, capsys) == GOLDEN_PINS[fmt][spec]
