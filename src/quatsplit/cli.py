"""Command-line front end.

Subcommands:
  classify      one division/split verdict with its criterion trace
  ramification  ramified places and reduced discriminant of H_Q(a, b)
  verify        sweep all ordered pairs of distinct primes <= max-prime,
                comparing the classifier against the local-global oracle

Exit codes: 0 ok, 2 bad arguments (including a verify --out path that
cannot be written, and a ramification |a| or |b| of 2**64 or more), 3
unsupported field, 4 verify found disagreements (the report is still
written), 5 an internal invariant failed (a defect in quatsplit, never a
property of the input).

verify streams its report as the pairs run, as UTF-8 bytes: to stdout's
binary buffer (decoded for a stdout that has none, such as an io.StringIO),
or to --out. A sweep of WORKER_MIN_PAIRS pairs or more computes its rows in
forked workers, one per usable CPU (see the workers module); there, any
exception, and a worker that dies without a word, is exit 5 with "internal
error: <message>", and every worker is killed and reaped however the sweep
ends. With --out it writes a new file beside the path and moves it there only
when the report is complete, so an exit 5 leaves the path as it was. On
stdout an exit 5 can leave a partial CSV or JSON body (never a partial text
body: its summary needs every pair).

A command loads only what it runs: argparse is imported by build_parser,
json and csv by the writers of those formats, and the workers module (which
loads signal, struct and threading) by a sweep that forks.
"""

from __future__ import annotations

import contextlib
import io
import os
import stat
import sys
from collections.abc import Callable, Iterable, Iterator
from functools import partial
from operator import add
from typing import TYPE_CHECKING

from . import arith, cyclotomic
from .classify import (
    Biquadratic,
    Cyclotomic,
    FieldDescriptor,
    Kummer,
    Outcome,
    Quadratic,
    Verdict,
    classify,
    sweep_classifier,
)
from .errors import BadModulusError, InternalInvariantError, InvalidInputError, UnsupportedFieldError
from .hilbert import ramified_places
from .oracle import sweep_oracle

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_BAD_ARGS = 2
EXIT_UNSUPPORTED = 3
EXIT_DISAGREEMENTS = 4
EXIT_INTERNAL = 5

MAX_SWEEP_PRIME = 10_000
# A verify sweep of fewer pairs (max-prime below about 1,400) runs in this
# process. Workers pay off in time from about 10,000 pairs, but below 50,000 a
# sweep takes under about 0.1 s in one process on 2 CPUs, so they would save
# under 0.05 s, at the cost of a process and ~14 MB per usable CPU.
WORKER_MIN_PAIRS = 50_000


_FIELD_KINDS = {"quadratic": Quadratic, "biquadratic": Biquadratic, "cyclotomic": Cyclotomic, "kummer": Kummer}
# The separator between the two parameters of the kinds that take two.
_SEPARATORS = {"biquadratic": ",", "kummer": "^"}


def parse_field_spec(text: str) -> FieldDescriptor:
    """Grammar: quadratic:<d> | biquadratic:<d1>,<d2> | cyclotomic:<n> | kummer:<l>^<k>.

    The descriptor, made after the parse, checks itself, and its errors pass
    as they are: a BadModulusError stays exit 3.  A cyclotomic n is
    canonicalized after that check, so n >= 2**64 and n < 3 are reported as such.
    """
    kind, sep, rest = text.partition(":")
    if not sep:
        raise InvalidInputError(f"field spec needs a kind prefix, got '{text}'")
    make, separator = _FIELD_KINDS.get(kind), _SEPARATORS.get(kind)
    if make is None:
        raise InvalidInputError(f"unknown field kind '{kind}' in '{text}'")
    try:
        if separator:
            first, found, second = rest.partition(separator)
            if not found:
                raise ValueError
            params = (int(first), int(second))
        else:
            params = (int(rest),)
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse field spec '{text}'") from exc
    field = make(*params)
    return Cyclotomic(cyclotomic.canonical_n(field.n)) if isinstance(field, Cyclotomic) else field


def format_trace(verdict: Verdict) -> str:
    return "|".join(f"{s.criterion}:{'hit' if s.fired else 'miss'}" for s in verdict.trace)


# --- report writers ----------------------------------------------------------


def _csv_body(rows: Iterable[Iterable[object]]) -> str:
    """rows as CSV, with "\n" line ends."""
    import csv

    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _json_body(payload: object) -> str:
    import json

    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


def _text_body(items: Iterable[tuple[str, object]]) -> str:
    """One "key: value" line per item."""
    return "".join(f"{key}: {value}\n" for key, value in items)


# --- classify ----------------------------------------------------------------


def _cmd_classify(args: argparse.Namespace) -> int:
    field = parse_field_spec(args.field)
    verdict = classify(field, args.p, args.q)
    record = {
        "field": str(field),
        "p1": args.p,
        "p2": args.q,
        "outcome": verdict.outcome.value,
        "certainty": verdict.certainty.value,
        "trace": format_trace(verdict),
    }
    if args.format == "json":
        record["trace"] = [{"criterion": s.criterion, "fired": s.fired} for s in verdict.trace]
        body = _json_body(record)
    elif args.format == "csv":
        body = _csv_body([("field", "p1", "p2", "classify", "certainty", "trace"), record.values()])
    else:
        body = _text_body(record.items())
    sys.stdout.write(body)
    return EXIT_OK


# --- ramification ------------------------------------------------------------


def _cmd_ramification(args: argparse.Namespace) -> int:
    # ramified_places factors a and b, and factorize is bounded below 2**64 only.
    for name, value in (("a", args.a), ("b", args.b)):
        if abs(value) > arith.UINT64_MAX:
            raise InvalidInputError(f"--{name} must be below 2**64 in absolute value")
    data = ramified_places(args.a, args.b)
    places = [str(v) for v in data.ramified]
    record = {"a": args.a, "b": args.b, "ramified": places, "reduced_discriminant": data.reduced_discriminant}
    if args.format == "json":
        body = _json_body(record)
    elif args.format == "csv":
        body = _csv_body([record.keys(), {**record, "ramified": ";".join(places)}.values()])
    else:
        body = _text_body({**record, "ramified": " ".join(places) or "(none)"}.items())
    sys.stdout.write(body)
    return EXIT_OK


# --- verify ------------------------------------------------------------------


# The report columns: the JSON row keys and, after "field", the CSV columns.
_COLUMNS = ("p1", "p2", "classify", "certainty", "oracle", "agree", "trace")


class SweepReport:
    """A verify sweep that runs as it is iterated.

    Both sides of the sweep answer in codes: a verdict code v indexes the
    field's verdict table, an oracle code o the oracle's outcome table of k
    outcomes. A row's cell code is c = v * k + o, one byte, and cells[c] holds
    the (classify, certainty, oracle, agree, trace) cells of its rows, so a
    row is its two primes and a cell code, and the tallies are counts of cell
    codes.

    Iterating it runs the pair loop and yields one block per p1: (p1, the
    other primes in ascending order, their cell codes as one bytes object),
    so no more than one block is ever held. pairs, agree, disagree and
    unknown are the tallies of the last iteration that completed: they are
    set when it completes, and 0 before. A sweep of WORKER_MIN_PAIRS pairs or
    more computes the codes in forked workers (see the workers module), a
    smaller one in this process. Either way the blocks are built here, from
    the same codes.
    """

    def __init__(
        self,
        field: FieldDescriptor,
        max_prime: int,
        primes: list[int],
        verdicts: tuple[Verdict, ...],
        code_of: Callable[[int, int], int],
        outcomes: tuple[Outcome, ...],
        oracle_of: Callable[[int, int], int],
    ):
        self.field = field
        self.max_prime = max_prime
        self.primes = primes
        self.pairs = self.agree = self.disagree = self.unknown = 0
        self.cells = tuple(
            (
                verdict.outcome.value,
                verdict.certainty.value,
                outcome.value,
                verdict.outcome is outcome,
                format_trace(verdict),
            )
            for verdict in verdicts
            for outcome in outcomes
        )
        if len(self.cells) > 256:  # a cell code is one byte
            raise InternalInvariantError(f"{len(self.cells)} cell codes do not fit in a byte")
        self._outcome_count = len(outcomes)
        self._code_of = code_of
        self._oracle_of = oracle_of

    def __iter__(self) -> Iterator[tuple[int, list[int], bytes]]:
        primes, code_of, oracle_of, k = self.primes, self._code_of, self._oracle_of, self._outcome_count
        n = len(primes)

        def kernel(i: int) -> tuple[bytes, bytes]:
            """Row i's codes: the verdict of (p1, p2) for every other p2, the oracle's for p2 > p1.

            The local symbols are symmetric, so the oracle's p2 < p1 half comes from earlier rows.
            """
            p1 = primes[i]
            return (
                bytes(map(partial(code_of, p1), primes[:i] + primes[i + 1 :])),
                bytes(map(partial(oracle_of, p1), primes[i + 1 :])),
            )

        # square[i*n + j] holds the oracle code of (primes[i], primes[j]) for
        # i < j: row i writes its p2 > p1 half as one slice, and reads its
        # p2 < p1 half, column i above the diagonal, as one strided slice.
        square = bytearray(n * n)
        counts = [0] * len(self.cells)
        forked = []
        if n * (n - 1) >= WORKER_MIN_PAIRS:
            from . import workers

            forked = workers.start(kernel, n)
        try:
            for i, p1 in enumerate(primes):
                verdict_codes, oracle_codes = workers.receive(forked[i % len(forked)]) if forked else kernel(i)
                square[i * n + i + 1 : (i + 1) * n] = oracle_codes
                # Every byte of v * k + o is below 256, so the sum of the two
                # big-endian integers carries nothing from one byte to the next.
                verdicts = int.from_bytes(verdict_codes, "big")
                oracles = int.from_bytes(square[i : i * n : n] + oracle_codes, "big")
                cells = (verdicts * k + oracles).to_bytes(n - 1, "big")
                for c in range(len(counts)):
                    counts[c] += cells.count(c)
                yield p1, primes[:i] + primes[i + 1 :], cells
        finally:
            if forked:
                workers.stop(forked)
        self.pairs = self.agree = self.disagree = self.unknown = 0
        for (outcome, _, _, agree, _), count in zip(self.cells, counts):
            self.pairs += count
            if outcome == Outcome.UNKNOWN.value:
                self.unknown += count
            elif agree:
                self.agree += count
            else:
                self.disagree += count


def build_sweep_report(field: FieldDescriptor, max_prime: int) -> SweepReport:
    """Compare classifier and oracle on every ordered pair of distinct primes.

    Each prime is proved prime once, by the sweep entries of the classifier
    and of the oracle, before this returns, and an unsupported field fails
    here, before any output exists. The pair loop then runs on
    their per-prime tables as the returned report is iterated.
    """
    primes = arith.primes_up_to(max_prime)
    verdicts, code_of = sweep_classifier(field, primes)
    outcomes, oracle_of = sweep_oracle(field, primes)
    return SweepReport(field, max_prime, primes, verdicts, code_of, outcomes, oracle_of)


# Each renderer yields the report body as UTF-8 chunks as the report's blocks
# pass, so a body is never held whole: CSV and JSON one chunk per block, text
# one chunk at the end, since its summary comes first and it keeps only the
# counts and its few DISAGREE/UNCOVERED lines. Each encodes the tail of each
# cell code and the label of each prime once; a block is one join of labels
# and tails, with no Python step per row.


def _rows(labels: list[bytes], i: int, tails: list[bytes], cells: bytes) -> Iterator[bytes]:
    """Block i's rows after their lead: each other prime's label, then the tail of its cell code."""
    return map(add, labels[:i] + labels[i + 1 :], map(tails.__getitem__, cells))


def render_report_csv(report: SweepReport) -> Iterator[bytes]:
    # the field cell, quoted as csv.writer quotes it
    field = _csv_body([(str(report.field),)])[:-1].encode() + b","
    tails = [
        _csv_body([(outcome, certainty, oracle, "true" if agree else "false", trace)]).encode()
        for outcome, certainty, oracle, agree, trace in report.cells
    ]
    labels = [b"%d," % p for p in report.primes]
    yield _csv_body([("field", *_COLUMNS)]).encode()
    for i, (p1, _, cells) in enumerate(report):
        if cells:
            lead = b"%s%d," % (field, p1)
            yield lead + lead.join(_rows(labels, i, tails, cells))


def render_report_json(report: SweepReport) -> Iterator[bytes]:
    """_json_body of {field, max_prime, rows, summary}, written as the rows arrive."""
    import json

    head = _json_body({"field": str(report.field), "max_prime": report.max_prime, "rows": []})
    # head ends with '  "rows": []\n}\n'; the rows go between the brackets.
    yield head[: -len("]\n}\n")].encode()
    # A row as json.dumps(..., indent=2) lays it out inside "rows": its p1 and
    # p2 lines, then the tail of its cell code.
    tails = [
        (
            "".join(
                f',\n      "{name}": {json.dumps(cell, ensure_ascii=False)}' for name, cell in zip(_COLUMNS[2:], cells)
            )
            + "\n    }"
        ).encode()
        for cells in report.cells
    ]
    labels = [b"%d" % p for p in report.primes]
    separator = b"\n"
    for i, (p1, _, cells) in enumerate(report):
        if cells:
            lead = b'    {\n      "p1": %d,\n      "p2": ' % p1
            yield separator + lead + (b",\n" + lead).join(_rows(labels, i, tails, cells))
            separator = b",\n"
    summary = {"summary": {"agree": report.agree, "disagree": report.disagree, "unknown": report.unknown}}
    # '{\n  "summary": ...' continues the payload after its rows.
    yield (("]" if separator == b"\n" else "\n  ]") + "," + _json_body(summary)[1:]).encode()


def render_report_text(report: SweepReport) -> Iterator[bytes]:
    """The summary, then the DISAGREE and UNCOVERED lines: the only rows kept."""
    notes = {}  # cell code -> (the line's kind, its text after p2)
    for c, (outcome, _, oracle, agree, trace) in enumerate(report.cells):
        if outcome != "Unknown":
            if not agree:
                notes[c] = (b"DISAGREE", f" classify={outcome} oracle={oracle} trace={trace}".encode())
        elif oracle == "Division":
            # division algebras the sufficient condition missed (informational)
            notes[c] = (b"UNCOVERED", b" oracle=Division")
    lines = []
    for p1, others, cells in report:
        if any(c in cells for c in notes):
            for p2, c in zip(others, cells):
                if c in notes:
                    kind, tail = notes[c]
                    lines.append(b"%s p1=%d p2=%d%s\n" % (kind, p1, p2, tail))
    summary = {
        "field": report.field,
        "max_prime": report.max_prime,
        "pairs": report.pairs,
        "agree": report.agree,
        "disagree": report.disagree,
        "unknown": report.unknown,
    }
    yield _text_body(summary.items()).encode() + b"".join(lines)


_REPORT_RENDERERS = {"csv": render_report_csv, "json": render_report_json, "text": render_report_text}


def _write_report(path: str, chunks: Iterable[bytes]) -> None:
    """Write chunks to a new file beside path, then move it onto path.

    Whatever stops the writing (an exit 5 mid-sweep, a full disk) removes the
    new file, and whatever was at path stays as it was. Symlinks are followed
    and a replaced file keeps its mode, as when writing in place. A pipe or a
    device (/dev/null, a shell's >(...)) is written in place: a rename would
    replace it instead of writing to it.
    """
    target = os.path.realpath(path)
    try:
        try:
            mode = os.stat(target).st_mode
        except FileNotFoundError:
            mode = 0  # a new file
        if mode and not (stat.S_ISREG(mode) or stat.S_ISDIR(mode)):
            with open(target, "wb") as handle:
                handle.writelines(chunks)
            return
        partial = f"{target}.{os.urandom(4).hex()}.tmp"
        handle = open(partial, "xb")
        try:
            with handle:
                if stat.S_ISREG(mode):
                    os.chmod(partial, stat.S_IMODE(mode))
                handle.writelines(chunks)
            os.replace(partial, target)
        except BaseException:
            os.remove(partial)
            raise
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _cmd_verify(args: argparse.Namespace) -> int:
    if not 2 <= args.max_prime <= MAX_SWEEP_PRIME:
        raise InvalidInputError(f"--max-prime must be in [2, {MAX_SWEEP_PRIME}], got {args.max_prime}")
    field = parse_field_spec(args.field)
    report = build_sweep_report(field, args.max_prime)
    # Closed however the writing ends, so that a sweep's workers stop with it.
    with contextlib.closing(_REPORT_RENDERERS[args.format](report)) as chunks:
        if args.out:
            _write_report(args.out, chunks)
            sys.stdout.write(
                f"wrote {args.out}: pairs={report.pairs} agree={report.agree} "
                f"disagree={report.disagree} unknown={report.unknown}\n"
            )
        elif getattr(sys.stdout, "buffer", None) is None:  # an io.StringIO, as redirect_stdout may set
            sys.stdout.writelines(chunk.decode() for chunk in chunks)
        else:
            sys.stdout.flush()  # what stdout holds goes first
            sys.stdout.buffer.writelines(chunks)
    return EXIT_DISAGREEMENTS if report.disagree else EXIT_OK


# --- entry point -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="quatsplit",
        description="Decide whether quaternion algebras H(p1, p2) split or are division algebras "
        "over quadratic, biquadratic, cyclotomic, and Kummer base fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify one algebra over one field")
    p_classify.add_argument("--field", required=True, help="e.g. cyclotomic:7, quadratic:-7, kummer:3^2")
    p_classify.add_argument("--p", type=int, required=True, help="first prime")
    p_classify.add_argument("--q", type=int, required=True, help="second prime")
    p_classify.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_classify.set_defaults(func=_cmd_classify)

    p_ram = sub.add_parser("ramification", help="ramified places and reduced discriminant over Q")
    p_ram.add_argument("--a", type=int, required=True)
    p_ram.add_argument("--b", type=int, required=True)
    p_ram.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_ram.set_defaults(func=_cmd_ramification)

    p_verify = sub.add_parser("verify", help="sweep classifier vs oracle over prime pairs")
    p_verify.add_argument("--field", required=True)
    p_verify.add_argument("--max-prime", type=int, default=200, dest="max_prime")
    p_verify.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_verify.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UnsupportedFieldError, BadModulusError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
