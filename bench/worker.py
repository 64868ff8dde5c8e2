"""Benchmark worker: one fresh process per measured unit.

Started by run.py as

    python3 bench/worker.py <workload> <seed> <unit> <trace 0|1> <outdir>

with PYTHONPATH pointing at the checkout's `src`. A unit is one `verify` call
(<unit> is the index of the field in the sweep) or one round of
QUERY_ROUND point queries (<unit> is the round, which with the seed makes
the round's queries). The process imports quatsplit,
parses the workload's field specs and makes one untimed warm-up call, then
prints "ready": that is the set-up run.py times. Then it runs the unit,
untraced or traced, and prints one JSON line of raw figures.

A fresh process per unit is how `python -m quatsplit verify` runs, and it
keeps anything the program caches from carrying over from one unit to the
next. Every layer is timed from outside, through the public functions of
quatsplit's modules; the package itself is not changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

from tracer import Tracer


class Sweep(NamedTuple):
    fmt: str
    max_prime: int
    specs: tuple[str, ...]


# sweep-mix-csv: the paper's cross-check as users run it; every criterion
# family fires (prop3.9 is sufficient-only, kummer goes through the
# reduction) and rendering is about 8% of the time.
# sweep-deep-text: the text body is only the summary, so the pair loop and
# the retained SweepReport.rows dominate at 184,470 pairs.
SWEEPS = {
    "sweep-mix-csv": Sweep(
        "csv",
        1000,
        ("quadratic:-5", "biquadratic:-1,2", "cyclotomic:7", "cyclotomic:9", "cyclotomic:5", "kummer:11^1"),
    ),
    "sweep-deep-text": Sweep("text", 3000, ("cyclotomic:7",)),
}

# sha256 of each sweep report body; any change to a verdict, trace or
# rendering changes the hash and fails every pair of that sweep.
PINS = {
    ("quadratic:-5", 1000, "csv"): "b133cf3ee3a1fad649fb856b53743a85ffb6d37b14cff7cda34900672e24faad",
    ("biquadratic:-1,2", 1000, "csv"): "31ce4e9920b9c129e8f82df7cc993a93c910f0d3993250875cce265bb1f85462",
    ("cyclotomic:7", 1000, "csv"): "fe48e2c40c93f593e91841dd8ea4ad69a02e0e286b087510462e61493544f44e",
    ("cyclotomic:9", 1000, "csv"): "0829a47c7a958ba4d651be00c4fdfecae64d89d742fe95a4dbf3544b72f3549c",
    ("cyclotomic:5", 1000, "csv"): "1ec2fe9546e5a3c06342655cec92eacc3d8354512fc4c0b3c6f6d5af2cd01d51",
    ("kummer:11^1", 1000, "csv"): "db676e11993f5e8f63942729afc98df6fbd7eb323e2da1fb245936f3411ed7dc",
    ("cyclotomic:7", 3000, "text"): "edb810b6681f4a5d47d6f316b082bf4ae4e848c8bdc1d363e4a482bb6ce48c0b",
}

# point-queries: inputs share nothing, so the oracle's local-degree cache
# misses and grows; per-call validation sets p50 and trial division in
# arith.factorize sets p99.
QUERY_FIELDS = (
    "quadratic:-5",
    "quadratic:13",
    "biquadratic:-1,2",
    "biquadratic:-1,-3",
    "cyclotomic:3",
    "cyclotomic:4",
    "cyclotomic:5",
    "cyclotomic:7",
    "cyclotomic:8",
    "cyclotomic:9",
    "cyclotomic:11",
    "cyclotomic:12",
    "cyclotomic:27",
    "kummer:7^2",
)
QUERY_ROUND = 8_000
RAMIFY = -1  # query kind of a ramified_places(a, b) query; field queries use the field index
SMALL_PRIME_BOUND = 10**5
# Primes stop at 2**32: arith.factorize divides by trial up to sqrt(n), so
# 64-bit inputs do not finish in a run's time.
LARGE_PRIME_BOUND = 2**32
RAMIFY_BOUND = 10**7

PROBE_INTERVAL_S = 0.2
PROBE_LOOPS = 60_000

LAYERS = ("arith", "quadratic", "cyclotomic", "hilbert", "classify", "oracle", "cli")
FORMATS = ("csv", "json", "text")


# --- inputs ------------------------------------------------------------------


def primes_below(n: int) -> list[int]:
    sieve = bytearray((1,)) * n
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, n, p)))
    return [p for p in range(n) if sieve[p]]


def sweep_pairs(max_prime: int) -> int:
    n = len(primes_below(max_prime + 1))
    return n * (n - 1)


def is_prime_u32(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 2**32: witnesses 2, 7, 61 (Jaeschke 1993).

    The benchmark's own test, so inputs never depend on the code under test.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 61):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 7, 61):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class QueryStream:
    """Seeded point queries: (field index, p1, p2) or (RAMIFY, a, b).

    80% of queries are field pairs: 90% of primes below 10**5, 10% in
    [10**5, 2**32), and p2 = 2 in 10% of pairs. 20% are ramified_places(a, b)
    for signed nonzero |a|, |b| < 10**7.
    """

    def __init__(self, seed: str):
        self._rng = random.Random(seed)
        self._small = primes_below(SMALL_PRIME_BOUND)

    def _prime(self) -> int:
        rng = self._rng
        if rng.random() >= 0.1:
            return rng.choice(self._small)
        while True:
            n = rng.randrange(SMALL_PRIME_BOUND, LARGE_PRIME_BOUND) | 1
            while n < LARGE_PRIME_BOUND and not is_prime_u32(n):
                n += 2
            if n < LARGE_PRIME_BOUND:
                return n

    def _signed(self) -> int:
        return self._rng.choice((1, -1)) * self._rng.randrange(1, RAMIFY_BOUND)

    def next(self) -> tuple[int, int, int]:
        rng = self._rng
        if rng.random() < 0.2:
            return (RAMIFY, self._signed(), self._signed())
        field = rng.randrange(len(QUERY_FIELDS))
        p1 = self._prime()
        if rng.random() < 0.1:
            while p1 == 2:
                p1 = self._prime()
            return (field, p1, 2)
        p2 = self._prime()
        while p2 == p1:
            p2 = self._prime()
        return (field, p1, p2)

    def take(self, n: int) -> list[tuple[int, int, int]]:
        return [self.next() for _ in range(n)]


class SpeedProbe:
    """Samples the machine's speed while an untraced unit runs.

    On shared hosts the speed drifts by 20% and more within seconds, so every
    PROBE_INTERVAL_S a SIGALRM handler times a fixed loop over small ints.
    The loop allocates nothing, so the program's heap does not change its
    time. `spent` is the time the samples took, which the unit's timers
    subtract.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        x = 0
        for _ in itertools.repeat(None, PROBE_LOOPS):
            x = (x * 7 + 3) & 255
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> SpeedProbe:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


# --- set-up ------------------------------------------------------------------


def setup(workload: str, unit: int, outdir: Path) -> SimpleNamespace:
    """Import quatsplit, parse the field specs and make one untimed warm-up call."""
    # Submodules by full name: the package re-exports a function called `classify`.
    arith, quadratic, cyclotomic, hilbert, classify, oracle, cli = (
        importlib.import_module(f"quatsplit.{layer}") for layer in LAYERS
    )
    ctx = SimpleNamespace(
        cli=cli,
        classify=classify,
        oracle=oracle,
        hilbert=hilbert,
        modules=(arith, quadratic, cyclotomic, hilbert, classify, oracle, cli),
        local_degree=oracle.local_degree,  # the lru_cache object, kept before any rebinding
        out_path=outdir / f"report-{os.getpid()}.tmp",
    )
    if workload in SWEEPS:
        sweep = SWEEPS[workload]
        for spec in sweep.specs:
            cli.parse_field_spec(spec)
        run_sweep(ctx, sweep.specs[unit], sweep._replace(max_prime=50))
    else:
        ctx.fields = [cli.parse_field_spec(spec) for spec in QUERY_FIELDS]
        # Kummer verdicts are checked over Q(zeta_{l^k}): the radical layer
        # has odd degree, so division transfers unchanged.
        ctx.oracle_fields = [
            classify.Cyclotomic(f.ell**f.k) if isinstance(f, classify.Kummer) else f for f in ctx.fields
        ]
        run_queries(ctx, [(0, 3, 7), (RAMIFY, 6, -35)], [])
    return ctx


# --- units -------------------------------------------------------------------


def run_sweep(ctx, spec: str, sweep: Sweep) -> tuple[float, str | None, int]:
    """One `verify` through cli.main. Returns (seconds, error or None, body bytes).

    An exit code other than 0 (4 means disagreements) or a body whose sha256
    differs from its pin is an error.
    """
    argv = ["verify", "--field", spec, "--max-prime", str(sweep.max_prime), "--format", sweep.fmt]
    argv += ["--out", str(ctx.out_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            code = ctx.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback in the program is a failed op, not a crashed run
            code = repr(exc)
        elapsed = time.perf_counter() - start
    try:
        body = ctx.out_path.read_bytes()
        ctx.out_path.unlink()
    except OSError:
        body = b""
    if code != 0:
        return elapsed, f"{spec}: exit {code}", len(body)
    if hashlib.sha256(body).hexdigest() != PINS.get((spec, sweep.max_prime, sweep.fmt)):
        return elapsed, f"{spec}: report sha256 differs from its pin", len(body)
    return elapsed, None, len(body)


def run_queries(
    ctx, queries, latencies: list[int], tracer: Tracer | None = None, probe: SpeedProbe | None = None
) -> tuple[int, list[str]]:
    """Run queries closed-loop, appending each one's latency in ns, less any
    speed sample taken during it.

    Returns (failed, errors). A query fails if it raises, if an exact
    verdict differs from the oracle (or a sufficient-only Division is not
    one), or if H(a, b) has an odd number of ramified places.
    """
    clock = time.perf_counter_ns
    outcome, certainty = ctx.classify.Outcome, ctx.classify.Certainty
    failed = 0
    errors = []
    for i, (kind, x, y) in enumerate(queries):
        if tracer is not None:
            tracer.op = i
        sampled = probe.spent if probe is not None else 0.0
        start = clock()
        try:
            if kind == RAMIFY:
                answer = ctx.hilbert.ramified_places(x, y)
            else:
                answer = (
                    ctx.classify.classify(ctx.fields[kind], x, y),
                    ctx.oracle.division_oracle(ctx.oracle_fields[kind], x, y),
                )
        except Exception as exc:  # a raising query is a failed op, not a crashed run
            answer = exc
        took = clock() - start
        if probe is not None:
            took -= round((probe.spent - sampled) * 1e9)
        latencies.append(took)
        if isinstance(answer, Exception):
            ok = False
        elif kind == RAMIFY:
            ok = len(answer.ramified) % 2 == 0
        else:
            verdict, oracle_outcome = answer
            ok = verdict.outcome is oracle_outcome or (
                verdict.outcome is outcome.UNKNOWN and verdict.certainty is certainty.SUFFICIENT_ONLY
            )
        if not ok:
            failed += 1
            if len(errors) < 5:
                label = "ramified_places" if kind == RAMIFY else QUERY_FIELDS[kind]
                errors.append(f"{label}({x}, {y}): {answer!r}")
    return failed, errors


def sweep_unit(ctx, sweep: Sweep, spec: str, tracer: Tracer | None) -> dict:
    if tracer is None:
        with SpeedProbe() as probe:
            took, error, size = run_sweep(ctx, spec, sweep)
        return {"seconds": took - probe.spent, "error": error, "bytes": size, "probe_s": probe.samples}
    renderers = {fmt: getattr(ctx.cli, f"render_report_{fmt}") for fmt in FORMATS}
    tracer.install()
    try:
        took, error, size = run_sweep(ctx, spec, sweep)
    finally:
        tracer.uninstall()
    report, tracer.captured = tracer.captured, None
    # The two other formats, rendered from the same report and timed directly.
    render_ns = {}
    for fmt in FORMATS:
        if fmt != sweep.fmt and report is not None:
            start = time.perf_counter_ns()
            renderers[fmt](report)
            render_ns[fmt] = time.perf_counter_ns() - start
    return {"seconds": took, "error": error, "bytes": size, "render_ns": render_ns}


def query_unit(ctx, seed: int, unit: int, tracer: Tracer | None) -> dict:
    queries = QueryStream(f"{seed}:{unit}").take(QUERY_ROUND)
    latencies: list[int] = []
    if tracer is None:
        with SpeedProbe() as probe:
            failed, errors = run_queries(ctx, queries, latencies, probe=probe)
        return {"latencies_ns": latencies, "failed": failed, "errors": errors, "probe_s": probe.samples}
    tracer.install()
    try:
        failed, errors = run_queries(ctx, queries, latencies, tracer)
    finally:
        tracer.uninstall()
    return {"latencies_ns": latencies, "failed": failed, "errors": errors}


def main(argv: list[str]) -> int:
    workload, seed, unit, trace, outdir = argv[1], int(argv[2]), int(argv[3]), argv[4] == "1", Path(argv[5])
    ctx = setup(workload, unit, outdir)
    print("ready", flush=True)
    tracer = None
    if trace:
        tracer = Tracer(
            ctx.modules,
            op_marker=("classify.classify", "cli.build_sweep_report"),
            capture="cli.build_sweep_report",
        )
    ctx.local_degree.cache_clear()  # the warm-up call does not seed the measured one
    if workload in SWEEPS:
        sweep = SWEEPS[workload]
        result = sweep_unit(ctx, sweep, sweep.specs[unit], tracer)
    else:
        result = query_unit(ctx, seed, unit, tracer)
    # ru_maxrss is in KiB on Linux
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        cache = ctx.local_degree.cache_info()
        result["cache"] = {"hits": cache.hits, "misses": cache.misses, "entries": cache.currsize}
        result["stats"] = tracer.stats()
        result["spans"] = len(tracer.spans)
        tracer.write_spans(outdir / f"spans-{workload}-seed{seed}-unit{unit}.csv")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
