"""quatsplit benchmark: end-to-end metrics, or a traced per-layer profile.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep-mix-csv --seed 1 --seconds 30 --trace 0

One closed-loop client: run.py starts one worker process at a time
(bench/worker.py, with PYTHONPATH set to the checkout's `src`) and each
worker runs one unit, a `verify` call or a round of distinct point
queries. Units repeat until `--seconds` of measured time, with at least
MIN_UNITS units and one call per sweep field. Every worker's start-up is a
`setup_s` sample.

The machine's speed drifts by 20% and more within seconds on shared hosts,
so the timings of an untraced run are reported at a reference speed. Each
untraced worker samples a fixed loop while its unit runs (worker.SpeedProbe),
and its times and set-up are scaled by PROBE_REFERENCE_S over the median
sample. The run record keeps each worker's median sample.

The last line of stdout is the result `{"correct", "attempted", "failed",
"metrics"}`; the line before it is the run record (seed, machine
calibration, Python version, CPU count, details). Run outputs (temporary
reports, span files) go to `.benchout/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import worker

WORKLOADS = ("sweep-mix-csv", "sweep-deep-text", "point-queries")
MIN_UNITS = 3
PROBE_REFERENCE_S = 0.004  # about a speed sample's time on the 2-CPU VM the baseline was measured on
RUN_LIMIT_S = 170  # a worker still running then is killed and the run fails
WORKER = Path(worker.__file__).resolve()

# Per-function figures of the traced run, chosen as the layers an
# optimisation is most likely to move.
LAYER_FUNCTIONS = {
    "arith.is_prime": ("calls_per_op", "self_us_per_op", "self_share"),
    "arith.legendre": ("calls_per_op", "self_us_per_op"),
    "arith.factorize": ("calls_per_op", "self_us_per_op"),
    "quadratic.splitting_type": ("calls_per_op", "self_us_per_op"),
    "cyclotomic.factorization_shape": ("calls_per_op", "self_us_per_op"),
    "hilbert.ramified_places": ("calls_per_op", "self_us_per_op", "cum_share"),
    "hilbert.hilbert_symbol": ("calls_per_op", "self_us_per_op"),
    "classify.classify": ("calls_per_op", "self_us_per_op", "cum_us_per_op"),
    "oracle.division_oracle": ("calls_per_op", "self_us_per_op", "cum_us_per_op"),
    "oracle.local_degree": ("calls_per_op",),
    "cli.build_sweep_report": ("calls_per_op", "self_us_per_op"),
}
KIND_UNITS = {
    "calls_per_op": "calls/op",
    "self_us_per_op": "us",
    "cum_us_per_op": "us",
    "self_share": "ratio",
    "cum_share": "ratio",
}


class WorkerError(RuntimeError):
    pass


class Spawner:
    """Starts workers one at a time and collects their set-up times."""

    def __init__(self, root: Path, outdir: Path, workload: str, seed: int, deadline: float):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(root / "src"), self.env.get("PYTHONPATH"))))
        # A control that acts only on the benchmark's own processes: a fixed
        # hash seed, so set and dict layouts repeat from run to run.
        self.env["PYTHONHASHSEED"] = "0"
        self.argv = [sys.executable, str(WORKER), workload, str(seed)]
        self.outdir = outdir
        self.deadline = deadline
        self.setup_s: list[float] = []
        self.probe_s: list[float] = []

    def __call__(self, unit: int, trace: int = 0) -> dict:
        """Run one worker. Its result carries `scale`, the factor that brings
        its times to the reference speed (1 for traced workers, which take no
        speed samples)."""
        argv = [*self.argv, str(unit), str(trace), str(self.outdir)]
        start = time.perf_counter()
        with subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=self.env, text=True) as proc:
            watchdog = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                ready = proc.stdout.readline()
                ready_s = time.perf_counter() - start
                rest = proc.stdout.read()
                proc.wait()
            finally:
                watchdog.cancel()
        if ready.strip() != "ready" or proc.returncode != 0:
            raise WorkerError(f"worker for unit {unit} exited with {proc.returncode}")
        result = json.loads(rest)
        result["scale"] = 1.0
        if result.get("probe_s"):
            probe_s = statistics.median(result.pop("probe_s"))
            self.probe_s.append(probe_s)
            result["scale"] = PROBE_REFERENCE_S / probe_s
        self.setup_s.append(ready_s * result["scale"])
        return result

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


def percentile(sorted_values: list[int], q: float) -> int:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(len(sorted_values) * q) - 1)]


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def add(self, attempted: int, failed: int, errors) -> None:
        self.attempted += attempted
        self.failed += failed
        self.errors = (self.errors + [e for e in errors if e])[:5]


def account(result: dict, pairs: int, tally: Tally) -> float:
    """Add a unit's ops to the tally; return the unit's measured seconds."""
    if "latencies_ns" in result:
        tally.add(len(result["latencies_ns"]), result["failed"], result["errors"])
        return sum(result["latencies_ns"]) / 1e9
    tally.add(pairs, pairs if result["error"] else 0, [result["error"]])
    return result["seconds"]


def field_order(sweep: worker.Sweep, seed: int) -> list[int]:
    order = list(range(len(sweep.specs)))
    random.Random(seed).shuffle(order)
    return order


def enough(elapsed: float, units: int, min_units: int, seconds: int, spawn: Spawner) -> bool:
    """Stop when one more unit of the mean length would pass `seconds` (or the run limit)."""
    if units < min_units:
        return False
    mean = elapsed / units
    return elapsed + mean > seconds or 3 * mean > spawn.time_left()


def measure_sweep(spawn: Spawner, sweep: worker.Sweep, seed: int, seconds: int, tally: Tally) -> tuple[dict, dict]:
    order = field_order(sweep, seed)
    pairs = worker.sweep_pairs(sweep.max_prime)
    times: dict[int, list[float]] = {i: [] for i in order}
    rss, elapsed, calls = [], 0.0, 0
    while not enough(elapsed, calls, max(len(order), MIN_UNITS), seconds, spawn):
        unit = order[calls % len(order)]
        result = spawn(unit)
        took = account(result, pairs, tally)
        times[unit].append(took * result["scale"])
        rss.append(result["rss_mb"])
        elapsed += took
        calls += 1
    # A field's call time is its mean over the run. A run makes fewer than
    # 100 calls, so p99 is the slowest field.
    per_field = [statistics.mean(times[i]) for i in order]
    metrics = {
        "ops_per_s": (pairs * len(order) / sum(per_field), "1/s"),
        "call_p50_ms": (statistics.median(per_field) * 1e3, "ms"),
        "call_p99_ms": (max(per_field) * 1e3, "ms"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    return metrics, {"calls": calls, "reference_call_s": {sweep.specs[i]: times[i] for i in order}}


def measure_queries(spawn: Spawner, seconds: int, tally: Tally) -> tuple[dict, dict]:
    latencies, rss, round_s, elapsed = [], [], [], 0.0
    while not enough(elapsed, len(round_s), MIN_UNITS, seconds, spawn):
        result = spawn(len(round_s))
        elapsed += account(result, 0, tally)
        round_s.append(sum(result["latencies_ns"]) / 1e9 * result["scale"])
        latencies += (ns * result["scale"] for ns in result["latencies_ns"])
        rss.append(result["rss_mb"])
    latencies.sort()
    metrics = {
        "ops_per_s": (len(latencies) / sum(round_s), "1/s"),
        "call_p50_ms": (percentile(latencies, 0.50) / 1e6, "ms"),
        "call_p99_ms": (percentile(latencies, 0.99) / 1e6, "ms"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    return metrics, {"rounds": len(round_s), "reference_round_s": round_s}


def trace_units(spawn: Spawner, units: list[int], tally: Tally, pairs: int) -> tuple[list[dict], float, float]:
    """Each unit untraced, then traced, each in a fresh worker.
    Returns (traced results, untraced seconds, traced seconds), all raw."""
    traced, plain_s, traced_s = [], 0.0, 0.0
    for unit in units:
        plain_s += account(spawn(unit), pairs, tally)
        traced.append(spawn(unit, trace=1))
        traced_s += account(traced[-1], pairs, tally)
    return traced, plain_s, traced_s


def layer_metrics(traced: list[dict], *, ops: int, op_s: float, plain_s: float, fmt: str | None) -> dict:
    """Per-layer figures summed over the traced units; `ops` pairs or queries took `op_s`."""
    stats: dict[str, list[int]] = {}
    for result in traced:
        for name, values in result["stats"].items():
            stats[name] = [a + b for a, b in zip(stats.get(name, [0, 0, 0]), values)]
    op_ns = op_s * 1e9
    metrics = {}
    for layer in worker.LAYERS:
        rows = [value for name, value in stats.items() if name.startswith(layer + ".")]
        metrics[f"{layer}.calls_per_op"] = (sum(r[0] for r in rows) / ops, "calls/op")
        metrics[f"{layer}.self_us_per_op"] = (sum(r[1] for r in rows) / ops / 1e3, "us")
    for name, kinds in LAYER_FUNCTIONS.items():
        calls, self_ns, cum_ns = stats[name]
        values = {
            "calls_per_op": calls / ops,
            "self_us_per_op": self_ns / ops / 1e3,
            "cum_us_per_op": cum_ns / ops / 1e3,
            "self_share": self_ns / op_ns,
            "cum_share": cum_ns / op_ns,
        }
        for kind in kinds:
            metrics[f"{name}.{kind}"] = (values[kind], KIND_UNITS[kind])
    hits = sum(r["cache"]["hits"] for r in traced)
    lookups = hits + sum(r["cache"]["misses"] for r in traced)
    metrics["oracle.local_degree.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    metrics["oracle.local_degree.entries"] = (sum(r["cache"]["entries"] for r in traced), "count")
    for each in worker.FORMATS:
        if fmt is None:  # no report is rendered
            render_ns = 0
        elif each == fmt:
            render_ns = stats[f"cli.render_report_{each}"][2]
        else:
            render_ns = sum(r["render_ns"][each] for r in traced)
        metrics[f"cli.render_report_{each}.us_per_row"] = (render_ns / ops / 1e3, "us")
    sizes = [r["bytes"] for r in traced if "bytes" in r]
    metrics["cli.report_bytes"] = (sum(sizes) / len(sizes) if sizes else 0, "bytes")
    metrics["trace.overhead_ratio"] = (op_s / plain_s, "ratio")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "quatsplit" / "__init__.py").is_file():
        print(f"error: {root} is not a quatsplit checkout (src/quatsplit is missing)", file=sys.stderr)
        return 2
    outdir = root / ".benchout"
    outdir.mkdir(exist_ok=True)
    spawn = Spawner(root, outdir, args.workload, args.seed, deadline)
    tally = Tally()
    sweep = worker.SWEEPS.get(args.workload)
    try:
        if args.trace:
            units = field_order(sweep, args.seed) if sweep else [0]
            pairs = worker.sweep_pairs(sweep.max_prime) if sweep else 0
            traced, plain_s, traced_s = trace_units(spawn, units, tally, pairs)
            ops = pairs * len(units) if sweep else worker.QUERY_ROUND
            metrics = layer_metrics(traced, ops=ops, op_s=traced_s, plain_s=plain_s, fmt=sweep and sweep.fmt)
            details = {"untraced_s": plain_s, "traced_s": traced_s, "spans": sum(r["spans"] for r in traced)}
        elif sweep:
            metrics, details = measure_sweep(spawn, sweep, args.seed, args.seconds, tally)
        else:
            metrics, details = measure_queries(spawn, args.seconds, tally)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        metrics = {"setup_s": (statistics.median(spawn.setup_s), "s"), **metrics}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "calib_s": statistics.median(spawn.probe_s) if spawn.probe_s else None,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
        },
        "probe_samples_s": spawn.probe_s,
        "setup_samples_s": spawn.setup_s,
        "errors": tally.errors,
        "details": details,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
