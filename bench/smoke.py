"""Smoke test for the benchmark; run from the root of a checkout:

    python3 bench/smoke.py

It checks that
  1. every workload, untraced and traced, prints every metric that
     BENCHMARK.json names, with its unit, and a correct result;
  2. a corrupted pinned hash makes that sweep's pairs failed ops, not a
     traceback;
  3. run.py in a directory without the program exits non-zero and prints
     no result.
It takes about three minutes (the traced sweeps dominate).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()


def bench_run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / BENCH.name / "run.py"), "--workload", workload]
    argv += ["--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_metrics(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            done = bench_run(ROOT, workload, trace)
            assert done.returncode == 0, f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}"
            result = json.loads(done.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            expected = {m["name"]: m["unit"] for m in spec[group]}
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            assert emitted == expected, f"{workload} trace={trace}: {set(emitted) ^ set(expected)}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
            print(f"ok  {workload} trace={trace}: {len(emitted)} metrics")


def copy_checkout(name: str) -> Path:
    """A scratch checkout under .benchout: the program, the benchmark and BENCHMARK.json."""
    copy = ROOT / ".benchout" / name
    shutil.rmtree(copy, ignore_errors=True)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH, copy / BENCH.name, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", copy)
    if name != "bare":
        shutil.copytree(ROOT / "src", copy / "src", ignore=skip)
    return copy


def check_corrupted_pin() -> None:
    copy = copy_checkout("corrupt")
    source = copy / BENCH.name / "worker.py"
    pin = '("quadratic:-5", 1000, "csv"): "'
    text = source.read_text()
    assert pin in text
    source.write_text(text.replace(pin, pin + "0"))
    done = bench_run(copy, "sweep-mix-csv", 0)
    shutil.rmtree(copy)
    assert done.returncode == 0 and "Traceback" not in done.stderr, (done.returncode, done.stderr)
    record, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    pairs = 168 * 167
    assert not result["correct"] and result["failed"] == pairs and result["attempted"] == 6 * pairs, result
    assert record["errors"] == ["quadratic:-5: report sha256 differs from its pin"], record["errors"]
    print(f"ok  corrupted pin: {result['failed']} of {result['attempted']} pairs failed")


def check_bare_directory() -> None:
    bare = copy_checkout("bare")
    done = bench_run(bare, "point-queries", 0)
    shutil.rmtree(bare)
    assert done.returncode != 0 and not done.stdout, (done.returncode, done.stdout)
    print(f"ok  bare directory: exit {done.returncode}, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_corrupted_pin()
    check_bare_directory()
    check_metrics(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
