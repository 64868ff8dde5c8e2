"""Compare two sets of benchmark runs, workload by workload.

Save the last two stdout lines (run record, then result) of every run:

    for seed in 1 2 3 4 5 6 7 8 9 10; do
      python3 bench/run.py --workload point-queries --seed $seed --seconds 30 --trace 0 | tail -2 >> parent.jsonl
    done

then, after doing the same on the changed commit,

    python3 bench/compare.py parent.jsonl change.jsonl

For each workload and metric it prints both medians with their quartiles,
the change of the median as a share of the parent's, and a verdict against
the metric's bound in BENCHMARK.json: "worse" when the change's median is
worse by more than the bound, "unresolved" when the parent's own spread
(quartile distance over median) is wider than the bound, else "ok".
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(path: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, from alternating record/result lines."""
    lines = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
    runs: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for record, result in zip(lines[0::2], lines[1::2]):
        if not result["correct"]:
            print(f"warning: {path}: {record['workload']} seed {record['seed']} has failed ops", file=sys.stderr)
        for name, metric in result["metrics"].items():
            runs[record["workload"]][name].append(metric["value"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(parent_path: str, change_path: str) -> int:
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(parent_path), load(change_path)
    for workload in sorted(parent.keys() & change.keys()):
        print(f"== {workload}")
        for name in (n for n in parent[workload] if n in change[workload]):
            a1, a2, a3 = quartiles(parent[workload][name])
            b1, b2, b3 = quartiles(change[workload][name])
            meta = metrics.get(name, {})
            verdict = ""
            if "bound" in meta and a2:
                worse = (b2 - a2) / a2 if meta["better"] == "lower" else (a2 - b2) / a2
                if (a3 - a1) / a2 > meta["bound"]:
                    verdict = "unresolved"
                else:
                    verdict = "worse" if worse > meta["bound"] else "ok"
            shift = f"{(b2 - a2) / a2:+.1%}" if a2 else "n/a"
            print(
                f"{name:44s} {a2:12.4g} [{a1:.4g}, {a3:.4g}]  ->  {b2:12.4g} [{b1:.4g}, {b3:.4g}]"
                f"  {shift:>7s} {verdict}"
            )
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
