"""Summarise or compare saved benchmark runs.

    python3 perfbench/compare.py RUNS_DIR [CHANGE_RUNS_DIR]

Each file in a directory holds the standard output of one
`perfbench/run.py --trace 0` run. With one directory, prints per workload
and end-to-end metric the median, the quartiles and the quartile spread of
the runs as a share of the median, against the metric's bound in
BENCHMARK.json. With two, pairs runs of the same workload and seed, refuses
to compare when their input digests differ, and reports how far each
median of the second set moved from the first, in the metric's bad
direction, against its bound. Exits 1 when a spread or a move exceeds its
bound and 2 when digests differ.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(directory: Path) -> list[tuple[dict, dict]]:
    """(detail, result) of every untraced run saved in `directory`."""
    runs = []
    for path in sorted(directory.iterdir()):
        lines = path.read_text(encoding="utf-8").splitlines()
        details = [json.loads(line[len("detail "):]) for line in lines
                   if line.startswith("detail ")]
        if not details or not lines or details[0].get("traced"):
            continue
        runs.append((details[0], json.loads(lines[-1])))
    return runs


def by_metric(runs) -> dict[tuple[str, str], list[float]]:
    values = defaultdict(list)
    for detail, result in runs:
        for metric, entry in result["metrics"].items():
            values[(detail["workload"], metric)].append(entry["value"])
    return values


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base = load_runs(Path(argv[0]))
    for detail, result in base:
        if not result["correct"] or result["failed"]:
            print(f"run {detail['workload']} seed {detail['seed']}: "
                  f"{result['failed']} failed statements")
    status = 0
    base_values = by_metric(base)
    if len(argv) == 1:
        print(f"{'workload':<15} {'metric':<15} {'n':>3} {'median':>12} "
              f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        for (workload, metric), values in sorted(base_values.items()):
            if len(values) < 2:
                print(f"{workload:<15} {metric:<15} {len(values):>3} too few runs")
                continue
            median, q1, q3, share = spread(values)
            bound = metrics[metric]["bound"]
            flag = ""
            if share > bound:
                flag, status = "WIDER THAN BOUND", 1
            elif share > bound / 3:
                flag = "above a third of the bound"
            print(f"{workload:<15} {metric:<15} {len(values):>3} {median:12.4f} "
                  f"{q1:12.4f} {q3:12.4f} {share:7.3f} {bound:6.3f} {flag}")
        return status

    change = load_runs(Path(argv[1]))
    digests = {(d["workload"], d["seed"]): d["inputs_sha256"] for d, _ in base}
    for detail, _ in change:
        key = (detail["workload"], detail["seed"])
        if key in digests and digests[key] != detail["inputs_sha256"]:
            print(f"refusing to compare: {key[0]} seed {key[1]} has different "
                  "inputs in the two sets")
            return 2
    change_values = by_metric(change)
    print(f"{'workload':<15} {'metric':<15} {'base':>12} {'change':>12} "
          f"{'worse by':>9} {'bound':>6}")
    for key in sorted(base_values.keys() & change_values.keys()):
        workload, metric = key
        before = statistics.median(base_values[key])
        after = statistics.median(change_values[key])
        sign = 1.0 if metrics[metric]["better"] == "lower" else -1.0
        worse = sign * (after - before) / before
        bound = metrics[metric]["bound"]
        flag = ""
        if worse > bound:
            flag, status = "REGRESSION", 1
        print(f"{workload:<15} {metric:<15} {before:12.4f} {after:12.4f} "
              f"{worse:9.3f} {bound:6.3f} {flag}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
