"""Compare two sets of end-to-end benchmark runs under the bounds of
``BENCHMARK.json``.

    python3 benchmarks/e2e/compare.py SET_A SET_B

A set is a directory of result files written by ``run.py --out`` (one
file per run; a file may hold several workloads). A is the parent, B
the change. Runs pair up by seed when both sets used the same seeds,
otherwise in file-name order. For each workload and end-to-end metric
it prints each side's median, quartiles and run count, and a verdict:

* ``unresolved`` -- either side's spread (quartile distance over its
  median) is wider than the metric's bound, unless every run of B reads
  better than every run of A (then ``better``);
* ``better`` -- B wins at least 9 of 10 pairs and the medians differ
  by more than A's quartile distance;
* ``worse`` -- B loses at least 9 of 10 pairs, the medians differ by
  more than A's quartile distance, and B's median is worse than A's by
  more than the bound (a smaller worsening is within the bound);
* ``unchanged`` -- otherwise.

It then checks itself: A against a copy of A with every time slowed
20 % past its bound (by a factor 1.2 x (1 + bound)) must read ``worse``
for every time metric that A resolves, that is whose spread in A is
within its bound. A slowdown within the bound is by definition no
regression, and a metric wider than its bound can only read
``unresolved``; the self-check lists those. The exit code is 1 when any
verdict is ``worse`` or the self-check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]
TIME_UNITS = ("s", "ms")
#: the self-check's slowdown past each bound
PAST_BOUND = 1.2

#: runs of one set: (seed, workload) -> metric -> list of values
Runs = Dict[Tuple[int, str], List[Dict[str, float]]]


def load_set(directory: Path) -> Runs:
    runs: Runs = {}
    files = sorted(directory.glob("*.json"))
    if not files:
        raise SystemExit(f"compare.py: no result files in {directory}")
    for path in files:
        data = json.loads(path.read_text())
        for workload, record in data["workloads"].items():
            runs.setdefault((data["seed"], workload), []).append(
                {name: metric["value"]
                 for name, metric in record["metrics"].items()})
    return runs


def paired(a: Runs, b: Runs, workload: str, metric: str
           ) -> Tuple[List[float], List[float], List[Tuple[float, float]]]:
    """All values of each side, and the pairs (by seed when the seeds
    match, else in order)."""
    def values(runs, key):
        return [run[metric] for run in runs.get(key, []) if metric in run]

    keys_a = sorted(k for k in a if k[1] == workload)
    keys_b = sorted(k for k in b if k[1] == workload)
    xs = [v for key in keys_a for v in values(a, key)]
    ys = [v for key in keys_b for v in values(b, key)]
    if keys_a == keys_b:
        pairs = [pair for key in keys_a
                 for pair in zip(values(a, key), values(b, key))]
    else:
        pairs = list(zip(xs, ys))
    return xs, ys, pairs


def quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(xs: List[float], ys: List[float],
            pairs: List[Tuple[float, float]], bound: float,
            better: str) -> str:
    """The verdict for change B (ys) against parent A (xs)."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(xs), statistics.median(ys)
    q1a, q3a = quartiles(xs)
    q1b, q3b = quartiles(ys)
    iqr_a = q3a - q1a
    spread = max(iqr_a / abs(med_a) if med_a else 0.0,
                 (q3b - q1b) / abs(med_b) if med_b else 0.0)
    if spread > bound:
        if all(sign * (x - y) > 0 for x in xs for y in ys):
            return "better"
        return "unresolved"
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    losses = sum(1 for x, y in pairs if sign * (x - y) < 0)
    gain = sign * (med_a - med_b)
    if pairs and wins >= 0.9 * len(pairs) and gain > iqr_a:
        return "better"
    if (pairs and losses >= 0.9 * len(pairs) and -gain > iqr_a
            and -gain > bound * abs(med_a)):
        return "worse"
    return "unchanged"


def compare(a: Runs, b: Runs, spec: dict, show: bool = True
            ) -> Dict[Tuple[str, str], str]:
    verdicts = {}
    workloads = sorted({k[1] for k in a} & {k[1] for k in b})
    if show:
        print(f"{'workload':<8} {'metric':<12} {'A median [q1, q3] n':>34} "
              f"{'B median [q1, q3] n':>34}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            xs, ys, pairs = paired(a, b, workload, metric["name"])
            if not xs or not ys:
                continue
            result = verdict(xs, ys, pairs, metric["bound"],
                             metric["better"])
            verdicts[workload, metric["name"]] = result
            if show:
                print(f"{workload:<8} {metric['name']:<12} "
                      f"{describe(xs):>34} {describe(ys):>34}  {result}")
    return verdicts


def describe(values: List[float]) -> str:
    q1, q3 = quartiles(values)
    return (f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}] "
            f"{len(values)}")


def slowed(runs: Runs, spec: dict) -> Runs:
    """A copy of *runs* with every time slowed PAST_BOUND past its bound."""
    factor = {m["name"]: PAST_BOUND * (1.0 + m["bound"])
              for m in spec["end_to_end"] if m["unit"] in TIME_UNITS}
    return {key: [{name: value * factor.get(name, 1.0)
                   for name, value in run.items()} for run in records]
            for key, records in runs.items()}


def self_check(runs: Runs, spec: dict) -> Tuple[List[str], List[str]]:
    """Against a slowed copy: (time metrics that do not read "worse",
    time metrics skipped because their own spread exceeds the bound)."""
    missed, wide = [], []
    verdicts = compare(runs, slowed(runs, spec), spec, show=False)
    for metric in spec["end_to_end"]:
        if metric["unit"] not in TIME_UNITS:
            continue
        for workload in sorted({key[1] for key in runs}):
            label = f"{workload}/{metric['name']}"
            xs, _, _ = paired(runs, runs, workload, metric["name"])
            q1, q3 = quartiles(xs)
            if q3 - q1 > metric["bound"] * abs(statistics.median(xs)):
                wide.append(label)
            elif verdicts.get((workload, metric["name"])) != "worse":
                missed.append(label)
    return missed, wide


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two sets of end-to-end benchmark runs.")
    parser.add_argument("set_a", type=Path, help="parent runs")
    parser.add_argument("set_b", type=Path, help="changed runs")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load_set(args.set_a), load_set(args.set_b)
    verdicts = compare(a, b, spec)
    missed, wide = self_check(a, spec)
    past = f"{PAST_BOUND - 1:.0%} past its bound"
    if wide:
        print(f"self-check skipped (spread in A wider than the bound): "
              f"{', '.join(wide)}")
    if missed:
        print(f"self-check FAILED: slowed {past}, these did not read "
              f"worse: {', '.join(missed)}")
    else:
        print(f"self-check passed: every resolved time slowed {past} "
              f"reads worse")
    return 1 if missed or "worse" in verdicts.values() else 0


if __name__ == "__main__":
    sys.exit(main())
