"""End-to-end benchmark of the WCM pipeline.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--quick] [--out FILE]

Runs each workload (default: all four, see README.md) in a fresh
process with a scrubbed environment, prints every metric by name with
its unit, checks the outputs, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``. It exits nonzero when
any output is wrong.

Untraced (``--trace 0``, the default) it reports the end-to-end metrics
of ``BENCHMARK.json``: the workload's set-up runs five times, in five
processes, and ``setup_s`` is their median. Traced (``--trace`` or
``--trace 1``) it splits the time between an untraced and a traced
process and reports the per-layer metrics plus ``trace.overhead_frac``;
the spans go to ``.e2e-bench/spans.json``.

With one workload the metric names are bare; with several they read
``WORKLOAD/METRIC``. At the default seed the outputs must match
``golden.json`` (``--update-golden`` rewrites it).
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = ROOT / ".e2e-bench"
GOLDEN = HERE / "golden.json"

WORKLOADS = ("stack", "grid", "eco", "serve")
DEFAULT_SEED = 2019
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 30.0
#: a workload process may overrun its budget by one pass plus teardown
RUN_GRACE_S = 60.0


class ChildFailed(Exception):
    """A workload process crashed, timed out or printed no result."""


def child_env() -> Dict[str, str]:
    """The caller's environment without program or interpreter settings,
    plus a fixed hash seed and single-threaded numeric libraries."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("REPRO_", "PYTHON"))}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def _pump(stream, lines: "queue.Queue") -> None:
    for line in stream:
        lines.put((time.perf_counter(), line))
    lines.put((time.perf_counter(), None))


def spawn(args: List[str], timeout_s: float):
    """Run one workload process. Returns (reference seconds from spawn to
    its READY line, its parsed JSON result or None)."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py")] + args,
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    lines: "queue.Queue" = queue.Queue()
    reader = threading.Thread(target=_pump, args=(proc.stdout, lines))
    reader.start()
    ready_s: Optional[float] = None
    output: List[str] = []
    deadline = started + timeout_s
    try:
        while True:
            try:
                at, line = lines.get(timeout=max(0.0, deadline
                                                 - time.perf_counter()))
            except queue.Empty:
                raise ChildFailed(f"{args[0]}: no result within "
                                  f"{timeout_s:.0f}s") from None
            if line is None:
                break
            if line.startswith("READY ") and ready_s is None:
                # the child's gauge readings over its set-up
                gauge = json.loads(line[len("READY "):])
                ready_s = (at - started - gauge["gauge_s"]) * gauge["factor"]
            else:
                output.append(line)
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{args[0]}: did not exit") from None
    finally:
        # the process group holds the serve daemon and its workers too
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        reader.join()
    if code != 0 or ready_s is None:
        raise ChildFailed(f"{args[0]}: exit code {code}, "
                          f"ready={ready_s is not None}")
    if "--setup-only" in args:
        return ready_s, None
    try:
        return ready_s, json.loads(output[-1])
    except (IndexError, ValueError):
        raise ChildFailed(f"{args[0]}: no JSON result line") from None


def e2e_metrics(result: dict, setups: List[float]) -> Dict[str, float]:
    """Medians over the whole run: of the set-ups, of the identical
    passes, and of each pass's median operation. On a shared host the
    best pass of a run depends on whether the run caught a quiet moment,
    and it moved two to three times as much between runs as the median.
    A pass's median operation, and not the median of all operations,
    because stack and grid passes mix operations of different sizes."""
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(result["pass_s"]),
        "p50_ms": statistics.median(
            statistics.median(ops) for ops in result["op_ms"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def layer_metrics(traced: dict, untraced: dict,
                  names: List[str]) -> Dict[str, float]:
    values = {name: float(traced["layers"].get(name, 0.0))
              for name in names}
    values["trace.overhead_frac"] = (
        statistics.median(traced["pass_s"])
        / statistics.median(untraced["pass_s"]) - 1.0)
    return values


def run_workload(workload: str, args, spec: dict) -> dict:
    """Measure one workload; returns its result record."""
    common = ["--seed", str(args.seed)] + (["--quick"] if args.quick else [])
    children = []
    samples = {}
    if not args.trace:
        setups = [spawn([workload, "--seconds", "0", "--setup-only"]
                        + common, SETUP_TIMEOUT_S)[0]
                  for _ in range(SETUP_SAMPLES - 1)]
        setup_s, result = spawn([workload, "--seconds", str(args.seconds)]
                                + common, args.seconds + RUN_GRACE_S)
        children.append(result)
        setups.append(setup_s)
        metrics = e2e_metrics(result, setups)
        samples = {"setup_s": setups, "pass_s": result["pass_s"],
                   "pass_wall_s": result["pass_wall_s"],
                   "op_ms": result["op_ms"]}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        half = str(args.seconds / 2)
        _, untraced = spawn([workload, "--seconds", half] + common,
                            args.seconds + RUN_GRACE_S)
        spans_path = OUT_DIR / f"spans-{workload}.json"
        _, traced = spawn([workload, "--seconds", half,
                           "--spans", str(spans_path)] + common,
                          args.seconds + RUN_GRACE_S)
        children += [untraced, traced]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = layer_metrics(traced, untraced, list(units))
    errors = [e for child in children for e in child["errors"]]
    failed = sum(child["failed"] for child in children)
    mismatches = check_golden(workload, args, [c["pins"] for c in children])
    errors += mismatches
    failed += bool(mismatches)
    attempted = max(1, sum(child["attempted"] for child in children))
    return {"correct": not errors, "attempted": attempted,
            "failed": min(failed, attempted), "errors": errors,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
            "samples": samples}


def check_golden(workload: str, args, pins_list: List[dict]) -> List[str]:
    """Pinned outputs at the default seed (any other seed: invariants
    only, checked inside the workload)."""
    if args.seed != DEFAULT_SEED:
        return []
    size = "quick" if args.quick else "full"
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if args.update_golden:
        golden.setdefault(size, {})[workload] = pins_list[0]
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True)
                          + "\n")
        return []
    expected = golden.get(size, {}).get(workload)
    if expected is None:
        return [f"golden.json has no {size} pins for {workload}"]
    return [f"{workload}: {key} differs from golden.json"
            for pins in pins_list for key in sorted(set(expected) | set(pins))
            if pins.get(key) != expected.get(key)]


def merge_spans(workloads: List[str]) -> Path:
    merged = {}
    for workload in workloads:
        part = OUT_DIR / f"spans-{workload}.json"
        merged[workload] = json.loads(part.read_text())
        part.unlink()
    path = OUT_DIR / "spans.json"
    path.write_text(json.dumps(merged))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the WCM pipeline.")
    parser.add_argument("--workload", "--workloads", dest="workloads",
                        nargs="+", choices=WORKLOADS, default=None,
                        help="workloads to run (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke sizes (the pytest check)")
    parser.add_argument("--out", default=None,
                        help="also write the results to this JSON file")
    parser.add_argument("--update-golden", action="store_true",
                        help="rewrite golden.json from this run "
                             "(default seed only)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program sources at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    workloads = list(args.workloads or WORKLOADS)
    OUT_DIR.mkdir(exist_ok=True)

    records = {}
    for workload in workloads:
        try:
            records[workload] = run_workload(workload, args, spec)
        except ChildFailed as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
        record = records[workload]
        for name, metric in record["metrics"].items():
            print(f"{workload:<6} {name:<32} {metric['value']:>16.6f} "
                  f"{metric['unit']}")
        print(f"{workload:<6} {'ops failed':<32} {record['failed']:>9d} of "
              f"{record['attempted']}")
        for error in record["errors"]:
            print(f"{workload:<6} FAILED: {error}")
    if args.trace:
        print(f"spans written to {merge_spans(workloads)}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
             "quick": args.quick, "workloads": records}, indent=1) + "\n")

    single = len(workloads) == 1
    summary = {
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": {(name if single else f"{workload}/{name}"): metric
                    for workload, record in records.items()
                    for name, metric in record["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
