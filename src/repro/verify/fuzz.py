"""The fuzz driver: seeded instance streams, budgets, shrinking.

One *iteration* = derive a spec from ``(root seed, index)``, build it,
run the check registry, record divergences. The stream is position-
independent (iteration *i* depends only on the root seed and *i*), so
budget-by-iterations, budget-by-seconds and parallel execution all
visit the identical specs — and a failure report names the exact
``--seed``/iteration to replay.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

from repro.runtime import trace
from repro.runtime.supervisor import SupervisorPolicy, supervised_map
from repro.util.rng import DeterministicRng, derive_seed
from repro.verify.checks import CHECKS, run_checks
from repro.verify.instances import MIN_GATES, InstanceSpec
from repro.verify.shrink import shrink

#: iterations handed to the worker pool per dispatch round; bounds how
#: long a --seconds budget can overshoot.
CHUNK = 16

#: shrinking is ~50 builds per failure; cap how many we polish
MAX_SHRINKS = 5


def spec_for_iteration(root_seed: int, index: int) -> InstanceSpec:
    """The deterministic spec of iteration *index* under *root_seed*."""
    from repro.bench.families import FAMILIES

    rng = DeterministicRng(derive_seed(root_seed, "verify.fuzz", index))
    gates = rng.randint(MIN_GATES, 40)
    ffs = rng.randint(1, 6)
    tsv_in = 0 if rng.random() < 0.10 else rng.randint(1, 6)
    tsv_out = 0 if rng.random() < 0.10 else rng.randint(1, 6)
    # The family axis: roughly half the stream keeps the ITC'99
    # generator, the rest spreads evenly over the topology families.
    family = "itc99" if rng.random() < 0.50 else rng.choice(FAMILIES)
    fanout_cap = rng.choice([None, None, None, 4, 6])
    return InstanceSpec(
        seed=rng.randint(0, 2**31 - 1),
        gates=gates,
        ffs=ffs,
        tsv_in=tsv_in,
        tsv_out=tsv_out,
        family=family,
        fanout_cap=fanout_cap,
        scenario="tight" if rng.random() < 0.70 else "area",
        method="ours" if rng.random() < 0.75 else "agrawal",
        d_th_fraction=rng.choice([None, 0.15, 0.3, 0.5, 0.8]),
        d_th_boundary=rng.random() < 0.20,
        coincident=rng.random() < 0.25,
    )


@dataclass
class FuzzFailure:
    """One diverging iteration, before and after shrinking."""

    index: int
    spec: InstanceSpec
    divergences: List[str]
    shrunk: Optional[InstanceSpec] = None
    repro_path: Optional[str] = None


@dataclass
class FuzzReport:
    """Outcome of one fuzz run."""

    root_seed: int
    iterations: int = 0
    elapsed_s: float = 0.0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [f"fuzz: {self.iterations} iterations, seed "
                 f"{self.root_seed}, {self.elapsed_s:.1f}s, "
                 f"{len(self.failures)} failure(s)"]
        for failure in self.failures:
            spec = failure.shrunk or failure.spec
            lines.append(f"  iteration {failure.index}: "
                         f"{failure.divergences[0]}")
            for extra in failure.divergences[1:3]:
                lines.append(f"    {extra}")
            lines.append(f"    spec: {spec}")
            if failure.repro_path:
                lines.append(f"    repro: {failure.repro_path}")
        return "\n".join(lines)


def _fuzz_cell(cell: Tuple[int, int, Tuple[str, ...]]
               ) -> Tuple[int, List[str]]:
    """One iteration; module-level so worker processes can import it."""
    root_seed, index, checks = cell
    spec = spec_for_iteration(root_seed, index)
    return index, run_checks(spec, list(checks) or None)


def run_fuzz(root_seed: int = 0, budget: Optional[int] = None,
             seconds: Optional[float] = None,
             checks: Optional[List[str]] = None,
             jobs: Optional[int] = None,
             shrink_failures: bool = True,
             repro_dir: Optional[Path] = None) -> FuzzReport:
    """Fuzz until the iteration or wall-clock budget is exhausted.

    Exactly one of *budget*/*seconds* may be given (default: 100
    iterations). Iterations are dispatched through a strict
    ``supervised_map`` in chunks, so ``--jobs N`` changes wall-clock
    only — the visited spec stream is identical — and a crashed worker
    raises instead of silently dropping iterations.
    """
    if budget is None and seconds is None:
        budget = 100
    unknown = [n for n in (checks or []) if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown} "
                         f"(have {sorted(CHECKS)})")
    report = FuzzReport(root_seed=root_seed)
    policy = dataclasses.replace(SupervisorPolicy.from_config(),
                                 strict=True, checkpoint_dir=None)
    started = time.monotonic()
    check_key = tuple(checks or ())
    index = 0
    while True:
        if budget is not None and index >= budget:
            break
        if seconds is not None and time.monotonic() - started >= seconds:
            break
        chunk_end = index + CHUNK
        if budget is not None:
            chunk_end = min(chunk_end, budget)
        cells = [(root_seed, i, check_key) for i in range(index, chunk_end)]
        sweep = supervised_map(_fuzz_cell, cells, jobs=jobs, seed=root_seed,
                               label="fuzz", policy=policy)
        for i, divergences in sweep.results_or_raise():
            report.iterations += 1
            trace.inc("verify.fuzz_iterations")
            if divergences:
                trace.inc("verify.fuzz_failures")
                report.failures.append(FuzzFailure(
                    index=i, spec=spec_for_iteration(root_seed, i),
                    divergences=divergences))
        index = chunk_end

    for failure in report.failures[:MAX_SHRINKS]:
        if shrink_failures:
            failed_checks = _checks_of(failure.divergences)
            failure.shrunk = shrink(failure.spec,
                                    failed_checks or list(check_key)
                                    or None)
        if repro_dir is not None:
            spec = failure.shrunk or failure.spec
            repro_dir = Path(repro_dir)
            repro_dir.mkdir(parents=True, exist_ok=True)
            path = repro_dir / f"{spec.slug()}.json"
            spec.save(path)
            failure.repro_path = str(path)

    report.elapsed_s = time.monotonic() - started
    if trace.active() is not None:
        trace.observe("verify.fuzz_failure_count", len(report.failures))
    return report


def _checks_of(divergences: List[str]) -> List[str]:
    """Registry names recoverable from divergence prefixes, so shrink
    replays only what failed."""
    # Map loose prefixes ("sim", "fault ...", "sta[...]") onto registry
    # names conservatively: anything unmatched reruns everything. A
    # "build:" crash reproduces under any single check, so the cheapest
    # one suffices.
    out: List[str] = []
    for line in divergences:
        for name, prefix in (("sim", "sim"), ("faults", "fault"),
                             ("podem", "podem"),
                             ("sta-reuse", "sta[reuse"), ("sta", "sta"),
                             ("graph", "graph"), ("clique", "clique"),
                             ("insertion", "insertion"),
                             ("meta-isometry", "meta[rotate"),
                             ("meta-isometry", "meta[mirror"),
                             ("meta-thresholds", "meta[thresholds"),
                             ("meta-isolated-ff", "meta[isolated"),
                             ("eco", "eco"),
                             ("schedule", "schedule"),
                             ("sim", "build")):
            if line.startswith(prefix):
                if name not in out:
                    out.append(name)
                break
        else:
            return []  # unrecognized: rerun the full registry
    return out
