"""Scaling-law study over topology families: where each kernel bends.

``run_scaling`` sweeps (family x gate count x TSV density) cells. For
each cell it generates the family die and pushes it phase by phase
through the kernel stack — generate, compile, packed simulation,
place+stitch, STA, sharing-graph build, clique cover, the full WCM
flow, and a warm ECO re-solve — recording wall-clock per phase plus a
content *identity* payload (counts, fingerprints, critical paths).

Two contracts, pinned by the ``scaling-smoke`` CI job:

* **Determinism modulo timings**: the per-cell identity fingerprints
  (and the report-level :attr:`ScalingReport.fingerprint` over them)
  are byte-identical across runs, ``PYTHONHASHSEED`` values and hosts;
  only the ``*_s`` timing fields vary.
* **No silent caps**: phases skipped because a cell exceeds its cap
  (quadratic-ish phases at 10^5+, full flow at 10^4+ by default) are
  recorded with their reason and rendered; absence of a timing is
  always explained.

The exported timings file is BENCH-compatible — every entry carries
``mean_s`` — so ``repro bench gate BENCH_scaling.json --golden ...``
gates regressions, and extra identity keys per entry ride along
(ignored by the gate's timing comparison).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.families import FAMILIES, FamilySpec, generate_family_die
from repro.util.errors import ReproError

#: phase order, also the render order
PHASES = ("generate", "compile", "sim", "prep", "sta", "graph", "clique",
          "flow", "eco")

#: width of the packed simulation blocks
_SIM_BITS = 64
_FNV_PRIME = 1099511628211
_FNV_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class ScalingCaps:
    """Per-phase gate-count ceilings (None disables a cap).

    ``prep`` covers placement/stitch/STA/graph/clique — near-linear
    kernels with big constants; ``flow`` covers the full WCM flow and
    the ECO session — the clique/flow stack is the quadratic-ish end.
    Generation, compile and packed simulation always run: they are the
    kernels the 10^6-gate end of the sweep exists to measure.
    """

    prep: Optional[int] = 200_000
    flow: Optional[int] = 20_000


@dataclass
class CellResult:
    """One (family, gates, density) cell of the sweep."""

    family: str
    gates: int
    density: float
    #: phase -> [per-repeat wall-clock seconds]
    timings: Dict[str, List[float]] = field(default_factory=dict)
    #: content payload per phase — the determinism surface
    identity: Dict[str, object] = field(default_factory=dict)
    #: phase -> reason string for phases that did not run
    skipped: Dict[str, str] = field(default_factory=dict)

    def key(self) -> str:
        density = f"{self.density:g}".replace(".", "p")
        return f"scale.{self.family}.g{self.gates}.d{density}"

    def fingerprint(self) -> str:
        from repro.util.fingerprint import fingerprint

        return fingerprint({"key": self.key(),
                            "identity": self.identity,
                            "skipped": self.skipped})


@dataclass
class ScalingReport:
    """Outcome of one sweep: cells plus the run-level identity."""

    seed: int
    families: Tuple[str, ...]
    gate_points: Tuple[int, ...]
    densities: Tuple[float, ...]
    caps: ScalingCaps
    repeat: int
    cells: List[CellResult] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def fingerprint(self) -> str:
        from repro.util.fingerprint import fingerprint

        return fingerprint({
            "schema": "scale/1", "seed": self.seed,
            "families": list(self.families),
            "gate_points": list(self.gate_points),
            "densities": list(self.densities),
            "cells": {cell.key(): cell.fingerprint()
                      for cell in self.cells},
        })

    def bench_timings(self) -> Dict[str, Dict[str, object]]:
        """BENCH-compatible timings: one entry per (cell, phase), each
        carrying the cell's identity fingerprint as an extra key."""
        out: Dict[str, Dict[str, object]] = {}
        for cell in self.cells:
            cell_fp = cell.fingerprint()
            for phase, samples in cell.timings.items():
                out[f"{cell.key()}.{phase}"] = {
                    "mean_s": sum(samples) / len(samples),
                    "min_s": min(samples),
                    "stddev_s": 0.0,
                    "rounds": len(samples),
                    "gates": cell.gates,
                    "family": cell.family,
                    "fingerprint": cell_fp,
                }
        return out

    def render(self) -> str:
        lines = [f"scaling sweep: seed {self.seed}, families "
                 f"{','.join(self.families)}, gates "
                 f"{','.join(str(g) for g in self.gate_points)}, "
                 f"tsv-density {','.join(f'{d:g}' for d in self.densities)}"
                 f", {self.elapsed_s:.1f}s"]
        header = f"{'cell':<28}" + "".join(f"{p:>10}" for p in PHASES)
        lines.append(header)
        for cell in self.cells:
            row = f"{cell.key():<28}"
            for phase in PHASES:
                if phase in cell.timings:
                    samples = cell.timings[phase]
                    row += f"{sum(samples) / len(samples):>10.3f}"
                else:
                    row += f"{'-':>10}"
            lines.append(row)
        skips = [(cell.key(), phase, reason)
                 for cell in self.cells
                 for phase, reason in sorted(cell.skipped.items())]
        if skips:
            lines.append("skipped (no silent caps):")
            for key, phase, reason in skips:
                lines.append(f"  {key}.{phase}: {reason}")
        lines.append(f"scale fingerprint: {self.fingerprint}")
        return "\n".join(lines)


def parse_gate_points(text: str) -> List[int]:
    """``"1e3:1e5"`` -> log-spaced decades [1000, 10000, 100000];
    ``"1e3:1e5:5"`` -> 5 log-spaced points; ``"1000,5000"`` -> listed
    values."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ReproError(f"bad gates range {text!r} "
                             f"(want LO:HI or LO:HI:N)")
        lo, hi = float(parts[0]), float(parts[1])
        if lo <= 0 or hi < lo:
            raise ReproError(f"bad gates range {text!r}")
        n = int(parts[2]) if len(parts) == 3 \
            else int(round(math.log10(hi / lo))) + 1
        n = max(1, n)
        if n == 1:
            points = [lo]
        else:
            step = (math.log10(hi) - math.log10(lo)) / (n - 1)
            points = [10 ** (math.log10(lo) + i * step) for i in range(n)]
        out = sorted({max(1, int(round(p))) for p in points})
        return out
    try:
        return sorted({max(1, int(float(p))) for p in text.split(",") if p})
    except ValueError:
        raise ReproError(f"bad gates list {text!r}") from None


def _fold(words: Sequence[int]) -> int:
    """Order-sensitive 64-bit FNV fold — a cheap, hash-seed-immune
    content signature for million-entry simulation tapes (a full
    fingerprint would dominate the phase being measured)."""
    fold = 14695981039346656037
    for word in words:
        fold = ((fold ^ (word & _FNV_MASK)) * _FNV_PRIME) & _FNV_MASK
    return fold


#: full netlist fingerprints only below this size — canonicalizing a
#: million-instance payload costs more than generating it
_FULL_FINGERPRINT_GATES = 50_000


def run_scaling(families: Sequence[str],
                gate_points: Sequence[int],
                densities: Sequence[float] = (40.0,),
                seed: int = 2019,
                repeat: int = 1,
                caps: Optional[ScalingCaps] = None,
                progress: Optional[Callable[[str], None]] = None
                ) -> ScalingReport:
    """Run the sweep; see the module docstring for the contracts."""
    import dataclasses

    from repro.atpg.sim import CompiledCircuit
    from repro.bench.families import netlist_fingerprint
    from repro.core.config import Scenario, WcmConfig
    from repro.core.flow import run_wcm_flow
    from repro.core.graph import build_wcm_graph
    from repro.core.clique import partition_cliques
    from repro.core.problem import build_problem, tight_clock_for
    from repro.core.session import (MoveFf, WcmSession,
                                    result_fingerprint)
    from repro.core.testability import OverlapTestabilityEstimator
    from repro.core.timing_model import ReuseTimingModel
    from repro.dft.scan import stitch_scan_chains
    from repro.dft.testview import build_prebond_test_view
    from repro.netlist.core import PortKind
    from repro.place.placer import place_die
    from repro.util.rng import DeterministicRng

    for family in families:
        if family not in FAMILIES:
            raise ReproError(f"unknown family {family!r} "
                             f"(have {FAMILIES})")
    if repeat < 1:
        raise ReproError(f"repeat must be >= 1, got {repeat}")
    caps = caps or ScalingCaps()
    report = ScalingReport(seed=seed, families=tuple(families),
                           gate_points=tuple(gate_points),
                           densities=tuple(densities), caps=caps,
                           repeat=repeat)
    started = time.monotonic()

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    for family in families:
        for gates in gate_points:
            for density in densities:
                cell = CellResult(family=family, gates=gates,
                                  density=density)
                report.cells.append(cell)
                note(f"[{cell.key()}]")
                spec = FamilySpec.from_density(gates,
                                               tsvs_per_kgate=density)

                def timed(phase: str, fn):
                    samples = []
                    value = None
                    for _ in range(repeat):
                        t0 = time.perf_counter()
                        value = fn()
                        samples.append(time.perf_counter() - t0)
                    cell.timings[phase] = samples
                    return value

                netlist = timed("generate",
                                lambda: generate_family_die(
                                    family, spec, seed=seed))
                stats = netlist.stats()
                cell.identity["stats"] = stats
                if gates <= _FULL_FINGERPRINT_GATES:
                    cell.identity["netlist_fp"] = \
                        netlist_fingerprint(netlist)

                circuit = timed("compile", lambda: CompiledCircuit(
                    build_prebond_test_view(netlist)))
                words_rng = DeterministicRng(seed).child("scale",
                                                         "patterns")
                words = [words_rng.getrandbits(_SIM_BITS)
                         for _ in range(circuit.input_count)]
                mask = (1 << _SIM_BITS) - 1
                tape = timed("sim", lambda: circuit.simulate(words, mask))
                cell.identity["sim_fold"] = _fold(tape)

                if caps.prep is not None and gates > caps.prep:
                    reason = (f"gates {gates} > prep cap {caps.prep} "
                              f"(placement/STA/graph/clique)")
                    for phase in ("prep", "sta", "graph", "clique",
                                  "flow", "eco"):
                        cell.skipped[phase] = reason
                    continue

                def prep():
                    place_die(netlist)
                    stitch_scan_chains(netlist)
                timed("prep", prep)

                def sta():
                    problem = build_problem(netlist,
                                            already_prepared=True)
                    return problem.retime(tight_clock_for(problem))
                problem = timed("sta", sta)
                cell.identity["critical_path_ps"] = (
                    problem.timing.critical_path_ps,
                    problem.test_timing.critical_path_ps)

                config = WcmConfig.ours(Scenario.performance_optimized(
                    problem.timing.constraint.period_ps))
                ffs = list(problem.scan_ffs)

                def fresh_estimator():
                    if not config.allow_overlap:
                        return None
                    return OverlapTestabilityEstimator(problem)

                def graphs():
                    return {kind.name: build_wcm_graph(
                        problem, kind, ffs, config,
                        timing_model=ReuseTimingModel(problem, config),
                        estimator=fresh_estimator())
                            for kind in (PortKind.TSV_INBOUND,
                                         PortKind.TSV_OUTBOUND)}
                graph_by_kind = timed("graph", graphs)
                cell.identity["graph_stats"] = {
                    name: dataclasses.asdict(g.stats)
                    for name, g in sorted(graph_by_kind.items())}

                def cliques():
                    return {name: partition_cliques(
                        g, ReuseTimingModel(problem, config))
                            for name, g in sorted(graph_by_kind.items())}
                partition_by_kind = timed("clique", cliques)
                cell.identity["clique_counts"] = {
                    name: (len(p.cliques), p.additional_cells)
                    for name, p in sorted(partition_by_kind.items())}

                if caps.flow is not None and gates > caps.flow:
                    reason = (f"gates {gates} > flow cap {caps.flow} "
                              f"(full WCM flow / ECO session)")
                    cell.skipped["flow"] = reason
                    cell.skipped["eco"] = reason
                    continue

                result = timed("flow",
                               lambda: run_wcm_flow(problem, config))
                cell.identity["flow_fp"] = result_fingerprint(result)

                session = WcmSession(netlist.clone(), config,
                                     already_prepared=True)
                session.solve()  # warm the session outside the timer
                mover = ffs[0]
                inst = session.netlist.instance(mover)
                session.apply(MoveFf(mover, inst.x + 3.0, inst.y + 2.0))
                warm = timed("eco", session.solve)
                cell.identity["eco_fp"] = result_fingerprint(warm)

    report.elapsed_s = time.monotonic() - started
    return report


def write_scaling_json(report: ScalingReport, path) -> None:
    from repro.runtime import trace

    trace.write_bench_json(path, report.bench_timings())
