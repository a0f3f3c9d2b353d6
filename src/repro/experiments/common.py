"""Shared experiment infrastructure: die preparation cache and scaling.

Scale levels (environment variable ``REPRO_SCALE``):

* ``smoke``   — b11 + b12 only, small ATPG budgets (seconds; used by
  the test suite and quick bench runs),
* ``default`` — every circuit except b18, ATPG fault-sampled on the
  larger dies (the benchmark harness default; tens of minutes for the
  full set of tables),
* ``full``    — all six circuits with the largest budgets
  (``REPRO_SCALE=full``; hours).

Whatever the scale, the *same* code paths run — scaling only trims the
die list and the ATPG effort, and every driver prints which scale
produced its numbers. See DESIGN.md §6.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.atpg.engine import AtpgConfig
from repro.bench.generator import generate_die
from repro.bench.itc99 import DieProfile, all_die_profiles, die_profile
from repro.core.config import Scenario, WcmConfig
from repro.core.problem import WcmProblem, build_problem, tight_clock_for
from repro.runtime import trace
from repro.sta.constraints import ClockConstraint
from repro.util.errors import ConfigError
from repro.util.fingerprint import fingerprint

DEFAULT_SEED = 2019


@dataclass(frozen=True)
class ExperimentScale:
    """One reproducibility/effort level."""

    name: str
    circuits: Tuple[str, ...]
    #: ATPG fault-sample cap by die gate count: (small, large) where
    #: "large" applies above `large_gate_threshold` gates.
    atpg_sample_small: Optional[int]
    atpg_sample_large: Optional[int]
    large_gate_threshold: int
    atpg_block_width: int
    atpg_max_blocks: int
    atpg_podem_limit: Optional[int]
    #: ignored by the flow (see ``WcmConfig.estimator_budget``); still a
    #: result-cache key component, so existing caches stay valid
    estimator_budget: int

    def atpg_config(self, gate_count: int, seed: int = DEFAULT_SEED
                    ) -> AtpgConfig:
        sample = (self.atpg_sample_large
                  if gate_count >= self.large_gate_threshold
                  else self.atpg_sample_small)
        return AtpgConfig(
            seed=seed,
            block_width=self.atpg_block_width,
            max_random_blocks=self.atpg_max_blocks,
            podem_fault_limit=self.atpg_podem_limit,
            fault_sample=sample,
        )


SCALES: Dict[str, ExperimentScale] = {
    "smoke": ExperimentScale(
        name="smoke", circuits=("b11", "b12"),
        atpg_sample_small=2500, atpg_sample_large=2500,
        large_gate_threshold=2000,
        atpg_block_width=128, atpg_max_blocks=8, atpg_podem_limit=300,
        estimator_budget=1500,
    ),
    "default": ExperimentScale(
        name="default", circuits=("b11", "b12", "b20", "b21", "b22"),
        atpg_sample_small=None, atpg_sample_large=5000,
        large_gate_threshold=3000,
        atpg_block_width=128, atpg_max_blocks=12, atpg_podem_limit=800,
        estimator_budget=4000,
    ),
    "full": ExperimentScale(
        name="full", circuits=("b11", "b12", "b18", "b20", "b21", "b22"),
        atpg_sample_small=None, atpg_sample_large=12000,
        large_gate_threshold=12000,
        atpg_block_width=192, atpg_max_blocks=20, atpg_podem_limit=2000,
        estimator_budget=6000,
    ),
}


def resolve_scale(name: Optional[str] = None) -> ExperimentScale:
    """Pick the scale: explicit name > $REPRO_SCALE > 'default'."""
    chosen = name or os.environ.get("REPRO_SCALE", "default")
    if os.environ.get("REPRO_FULL_SCALE") == "1":
        chosen = "full"
    try:
        return SCALES[chosen]
    except KeyError:
        raise ConfigError(
            f"unknown scale {chosen!r}; expected one of {sorted(SCALES)}"
        ) from None


@dataclass
class PreparedDie:
    """One die, fully prepared and timed, shared across experiments."""

    profile: DieProfile
    #: problem under the unconstrained clock (area scenario)
    problem_area: WcmProblem
    #: problem re-timed under the tight clock
    problem_tight: WcmProblem
    tight_clock: ClockConstraint

    @property
    def name(self) -> str:
        return self.profile.name

    def problem_for(self, scenario: Scenario) -> WcmProblem:
        return self.problem_tight if scenario.is_timed else self.problem_area

    def scenarios(self) -> Tuple[Scenario, Scenario]:
        """(area, tight) scenario pair for this die."""
        return (Scenario.area_optimized(),
                Scenario.performance_optimized(self.tight_clock.period_ps))


_PREPARED: Dict[Tuple[str, int, int], PreparedDie] = {}


def prepare_die(circuit: str, die_index: int, seed: int = DEFAULT_SEED
                ) -> PreparedDie:
    """Generate, stitch, place and time one die (cached per process)."""
    key = (circuit, die_index, seed)
    cached = _PREPARED.get(key)
    if cached is not None:
        return cached
    profile = die_profile(circuit, die_index)
    netlist = generate_die(profile, seed=seed)
    problem_area = build_problem(netlist)
    clock = tight_clock_for(problem_area)
    prepared = PreparedDie(
        profile=profile,
        problem_area=problem_area,
        problem_tight=problem_area.retime(clock),
        tight_clock=clock,
    )
    _PREPARED[key] = prepared
    return prepared


def dies_for_scale(scale: ExperimentScale,
                   circuits: Optional[Tuple[str, ...]] = None
                   ) -> List[Tuple[str, int]]:
    """(circuit, die) pairs covered at this scale."""
    wanted = circuits or scale.circuits
    return [(p.circuit, p.die_index) for p in all_die_profiles()
            if p.circuit in wanted and p.circuit in scale.circuits]


def scale_banner(scale: ExperimentScale, extra: str = "") -> str:
    note = (f"[scale={scale.name}: circuits {', '.join(scale.circuits)}"
            f"{'; ' + extra if extra else ''}]")
    if scale.name != "full":
        note += " — set REPRO_SCALE=full for the complete sweep"
    return note


# ---------------------------------------------------------------------------
# Method-run cache (per process) so tables III/IV/V share flow results.
# ---------------------------------------------------------------------------
from repro.core.flow import (  # noqa: E402
    TestabilityReport,
    WcmRunResult,
    measure_testability,
    run_wcm_flow,
)
from repro.netlist.core import PortKind  # noqa: E402
from repro.runtime.cache import (  # noqa: E402
    WcmSummary,
    active_cache,
    atpg_cache_key,
    atpg_result_from_payload,
    atpg_result_to_payload,
    wcm_cache_key,
)

_RUNS: Dict[tuple, "WcmRunResult"] = {}


def method_config(method: str, scenario: Scenario,
                  scale: ExperimentScale, **overrides) -> WcmConfig:
    """Build the WcmConfig for 'ours' or 'agrawal' at this scale."""
    if method == "ours":
        return WcmConfig.ours(scenario,
                              estimator_budget=scale.estimator_budget,
                              **overrides)
    if method == "agrawal":
        return WcmConfig.agrawal(scenario, **overrides)
    raise ConfigError(f"unknown method {method!r}")


def run_method(prepared: PreparedDie, config: WcmConfig,
               order_override: Optional[tuple] = None) -> "WcmRunResult":
    """Run (and cache) one method/scenario on one prepared die."""
    key = (prepared.name, config.method, config.scenario.name,
           config.allow_overlap, config.order_by_set_size, order_override)
    cached = _RUNS.get(key)
    if cached is not None:
        return cached
    problem = prepared.problem_for(config.scenario)
    result = run_wcm_flow(problem, config, order_override=order_override)
    _RUNS[key] = result
    return result


#: explicit orders for the Table I study
ORDER_INBOUND_FIRST = (PortKind.TSV_INBOUND, PortKind.TSV_OUTBOUND)
ORDER_OUTBOUND_FIRST = (PortKind.TSV_OUTBOUND, PortKind.TSV_INBOUND)


# ---------------------------------------------------------------------------
# Cacheable experiment cells (repro.runtime integration)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MethodSpec:
    """One experiment cell's method/scenario coordinates.

    This is the *cache identity* of a WCM run: everything that selects
    the computation without requiring the die to be prepared first
    (the realized :class:`WcmConfig` embeds the tight-clock period,
    which costs a full die preparation to discover — but the period is
    itself a pure function of (profile, seed), already in the key).
    """

    method: str                  # "ours" | "agrawal"
    scenario: str                # "area" | "tight"
    no_overlap: bool = False     # Table V / Figure 7 ablation
    #: TSV-set processing order override (Table I), as PortKind values
    order: Optional[Tuple[str, ...]] = None

    def realize(self, prepared: PreparedDie, scale: ExperimentScale
                ) -> WcmConfig:
        """Build the concrete config for this spec on a prepared die."""
        area, tight = prepared.scenarios()
        scenario = area if self.scenario == "area" else tight
        config = method_config(self.method, scenario, scale)
        if self.no_overlap:
            config = config.without_overlap()
        return config

    @property
    def order_override(self) -> Optional[Tuple[PortKind, ...]]:
        if self.order is None:
            return None
        return tuple(PortKind(value) for value in self.order)


def _load_cached(cache, key: str, decode):
    """Decode one cache payload; quarantine entries whose JSON parses
    but whose shape no longer matches (truncated rewrite, stale schema
    survivor) instead of raising out of the sweep."""
    payload = cache.get(key)
    if payload is None:
        return None
    try:
        return decode(payload)
    except (KeyError, ValueError, TypeError):
        cache.quarantine(key)
        return None


def run_cell(circuit: str, die_index: int, seed: int,
             scale: ExperimentScale, spec: MethodSpec,
             with_atpg: bool = False, include_transition: bool = True
             ) -> Tuple[WcmSummary, Optional[TestabilityReport]]:
    """Run (or fetch from cache) one experiment cell.

    Returns the WCM flow summary and, when *with_atpg* is set, the
    testability report of the wrapped die. On a warm cache every
    product is served from disk and neither the die preparation nor
    the flow nor ATPG runs at all.
    """
    with trace.span("die", circuit=circuit, die=die_index,
                    method=spec.method, scenario=spec.scenario,
                    atpg=bool(with_atpg)):
        return _run_cell_inner(circuit, die_index, seed, scale, spec,
                               with_atpg, include_transition)


def _run_cell_inner(circuit: str, die_index: int, seed: int,
                    scale: ExperimentScale, spec: MethodSpec,
                    with_atpg: bool, include_transition: bool
                    ) -> Tuple[WcmSummary, Optional[TestabilityReport]]:
    profile = die_profile(circuit, die_index)
    cache = active_cache()

    summary: Optional[WcmSummary] = None
    report: Optional[TestabilityReport] = None
    atpg_config = (scale.atpg_config(profile.gates, seed=seed)
                   if with_atpg else None)
    models = (("stuck_at", "transition") if include_transition
              else ("stuck_at",)) if with_atpg else ()

    if cache is not None:
        key = wcm_cache_key(profile, seed, spec, scale.estimator_budget)
        summary = _load_cached(cache, key, WcmSummary.from_payload)
        if with_atpg:
            results = {}
            for model in models:
                atpg_key = atpg_cache_key(profile, seed, spec,
                                          scale.estimator_budget,
                                          atpg_config, model)
                result = _load_cached(cache, atpg_key,
                                      atpg_result_from_payload)
                if result is None:
                    results = None
                    break
                results[model] = result
            if results is not None:
                report = TestabilityReport(
                    stuck_at=results["stuck_at"],
                    transition=results.get("transition"))

    if summary is not None and (not with_atpg or report is not None):
        return summary, report

    # ---- cache miss: compute (run_method memoizes per process) -------
    prepared = prepare_die(circuit, die_index, seed=seed)
    config = spec.realize(prepared, scale)
    run = run_method(prepared, config, order_override=spec.order_override)
    summary = WcmSummary.from_run(run)
    if cache is not None:
        cache.put(wcm_cache_key(profile, seed, spec,
                                scale.estimator_budget),
                  summary.to_payload())
    if with_atpg and report is None:
        report = measure_testability(run, atpg_config,
                                     include_transition=include_transition)
        if cache is not None:
            produced = {"stuck_at": report.stuck_at,
                        "transition": report.transition}
            for model in models:
                result = produced[model]
                if result is None:
                    continue
                cache.put(atpg_cache_key(profile, seed, spec,
                                         scale.estimator_budget,
                                         atpg_config, model),
                          atpg_result_to_payload(result))
    return summary, report


# ---------------------------------------------------------------------------
# Supervised sweeps (failure threading shared by every table driver)
# ---------------------------------------------------------------------------
from repro.runtime.supervisor import supervised_map  # noqa: E402


def sweep_cells(fn, keys, cells, jobs: Optional[int], seed: int,
                label: str) -> Tuple[Dict, Dict[object, str]]:
    """Run one driver's cells under supervision, keyed by *keys*.

    Returns ``(ok, failed)``: per-key results for cells that survived,
    and per-key failure descriptions for cells that crashed, raised or
    timed out (retry, strictness, timeout and checkpointing follow the
    runtime config unless the caller passes an explicit policy through
    ``supervised_map`` itself).
    """
    sweep = supervised_map(fn, cells, jobs=jobs, seed=seed, label=label)
    ok: Dict = {}
    failed: Dict[object, str] = {}
    for key, outcome in zip(keys, sweep.outcomes):
        if outcome.ok:
            ok[key] = outcome.result
        else:
            failed[key] = outcome.describe()
    return ok, failed


def traced_experiment(table: str) -> Callable:
    """Wrap a ``run_*`` driver in an ``experiment`` span.

    Under an active tracer the driver's whole execution becomes one
    span (child spans: sweeps, dies, phases), so ``repro trace show``
    can attribute every event to the table that produced it. With
    tracing off this costs a single global read per driver call.
    """
    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with trace.span("experiment", kind="experiment", table=table):
                return fn(*args, **kwargs)
        return wrapper
    return decorate


def result_fingerprint(result) -> str:
    """Content fingerprint of a driver result via its rendered table —
    the render is the reproduction artifact, so two runs that agree on
    it agree on everything the paper comparison cares about."""
    return fingerprint(result.render())


def driver_manifest(name: str, result, scale: ExperimentScale,
                    seed: int) -> Dict[str, object]:
    """Manifest payload for one finished driver run (tracer must be
    active — metrics and span timings come from it)."""
    tracer = trace.active()
    return trace.build_manifest(
        name,
        config={"label": name, "scale": scale.name, "seed": seed},
        seed=seed,
        scale=scale.name,
        result_fingerprint=result_fingerprint(result),
        metrics=tracer.metrics if tracer is not None else None,
        timings=tracer.bench_timings() if tracer is not None else None,
    )


def die_label(key) -> str:
    """Human name of a sweep key: ('b11', 2) -> 'b11_d2'."""
    if isinstance(key, tuple) and len(key) == 2:
        return f"{key[0]}_d{key[1]}"
    return str(key)


def render_failures(failures: Dict[object, str],
                    label=die_label) -> str:
    """The failure footer every table renders when cells were lost."""
    if not failures:
        return ""
    lines = [f"!! {len(failures)} cell(s) FAILED — excluded from the "
             f"table and its averages; rerun (or resume from the "
             f"checkpoint) to recompute:"]
    for key in sorted(failures, key=str):
        lines.append(f"!!   {label(key)}: {failures[key]}")
    return "\n".join(lines)
