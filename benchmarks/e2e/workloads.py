"""One workload of the end-to-end benchmark, run in its own process.

    python benchmarks/e2e/workloads.py WORKLOAD --seed N --seconds S \
        [--quick] [--spans PATH] [--setup-only]

``run.py`` starts this with a scrubbed environment. The process sets
up its inputs (see ``CANONICAL_SEED`` for what the seed changes) and
prints ``READY`` with its set-up's gauge readings; with
``--setup-only`` it tears down and exits there. Otherwise it repeats
passes of the workload until S seconds are spent (at least one pass),
checks every output, and prints one JSON line: per-pass times,
per-operation latencies, peak RSS, output pins, failures and, with
``--spans``, the per-layer numbers of the traced pass (the spans
themselves go to PATH).

Every pass of one process is the same work from the same starting
state (eco and serve restore theirs between passes, untimed), so the
passes of a run are samples of one number. The operations inside a
pass are what a user waits on: one die through the whole pipeline
(stack), one flow (grid), one edit plus re-solve (eco), one warm
submit (serve). Every time is in reference seconds (see ``gauge.py``):
the process and the daemons it starts run on one CPU, and the gauge
samples it between the layer calls, outside the timed spans.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from gauge import Gauge, GaugeTracer
from spans import PASS, SETUP, Tracer


def start_gauge() -> Gauge:
    """Pin this process, and so every process it starts, to one CPU (the
    CPUs of the machine change speed independently, so the gauge must
    run where the work does), and take the first sample before the
    program's imports: set-up is gauged from here."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    gauge = Gauge()
    gauge.sample()
    return gauge


GAUGE = start_gauge()

# the program's imports come after the first gauge sample
import repro
from repro.atpg.engine import run_stuck_at_atpg
from repro.atpg.transition import run_transition_atpg
from repro.bench.families import FamilySpec, generate_family_die
from repro.bench.generator import generate_die
from repro.bench.itc99 import die_profile
from repro.core.config import Scenario, WcmConfig
from repro.core.flow import FlowHooks, run_wcm_flow
from repro.core.problem import build_problem, tight_clock_for
from repro.core.session import (MoveFf, MoveTsv, SetThreshold, WcmSession,
                                result_fingerprint)
from repro.dft.scan import stitch_scan_chains
from repro.dft.testview import build_prebond_test_view
from repro.experiments.common import SCALES
from repro.place.placer import PlacementConfig, place_die
from repro.runtime.config import configure
from repro.schedule.chains import (DieTestModel, balanced_chain_lengths,
                                   internal_chain_count)
from repro.schedule.pack import best_fit_schedule, schedule_violations
from repro.serve.client import ServeClient

#: Die netlists are the reproduction's canonical ones (the generator
#: seed every experiment uses). A different netlist changes the work of
#: a pass by 15-90 %, more than any bound could absorb, so ``--seed``
#: drives the stochastic parts instead: the ATPG pattern seed (stack),
#: the placement seed (grid), the order of the d_th settings (eco) and
#: the order of the requests (serve).
CANONICAL_SEED = 2019

#: sizes per workload: the timed runs, and the ``--quick`` smoke size
STACK_DIES = {
    "full": tuple(("b11", d) for d in range(4)),
    "quick": (("b11", 0),),
}
GRID_GATES = {"full": 4000, "quick": 2000}
#: eco: edits per pass (None: the whole mix of ``eco_pass_edits``)
ECO_EDITS = {"full": None, "quick": 30}
#: serve: the die of the cold submits (one per method), and the warm
#: submits per pass. A pass stays short (about 2 s), so a run has
#: enough passes for a steady median.
SERVE_DIE = ("b11", 0)
SERVE_WARM = {"full": 1000, "quick": 20}

TAM_BUDGET = 8
#: the stack's flows (Table III) and the ATPG runs on them (Table IV,
#: plus the area runs whose pattern counts the schedule needs)
FLOWS = (("agrawal", "area"), ("agrawal", "tight"),
         ("ours", "area"), ("ours", "tight"))
ATPG_RUNS = (("agrawal", "area"), ("ours", "area"), ("ours", "tight"))
#: the grid's flows: ours without timing checks in the graph, Agrawal
#: with them over every pair (no distance limit) and one sign-off round
GRID_FLOWS = (("ours", "area"), ("agrawal", "tight"))
#: the daemon's worker pool. One client sends every submit: two warm
#: clients convoy on the daemon's interpreter lock (their median
#: latency was 2-4x one client's and moved by +-20 % between passes of
#: one run), and the daemon shares the client's CPU, where a second
#: client would only queue.
SERVE_WORKERS = 2
SUBMIT_TIMEOUT_S = 120.0
#: the serve daemons' state, relative to the checkout (ignored by git)
SERVE_WORKDIR = ".e2e-bench/serve"

#: span name -> per-layer self-time metric
LAYER_TIMES = {
    "bench.generate": "bench.generate_s",
    "place.place": "place.place_s",
    "dft.stitch": "dft.stitch_s",
    "core.problem": "core.problem_s",
    "core.retime": "core.retime_s",
    "core.flow": "core.flow.self_s",
    "core.graph": "core.graph_s",
    "core.clique": "core.clique_s",
    "core.signoff": "core.signoff_s",
    "dft.testview": "dft.testview_s",
    "atpg.stuck_at": "atpg.stuck_at_s",
    "atpg.transition": "atpg.transition_s",
    "schedule.pack": "schedule.pack_s",
    "core.session.apply": "core.session.apply_s",
    "core.session.solve": "core.session.solve_s",
    "serve.cold": "serve.cold_s",
    "serve.warm": "serve.warm_s",
}


Interval = Tuple[float, float]


class Run:
    """What one workload process measured and checked."""

    def __init__(self, tracer, gauge: Gauge) -> None:
        self.tracer = tracer
        self.gauge = gauge
        #: (start, end) of every timed pass, and of the user-visible
        #: operations in each pass; made reference seconds at the end
        self.passes: List[Interval] = []
        self.ops: List[List[Interval]] = []
        self.attempted = 0
        self.errors: List[str] = []
        #: per-layer counts summed over passes (traced pass only)
        self.counts: Dict[str, float] = {}
        #: per-layer values that are not per-pass sums
        self.layers: Dict[str, float] = {}
        #: deterministic outputs pinned by golden.json
        self.pins: Dict[str, object] = {}
        self.peak_rss_mb = 0.0

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def pin(self, index: int, pins: Dict[str, object]) -> None:
        """Pass 0's outputs become the run's pins; every later pass must
        repeat them exactly."""
        if index == 0:
            self.pins = pins
        else:
            self.check(pins == self.pins,
                       f"pass {index} outputs differ from pass 0")

    def tick(self) -> None:
        """Let the gauge sample here, in an untraced run (in a traced
        one its time would land in a span)."""
        if not self.tracer.enabled:
            self.gauge.tick()

    def time_op(self, fn: Callable, *args):
        """Run one user-visible operation and record its interval."""
        started = time.perf_counter()
        result = fn(*args)
        self.ops[-1].append((started, time.perf_counter()))
        self.attempted += 1
        return result

    def ms(self, intervals: List[Interval]) -> List[float]:
        """Reference milliseconds of each interval."""
        return [1000.0 * self.gauge.seconds(*span) for span in intervals]

    def all_ops_ms(self) -> List[float]:
        return self.ms([span for ops in self.ops for span in ops])

    def result(self) -> dict:
        seconds = self.gauge.seconds
        pass_s = [seconds(*span) for span in self.passes]
        wall_s = [seconds(*span, reference=False) for span in self.passes]
        passes = max(1, len(pass_s))
        layers = {name: value / passes for name, value in self.counts.items()}
        layers.update(self.layers)
        if self.tracer.enabled:
            # the traced passes' reference seconds per second
            scale = sum(pass_s) / sum(wall_s)
            for name, secs in self.tracer.self_times(PASS).items():
                if name in LAYER_TIMES:
                    layers[LAYER_TIMES[name]] = secs * scale / passes
        return {
            "pass_s": pass_s,
            "pass_wall_s": wall_s,
            "op_ms": [self.ms(ops) for ops in self.ops],
            "attempted": self.attempted,
            "failed": min(len(self.errors), max(1, self.attempted)),
            "errors": self.errors[:20],
            "peak_rss_mb": self.peak_rss_mb,
            "pins": self.pins,
            "layers": layers,
        }


def ready(run: Run) -> None:
    """Tell run.py that set-up is done: the seconds the gauge took
    during it and the reference seconds per second over it."""
    run.gauge.sample()
    print("READY " + json.dumps({"gauge_s": run.gauge.spent,
                                 "factor": run.gauge.factor()}), flush=True)


def timed_passes(run: Run, seconds: float, one_pass: Callable[[int], object],
                 after: Callable[[int, object], None],
                 before: Optional[Callable[[int], None]] = None) -> None:
    """Repeat passes until *seconds* are spent. Another pass starts while
    it is expected to end no later than half a pass past the budget.
    *before* restores the starting state and *after* checks the pass's
    outputs, both outside its timed span; every pass starts from a
    collected heap so no pass pays for another's garbage, and between
    two gauge samples."""
    started = time.perf_counter()
    while True:
        index = len(run.passes)
        if before is not None:
            before(index)
        gc.collect()
        run.ops.append([])
        run.gauge.sample()
        t0 = time.perf_counter()
        with run.tracer.span(PASS):
            outputs = one_pass(index)
        t1 = time.perf_counter()
        run.gauge.sample()
        run.passes.append((t0, t1))
        after(index, outputs)
        elapsed = time.perf_counter() - started
        if elapsed + (t1 - t0) / 2 >= seconds:
            break


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class LayerHooks(FlowHooks):
    """Default flow steps, each inside a span: a traced run records it,
    an untraced one lets the gauge sample before it."""

    def __init__(self, run: Run) -> None:
        self.run = run

    def build_graph(self, *args):
        with self.run.tracer.span("core.graph"):
            return super().build_graph(*args)

    def partition(self, *args):
        with self.run.tracer.span("core.clique"):
            return super().partition(*args)

    def signoff(self, *args):
        self.run.count("core.signoff.rounds")
        with self.run.tracer.span("core.signoff"):
            return super().signoff(*args)


def count_flow(run: Run, method: str, result) -> None:
    """Per-layer counts of one finished flow (traced pass only)."""
    run.count("core.flow.calls")
    for stats in result.graph_stats.values():
        run.count("core.graph.calls")
        run.count("core.graph.edges", stats.edges)
        run.count("core.graph.pairs",
                  stats.edges + stats.rejected_distance
                  + stats.rejected_timing + stats.rejected_overlap
                  + stats.rejected_testability)
        run.count("core.graph.rejected_timing", stats.rejected_timing)
        run.count("core.graph.rejected_testability",
                  stats.rejected_testability)
    for partition in result.partitions.values():
        run.count("core.clique.merges", partition.merges)
        run.count("core.clique.attempts",
                  partition.merges + partition.rejected_merges)
    if method == "ours":
        run.count("core.flow.wrapper_cells", result.additional_wrapper_cells)
        run.count("core.flow.violations", int(result.timing_violation))


def finish_counts(run: Run) -> None:
    """Ratios over the summed counts; drop the helper denominators."""
    counts = run.counts
    pairs = counts.get("core.graph.pairs", 0)
    attempts = counts.pop("core.clique.attempts", 0)
    run.layers["core.graph.edge_yield"] = (
        counts.get("core.graph.edges", 0) / pairs if pairs else 0.0)
    run.layers["core.clique.merge_yield"] = (
        counts.get("core.clique.merges", 0) / attempts if attempts else 0.0)


def prepare_die(run: Run, generate: Callable[[], object],
                placement_seed: int = CANONICAL_SEED) -> dict:
    """generate -> place -> stitch -> problem -> retime under the tight
    clock. Returns scenario name -> (Scenario, WcmProblem)."""
    span = run.tracer.span
    with span("bench.generate"):
        netlist = generate()
    with span("place.place"):
        place_die(netlist, PlacementConfig(seed=placement_seed))
    with span("dft.stitch"):
        stitch_scan_chains(netlist)
    with span("core.problem"):
        area_problem = build_problem(netlist, already_prepared=True)
    clock = tight_clock_for(area_problem)
    with span("core.retime"):
        tight_problem = area_problem.retime(clock)
    return {"area": (Scenario.area_optimized(), area_problem),
            "tight": (Scenario.performance_optimized(clock.period_ps),
                      tight_problem)}


def run_flow(run: Run, hooks, scenarios: dict, method: str,
             scenario_name: str):
    scenario, problem = scenarios[scenario_name]
    config = (WcmConfig.ours(scenario,
                             estimator_budget=SCALES["smoke"].estimator_budget)
              if method == "ours" else WcmConfig.agrawal(scenario))
    with run.tracer.span("core.flow"):
        return run_wcm_flow(problem, config, hooks=hooks)


# ---------------------------------------------------------------------------
# stack: the paper pipeline over a die stack (numpy backend)
# ---------------------------------------------------------------------------
def die_pipeline(run: Run, hooks, circuit: str, die: int, atpg_seed: int):
    """Prepare one die, run the four flows, ATPG three of them.
    Returns (profile, flows, atpg results)."""
    span = run.tracer.span
    profile = die_profile(circuit, die)
    scenarios = prepare_die(
        run, lambda: generate_die(profile, seed=CANONICAL_SEED))
    flows = {key: run_flow(run, hooks, scenarios, *key) for key in FLOWS}
    atpg_config = SCALES["smoke"].atpg_config(profile.gates,
                                               seed=atpg_seed)
    atpg = {}
    for key in ATPG_RUNS:
        with span("dft.testview"):
            view = build_prebond_test_view(flows[key].wrapped_netlist)
        with span("atpg.stuck_at"):
            atpg[key + ("stuck_at",)] = run_stuck_at_atpg(view, atpg_config)
        if key == ("ours", "tight"):
            with span("atpg.transition"):
                atpg[key + ("transition",)] = run_transition_atpg(
                    view, atpg_config)
    return profile, flows, atpg


def stack_models(profile, flows, atpg) -> Dict[str, DieTestModel]:
    """Per-method test model of one die, as ``repro schedule`` builds
    it: area-scenario wrapper cells, the larger area pattern count."""
    patterns = max(atpg["agrawal", "area", "stuck_at"].pattern_count,
                   atpg["ours", "area", "stuck_at"].pattern_count)
    chains = balanced_chain_lengths(
        profile.scan_flip_flops,
        internal_chain_count(profile.scan_flip_flops))
    return {method: DieTestModel(
                name=profile.name, internal_chains=chains,
                wrapper_cells=flows[method, "area"].additional_wrapper_cells,
                patterns=patterns)
            for method in ("agrawal", "ours")}


def stack_workload(run: Run, args) -> None:
    configure(backend="numpy", no_cache=True)
    dies = STACK_DIES[args.size]
    hooks = LayerHooks(run)
    ready(run)
    if args.setup_only:
        return

    def one_pass(index):
        outputs = {}
        for circuit, die in dies:
            outputs[circuit, die] = run.time_op(
                die_pipeline, run, hooks, circuit, die, args.seed)
        models = {"agrawal": [], "ours": []}
        for profile, flows, atpg in outputs.values():
            for method, model in stack_models(profile, flows,
                                              atpg).items():
                models[method].append(model)
        with run.tracer.span("schedule.pack"):
            schedules = {method: best_fit_schedule(models[method],
                                                   TAM_BUDGET)
                         for method in models}
        return outputs, models, schedules

    def after(index, pass_outputs):
        outputs, models, schedules = pass_outputs
        pins = {}
        agrawal_violations = 0
        for (circuit, die), (_profile, flows, atpg) in outputs.items():
            label = f"{circuit}_d{die}"
            for (method, scenario), result in flows.items():
                pins[f"{label}/{method}/{scenario}"] = \
                    result_fingerprint(result)
                if run.tracer.enabled:
                    count_flow(run, method, result)
            for (method, scenario, model), result in atpg.items():
                pins[f"{label}/{method}/{scenario}/{model}"] = [
                    result.coverage, result.pattern_count]
                if run.tracer.enabled:
                    run.count("atpg.faults", result.total_faults)
                    run.count("atpg.aborted", result.aborted)
            run.check(not flows["ours", "tight"].timing_violation,
                      f"{label}: ours violates timing under the tight "
                      f"clock")
            agrawal_violations += flows["agrawal", "tight"].timing_violation
        for method, schedule in schedules.items():
            pins[f"makespan/{method}"] = schedule.makespan
            problems = schedule_violations(schedule, models[method],
                                           TAM_BUDGET)
            run.check(not problems, f"{method} schedule invalid: "
                                    f"{problems}")
        run.check(agrawal_violations > 0,
                  "Agrawal met timing on every tight die")
        run.pin(index, pins)
        if run.tracer.enabled:
            detected = testable = 0
            for _profile, _flows, atpg in outputs.values():
                result = atpg["ours", "tight", "stuck_at"]
                detected += result.detected
                testable += result.total_faults - result.proven_untestable
                run.count("atpg.patterns", result.pattern_count)
            run.count("atpg.coverage_pct", 100.0 * detected / testable)
            run.count("schedule.makespan_cycles", schedules["ours"].makespan)

    timed_passes(run, args.seconds, one_pass, after)
    if run.tracer.enabled:
        finish_counts(run)
    run.peak_rss_mb = self_rss_mb()


# ---------------------------------------------------------------------------
# grid: one large grid-family die, graph-bound flows (python backend)
# ---------------------------------------------------------------------------
def grid_workload(run: Run, args) -> None:
    configure(backend="python", no_cache=True)
    spec = FamilySpec.from_density(GRID_GATES[args.size],
                                   tsvs_per_kgate=40)
    hooks = LayerHooks(run)
    ready(run)
    if args.setup_only:
        return

    def one_pass(index):
        scenarios = prepare_die(
            run, lambda: generate_family_die("grid", spec,
                                             seed=CANONICAL_SEED),
            placement_seed=args.seed)
        return {key: run.time_op(run_flow, run, hooks, scenarios, *key)
                for key in GRID_FLOWS}

    def after(index, flows):
        pins = {}
        for (method, scenario), result in flows.items():
            pins[f"grid/{method}/{scenario}"] = result_fingerprint(result)
            if method == "ours":
                run.check(not result.timing_violation,
                          f"grid ours/{scenario} violates timing")
            if run.tracer.enabled:
                count_flow(run, method, result)
        run.pin(index, pins)

    timed_passes(run, args.seconds, one_pass, after)
    if run.tracer.enabled:
        finish_counts(run)
    run.peak_rss_mb = self_rss_mb()


# ---------------------------------------------------------------------------
# eco: a warm incremental session fed a closed loop of edits (python)
# ---------------------------------------------------------------------------
def eco_pass_edits(netlist, d_th_um: float, seed: int) -> list:
    """One pass of ECO edits: every scan FF and every other TSV moves
    0.3 um, alternately up-right and down-left, and d_th takes its five
    settings in turn after every three moves. The seed orders the
    settings. The moves are the same for every seed, in the same order:
    seeded sites, distances or orders changed how often a move reorders
    the scan chain, and with it the work of a pass by up to 2x."""
    rng = random.Random(seed)
    sites = ([(MoveFf, netlist.instances[name]) for name in
              sorted(inst.name for inst in netlist.scan_flip_flops())]
             + [(MoveTsv, netlist.ports[name]) for name in
                sorted(p.name for p in netlist.ports.values()
                       if p.is_tsv)[::2]])
    moves = []
    for index, (edit, site) in enumerate(sites):
        step = 0.3 if index % 2 else -0.3
        moves.append(edit(site.name, site.x + step, site.y + step))
    settings = rng.sample([d_th_um + 0.2 * k for k in range(5)], 5)
    edits = []
    for index, move in enumerate(moves):
        edits.append(move)
        if index % 3 == 2:
            edits.append(SetThreshold(d_th_um=settings[index // 3 % 5]))
    return edits


def eco_workload(run: Run, args) -> None:
    configure(backend="python", no_cache=True)
    span = run.tracer.span
    with span(SETUP):
        netlist = generate_die(die_profile("b12", 1), seed=CANONICAL_SEED)
        place_die(netlist)
        stitch_scan_chains(netlist)
        clock = tight_clock_for(build_problem(netlist, already_prepared=True))
        config = WcmConfig.ours(
            Scenario.performance_optimized(clock.period_ps))
        with span("core.session.load"):
            session = WcmSession(netlist.clone(), config,
                                 already_prepared=True)
        session.solve()
    ready(run)
    if args.setup_only:
        return
    edits = eco_pass_edits(session.netlist, config.d_th_um,
                           args.seed)[:ECO_EDITS[args.size]]
    warm_solves: List[Interval] = []
    fallback_solves: List[Interval] = []
    dirty: List[float] = []

    def before(index):
        # every pass edits a freshly warmed session, so passes repeat
        nonlocal session
        if index:
            session = None  # one session in memory at a time
            gc.collect()
            session = WcmSession(netlist.clone(), config,
                                 already_prepared=True)
            session.solve()

    def edit_and_solve(edit):
        with span("core.session.apply"):
            session.apply(edit)
        started = time.perf_counter()
        with span("core.session.solve"):
            result = session.solve()
        (fallback_solves if session.last_fallback else warm_solves).append(
            (started, time.perf_counter()))
        dirty.append(session.last_dirty_frac)
        return result

    def one_pass(index):
        return [run.time_op(edit_and_solve, edit) for edit in edits]

    def after(index, results):
        for result in results:
            run.check(not result.timing_violation,
                      "ours violates timing after an edit")
        last = result_fingerprint(results[-1])
        run.pin(index, {"eco/last": last})
        if index == 0:
            # the session contract: a warm re-solve equals a cold solve
            # of the edited netlist under the edited config
            cold = run_wcm_flow(
                build_problem(session.netlist.clone(),
                              clock=session.config.scenario.clock,
                              already_prepared=True),
                session.config)
            run.check(result_fingerprint(cold) == last,
                      "warm solve differs from a cold solve")

    timed_passes(run, args.seconds, one_pass, after, before)
    run.peak_rss_mb = self_rss_mb()
    if run.tracer.enabled:
        run.count("core.session.fallbacks", len(fallback_solves))
        run.layers.update({
            "core.session.load_s": run.gauge.factor() * run.tracer.self_times(
                SETUP).get("core.session.load", 0.0),
            "core.session.warm_p50_ms": median(run.ms(warm_solves)),
            "core.session.fallback_p50_ms": median(run.ms(fallback_solves)),
            "core.session.p95_ms": p95(run.all_ops_ms()),
            "core.session.dirty_frac_mean": statistics.fmean(dirty),
        })


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def p95(values: List[float]) -> float:
    """Interpolated between samples (the tail of a short run is not just
    its largest sample)."""
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


# ---------------------------------------------------------------------------
# serve: a repro serve daemon under a closed loop of one client
# ---------------------------------------------------------------------------
def closed_loop(run: Run, client: ServeClient, requests: List[dict],
                intervals: List[Interval]) -> List[dict]:
    """Send *requests* one after another, each when the previous reply
    came; the gauge may sample between them."""
    responses = []
    for params in requests:
        started = time.perf_counter()
        try:
            responses.append(client.submit("atpg", params,
                                           timeout_s=SUBMIT_TIMEOUT_S))
        except Exception as exc:  # recorded as a failed operation
            responses.append({"state": "error", "error": repr(exc)})
        intervals.append((started, time.perf_counter()))
        run.tick()
    return responses


def dir_bytes(path: Path, pattern: str = "*") -> int:
    return sum(f.stat().st_size for f in path.rglob(pattern) if f.is_file())


class Daemon:
    """A ``repro serve`` process over a fresh state directory."""

    def __init__(self) -> None:
        # the daemon imports the same package as this process
        src = Path(repro.__file__).resolve().parents[1]
        self.env = dict(os.environ, PYTHONPATH=str(src))
        # relative: the socket path stays short wherever the checkout is
        self.client = ServeClient(Path("state") / "serve.sock")
        self.process = None

    def start(self) -> bool:
        """Start and wait for the first ping answered."""
        shutil.rmtree("state", ignore_errors=True)
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--backend", "python",
             "--serve-workers", str(SERVE_WORKERS), "--state-dir", "state"],
            stdout=subprocess.DEVNULL, env=self.env)
        return self.client.wait_until_up(timeout_s=60.0)

    def stop(self) -> None:
        """Drain, then wait until the daemon and its workers are gone."""
        if self.process is None:
            return
        try:
            self.client.drain()
        except Exception:  # daemon already gone: the wait below reaps it
            pass
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process = None


def serve_workload(run: Run, args) -> None:
    home = os.getcwd()
    workdir = Path(SERVE_WORKDIR).resolve()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    daemon = Daemon()
    try:
        if not daemon.start():
            raise SystemExit("serve daemon did not answer a ping")
        ready(run)
        if not args.setup_only:
            serve_passes(run, args, daemon)
    finally:
        daemon.stop()
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)
    # every daemon and its workers were reaped: the largest RSS among them
    run.peak_rss_mb = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def serve_passes(run: Run, args, daemon: Daemon) -> None:
    """Each pass runs on a fresh daemon (restarted between passes, not
    timed), so its cold phase is cold and every pass repeats. The seed
    draws the warm repeats."""
    span = run.tracer.span
    rng = random.Random(args.seed)
    circuit, die = SERVE_DIE
    cold = [{"circuit": circuit, "die": die, "seed": CANONICAL_SEED,
             "scale": "smoke", "method": method, "scenario": "tight"}
            for method in ("ours", "agrawal")]
    warm = [rng.randrange(len(cold)) for _ in range(SERVE_WARM[args.size])]
    cold_submits: List[Interval] = []

    def before(index):
        if index:
            daemon.stop()
            if not daemon.start():
                raise SystemExit("serve daemon did not restart")

    def one_pass(index):
        with span("serve.cold"):
            cold_responses = closed_loop(run, daemon.client, cold,
                                         cold_submits)
        with span("serve.warm"):
            warm_responses = closed_loop(run, daemon.client,
                                         [cold[i] for i in warm],
                                         run.ops[-1])
        return cold_responses, warm_responses

    def after(index, outputs):
        cold_responses, warm_responses = outputs
        run.attempted += len(cold_responses) + len(warm_responses)
        cold_fps = []
        for response in cold_responses:
            ok = response.get("state") == "done"
            run.check(ok, f"cold submit ended {response.get('state')}: "
                          f"{response.get('error')}")
            cold_fps.append(response["result"]["result_fingerprint"]
                            if ok else None)
        for i, response in zip(warm, warm_responses):
            ok = (response.get("state") == "done" and response["cached"]
                  and response["result"]["result_fingerprint"]
                  == cold_fps[i])
            run.check(ok, f"warm submit of {cold[i]} was not the cached "
                          f"cold result")
        pins = {f"serve/{p['circuit']}_d{p['die']}/{p['method']}": fp
                for p, fp in zip(cold, cold_fps)}
        run.pin(index, pins)
        # the daemon's own account of the pass, and the state it left
        stats = daemon.client.stats()
        for name in ("cache_hits", "coalesced", "shed", "retries"):
            run.count(f"serve.{name}", stats["counters"].get(name, 0))
        state = Path("state")
        run.count("runtime.cache.entries", stats["cache_entries"])
        run.count("runtime.cache.bytes", dir_bytes(state / "cache"))
        run.count("serve.journal_bytes", dir_bytes(state, "queue.journal"))

    timed_passes(run, args.seconds, one_pass, after, before)
    run.layers["serve.cold_p50_ms"] = median(run.ms(cold_submits))
    run.layers["serve.warm_p95_ms"] = p95(run.all_ops_ms())


WORKLOADS = {
    "stack": stack_workload,
    "grid": grid_workload,
    "eco": eco_workload,
    "serve": serve_workload,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--quick", dest="size", action="store_const",
                        const="quick", default="full")
    parser.add_argument("--spans", default=None,
                        help="trace the pass and write its spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    run = Run(Tracer() if args.spans else GaugeTracer(GAUGE), GAUGE)
    WORKLOADS[args.workload](run, args)
    if args.setup_only:
        return 0
    if args.spans:
        run.tracer.write(args.spans)
    print(json.dumps(run.result()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
