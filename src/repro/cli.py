"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``table1 | table2 | table3 | table4 | table5 | figure7`` — regenerate
  one of the paper's artifacts and print it (``--scale smoke|default|
  full`` overrides ``$REPRO_SCALE``),
* ``all-tables`` (alias ``tables``) — everything, in paper order,
* ``die <circuit> <die>`` — run both methods on one die and print the
  head-to-head (plus ``--atpg`` for coverage, ``--area`` for um²),
* ``profile <circuit> <die>`` — run both methods under
  ``trace.collect()`` and print their counters, histograms and per-span
  rounds and wall-clock, in the ``trace show`` format,
* ``export <path>`` — write every table as markdown into a results file,
* ``fuzz`` — differentially fuzz the optimized kernels against the
  brute-force oracles (``--budget N`` / ``--seconds S``; ``--self-check``
  runs the mutation-kill harness; ``--repro-dir`` promotes shrunk
  failures to JSON repros),
* ``schedule`` — wrapper/TAM co-optimization: balance each die's
  reduced wrapper cells and scan chains into wrapper chains, pack one
  (width, time) rectangle per die into the stack's TAM budget, and
  print the ours-vs-Agrawal pre-bond test-time table (``--tam`` lanes,
  ``--width`` per-die reference width, ``--fixed-patterns N`` to skip
  ATPG, ``--families A,B`` for the topology stacks),
* ``session <circuit> <die>`` — incremental ECO re-solves: load the die
  once, then apply ``move-ff``/``move-tsv``/``add-tsv``/``remove-tsv``/
  ``set`` edits and ``solve`` from a script (``--script``) or
  interactively; ``--verify`` checks every solve against a cold run,
* ``serve`` — run the WCM job daemon: warm worker pool + resident ECO
  sessions behind a Unix socket under ``--state-dir``, with admission
  control, deterministic backoff, circuit breakers and graceful drain
  on SIGTERM/SIGINT (DESIGN.md §13),
* ``submit <kind> [KEY=VALUE ...]`` — submit one job to the daemon and
  (by default) wait for the result; sheds are retried with capped
  backoff; the exit code encodes the terminal state,
* ``jobs`` — list the daemon's jobs (``--stats`` for counters and
  breaker state, ``--drain`` to ask it to exit),
* ``trace show <manifest>`` — render a run manifest (counters,
  histograms, span timings),
* ``trace diff <golden> <candidate>`` — compare two run manifests
  (identity sections exactly, timings within a tolerance),
* ``bench gate <candidate>`` — accept/reject a manifest (or raw
  ``BENCH_*.json``) against a golden one; exit 1 on regression (CI).

Runtime flags (valid before or after the subcommand):

* ``--jobs N`` — run experiment cells on N worker processes (``0`` =
  one per CPU). Output is byte-identical to a serial run.
* ``--cache-dir PATH`` — enable the content-addressed result cache
  rooted at PATH (``$REPRO_CACHE_DIR`` is the env equivalent); reruns
  then skip every already-computed flow/ATPG cell.
* ``--no-cache`` — force the cache off even when configured.
* ``--timeout S`` — per-cell wall-clock budget; a cell that exceeds it
  is killed and reported as failed (``0`` disables).
* ``--retries N`` — re-run a crashed/failed cell up to N times with the
  same derived seed before marking it failed.
* ``--strict`` — abort on the first failed cell instead of rendering
  the table with the survivors.
* ``--checkpoint-dir PATH`` — journal completed cells so an
  interrupted sweep resumes where it left off.
* ``--trace-dir PATH`` — stream a structured JSONL event trail (spans,
  metrics) to PATH and write a fingerprinted run manifest per driver
  (``$REPRO_TRACE_DIR`` is the env equivalent).

Exit status: 0 when every cell succeeded, 1 when a table rendered with
failed cells excluded, 2 when a strict sweep aborted.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from typing import Callable, Dict, Optional

from repro.experiments import (
    resolve_scale,
    run_figure7,
    run_overhead,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
)
from repro.experiments.common import scale_banner
from repro.runtime import configure
from repro.util.errors import (ConfigError, NetlistError,
                               RuntimeExecutionError)

_DRIVERS: Dict[str, Callable] = {
    "table1": run_table1,
    "table2": run_table2,
    "table3": run_table3,
    "table4": run_table4,
    "table5": run_table5,
    "figure7": run_figure7,
    "overhead": run_overhead,
}

#: regeneration order for `all-tables` / `export` (paper order)
_EXPORT_ORDER = ("table2", "table1", "table3", "table4", "table5",
                 "figure7")


def _run_driver(name: str, scale_name: Optional[str],
                verbose: bool, seed: Optional[int] = None) -> int:
    """Regenerate one artifact; returns the number of failed cells."""
    from repro.experiments.common import DEFAULT_SEED, driver_manifest
    from repro.runtime import trace

    scale = resolve_scale(scale_name)
    print(scale_banner(scale))
    seed = DEFAULT_SEED if seed is None else seed
    started = time.perf_counter()
    result = _DRIVERS[name](scale, seed=seed, verbose=verbose)
    rendered = result.render()
    print(rendered)
    print(f"[{name} regenerated in "
          f"{time.perf_counter() - started:.1f}s]")
    tracer = trace.active()
    if tracer is not None:
        payload = driver_manifest(name, result, scale, seed)
        path = trace.write_manifest(
            tracer.trace_dir / f"manifest-{name}.json", payload)
        print(f"[manifest {payload['fingerprint'][:12]} -> {path}]")
    return len(getattr(result, "failures", ()))


def _cmd_die(args: argparse.Namespace) -> int:
    from repro.atpg.engine import AtpgConfig
    from repro.bench import die_profile, generate_die
    from repro.core import Scenario, WcmConfig, build_problem, run_wcm_flow
    from repro.core.flow import measure_testability
    from repro.core.problem import tight_clock_for
    from repro.dft.area import plan_area_estimate
    from repro.util.tables import AsciiTable, format_percent

    seed = getattr(args, "seed", 2019)
    profile = die_profile(args.circuit, args.die)
    netlist = generate_die(profile, seed=seed)
    problem = build_problem(netlist)
    clock = tight_clock_for(problem)
    problem_tight = problem.retime(clock)
    scenarios = {
        "area": (Scenario.area_optimized(), problem),
        "tight": (Scenario.performance_optimized(clock.period_ps),
                  problem_tight),
    }
    table = AsciiTable(["method/scenario", "#reused", "#additional",
                        "violation", "DFT area overhead"],
                       title=f"{profile.name} — wrapper minimization")
    for scenario_name, (scenario, prob) in scenarios.items():
        for method_name, config in (
                ("agrawal", WcmConfig.agrawal(scenario)),
                ("ours", WcmConfig.ours(scenario))):
            run = run_wcm_flow(prob, config)
            area = plan_area_estimate(netlist, run.plan)
            table.add_row([
                f"{method_name}/{scenario_name}",
                run.reused_scan_ffs, run.additional_wrapper_cells,
                "X" if run.timing_violation else "-",
                format_percent(area.overhead_fraction),
            ])
            if args.atpg and scenario_name == "tight":
                report = measure_testability(
                    run, AtpgConfig(seed=seed),
                    include_transition=False)
                print(f"  {method_name}: stuck-at coverage "
                      f"{format_percent(report.stuck_at.coverage)}, "
                      f"{report.stuck_at.pattern_count} patterns")
    print(table.render())
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Traced head-to-head of one die: where does the time go?"""
    from repro.atpg.engine import AtpgConfig
    from repro.bench import die_profile, generate_die
    from repro.core import Scenario, WcmConfig, build_problem, run_wcm_flow
    from repro.core.flow import measure_testability
    from repro.core.problem import tight_clock_for
    from repro.runtime import trace

    seed = getattr(args, "seed", 2019)
    profile = die_profile(args.circuit, args.die)
    print(f"profiling {profile.name} (seed {seed})")
    netlist = generate_die(profile, seed=seed)
    problem = build_problem(netlist)
    clock = tight_clock_for(problem)
    problem_tight = problem.retime(clock)
    scenario = Scenario.performance_optimized(clock.period_ps)
    for method_name, config in (
            ("agrawal", WcmConfig.agrawal(scenario)),
            ("ours", WcmConfig.ours(scenario))):
        with trace.collect() as collected:
            started = time.perf_counter()
            run = run_wcm_flow(problem_tight, config)
            if args.atpg:
                measure_testability(run, AtpgConfig(seed=seed),
                                    include_transition=False)
            elapsed = time.perf_counter() - started
        print(trace.render_manifest({
            "label": f"{profile.name} {method_name}/tight — "
                     f"{elapsed:.2f}s wall-clock",
            "metrics": collected.metrics.to_payload(),
            "timings": collected.bench_timings()}))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    scale = resolve_scale(getattr(args, "scale", None))
    sections = []
    failures = 0
    for name in _EXPORT_ORDER:
        print(f"regenerating {name}...", flush=True)
        result = _DRIVERS[name](scale)
        failures += len(getattr(result, "failures", ()))
        sections.append(f"## {name}\n\n```\n{result.render()}\n```\n")
    with open(args.path, "w") as handle:
        handle.write(f"# Regenerated results (scale={scale.name})\n\n")
        handle.write("\n".join(sections))
    print(f"wrote {args.path}")
    if failures:
        print(f"{failures} cell(s) failed; see the exported tables",
              file=sys.stderr)
        return 1
    return 0


def _common_options() -> argparse.ArgumentParser:
    """Options shared by the root parser and every subcommand.

    Subparsers must default to SUPPRESS: a plain default would
    overwrite a value the user already gave before the subcommand.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scale", choices=("smoke", "default", "full"),
                        default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("-v", "--verbose", action="store_true",
                        default=argparse.SUPPRESS)
    common.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                        metavar="N",
                        help="worker processes for experiment cells "
                             "(0 = one per CPU; default serial)")
    common.add_argument("--cache-dir", default=argparse.SUPPRESS,
                        metavar="PATH",
                        help="enable the on-disk result cache at PATH")
    common.add_argument("--no-cache", action="store_true",
                        default=argparse.SUPPRESS,
                        help="disable the result cache")
    common.add_argument("--timeout", type=float, default=argparse.SUPPRESS,
                        metavar="S",
                        help="per-cell wall-clock budget in seconds "
                             "(0 disables)")
    common.add_argument("--retries", type=int, default=argparse.SUPPRESS,
                        metavar="N",
                        help="re-run a failed cell up to N times with "
                             "the same seed")
    common.add_argument("--strict", action="store_true",
                        default=argparse.SUPPRESS,
                        help="abort on the first failed cell")
    common.add_argument("--checkpoint-dir", default=argparse.SUPPRESS,
                        metavar="PATH",
                        help="journal completed cells so interrupted "
                             "sweeps resume")
    common.add_argument("--trace-dir", default=argparse.SUPPRESS,
                        metavar="PATH",
                        help="stream structured trace events and run "
                             "manifests to PATH")
    # Hidden and ignored: each kernel has one implementation, and the
    # flag stays only because the end-to-end benchmark passes it
    # (DESIGN.md §11).
    common.add_argument("--backend", choices=("python", "numpy"),
                        default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    return common


def _cmd_fuzz(args: argparse.Namespace) -> int:
    """Differential fuzzing of the optimized kernels (DESIGN.md §8)."""
    from repro.verify import render_results, run_fuzz, self_check

    seed = getattr(args, "seed", 0) or 0
    checks = ([c for c in args.checks.split(",") if c]
              if args.checks else None)
    if args.self_check:
        mutants = ([m for m in args.mutants.split(",") if m]
                   if args.mutants else None)
        try:
            results = self_check(root_seed=seed,
                                 budget=args.budget or 150,
                                 checks=checks,
                                 mutant_names=mutants)
        except ValueError as exc:
            print(f"repro: error: {exc}", file=sys.stderr)
            return 2
        print(render_results(results))
        survivors = [r for r in results if not r.killed]
        killed = len(results) - len(survivors)
        if survivors:
            print(f"self-check FAILED: {len(survivors)} mutant(s) "
                  f"survived", file=sys.stderr)
            return 1
        if killed < 3:
            print(f"self-check FAILED: only {killed} mutant(s) "
                  f"exercised; need >= 3", file=sys.stderr)
            return 1
        print(f"self-check passed: {killed}/{killed} mutants killed")
        return 0

    try:
        report = run_fuzz(root_seed=seed,
                          budget=args.budget,
                          seconds=args.seconds,
                          checks=checks,
                          jobs=getattr(args, "jobs", None),
                          shrink_failures=not args.no_shrink,
                          repro_dir=args.repro_dir)
    except ValueError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.clean else 1


def _cmd_scale(args: argparse.Namespace) -> int:
    """Scaling-law sweep: where each kernel's complexity bends."""
    from repro.bench.scaling import (ScalingCaps, parse_gate_points,
                                     run_scaling, write_scaling_json)
    from repro.util.errors import ReproError

    families = [f for f in args.families.split(",") if f]
    try:
        gate_points = parse_gate_points(args.gates)
        densities = [float(d) for d in args.tsv_density.split(",") if d]
        caps = ScalingCaps()
        if args.sta_cap is not None:
            caps = dataclasses.replace(
                caps, prep=args.sta_cap if args.sta_cap > 0 else None)
        if args.flow_cap is not None:
            caps = dataclasses.replace(
                caps, flow=args.flow_cap if args.flow_cap > 0 else None)
        report = run_scaling(
            families, gate_points, densities or (40.0,),
            seed=getattr(args, "seed", 2019),
            repeat=args.repeat, caps=caps,
            progress=(print if getattr(args, "verbose", False)
                      else None))
    except (ReproError, ValueError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    if args.out != "-":
        write_scaling_json(report, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    """Wrapper/TAM co-optimization table (DESIGN.md §15)."""
    from repro.experiments.common import DEFAULT_SEED, driver_manifest
    from repro.runtime import trace
    from repro.schedule import run_schedule

    scale = resolve_scale(getattr(args, "scale", None))
    print(scale_banner(scale))
    seed = getattr(args, "seed", None)
    seed = DEFAULT_SEED if seed is None else seed
    families = tuple(f for f in args.families.split(",") if f)
    started = time.perf_counter()
    try:
        result = run_schedule(
            scale, seed=seed, verbose=getattr(args, "verbose", False),
            budget=args.tam, ref_width=args.width,
            fixed_patterns=args.fixed_patterns, families=families)
    except ConfigError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    print(result.render())
    print(f"[schedule regenerated in "
          f"{time.perf_counter() - started:.1f}s]")
    tracer = trace.active()
    if tracer is not None:
        payload = driver_manifest("schedule", result, scale, seed)
        path = trace.write_manifest(
            tracer.trace_dir / "manifest-schedule.json", payload)
        print(f"[manifest {payload['fingerprint'][:12]} -> {path}]")
    if result.failures:
        print(f"{len(result.failures)} cell(s) failed; table rendered "
              f"without them", file=sys.stderr)
    return 1 if result.failures else 0


_SESSION_USAGE = """\
commands (one per line; '#' starts a comment):
  move-ff NAME X Y        queue a scan-FF move
  move-tsv NAME X Y       queue a TSV move
  add-tsv NAME in|out X Y [NET]   queue a TSV insertion
  remove-tsv NAME         queue a TSV removal
  set d_th_um|cov_th V    queue a threshold change
  solve                   re-solve under the queued edits
  info                    print die summary (FF/TSV counts)
  help                    this text
  quit                    exit"""


def _cmd_session(args: argparse.Namespace) -> int:
    """Incremental ECO serving: one warm WcmSession per die, driven by
    an edit script or an interactive prompt (DESIGN.md §12)."""
    from repro.bench import die_profile, generate_die
    from repro.core import Scenario, WcmConfig, build_problem
    from repro.core.flow import run_wcm_flow
    from repro.core.problem import tight_clock_for
    from repro.core.session import (AddTsv, MoveFf, MoveTsv, RemoveTsv,
                                    SetThreshold, WcmSession,
                                    result_fingerprint)
    from repro.netlist.core import PortKind

    seed = getattr(args, "seed", 2019)
    profile = die_profile(args.circuit, args.die)
    netlist = generate_die(profile, seed=seed)
    problem = build_problem(netlist)
    clock = tight_clock_for(problem)
    scenario = (Scenario.area_optimized() if args.scenario == "area"
                else Scenario.performance_optimized(clock.period_ps))
    config = (WcmConfig.agrawal(scenario) if args.method == "agrawal"
              else WcmConfig.ours(scenario))
    started = time.perf_counter()
    session = WcmSession(problem.netlist, config, already_prepared=True)
    print(f"session: {profile.name} loaded in "
          f"{time.perf_counter() - started:.2f}s "
          f"({len(list(problem.netlist.scan_flip_flops()))} scan FFs, "
          f"{sum(1 for p in problem.netlist.ports.values() if p.is_tsv)} "
          f"TSVs)")

    if args.script and args.script != "-":
        lines = open(args.script, encoding="utf-8").read().splitlines()
        interactive = False
    else:
        lines = None
        interactive = sys.stdin.isatty()

    interrupted = []

    def read_lines():
        if lines is not None:
            yield from lines
            return
        while True:
            if interactive:
                print("eco> ", end="", flush=True)
            try:
                line = sys.stdin.readline()
            except (KeyboardInterrupt, EOFError):
                # Ctrl-C/Ctrl-D at the prompt: exit like `quit`, not
                # with a traceback over a half-printed prompt
                interrupted.append(True)
                return
            if not line:
                return
            yield line

    def solve_once(index: int) -> bool:
        t0 = time.perf_counter()
        result = session.solve()
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        status = (f"[solve {index}] {elapsed_ms:.1f}ms "
                  f"reused={result.reused_scan_ffs} "
                  f"additional={result.additional_wrapper_cells} "
                  f"violation={'yes' if result.timing_violation else 'no'} "
                  f"dirty={session.last_dirty_frac * 100:.1f}% "
                  f"fallback={session.last_fallback or '-'}")
        ok = True
        if args.verify:
            clone = session.netlist.clone()
            oracle_problem = build_problem(
                clone, clock=session.config.scenario.clock,
                already_prepared=True)
            want = run_wcm_flow(oracle_problem, session.config)
            ok = result_fingerprint(result) == result_fingerprint(want)
            status += f" verify={'ok' if ok else 'MISMATCH'}"
        print(status)
        return ok

    solves = 0
    mismatches = 0
    for raw in read_lines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        command, rest = words[0].lower(), words[1:]
        try:
            if command == "quit":
                break
            elif command == "help":
                print(_SESSION_USAGE)
            elif command == "info":
                netlist = session.netlist
                print(f"  {len(list(netlist.scan_flip_flops()))} scan "
                      f"FFs, {sum(1 for p in netlist.ports.values() if p.is_tsv)} "
                      f"TSVs, d_th_um={session.config.d_th_um} "
                      f"cov_th={session.config.cov_th} "
                      f"edits={session.edit_count}")
            elif command == "move-ff":
                session.apply(MoveFf(rest[0], float(rest[1]),
                                     float(rest[2])))
            elif command == "move-tsv":
                session.apply(MoveTsv(rest[0], float(rest[1]),
                                      float(rest[2])))
            elif command == "add-tsv":
                kind = (PortKind.TSV_INBOUND if rest[1] == "in"
                        else PortKind.TSV_OUTBOUND)
                session.apply(AddTsv(rest[0], kind, float(rest[2]),
                                     float(rest[3]),
                                     net=rest[4] if len(rest) > 4
                                     else None))
            elif command == "remove-tsv":
                session.apply(RemoveTsv(rest[0]))
            elif command == "set":
                if rest[0] not in ("d_th_um", "cov_th"):
                    raise ConfigError(f"set takes d_th_um or cov_th, "
                                      f"got {rest[0]!r}")
                session.apply(SetThreshold(**{rest[0]: float(rest[1])}))
            elif command == "solve":
                solves += 1
                if not solve_once(solves):
                    mismatches += 1
            else:
                print(f"unknown command {command!r} (try 'help')",
                      file=sys.stderr)
                if not interactive:
                    return 2
        except (ConfigError, NetlistError, IndexError, ValueError,
                KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            if not interactive:
                return 2
    if interrupted:
        # leave the terminal on a fresh line and flush telemetry —
        # the session ends cleanly, the way `quit` would
        from repro.runtime import trace
        print()
        sys.stdout.flush()
        trace.stop()
        return 130
    if mismatches:
        print(f"{mismatches}/{solves} solve(s) diverged from the cold "
              f"oracle", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# WCM-as-a-service: daemon + client commands (DESIGN.md §13)
# ---------------------------------------------------------------------------
def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the job daemon in the foreground until drained."""
    from repro.serve.queue import AdmissionPolicy
    from repro.serve.server import WcmServer

    policy = AdmissionPolicy(
        queue_caps=(args.cap_interactive, args.cap_normal, args.cap_batch),
        max_attempts=args.max_attempts,
        breaker_threshold=args.breaker_threshold,
        default_deadline_s=args.default_deadline,
    )
    seed = getattr(args, "seed", None)
    server = WcmServer(
        args.state_dir,
        workers=args.serve_workers,
        policy=policy,
        job_timeout_s=args.job_timeout,
        seed=2019 if seed is None else seed,
    )
    server.start()
    server.install_signal_handlers()
    print(f"serving on {server.socket_path} "
          f"({server.workers_wanted} warm worker(s), "
          f"{server.recovered_jobs} job(s) recovered from journal; "
          f"SIGTERM/SIGINT drains)")
    server.serve_forever()
    stats = server.queue.stats() if server.queue is not None else {}
    counters = stats.get("counters", {})
    print(f"drained: {counters.get('done', 0)} done, "
          f"{counters.get('failed', 0)} failed, "
          f"{counters.get('shed', 0)} shed, "
          f"{counters.get('quarantined', 0)} quarantined")
    return 0


def _parse_job_params(pairs) -> Dict[str, object]:
    """``key=value`` pairs; values JSON-decoded, bare words kept as
    strings (``die=1`` is the int 1, ``circuit=b11`` the str 'b11')."""
    import json

    params: Dict[str, object] = {}
    for pair in pairs or ():
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ConfigError(f"job parameter {pair!r} is not key=value")
        try:
            params[key] = json.loads(raw)
        except ValueError:
            params[key] = raw
    return params


#: submit exit codes beyond the usual 0/1/2 — scripts branch on these
_SUBMIT_EXIT = {"done": 0, "failed": 1, "shed": 3, "quarantined": 4}


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit one job; exit code encodes the terminal state."""
    import json

    from repro.serve.client import (ServeClient, ServeUnavailable,
                                    socket_path_for)

    try:
        params = _parse_job_params(args.params)
    except ConfigError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    client = ServeClient(socket_path_for(args.state_dir))
    try:
        if args.no_retry:
            response = client.submit(
                args.kind, params, priority=args.priority,
                deadline_s=args.deadline, wait=not args.no_wait,
                timeout_s=args.wait_timeout)
        else:
            response = client.submit_with_backoff(
                args.kind, params, priority=args.priority,
                deadline_s=args.deadline, wait=not args.no_wait,
                timeout_s=args.wait_timeout)
    except ServeUnavailable as exc:
        print(f"repro: error: {exc} (is `repro serve` running?)",
              file=sys.stderr)
        return 2
    print(json.dumps(response, indent=2, sort_keys=True))
    if not response.get("ok", False):
        return 2
    state = response.get("state")
    if state in _SUBMIT_EXIT:
        return _SUBMIT_EXIT[state]
    return 5  # accepted but not terminal (no-wait, or wait timed out)


def _cmd_jobs(args: argparse.Namespace) -> int:
    """Inspect or drain the running daemon."""
    import json

    from repro.serve.client import (ServeClient, ServeUnavailable,
                                    socket_path_for)

    client = ServeClient(socket_path_for(args.state_dir))
    try:
        if args.drain:
            response = client.drain()
        elif args.stats:
            response = client.stats()
        else:
            response = client.jobs()
    except ServeUnavailable as exc:
        print(f"repro: error: {exc} (is `repro serve` running?)",
              file=sys.stderr)
        return 2
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0 if response.get("ok", False) else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.runtime import trace

    if args.action == "show":
        payload = trace.load_manifest(args.paths[0])
        print(trace.render_manifest(payload))
        return 0
    # diff
    if len(args.paths) != 2:
        print("trace diff needs exactly two manifests: GOLDEN CANDIDATE",
              file=sys.stderr)
        return 2
    golden = trace.load_manifest(args.paths[0])
    candidate = trace.load_manifest(args.paths[1])
    problems = trace.diff_manifests(golden, candidate,
                                    tolerance_pct=args.tolerance)
    if problems:
        print(f"{len(problems)} difference(s):")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("manifests agree")
    return 0


def _cmd_bench_gate(args: argparse.Namespace) -> int:
    from repro.runtime import trace

    ok, lines = trace.gate(args.candidate, args.golden,
                           tolerance_pct=args.tolerance)
    for line in lines:
        print(line)
    return 0 if ok else 1


def main(argv=None) -> int:
    common = _common_options()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SOCC'19 timing-aware wrapper-cell reduction "
                    "reproduction",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _DRIVERS:
        sub.add_parser(name, help=f"regenerate {name}", parents=[common])
    for alias in ("all-tables", "tables"):
        sub.add_parser(alias, parents=[common],
                       help="regenerate every table and figure")

    die_parser = sub.add_parser("die", parents=[common],
                                help="analyze one die head-to-head")
    die_parser.add_argument("circuit")
    die_parser.add_argument("die", type=int)
    die_parser.add_argument("--atpg", action="store_true",
                            help="also run stuck-at ATPG (slower)")

    profile_parser = sub.add_parser(
        "profile", parents=[common],
        help="per-phase timing and work counters of one die")
    profile_parser.add_argument("circuit")
    profile_parser.add_argument("die", type=int)
    profile_parser.add_argument("--atpg", action="store_true",
                                help="include stuck-at ATPG in the profile")

    export_parser = sub.add_parser("export", parents=[common],
                                   help="write all tables to markdown")
    export_parser.add_argument("path")

    fuzz_parser = sub.add_parser(
        "fuzz", parents=[common],
        help="differentially fuzz the kernels against brute-force "
             "oracles")
    fuzz_parser.add_argument("--budget", type=int, default=None,
                             metavar="N",
                             help="iteration budget (default 100; "
                                  "self-check default 150)")
    fuzz_parser.add_argument("--seconds", type=float, default=None,
                             metavar="S",
                             help="wall-clock budget instead of an "
                                  "iteration count")
    fuzz_parser.add_argument("--checks", default=None, metavar="A,B",
                             help="comma-separated check names "
                                  "(default: all)")
    fuzz_parser.add_argument("--repro-dir", default=None, metavar="PATH",
                             help="write shrunk failing specs as JSON "
                                  "repros under PATH")
    fuzz_parser.add_argument("--no-shrink", action="store_true",
                             help="skip shrinking failures")
    fuzz_parser.add_argument("--self-check", action="store_true",
                             help="mutation-kill mode: inject known-bad "
                                  "kernel mutants and require the fuzzer "
                                  "to kill every one (serial)")
    fuzz_parser.add_argument("--mutants", default=None, metavar="A,B",
                             help="comma-separated mutant names for "
                                  "--self-check (default: all)")

    scale_parser = sub.add_parser(
        "scale", parents=[common],
        help="scaling-law sweep over topology families (DESIGN.md §14)")
    scale_parser.add_argument("--families", default="grid,htree",
                              metavar="A,B",
                              help="comma-separated families "
                                   "(default grid,htree)")
    scale_parser.add_argument("--gates", default="1e3:1e5",
                              metavar="LO:HI[:N]",
                              help="log-spaced gate counts, or a comma "
                                   "list (default 1e3:1e5)")
    scale_parser.add_argument("--tsv-density", default="40",
                              metavar="T[,T]",
                              help="TSVs per kilogate, comma-separated "
                                   "(default 40)")
    scale_parser.add_argument("--repeat", type=int, default=1,
                              metavar="N",
                              help="timing repeats per phase (default 1)")
    scale_parser.add_argument("--sta-cap", type=int, default=None,
                              metavar="G",
                              help="skip placement/STA/graph/clique above "
                                   "G gates (default 200000; 0 disables)")
    scale_parser.add_argument("--flow-cap", type=int, default=None,
                              metavar="G",
                              help="skip full flow/ECO above G gates "
                                   "(default 20000; 0 disables)")
    scale_parser.add_argument("--out", default="-", metavar="PATH",
                              help="write the BENCH-compatible timings "
                                   "to PATH (default '-': no file)")

    schedule_parser = sub.add_parser(
        "schedule", parents=[common],
        help="wrapper/TAM co-optimization and pre-bond session "
             "scheduling (DESIGN.md §15)")
    schedule_parser.add_argument("--tam", type=int, default=8,
                                 metavar="W",
                                 help="stack TAM budget in lanes "
                                      "(default 8)")
    schedule_parser.add_argument("--width", type=int, default=2,
                                 metavar="W",
                                 help="per-die reference width for the "
                                      "test-time columns (default 2)")
    schedule_parser.add_argument("--fixed-patterns", type=int,
                                 default=None, metavar="N",
                                 help="pattern-count override (default: "
                                      "run stuck-at ATPG per die)")
    schedule_parser.add_argument("--families", default="grid,htree",
                                 metavar="A,B",
                                 help="topology-family stacks to "
                                      "schedule (default grid,htree; "
                                      "'' skips them)")

    session_parser = sub.add_parser(
        "session", parents=[common],
        help="incremental ECO re-solves on one warm die")
    session_parser.add_argument("circuit")
    session_parser.add_argument("die", type=int)
    session_parser.add_argument("--script", default=None, metavar="PATH",
                                help="edit script, one command per line "
                                     "('-' = stdin; omitted: stdin, "
                                     "interactive on a tty)")
    session_parser.add_argument("--method", choices=("ours", "agrawal"),
                                default="ours")
    session_parser.add_argument("--scenario", choices=("tight", "area"),
                                default="tight")
    session_parser.add_argument("--verify", action="store_true",
                                help="differentially check every solve "
                                     "against a cold flow run")

    serve_parser = sub.add_parser(
        "serve", parents=[common],
        help="run the WCM job daemon (warm workers + resident "
             "sessions) over a state directory")
    serve_parser.add_argument("--state-dir", default=".repro-serve",
                              metavar="PATH",
                              help="socket, journal and default cache "
                                   "root (default .repro-serve)")
    serve_parser.add_argument("--serve-workers", type=int, default=2,
                              metavar="N",
                              help="warm worker processes (default 2)")
    serve_parser.add_argument("--job-timeout", type=float, default=None,
                              metavar="S",
                              help="per-attempt wall-clock budget; a "
                                   "job past it is killed and retried")
    serve_parser.add_argument("--max-attempts", type=int, default=3,
                              metavar="N",
                              help="attempts per job before a crash-"
                                   "class failure is terminal "
                                   "(default 3)")
    serve_parser.add_argument("--breaker-threshold", type=int, default=3,
                              metavar="N",
                              help="consecutive crashes on one die "
                                   "before its jobs quarantine "
                                   "(default 3)")
    serve_parser.add_argument("--default-deadline", type=float,
                              default=None, metavar="S",
                              help="deadline applied to jobs that "
                                   "don't carry one")
    serve_parser.add_argument("--cap-interactive", type=int, default=64,
                              metavar="N", help=argparse.SUPPRESS)
    serve_parser.add_argument("--cap-normal", type=int, default=256,
                              metavar="N", help=argparse.SUPPRESS)
    serve_parser.add_argument("--cap-batch", type=int, default=1024,
                              metavar="N", help=argparse.SUPPRESS)

    submit_parser = sub.add_parser(
        "submit", parents=[common],
        help="submit one job to a running daemon "
             "(exit: 0 done, 1 failed, 3 shed, 4 quarantined, "
             "5 accepted-not-finished)")
    submit_parser.add_argument("kind",
                               help="job kind: noop | flow | atpg | "
                                    "experiment | eco")
    submit_parser.add_argument("params", nargs="*", metavar="KEY=VALUE",
                               help="job parameters; values are JSON "
                                    "(circuit=b11 die=1 "
                                    "edits='[{...}]')")
    submit_parser.add_argument("--state-dir", default=".repro-serve",
                               metavar="PATH")
    submit_parser.add_argument("--priority", default="normal",
                               choices=("interactive", "normal",
                                        "batch"))
    submit_parser.add_argument("--deadline", type=float, default=None,
                               metavar="S",
                               help="drop the job if not done within S "
                                    "seconds of admission")
    submit_parser.add_argument("--no-wait", action="store_true",
                               help="return the job id immediately "
                                    "instead of waiting for the result")
    submit_parser.add_argument("--wait-timeout", type=float, default=None,
                               metavar="S",
                               help="stop waiting after S seconds (the "
                                    "job keeps running)")
    submit_parser.add_argument("--no-retry", action="store_true",
                               help="take a shed answer at face value "
                                    "instead of backing off and "
                                    "resubmitting")

    jobs_parser = sub.add_parser(
        "jobs", parents=[common],
        help="list a running daemon's jobs (--stats, --drain)")
    jobs_parser.add_argument("--state-dir", default=".repro-serve",
                             metavar="PATH")
    jobs_parser.add_argument("--stats", action="store_true",
                             help="counters, breakers and pool state "
                                  "instead of the job list")
    jobs_parser.add_argument("--drain", action="store_true",
                             help="ask the daemon to finish in-flight "
                                  "jobs, journal the rest and exit")

    trace_parser = sub.add_parser(
        "trace", parents=[common],
        help="inspect or compare run manifests")
    trace_parser.add_argument("action", choices=("show", "diff"))
    trace_parser.add_argument("paths", nargs="+", metavar="MANIFEST")
    trace_parser.add_argument("--tolerance", type=float, default=10.0,
                              metavar="PCT",
                              help="allowed timing regression percent "
                                   "(diff; default 10)")

    bench_parser = sub.add_parser(
        "bench", parents=[common],
        help="gate a run manifest against a golden baseline")
    bench_parser.add_argument("action", choices=("gate",))
    bench_parser.add_argument("candidate", metavar="CANDIDATE")
    bench_parser.add_argument("--golden",
                              default="benchmarks/BENCH_kernels.json",
                              metavar="PATH",
                              help="golden manifest or BENCH_*.json "
                                   "(default benchmarks/BENCH_kernels"
                                   ".json)")
    bench_parser.add_argument("--tolerance", type=float, default=10.0,
                              metavar="PCT",
                              help="allowed timing regression percent "
                                   "(default 10)")

    args = parser.parse_args(argv)
    try:
        configure(jobs=getattr(args, "jobs", None),
                  cache_dir=getattr(args, "cache_dir", None),
                  no_cache=getattr(args, "no_cache", None),
                  timeout_s=getattr(args, "timeout", None),
                  retries=getattr(args, "retries", None),
                  strict=getattr(args, "strict", None),
                  checkpoint_dir=getattr(args, "checkpoint_dir", None),
                  trace_dir=getattr(args, "trace_dir", None))
    except ConfigError as exc:
        parser.error(str(exc))

    scale_name = getattr(args, "scale", None)
    verbose = getattr(args, "verbose", False)
    seed = getattr(args, "seed", None)
    try:
        if args.command in _DRIVERS:
            failures = _run_driver(args.command, scale_name, verbose,
                                   seed=seed)
            if failures:
                print(f"{failures} cell(s) failed; table rendered "
                      f"without them", file=sys.stderr)
            return 1 if failures else 0
        if args.command in ("all-tables", "tables"):
            failures = 0
            for name in _EXPORT_ORDER:
                failures += _run_driver(name, scale_name, verbose,
                                        seed=seed)
            if failures:
                print(f"{failures} cell(s) failed across the sweep",
                      file=sys.stderr)
            return 1 if failures else 0
        if args.command == "die":
            return _cmd_die(args)
        if args.command == "profile":
            return _cmd_profile(args)
        if args.command == "export":
            return _cmd_export(args)
        if args.command == "scale":
            return _cmd_scale(args)
        if args.command == "fuzz":
            return _cmd_fuzz(args)
        if args.command == "schedule":
            return _cmd_schedule(args)
        if args.command == "session":
            return _cmd_session(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "jobs":
            return _cmd_jobs(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "bench":
            return _cmd_bench_gate(args)
    except KeyboardInterrupt:
        # interrupted mid-command (serve handles SIGINT itself while
        # serve_forever runs): flush telemetry, conventional 130
        from repro.runtime import trace
        trace.stop()
        print(file=sys.stderr)
        return 130
    except RuntimeExecutionError as exc:
        print(f"sweep aborted: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error. Detach
        # stdout so interpreter shutdown doesn't retry the flush.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    parser.error(f"unknown command {args.command}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
