"""Supervised execution of experiment sweeps: per-cell isolation,
wall-clock timeouts, bounded retry, checkpoint/resume.

The experiment matrix is embarrassingly parallel: every (die, method,
scenario) cell is an independent computation. A bare pool ``map``
would give ordered fan-out, but one worker crash, one wedged PODEM
cell or one unpicklable exception would abort the whole sweep with
nothing to show. :func:`supervised_map` instead owns its worker
processes outright (one duplex pipe each, so a hung worker can
actually be killed) and turns every per-cell mishap into data instead
of an abort:

* **crash isolation** — a worker that dies mid-cell (segfault,
  ``os._exit``, OOM kill) yields a ``failed`` :class:`CellOutcome`;
  a replacement worker is forked and the sweep continues,
* **timeouts** — a cell past ``timeout_s`` has its worker killed and
  comes back as ``timeout``,
* **bounded retry** — a failed cell is re-attempted up to ``retries``
  times *with the same derived per-cell seed* (the reseed happens per
  attempt, before any injection or work), so a retried cell is
  byte-identical to a first-try cell,
* **checkpoint/resume** — each completed cell is journaled to a
  checkpoint file (magic + header + length-prefixed pickled records;
  a torn tail from a killed sweep is truncated on resume), so an
  interrupted sweep recomputes only the incomplete cells,
* **strict mode** — fail fast: the first terminal failure raises
  :class:`~repro.util.errors.RuntimeExecutionError` (or
  :class:`~repro.util.errors.CellTimeoutError`) instead of completing.
  A caller that wants every result or an exception (the fuzz driver)
  passes ``strict=True`` and calls
  :meth:`SweepResult.results_or_raise`.

Determinism contract: outcomes come back in submission order, never
in completion order; every attempt of every cell — in the serial path
*and* in workers — reseeds global ``random`` from ``cell_seed(seed,
index)``, so serial and parallel runs are interchangeable; and workers
inherit the parent's runtime config pinned to ``jobs=1`` (no nested
pools). A sweep with injected faults leaves every *surviving* cell
byte-identical to a clean serial run (asserted by the chaos suite).
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
import multiprocessing.connection as mp_connection
import pickle
import random
import struct
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.runtime import trace
from repro.runtime.config import (
    RuntimeConfig,
    apply_config,
    current_config,
    resolve_jobs,
)
from repro.util.errors import CellTimeoutError, RuntimeExecutionError
from repro.util.fingerprint import fingerprint
from repro.util.rng import derive_seed

#: root label mixed into every per-cell seed derivation
CELL_STREAM = "runtime.cell"

# Outcome statuses
OK = "ok"
RETRIED = "retried"       # ok, but needed more than one attempt
FAILED = "failed"         # exception or worker crash, retries exhausted
TIMEOUT = "timeout"       # wall-clock budget exceeded, worker killed
PENDING = "pending"       # never started: sweep drained first


# ---------------------------------------------------------------------------
# Graceful drain: SIGTERM/SIGINT-safe early stop.
#
# A drained sweep finishes the cells already on workers (journaling
# them to the checkpoint as usual), skips everything still queued, and
# returns a SweepResult whose unstarted cells are ``pending`` — so a
# resumed sweep completes byte-identically from the checkpoint. The
# flag is process-wide (one sweep runs at a time per process) and is
# cleared by every supervised_map entry so a drain cannot leak into
# the next sweep.
# ---------------------------------------------------------------------------
import threading as _threading

_DRAIN = _threading.Event()


def request_drain() -> None:
    """Ask the running sweep to stop after its in-flight cells."""
    _DRAIN.set()


def drain_requested() -> bool:
    return _DRAIN.is_set()


def clear_drain() -> None:
    _DRAIN.clear()


def install_drain_handlers(signals: Optional[Tuple[int, ...]] = None
                           ) -> None:
    """Route SIGTERM/SIGINT to :func:`request_drain` (main thread only).

    Used by long-running drivers (and the test harness) so an orderly
    shutdown checkpoints instead of tearing the sweep mid-write."""
    import signal as _signal

    for signum in signals or (_signal.SIGTERM, _signal.SIGINT):
        _signal.signal(signum, lambda _s, _f: request_drain())


def cell_seed(root: int, *labels: object) -> int:
    """Deterministic per-cell seed (same derivation for every attempt;
    exposed for drivers that need an independent stream per cell)."""
    return derive_seed(root, CELL_STREAM, *labels)


@dataclass
class CellOutcome:
    """Structured fate of one experiment cell."""

    index: int
    status: str
    result: Any = None
    error: Optional[str] = None
    attempts: int = 1
    from_checkpoint: bool = False
    #: original exception when it survived pickling (strict re-raise)
    exception: Optional[BaseException] = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.status in (OK, RETRIED)

    def describe(self) -> str:
        if self.ok:
            if self.from_checkpoint:
                return "ok (restored from checkpoint)"
            return (f"ok after {self.attempts} attempt(s)"
                    if self.attempts > 1 else "ok")
        return f"{self.status} after {self.attempts} attempt(s): {self.error}"


@dataclass(frozen=True)
class SupervisorPolicy:
    """How a sweep reacts to failure (defaults: complete, never hang)."""

    timeout_s: Optional[float] = None
    retries: int = 0
    strict: bool = False
    checkpoint_dir: Optional[str] = None
    #: deterministic fault injection (ChaosPlan), applied worker-side
    chaos: Optional[Any] = None

    @classmethod
    def from_config(cls, config: Optional[RuntimeConfig] = None
                    ) -> "SupervisorPolicy":
        config = config or current_config()
        return cls(timeout_s=config.timeout_s, retries=config.retries,
                   strict=config.strict,
                   checkpoint_dir=config.checkpoint_dir,
                   chaos=config.chaos)


@dataclass
class SweepResult:
    """All outcomes of one supervised sweep, in submission order."""

    label: str
    outcomes: List[CellOutcome]

    @property
    def results(self) -> List[Any]:
        """Per-cell results (``None`` where the cell did not survive)."""
        return [outcome.result for outcome in self.outcomes]

    @property
    def failures(self) -> List[CellOutcome]:
        return [outcome for outcome in self.outcomes
                if not outcome.ok and outcome.status != PENDING]

    @property
    def pending(self) -> List[CellOutcome]:
        """Cells a drain stopped before they ever started."""
        return [outcome for outcome in self.outcomes
                if outcome.status == PENDING]

    @property
    def drained(self) -> bool:
        return bool(self.pending)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.pending

    def results_or_raise(self) -> List[Any]:
        for outcome in self.outcomes:
            if not outcome.ok:
                raise _terminal_error(self.label, outcome)
        return self.results


def _terminal_error(label: str, outcome: CellOutcome
                    ) -> RuntimeExecutionError:
    kind = CellTimeoutError if outcome.status == TIMEOUT \
        else RuntimeExecutionError
    error = kind(f"{label}[{outcome.index}] {outcome.describe()}")
    if outcome.exception is not None:
        error.__cause__ = outcome.exception
    return error


# ---------------------------------------------------------------------------
# Checkpoint file: magic + header record + (index, result) records.
# ---------------------------------------------------------------------------
_MAGIC = b"RPRO-CKPT1\n"
_LEN = struct.Struct(">I")


def sweep_fingerprint(label: str, seed: int, cells: List[Any]) -> str:
    """Identity of a sweep: same label + seed + cells == same sweep."""
    try:
        return fingerprint({"label": label, "seed": int(seed),
                            "cells": cells})
    except TypeError:
        # cells outside the canonicalizer's vocabulary: fall back to
        # their pickled bytes (stable for identical values + interpreter)
        blob = pickle.dumps((label, int(seed), cells), protocol=4)
        return hashlib.sha256(blob).hexdigest()


class SweepCheckpoint:
    """Append-only journal of completed cells for one sweep.

    Records are length-prefixed pickles; a torn tail (the sweep was
    killed mid-write) is detected on resume and truncated away, never
    raised. A file whose magic or header does not match the sweep is
    discarded and rewritten — a checkpoint can only ever *skip* cells
    of the exact sweep that wrote it.
    """

    def __init__(self, path: Path, header: Dict[str, Any]) -> None:
        self.path = Path(path)
        self.header = header
        self._handle = None

    # -- resume ----------------------------------------------------------
    @classmethod
    def resume(cls, path: Path, header: Dict[str, Any]
               ) -> Tuple["SweepCheckpoint", Dict[int, Any]]:
        """Open (or create) the journal; return it plus completed cells."""
        checkpoint = cls(path, header)
        completed, good_offset = checkpoint._read_existing()
        checkpoint.path.parent.mkdir(parents=True, exist_ok=True)
        if good_offset is None:
            handle = open(checkpoint.path, "wb")
            handle.write(_MAGIC)
            handle.write(_frame(header))
            handle.flush()
        else:
            handle = open(checkpoint.path, "r+b")
            handle.truncate(good_offset)
            handle.seek(good_offset)
        checkpoint._handle = handle
        return checkpoint, completed

    def _read_existing(self) -> Tuple[Dict[int, Any], Optional[int]]:
        completed: Dict[int, Any] = {}
        try:
            handle = open(self.path, "rb")
        except OSError:
            return completed, None
        with handle:
            if handle.read(len(_MAGIC)) != _MAGIC:
                return {}, None
            first = _read_frame(handle)
            if first is None or first[0] != self.header:
                return {}, None
            good_offset = first[1]
            while True:
                frame = _read_frame(handle)
                if frame is None:
                    break
                record, good_offset = frame
                try:
                    index, result = record
                    completed[int(index)] = result
                except (TypeError, ValueError):
                    break
            return completed, good_offset

    # -- append ----------------------------------------------------------
    def append(self, index: int, result: Any) -> None:
        if self._handle is None:
            return
        try:
            self._handle.write(_frame((index, result)))
            self._handle.flush()
        except (OSError, pickle.PicklingError):
            # an unjournalable result only costs resume coverage
            pass

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def _frame(obj: Any) -> bytes:
    blob = pickle.dumps(obj, protocol=4)
    return _LEN.pack(len(blob)) + blob


def _read_frame(handle) -> Optional[Tuple[Any, int]]:
    """One record plus the offset after it, or ``None`` on a torn tail."""
    raw = handle.read(_LEN.size)
    if len(raw) < _LEN.size:
        return None
    (length,) = _LEN.unpack(raw)
    blob = handle.read(length)
    if len(blob) < length:
        return None
    try:
        return pickle.loads(blob), handle.tell()
    except Exception:
        return None


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------
def _pickle_safe(exc: BaseException) -> Optional[BaseException]:
    try:
        pickle.dumps(exc, protocol=4)
        return exc
    except Exception:
        return None


def _worker_main(conn, config: RuntimeConfig, fn: Callable, seed: int,
                 chaos: Optional[Any]) -> None:
    apply_config(config)
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            conn.close()
            return
        index, attempt, cell = task
        random.seed(cell_seed(seed, index))
        metrics_payload = None
        # Per-cell collection while a tracer runs: the cell's counters
        # and histograms ship back with the result and merge into the
        # parent's registry, so a --jobs N rollup equals a serial one.
        # With tracing off the cell stays on the no-op path.
        scope = trace.collect() if trace.active() is not None \
            else nullcontext()
        try:
            with scope as collected, \
                    trace.span("cell", index=index, attempt=attempt):
                if chaos is not None:
                    chaos.apply(index, attempt)
                result = fn(cell)
            if collected is not None:
                metrics_payload = collected.metrics.to_payload()
        except Exception as exc:
            message = (f"{type(exc).__name__}: {exc}"
                       or type(exc).__name__)
            payload = ("err", index, attempt, message,
                       _pickle_safe(exc), None)
        else:
            payload = ("ok", index, attempt, None, result, metrics_payload)
        try:
            conn.send(payload)
        except Exception:
            try:
                conn.send(("err", index, attempt,
                           "result could not be sent back "
                           "(unpicklable or parent gone)", None, None))
            except Exception:
                return


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------
class _Worker:
    """One supervised worker process and its command pipe."""

    __slots__ = ("process", "conn", "task", "deadline")

    def __init__(self, ctx, config: RuntimeConfig, fn: Callable,
                 seed: int, chaos: Optional[Any]) -> None:
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, config, fn, seed, chaos),
            daemon=True)
        self.process.start()
        child_conn.close()
        self.task: Optional[Tuple[int, int]] = None  # (index, attempt)
        self.deadline: Optional[float] = None

    def kill(self) -> None:
        try:
            self.process.kill()
        except (OSError, AttributeError, ValueError):
            pass
        self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:
            pass

    def shutdown(self) -> None:
        """Graceful stop for an idle worker; kill if it won't go."""
        try:
            self.conn.send(None)
        except (OSError, ValueError):
            pass
        self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.kill()
        else:
            try:
                self.conn.close()
            except OSError:
                pass


class _Supervisor:
    """State machine driving one process-backed sweep."""

    def __init__(self, fn: Callable, cells: List[Any], jobs: int,
                 seed: int, policy: SupervisorPolicy, label: str,
                 outcomes: List[Optional[CellOutcome]],
                 checkpoint: Optional[SweepCheckpoint]) -> None:
        self.fn = fn
        self.cells = cells
        self.seed = seed
        self.policy = policy
        self.label = label
        self.outcomes = outcomes
        self.checkpoint = checkpoint
        self.ctx = mp.get_context()
        self.config = current_config()
        self.workers: List[_Worker] = []
        self.idle: List[_Worker] = []
        self.queue: deque = deque()
        self.jobs = jobs
        self._spawn_strikes = 0

    # -- lifecycle -------------------------------------------------------
    def run(self, todo: List[int]) -> None:
        self.queue.extend((index, 1) for index in todo)
        try:
            for _ in range(min(self.jobs, len(self.queue))):
                self._spawn()
            while self.queue or self._busy():
                if drain_requested():
                    # stop feeding: let in-flight cells finish (they
                    # journal to the checkpoint), leave the rest queued
                    if not self._busy():
                        trace.event("supervisor.drained",
                                    remaining=len(self.queue))
                        break
                else:
                    self._assign()
                self._wait_and_collect()
        finally:
            self._shutdown_all()

    def _spawn(self) -> None:
        worker = _Worker(self.ctx, self.config, self.fn, self.seed,
                         self.policy.chaos)
        self.workers.append(worker)
        self.idle.append(worker)

    def _retire(self, worker: _Worker, kill: bool) -> None:
        if kill:
            worker.kill()
        else:
            worker.shutdown()
        if worker in self.workers:
            self.workers.remove(worker)
        if worker in self.idle:
            self.idle.remove(worker)

    def _busy(self) -> List[_Worker]:
        return [w for w in self.workers if w.task is not None]

    def _shutdown_all(self) -> None:
        for worker in list(self.workers):
            self._retire(worker, kill=worker.task is not None)

    # -- scheduling ------------------------------------------------------
    def _assign(self) -> None:
        while self.queue and self.idle:
            index, attempt = self.queue.popleft()
            worker = self.idle.pop()
            try:
                worker.conn.send((index, attempt, self.cells[index]))
            except (OSError, ValueError, pickle.PicklingError) as exc:
                # worker unusable before the cell even started: the
                # attempt is not charged to the cell, but a pool that
                # can't keep a worker alive long enough to hand a task
                # over is broken — bound the respawn loop.
                self._retire(worker, kill=True)
                self._spawn_strikes += 1
                if self._spawn_strikes > 8 + 2 * self.jobs:
                    raise RuntimeExecutionError(
                        f"{self.label}: worker pool broken "
                        f"({self._spawn_strikes} consecutive failed "
                        f"hand-offs; last: {exc})") from exc
                self.queue.appendleft((index, attempt))
                self._spawn()
                continue
            worker.task = (index, attempt)
            worker.deadline = (time.monotonic() + self.policy.timeout_s
                               if self.policy.timeout_s else None)

    def _wait_and_collect(self) -> None:
        busy = self._busy()
        if not busy:
            return
        timeout = None
        deadlines = [w.deadline for w in busy if w.deadline is not None]
        if deadlines:
            timeout = max(0.0, min(deadlines) - time.monotonic())
        ready = set(mp_connection.wait([w.conn for w in busy],
                                       timeout=timeout))
        now = time.monotonic()
        for worker in busy:
            if worker.conn in ready:
                self._collect(worker)
            elif worker.deadline is not None and now >= worker.deadline:
                self._on_timeout(worker)

    def _collect(self, worker: _Worker) -> None:
        index, attempt = worker.task
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            # the worker died mid-cell: crash isolation path
            trace.inc("supervisor.crashes")
            exitcode = worker.process.exitcode
            trace.event("supervisor.crash", index=index, attempt=attempt,
                        exit_code=exitcode)
            self._retire(worker, kill=True)
            self._task_failed(
                index, attempt, FAILED,
                f"worker crashed (exit code {exitcode})", None)
            self._refill()
            return
        worker.task = None
        worker.deadline = None
        self.idle.append(worker)
        self._spawn_strikes = 0
        kind, r_index, r_attempt, error, payload, metrics = message
        tracer = trace.active()
        if metrics is not None and tracer is not None:
            tracer.metrics.merge_payload(metrics)
        if kind == "ok":
            self._task_done(r_index, r_attempt, payload)
        else:
            self._task_failed(r_index, r_attempt, FAILED, error, payload)

    def _on_timeout(self, worker: _Worker) -> None:
        index, attempt = worker.task
        trace.inc("supervisor.timeouts")
        trace.event("supervisor.timeout", index=index, attempt=attempt,
                    timeout_s=self.policy.timeout_s)
        self._retire(worker, kill=True)
        self._task_failed(
            index, attempt, TIMEOUT,
            f"exceeded {self.policy.timeout_s:g}s wall-clock", None)
        self._refill()

    def _refill(self) -> None:
        """Replace a retired worker while work remains."""
        if self.queue and len(self.workers) < self.jobs:
            self._spawn()

    # -- outcome recording ----------------------------------------------
    def _task_done(self, index: int, attempt: int, result: Any) -> None:
        outcome = CellOutcome(
            index=index,
            status=OK if attempt == 1 else RETRIED,
            result=result,
            attempts=attempt)
        self.outcomes[index] = outcome
        trace.inc("supervisor.cells")
        trace.observe("supervisor.attempts", attempt)
        if self.checkpoint is not None:
            self.checkpoint.append(index, result)

    def _task_failed(self, index: int, attempt: int, status: str,
                     error: Optional[str],
                     exception: Optional[BaseException]) -> None:
        if attempt <= self.policy.retries:
            trace.inc("supervisor.retries")
            trace.event("supervisor.retry", index=index,
                        attempt=attempt, error=error)
            self.queue.append((index, attempt + 1))
            return
        outcome = CellOutcome(index=index, status=status, error=error,
                              attempts=attempt, exception=exception)
        self.outcomes[index] = outcome
        trace.inc("supervisor.failures")
        trace.event("supervisor.cell_failed", index=index, status=status,
                    attempts=attempt, error=error)
        if self.policy.strict:
            raise _terminal_error(self.label, outcome)


# ---------------------------------------------------------------------------
# Serial path (no isolation required): same seeding, same outcomes.
# ---------------------------------------------------------------------------
def _run_serial(fn: Callable, cells: List[Any], todo: List[int],
                seed: int, policy: SupervisorPolicy, label: str,
                outcomes: List[Optional[CellOutcome]],
                checkpoint: Optional[SweepCheckpoint]) -> None:
    for position, index in enumerate(todo):
        if drain_requested():
            trace.event("supervisor.drained",
                        remaining=len(todo) - position)
            break
        attempt = 0
        while True:
            attempt += 1
            random.seed(cell_seed(seed, index))
            try:
                with trace.span("cell", index=index, attempt=attempt):
                    result = fn(cells[index])
            except Exception as exc:
                if attempt <= policy.retries:
                    trace.inc("supervisor.retries")
                    trace.event("supervisor.retry", index=index,
                                attempt=attempt,
                                error=f"{type(exc).__name__}: {exc}")
                    continue
                outcome = CellOutcome(
                    index=index, status=FAILED,
                    error=f"{type(exc).__name__}: {exc}",
                    attempts=attempt, exception=exc)
                outcomes[index] = outcome
                trace.inc("supervisor.failures")
                trace.event("supervisor.cell_failed", index=index,
                            status=FAILED, attempts=attempt,
                            error=outcome.error)
                if policy.strict:
                    raise _terminal_error(label, outcome) from exc
                break
            outcomes[index] = CellOutcome(
                index=index,
                status=OK if attempt == 1 else RETRIED,
                result=result, attempts=attempt)
            trace.inc("supervisor.cells")
            trace.observe("supervisor.attempts", attempt)
            if checkpoint is not None:
                checkpoint.append(index, result)
            break


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def supervised_map(fn: Callable[[Any], Any], cells: Iterable[Any],
                   jobs: Optional[int] = None, seed: int = 0,
                   label: str = "sweep",
                   policy: Optional[SupervisorPolicy] = None
                   ) -> SweepResult:
    """Map *fn* over *cells* under supervision; never lose the sweep.

    Returns a :class:`SweepResult` whose outcomes are in submission
    order. With ``policy=None`` the policy comes from the runtime
    config (CLI flags / environment). Workers must be given a
    module-level function and picklable cells.
    """
    cells = list(cells)
    jobs = resolve_jobs(jobs)
    if policy is None:
        policy = SupervisorPolicy.from_config()
    # a drain belongs to exactly one sweep: a request left over from a
    # previous (already finished) sweep must not abort this one
    clear_drain()

    outcomes: List[Optional[CellOutcome]] = [None] * len(cells)

    checkpoint: Optional[SweepCheckpoint] = None
    if policy.checkpoint_dir:
        identity = sweep_fingerprint(label, seed, cells)
        header = {"label": label, "seed": int(seed),
                  "total": len(cells), "fingerprint": identity}
        path = Path(policy.checkpoint_dir) / f"{label}-{identity[:12]}.ckpt"
        checkpoint, completed = SweepCheckpoint.resume(path, header)
        for index, result in completed.items():
            if 0 <= index < len(cells):
                outcomes[index] = CellOutcome(
                    index=index, status=OK, result=result,
                    attempts=0, from_checkpoint=True)
                trace.inc("supervisor.checkpoint_restored")

    todo = [index for index in range(len(cells)) if outcomes[index] is None]
    # process isolation is required to enforce timeouts and to survive
    # crash-class chaos; otherwise a single pending cell stays in-process
    isolate = policy.timeout_s is not None or policy.chaos is not None
    try:
        if todo:
            with trace.span("sweep", label=label, cells=len(cells),
                            todo=len(todo), jobs=jobs,
                            strict=policy.strict):
                if isolate or (jobs > 1 and len(todo) > 1):
                    supervisor = _Supervisor(fn, cells, jobs, seed, policy,
                                             label, outcomes, checkpoint)
                    supervisor.run(todo)
                else:
                    _run_serial(fn, cells, todo, seed, policy, label,
                                outcomes, checkpoint)
    finally:
        if checkpoint is not None:
            checkpoint.close()
    for index in range(len(cells)):
        if outcomes[index] is None:
            # a drain stopped the sweep before this cell started; a
            # resumed sweep picks it up from the checkpoint
            outcomes[index] = CellOutcome(
                index=index, status=PENDING, attempts=0,
                error="drained before start")
    return SweepResult(label=label, outcomes=outcomes)
