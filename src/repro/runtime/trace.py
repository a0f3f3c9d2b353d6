"""Structured tracing + metrics: spans, histograms, run manifests.

The one observability API: the flow, the partitioner, STA and the
ATPG engine report where the time goes as spans
(``trace.span(name, kind="phase")``) and how hard they worked as
counters (``trace.inc(name, k)``). Three cooperating pieces:

* **Spans** — nested, attributed intervals (run → experiment → die →
  phase → cell) with stable sequential ids, wall-clock and CPU time.
  Every span start/end is appended to a JSONL event log, flushed per
  line so a crashed or killed process still leaves its trail behind.
  Per-name timings feed the manifest; a span that re-enters its own
  name is charged once, at the outermost level, so a name's time never
  exceeds real elapsed time.
* **Metrics** — a registry of counters, gauges and bucketed histograms
  (clique sizes, slack margins, coverage drops, cache hit ratios,
  supervisor retries/timeouts). Rollups are *order-independent*:
  merging per-cell registries in any order — serial, ``--jobs 4``,
  completion order — produces the identical rollup, which is what lets
  a run manifest be fingerprinted reproducibly.
* **Run manifests** — one JSON document per run: config identity,
  seed, scale, git describe, the metric rollup, and BENCH-compatible
  span timings. The manifest carries a content fingerprint over its
  *deterministic* sections (timings, git state and volatile metrics
  such as cache hit counts are excluded), so two runs of the same code
  on the same inputs — at any worker count — agree byte-for-byte.

``repro trace show`` renders a manifest, ``repro trace diff`` compares
two, and ``repro bench gate`` accepts/rejects a candidate manifest (or
a raw ``BENCH_*.json`` timings file) against a golden one with a
timing tolerance — nonzero exit on regression, for CI.

When no tracer is started (the default) every module-level helper is a
no-op costing one global read, so instrumented hot paths pay nothing.
:func:`collect` scopes metrics and timings to a block — ``repro
profile``, the ``eco`` verify check and per-cell worker ship-back use
it — and serves the block from an in-memory tracer when tracing is off.
"""

from __future__ import annotations

import gc
import json
import math
import os
import subprocess
import time
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.util.fingerprint import canonicalize, fingerprint

#: bump when the event or manifest schema changes shape
TRACE_SCHEMA_VERSION = 1

#: metric-name prefixes excluded from the manifest fingerprint: real
#: but environment-dependent (cache warmth, injected faults, worker
#: scheduling), so they would break run-to-run comparability.
#: ``sim.propagate_events`` is deterministic but stays excluded:
#: fingerprinting it would move every pinned manifest fingerprint of a
#: run that simulates faults.
#: ``runtime.gc`` (collections and seconds of the cyclic garbage
#: collector) depends on the heap's history, not on the work done.
VOLATILE_PREFIXES = ("cache.", "supervisor.", "chaos.",
                     "sim.propagate_events", "runtime.gc")

#: default histogram buckets by metric name (upper bounds; one
#: overflow bucket is appended implicitly)
DEFAULT_BUCKETS: Dict[str, Tuple[float, ...]] = {
    "clique.size": (1, 2, 3, 4, 6, 8, 12, 16, 24, 32),
    "sta.worst_slack_ps": (-1000.0, -100.0, -10.0, 0.0, 10.0, 100.0,
                           1000.0, 10000.0),
    "graph.coverage_drop": (0.0, 0.001, 0.005, 0.01, 0.02, 0.05, 0.1),
    "graph.edges": (0, 10, 100, 1000, 10000, 100000),
    "supervisor.attempts": (1, 2, 3, 5, 8),
}

#: generic fallback buckets (decades)
GENERIC_BUCKETS: Tuple[float, ...] = (
    0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0)


def default_buckets(name: str) -> Tuple[float, ...]:
    return DEFAULT_BUCKETS.get(name, GENERIC_BUCKETS)


def _stable_float(value: Any) -> Any:
    """Round a float accumulator to 9 significant digits (fingerprint
    stability across summation orders)."""
    if isinstance(value, float) and math.isfinite(value):
        return float(f"{value:.9g}")
    return value


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
@dataclass
class GaugeStat:
    """Order-independent summary of every ``set`` of one gauge."""

    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    def set(self, value: float) -> None:
        value = float(value)  # payload round-trips coerce to float;
        self.count += 1       # record as float so serial == parallel
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def merge(self, other: "GaugeStat") -> None:
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    def to_payload(self) -> Dict[str, Any]:
        return {"count": self.count, "total": self.total,
                "min": self.minimum if self.count else None,
                "max": self.maximum if self.count else None}

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "GaugeStat":
        stat = cls(count=int(payload["count"]),
                   total=float(payload["total"]))
        stat.minimum = (math.inf if payload.get("min") is None
                        else float(payload["min"]))
        stat.maximum = (-math.inf if payload.get("max") is None
                        else float(payload["max"]))
        return stat


class Histogram:
    """Fixed-bucket histogram; bucket k counts values <= buckets[k],
    with one implicit overflow bucket at the end."""

    __slots__ = ("buckets", "counts", "count", "total",
                 "minimum", "maximum")

    def __init__(self, buckets: Sequence[float]) -> None:
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)  # as GaugeStat.set: serial == parallel
        # bisect_left: a value equal to a bound lands in that bucket
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def merge(self, other: "Histogram") -> None:
        if self.buckets != other.buckets:
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{self.buckets} vs {other.buckets}")
        for k, n in enumerate(other.counts):
            self.counts[k] += n
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    def to_payload(self) -> Dict[str, Any]:
        return {"buckets": list(self.buckets),
                "counts": list(self.counts),
                "count": self.count, "total": self.total,
                "min": self.minimum if self.count else None,
                "max": self.maximum if self.count else None}

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Histogram":
        histogram = cls(payload["buckets"])
        histogram.counts = [int(n) for n in payload["counts"]]
        histogram.count = int(payload["count"])
        histogram.total = float(payload["total"])
        histogram.minimum = (math.inf if payload.get("min") is None
                             else float(payload["min"]))
        histogram.maximum = (-math.inf if payload.get("max") is None
                             else float(payload["max"]))
        return histogram


class MetricsRegistry:
    """Counters, gauges and histograms for one run (or one cell).

    ``merge`` is associative and commutative, so per-cell registries
    shipped back from worker processes fold into the run-level registry
    in completion order yet roll up identically to a serial run.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, GaugeStat] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- recording -------------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        stat = self.gauges.get(name)
        if stat is None:
            stat = self.gauges[name] = GaugeStat()
        stat.set(value)

    def observe(self, name: str, value: float,
                buckets: Optional[Sequence[float]] = None) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(
                buckets if buckets is not None else default_buckets(name))
        histogram.observe(value)

    # -- folding ---------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        for name, amount in other.counters.items():
            self.inc(name, amount)
        for name, stat in other.gauges.items():
            mine = self.gauges.get(name)
            if mine is None:
                mine = self.gauges[name] = GaugeStat()
            mine.merge(stat)
        for name, histogram in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = Histogram.from_payload(
                    histogram.to_payload())
            else:
                mine.merge(histogram)

    def merge_payload(self, payload: Dict[str, Any]) -> None:
        self.merge(MetricsRegistry.from_payload(payload))

    # -- serialization ---------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k].to_payload()
                       for k in sorted(self.gauges)},
            "histograms": {k: self.histograms[k].to_payload()
                           for k in sorted(self.histograms)},
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "MetricsRegistry":
        registry = cls()
        registry.counters = {str(k): int(v)
                             for k, v in payload.get("counters", {}).items()}
        registry.gauges = {str(k): GaugeStat.from_payload(v)
                           for k, v in payload.get("gauges", {}).items()}
        registry.histograms = {
            str(k): Histogram.from_payload(v)
            for k, v in payload.get("histograms", {}).items()}
        return registry

    def rollup(self, volatile: bool = True) -> Dict[str, Any]:
        """Serializable rollup; ``volatile=False`` drops the metric
        names whose values depend on environment, not computation, and
        rounds float accumulators to 9 significant digits — float
        addition is not associative, so a ``--jobs N`` merge order
        differs from serial by ~1e-12 relative, far below the rounding.
        """
        payload = self.to_payload()
        if volatile:
            return payload
        def keep(name: str) -> bool:
            return not name.startswith(VOLATILE_PREFIXES)
        def stable(value: Any) -> Any:
            if isinstance(value, dict):
                return {k: (_stable_float(v) if k == "total" else v)
                        for k, v in value.items()}
            return value
        return {section: {name: stable(value)
                          for name, value in mapping.items() if keep(name)}
                for section, mapping in payload.items()}


# ---------------------------------------------------------------------------
# Spans and the tracer
# ---------------------------------------------------------------------------
class _NoopSpan:
    """Shared do-nothing context manager for the tracing-off fast path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class _Span:
    """One live span: emits start/end events, accumulates timings."""

    __slots__ = ("tracer", "span_id", "parent_id", "name", "kind",
                 "attrs", "_wall0", "_cpu0", "gc_s")

    def __init__(self, tracer: "Tracer", span_id: str,
                 parent_id: Optional[str], name: str, kind: str,
                 attrs: Dict[str, Any]) -> None:
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.attrs = attrs
        self._wall0 = 0.0
        self._cpu0 = 0.0
        #: garbage-collector seconds while this was the innermost span
        self.gc_s = 0.0

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        tracer._stack.append(self)
        depth = tracer._depth
        depth[self.name] = depth.get(self.name, 0) + 1
        record = {"ev": "span_start", "id": self.span_id,
                  "parent": self.parent_id, "name": self.name,
                  "kind": self.kind}
        if self.attrs:
            record["attrs"] = self.attrs
        tracer._emit(record)
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall_s = time.perf_counter() - self._wall0
        cpu_s = time.process_time() - self._cpu0
        tracer = self.tracer
        if tracer._stack and tracer._stack[-1] is self:
            tracer._stack.pop()
        record = {"ev": "span_end", "id": self.span_id,
                  "name": self.name, "wall_s": round(wall_s, 9),
                  "cpu_s": round(cpu_s, 9)}
        if exc_type is not None:
            record["error"] = exc_type.__name__
        tracer._emit(record)
        depth = tracer._depth
        if depth[self.name] > 1:
            depth[self.name] -= 1  # re-entered: the outermost charges
            if tracer._stack:
                tracer._stack[-1].gc_s += self.gc_s
        else:
            del depth[self.name]
            tracer._add_timing(self.name,
                               [1, wall_s, wall_s, wall_s, wall_s * wall_s,
                                self.gc_s])
        return False


class TraceSink:
    """Append-only JSONL event log, flushed per line.

    Per-line flushing is the crash contract: a worker killed by a
    timeout, an ``os._exit`` chaos injection or a supervisor kill still
    leaves every event it emitted on disk.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")

    def write(self, record: Dict[str, Any]) -> None:
        if self._handle is None:
            return
        try:
            self._handle.write(json.dumps(record, separators=(",", ":"),
                                          default=str) + "\n")
            self._handle.flush()
        except (OSError, ValueError):
            pass

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None


class Tracer:
    """Per-process tracing state: span stack, metrics, event sink.

    ``trace_dir=None`` makes an in-memory tracer: metrics and span
    timings, no event log (how :func:`collect` serves a block while
    tracing is off).
    """

    def __init__(self, trace_dir: Optional[os.PathLike],
                 role: str = "main") -> None:
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self.role = role
        pid = os.getpid()
        self.sink: Optional[TraceSink] = None
        if self.trace_dir is not None:
            stem = ("events.jsonl" if role == "main"
                    else f"events-w{pid}.jsonl")
            self.sink = TraceSink(self.trace_dir / stem)
        self.metrics = MetricsRegistry()
        #: process-runtime metrics (``runtime.gc.collections``,
        #: ``runtime.gc_s``): kept apart from :attr:`metrics`, whose
        #: counters a rerun reproduces, and reported as volatile
        self.runtime = MetricsRegistry()
        self.pid = pid
        self._stack: List[_Span] = []
        self._seq = 0
        #: name -> [rounds, total_s, min_s, max_s, sum_sq, gc_s]
        self._timing: Dict[str, List[float]] = {}
        #: perf_counter at the start of the running collection
        self._gc_started: Optional[float] = None
        #: name -> open spans of that name (re-entrancy)
        self._depth: Dict[str, int] = {}
        self._emit({"ev": "trace_start", "schema": TRACE_SCHEMA_VERSION,
                    "role": role})

    # -- spans -----------------------------------------------------------
    def span(self, name: str, kind: str = "span", **attrs: Any) -> _Span:
        self._seq += 1
        span_id = f"{self.role[0]}{self.pid:x}-{self._seq:06d}"
        parent = self._stack[-1].span_id if self._stack else None
        return _Span(self, span_id, parent, name, kind, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        record = {"ev": "point", "name": name,
                  "parent": self._stack[-1].span_id if self._stack else None}
        if attrs:
            record["attrs"] = attrs
        self._emit(record)

    def _emit(self, record: Dict[str, Any]) -> None:
        if self.sink is None:
            return
        record["pid"] = self.pid
        # Event "ts" is wall-clock on purpose: it correlates events
        # across processes and machines. Durations never come from it —
        # spans measure with perf_counter.
        record["ts"] = round(time.time(), 6)
        self.sink.write(record)

    def _add_timing(self, name: str, other: List[float]) -> None:
        stat = self._timing.get(name)
        if stat is None:
            self._timing[name] = list(other)
        else:
            stat[0] += other[0]
            stat[1] += other[1]
            stat[2] = min(stat[2], other[2])
            stat[3] = max(stat[3], other[3])
            stat[4] += other[4]
            stat[5] += other[5]

    def _fold(self, other: "Tracer") -> None:
        """Add *other*'s metrics and span timings to this tracer's."""
        self.metrics.merge(other.metrics)
        self.runtime.merge(other.runtime)
        for name, stat in other._timing.items():
            self._add_timing(name, stat)

    # -- outputs ---------------------------------------------------------
    def bench_timings(self) -> Dict[str, Dict[str, float]]:
        """Span timings in the ``BENCH_*.json`` shape (per span name)."""
        out: Dict[str, Dict[str, float]] = {}
        for name in sorted(self._timing):
            rounds, total, low, high, sum_sq, gc_s = self._timing[name]
            rounds = int(rounds)
            mean = total / rounds
            variance = max(0.0, sum_sq / rounds - mean * mean)
            out[name] = {"mean_s": mean, "min_s": low,
                         "stddev_s": math.sqrt(variance)
                         if rounds > 1 else 0.0,
                         "rounds": rounds, "gc_s": gc_s}
        return out

    def close(self) -> None:
        if self.sink is None:
            return
        # A forked child inherits the parent's tracer; its copy of the
        # handle shares the parent's file offset, so only the owning
        # process may write the closing event.
        if self.pid == os.getpid():
            self._emit({"ev": "trace_end"})
        self.sink.close()


#: the process's tracer (None = tracing off, the no-op fast path)
_TRACER: Optional[Tracer] = None


def _on_gc(phase: str, info: Dict[str, Any]) -> None:  # noqa: ARG001
    """``gc.callbacks`` hook, installed while a tracer runs: charges
    each collection's seconds to the innermost open span and counts
    ``runtime.gc.collections`` and ``runtime.gc_s``."""
    tracer = _TRACER
    if tracer is None:
        return
    if phase == "start":
        tracer._gc_started = time.perf_counter()
        return
    started = tracer._gc_started
    if started is None:
        return
    tracer._gc_started = None
    elapsed = time.perf_counter() - started
    tracer.runtime.inc("runtime.gc.collections")
    tracer.runtime.inc("runtime.gc_s", elapsed)
    if tracer._stack:
        tracer._stack[-1].gc_s += elapsed


def _set_tracer(tracer: Optional[Tracer]) -> None:
    """Make *tracer* the process tracer; the collector hook is
    installed exactly while one runs."""
    global _TRACER
    _TRACER = tracer
    hooked = _on_gc in gc.callbacks
    if tracer is not None and not hooked:
        gc.callbacks.append(_on_gc)
    elif tracer is None and hooked:
        gc.callbacks.remove(_on_gc)


def start(trace_dir: os.PathLike, role: str = "main") -> Tracer:
    """Start (or replace) the process tracer writing under *trace_dir*."""
    if _TRACER is not None:
        _TRACER.close()
    _set_tracer(Tracer(trace_dir, role=role))
    return _TRACER


def stop() -> Optional[Tracer]:
    """Stop the tracer (close the sink); returns it for inspection."""
    tracer = _TRACER
    _set_tracer(None)
    if tracer is not None:
        tracer.close()
    return tracer


def active() -> Optional[Tracer]:
    return _TRACER


def ensure_started(trace_dir: Optional[str],
                   role: str = "main") -> Optional[Tracer]:
    """Idempotent start used by ``configure`` and worker initializers.

    A tracer inherited across ``fork`` (same dir, different pid) is
    replaced — the child must not share the parent's event log handle.
    """
    if trace_dir is None:
        return _TRACER
    tracer = _TRACER
    if tracer is not None and str(tracer.trace_dir) == str(trace_dir) \
            and tracer.pid == os.getpid():
        return tracer
    return start(trace_dir, role=role)


# -- module-level helpers (no-ops when tracing is off) ---------------------
def span(name: str, kind: str = "span", **attrs: Any):
    tracer = _TRACER
    if tracer is None:
        return _NOOP_SPAN
    return tracer.span(name, kind, **attrs)


def event(name: str, **attrs: Any) -> None:
    tracer = _TRACER
    if tracer is not None:
        tracer.event(name, **attrs)


def inc(name: str, amount: int = 1) -> None:
    tracer = _TRACER
    if tracer is not None:
        tracer.metrics.inc(name, amount)


def observe(name: str, value: float,
            buckets: Optional[Sequence[float]] = None) -> None:
    tracer = _TRACER
    if tracer is not None:
        tracer.metrics.observe(name, value, buckets)


def set_gauge(name: str, value: float) -> None:
    tracer = _TRACER
    if tracer is not None:
        tracer.metrics.set_gauge(name, value)


@contextmanager
def collect() -> Iterator[Tracer]:
    """Collect the block's own metrics and span timings.

    Yields a tracer whose ``metrics`` and :meth:`Tracer.bench_timings`
    cover exactly the work done inside the block. With tracing off an
    in-memory tracer (no event log, no files) serves the block and is
    removed afterwards. With a tracer running, events still stream to
    its log, and on exit the block's metrics and timings fold into it,
    so its rollup is the same as without the block. Blocks nest: an
    outer block sees its inner blocks' work too.
    """
    block = Tracer(None)
    outer = _TRACER
    if outer is None:
        _set_tracer(block)
        try:
            yield block
        finally:
            if _TRACER is block:
                _set_tracer(None)
        return
    saved = outer.metrics, outer.runtime, outer._timing
    outer.metrics, outer.runtime, outer._timing = \
        block.metrics, block.runtime, block._timing
    try:
        yield block
    finally:
        outer.metrics, outer.runtime, outer._timing = saved
        outer._fold(block)


# ---------------------------------------------------------------------------
# Run manifests
# ---------------------------------------------------------------------------
#: manifest keys covered by the content fingerprint — everything a
#: correct rerun must reproduce; timings/git/volatile metrics are not
FINGERPRINTED_KEYS = ("schema", "label", "config", "seed", "scale",
                      "metrics", "result_fingerprint")


def git_describe(repo_dir: Optional[os.PathLike] = None) -> str:
    """``git describe --always --dirty`` of the repo, or ``unknown``."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=repo_dir or os.getcwd(), capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


def manifest_fingerprint(payload: Dict[str, Any]) -> str:
    """Content fingerprint over the deterministic manifest sections."""
    return fingerprint({key: payload.get(key)
                        for key in FINGERPRINTED_KEYS})


def build_manifest(label: str, *,
                   config: Any = None,
                   seed: Optional[int] = None,
                   scale: Optional[str] = None,
                   result_fingerprint: Optional[str] = None,
                   metrics: Optional[MetricsRegistry] = None,
                   timings: Optional[Dict[str, Dict[str, float]]] = None,
                   runtime: Optional[MetricsRegistry] = None,
                   ) -> Dict[str, Any]:
    """Assemble one run's manifest payload (fingerprint included).
    *runtime* (a tracer's :attr:`Tracer.runtime`) joins the volatile
    metrics."""
    registry = metrics if metrics is not None else MetricsRegistry()
    if runtime is not None:
        merged = MetricsRegistry()
        merged.merge(registry)
        merged.merge(runtime)
        registry = merged
    payload: Dict[str, Any] = {
        "schema": TRACE_SCHEMA_VERSION,
        "label": label,
        "config": canonicalize(config) if config is not None else None,
        "seed": seed,
        "scale": scale,
        "git": git_describe(),
        "metrics": registry.rollup(volatile=False),
        "volatile_metrics": {
            section: {name: value for name, value in mapping.items()
                      if name.startswith(VOLATILE_PREFIXES)}
            for section, mapping in registry.to_payload().items()},
        "result_fingerprint": result_fingerprint,
        "timings": dict(timings) if timings else {},
    }
    payload["fingerprint"] = manifest_fingerprint(payload)
    return payload


def write_manifest(path: os.PathLike, payload: Dict[str, Any]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_manifest(path: os.PathLike) -> Dict[str, Any]:
    """Load a manifest — or a raw ``BENCH_*.json`` timings file, which
    is normalized into a timings-only manifest so ``bench gate`` can
    consume either format."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a JSON object")
    if "schema" in payload and "label" in payload:
        return payload
    if payload and all(isinstance(v, dict) and "mean_s" in v
                       for v in payload.values()):
        # timings-only: no identity sections, so a gate against (or
        # of) a raw BENCH file checks timings and nothing else
        return {"schema": TRACE_SCHEMA_VERSION, "label": None,
                "config": None, "seed": None, "scale": None,
                "git": "unknown", "metrics": {}, "volatile_metrics": {},
                "result_fingerprint": None, "timings": payload,
                "fingerprint": None}
    raise ValueError(f"{path}: neither a run manifest nor a BENCH "
                     f"timings file")


def write_bench_json(path: os.PathLike,
                     timings: Dict[str, Dict[str, float]]) -> Path:
    """Write a ``BENCH_*.json``-shaped timings file (sorted, indented)."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(timings, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


# ---------------------------------------------------------------------------
# Manifest comparison: `repro trace diff` and `repro bench gate`
# ---------------------------------------------------------------------------
def _flatten_metrics(metrics: Dict[str, Any]) -> Dict[str, Any]:
    """``{"counters": {"a": 1}}`` -> ``{"counters.a": 1}`` (histograms
    and gauges flatten to their payload dicts)."""
    flat: Dict[str, Any] = {}
    for section, mapping in (metrics or {}).items():
        for name, value in (mapping or {}).items():
            flat[f"{section}.{name}"] = value
    return flat


def diff_manifests(golden: Dict[str, Any], candidate: Dict[str, Any],
                   tolerance_pct: float = 10.0) -> List[str]:
    """Human-readable differences; empty means the candidate passes.

    Identity sections (config, seed, scale, metrics, result
    fingerprint) must match exactly; timings shared by both manifests
    may regress by at most *tolerance_pct* percent (being faster never
    fails). Sections absent from the golden manifest — e.g. a golden
    with timings stripped — are not checked.
    """
    problems: List[str] = []
    for key in ("schema", "label", "config", "seed", "scale",
                "result_fingerprint"):
        golden_value = golden.get(key)
        if golden_value is None:
            continue
        candidate_value = candidate.get(key)
        if canonicalize(golden_value) != canonicalize(candidate_value):
            problems.append(f"{key}: expected {golden_value!r}, "
                            f"got {candidate_value!r}")

    golden_metrics = _flatten_metrics(golden.get("metrics"))
    candidate_metrics = _flatten_metrics(candidate.get("metrics"))
    if golden_metrics:
        for name in sorted(golden_metrics):
            expected = golden_metrics[name]
            got = candidate_metrics.get(name)
            if canonicalize(expected) != canonicalize(got):
                problems.append(f"metric {name}: expected {expected!r}, "
                                f"got {got!r}")
        for name in sorted(set(candidate_metrics) - set(golden_metrics)):
            problems.append(f"metric {name}: unexpected "
                            f"(value {candidate_metrics[name]!r})")

    golden_fp = golden.get("fingerprint")
    candidate_fp = candidate.get("fingerprint")
    if golden_fp and candidate_fp and golden_fp != candidate_fp:
        problems.append(f"fingerprint: expected {golden_fp}, "
                        f"got {candidate_fp}")

    golden_timings = golden.get("timings") or {}
    candidate_timings = candidate.get("timings") or {}
    allowed = 1.0 + tolerance_pct / 100.0
    for name in sorted(set(golden_timings) & set(candidate_timings)):
        base = float(golden_timings[name].get("mean_s", 0.0))
        mean = float(candidate_timings[name].get("mean_s", 0.0))
        if base > 0.0 and mean > base * allowed:
            problems.append(
                f"timing {name}: mean {mean * 1e3:.3f}ms exceeds golden "
                f"{base * 1e3:.3f}ms by more than {tolerance_pct:g}% "
                f"({100.0 * (mean / base - 1.0):+.1f}%)")
    return problems


def gate(candidate_path: os.PathLike, golden_path: os.PathLike,
         tolerance_pct: float = 10.0) -> Tuple[bool, List[str]]:
    """Gate *candidate* against *golden*; ``(ok, report lines)``."""
    golden = load_manifest(golden_path)
    candidate = load_manifest(candidate_path)
    problems = diff_manifests(golden, candidate,
                              tolerance_pct=tolerance_pct)
    lines = [f"gate: candidate {candidate_path}",
             f"gate: golden    {golden_path} "
             f"(tolerance {tolerance_pct:g}%)"]
    if problems:
        lines.append(f"gate: FAIL — {len(problems)} problem(s):")
        lines.extend(f"  - {p}" for p in problems)
    else:
        checked = []
        if golden.get("fingerprint"):
            checked.append("fingerprint")
        if golden.get("metrics"):
            checked.append("metrics")
        shared = set(golden.get("timings") or ()) \
            & set(candidate.get("timings") or ())
        if shared:
            checked.append(f"{len(shared)} timing(s)")
        lines.append("gate: OK"
                     + (f" ({', '.join(checked)} checked)" if checked
                        else ""))
    return not problems, lines


def render_manifest(payload: Dict[str, Any]) -> str:
    """Human-readable manifest summary for ``repro trace show``."""
    from repro.util.tables import AsciiTable

    lines = [f"run manifest — {payload.get('label')}"]
    for key in ("fingerprint", "result_fingerprint", "scale", "seed",
                "git", "schema"):
        value = payload.get(key)
        if value is not None:
            lines.append(f"  {key:19s}{value}")
    metrics = payload.get("metrics") or {}
    counters = dict(metrics.get("counters") or {})
    volatile = (payload.get("volatile_metrics") or {}).get("counters") or {}
    counters.update(volatile)
    if counters:
        table = AsciiTable(["counter", "value"])
        for name in sorted(counters):
            table.add_row([name, counters[name]])
        lines.append(table.render())
    histograms = metrics.get("histograms") or {}
    if histograms:
        table = AsciiTable(["histogram", "count", "mean", "min", "max"])
        for name in sorted(histograms):
            h = histograms[name]
            count = int(h.get("count", 0))
            if count:  # an empty histogram has no mean, min or max
                table.add_row([name, count,
                               f"{float(h['total']) / count:.4g}",
                               f"{h['min']:.4g}", f"{h['max']:.4g}"])
        lines.append(table.render())
    timings = payload.get("timings") or {}
    if timings:
        # a tracer's timings carry the collector's seconds per span
        # (``gc_ms``); raw BENCH timings do not
        with_gc = any("gc_s" in t for t in timings.values())
        table = AsciiTable(["span", "rounds", "total_ms", "mean_ms",
                            "min_ms"] + (["gc_ms"] if with_gc else []))
        for name in sorted(timings):
            t = timings[name]
            rounds = int(t.get("rounds", 0))
            mean_ms = 1e3 * float(t.get("mean_s", 0.0))
            row = [name, rounds, f"{rounds * mean_ms:.3f}",
                   f"{mean_ms:.3f}",
                   f"{1e3 * float(t.get('min_s', 0.0)):.3f}"]
            if with_gc:
                row.append(f"{1e3 * float(t.get('gc_s', 0.0)):.3f}")
            table.add_row(row)
        lines.append(table.render())
    return "\n".join(lines)


def read_events(trace_dir: os.PathLike) -> Iterator[Dict[str, Any]]:
    """Yield every event from every JSONL log under *trace_dir*
    (main first, then workers by filename; torn tails are skipped)."""
    for path in sorted(Path(trace_dir).glob("events*.jsonl")):
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except ValueError:
                    continue  # torn tail from a killed process
