"""Deterministic, supervised parallel experiment runtime.

Four orthogonal capabilities behind one import:

* :mod:`repro.runtime.supervisor` — ordered, supervised per-cell
  execution with per-cell seed derivation (serial ≡ parallel), crash
  isolation, wall-clock timeouts, bounded same-seed retry and
  checkpoint/resume (every cell comes back as a
  :class:`~repro.runtime.supervisor.CellOutcome`; a strict policy
  raises on the first terminal failure instead),
* :mod:`repro.runtime.cache` — content-addressed on-disk cache of WCM
  flow summaries and ATPG results, with corrupt-entry quarantine,
* :mod:`repro.runtime.chaos` — deterministic fault injection (worker
  crashes, cell hangs, malformed netlists, cache corruption) used to
  validate the failure semantics above,
* :mod:`repro.runtime.trace` — the one observability API: phase spans
  and work counters threaded through the flow, partitioner, STA and
  ATPG engine, streamed to JSONL event logs, a metrics registry
  (counters/gauges/histograms) with order-independent rollups, a
  scoped ``collect()`` for per-block views, and content-fingerprinted
  run manifests consumed by ``repro trace show|diff`` and ``repro
  bench gate``.

Configuration (worker count, cache directory) lives in
:mod:`repro.runtime.config` and is set once per process by the CLI or
environment variables.

This ``__init__`` deliberately imports only the dependency-light
modules; :mod:`repro.runtime.cache` imports the flow/ATPG types it
serializes, which in turn import this package (for
:mod:`repro.runtime.trace`) — importing the cache eagerly here would
make that cycle real. Cache names are re-exported lazily via module
``__getattr__``.
"""

from repro.runtime import trace
from repro.runtime.chaos import ChaosPlan, ChaosSpec
from repro.runtime.config import (
    RuntimeConfig,
    configure,
    current_config,
    resolve_jobs,
)
from repro.runtime.supervisor import (
    CellOutcome,
    SupervisorPolicy,
    SweepResult,
    cell_seed,
    supervised_map,
)

_CACHE_EXPORTS = (
    "CACHE_SCHEMA_VERSION",
    "ResultCache",
    "WcmSummary",
    "active_cache",
    "atpg_cache_key",
    "atpg_result_from_payload",
    "atpg_result_to_payload",
    "wcm_cache_key",
)

__all__ = [
    "CellOutcome",
    "ChaosPlan",
    "ChaosSpec",
    "RuntimeConfig",
    "SupervisorPolicy",
    "SweepResult",
    "cell_seed",
    "configure",
    "current_config",
    "resolve_jobs",
    "supervised_map",
    "trace",
    *_CACHE_EXPORTS,
]


def __getattr__(name: str):
    if name in _CACHE_EXPORTS:
        from repro.runtime import cache
        return getattr(cache, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
