"""Process-wide runtime configuration: workers, cache, supervision.

One small mutable singleton, set once per process (from CLI flags, the
benchmark harness, or environment variables) and read by the parallel
map, the supervisor and the result cache:

* ``jobs`` — worker processes for
  :func:`repro.runtime.supervisor.supervised_map`, which the experiment
  drivers run their sweeps on (``1`` = serial, the default;
  ``0``/``None`` = one per CPU),
* ``cache_dir`` — root of the on-disk result cache (``None`` disables),
* ``no_cache`` — hard override disabling the cache even when a
  directory is configured,
* ``timeout_s`` — wall-clock budget per experiment cell; a cell past
  its budget is killed and marked ``timeout`` (``None`` = unlimited),
* ``retries`` — how many times a failed/crashed/timed-out cell is
  re-attempted (with the same derived seed) before it counts as failed,
* ``strict`` — fail the sweep fast on the first terminal cell failure
  instead of completing with the cell marked failed,
* ``checkpoint_dir`` — directory of sweep checkpoint files; completed
  cells are journaled there so an interrupted sweep resumes from them,
* ``trace_dir`` — root of the structured trace output (JSONL event
  logs, run manifests); setting it starts the process tracer
  (:mod:`repro.runtime.trace`) and worker processes adopt it too,
* ``chaos`` — an optional :class:`repro.runtime.chaos.ChaosPlan` of
  deterministic fault injections (set programmatically by the chaos
  harness, or via ``REPRO_CHAOS`` as JSON).

Environment fallbacks (read when :func:`configure` is not given an
explicit value): ``REPRO_JOBS``, ``REPRO_CACHE_DIR``,
``REPRO_NO_CACHE=1``, ``REPRO_TIMEOUT`` (seconds; ``0`` disables),
``REPRO_RETRIES``, ``REPRO_STRICT=1``, ``REPRO_CHECKPOINT_DIR``,
``REPRO_TRACE_DIR`` and ``REPRO_CHAOS`` (JSON, see
:func:`repro.runtime.chaos.plan_from_json`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Optional

from repro.util.errors import ConfigError


@dataclass
class RuntimeConfig:
    """Mutable per-process runtime settings."""

    jobs: int = 1
    cache_dir: Optional[str] = None
    no_cache: bool = False
    timeout_s: Optional[float] = None
    retries: int = 0
    strict: bool = False
    checkpoint_dir: Optional[str] = None
    trace_dir: Optional[str] = None
    #: deterministic fault-injection plan (ChaosPlan), tests/CI only
    chaos: Optional[Any] = None


_CONFIG = RuntimeConfig()


def _env_jobs() -> Optional[int]:
    raw = os.environ.get("REPRO_JOBS")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"REPRO_JOBS must be an integer, got {raw!r}"
                          ) from None


def _env_timeout() -> Optional[float]:
    raw = os.environ.get("REPRO_TIMEOUT")
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"REPRO_TIMEOUT must be a number of seconds, "
                          f"got {raw!r}") from None


def _env_retries() -> Optional[int]:
    raw = os.environ.get("REPRO_RETRIES")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"REPRO_RETRIES must be an integer, got {raw!r}"
                          ) from None


def _env_chaos() -> Optional[Any]:
    raw = os.environ.get("REPRO_CHAOS")
    if raw is None:
        return None
    from repro.runtime.chaos import plan_from_json
    return plan_from_json(raw)


def configure(jobs: Optional[int] = None,
              cache_dir: Optional[str] = None,
              no_cache: Optional[bool] = None,
              timeout_s: Optional[float] = None,
              retries: Optional[int] = None,
              strict: Optional[bool] = None,
              checkpoint_dir: Optional[str] = None,
              trace_dir: Optional[str] = None,
              chaos: Optional[Any] = None,
              backend: Optional[str] = None) -> RuntimeConfig:
    """Update the per-process runtime config; omitted arguments fall
    back to the environment, then to the current values.

    *backend* is checked and then ignored: each kernel has one
    implementation, and the argument stays only because the end-to-end
    benchmark passes it (DESIGN.md §11).
    """
    if jobs is None:
        jobs = _env_jobs()
    if jobs is not None:
        if jobs < 0:
            raise ConfigError(f"jobs must be >= 0, got {jobs}")
        _CONFIG.jobs = jobs or (os.cpu_count() or 1)
    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR")
    if cache_dir is not None:
        _CONFIG.cache_dir = cache_dir
    if no_cache is None and os.environ.get("REPRO_NO_CACHE") == "1":
        no_cache = True
    if no_cache is not None:
        _CONFIG.no_cache = no_cache
    if timeout_s is None:
        timeout_s = _env_timeout()
    if timeout_s is not None:
        if timeout_s < 0:
            raise ConfigError(f"timeout must be >= 0 seconds, "
                              f"got {timeout_s}")
        # 0 explicitly switches the per-cell budget off
        _CONFIG.timeout_s = timeout_s or None
    if retries is None:
        retries = _env_retries()
    if retries is not None:
        if retries < 0:
            raise ConfigError(f"retries must be >= 0, got {retries}")
        _CONFIG.retries = retries
    if strict is None and os.environ.get("REPRO_STRICT") == "1":
        strict = True
    if strict is not None:
        _CONFIG.strict = strict
    if checkpoint_dir is None:
        checkpoint_dir = os.environ.get("REPRO_CHECKPOINT_DIR")
    if checkpoint_dir is not None:
        _CONFIG.checkpoint_dir = checkpoint_dir
    if trace_dir is None:
        trace_dir = os.environ.get("REPRO_TRACE_DIR")
    if trace_dir is not None:
        _CONFIG.trace_dir = trace_dir
        from repro.runtime import trace
        trace.ensure_started(trace_dir)
    if chaos is None:
        chaos = _env_chaos()
    if chaos is not None:
        _CONFIG.chaos = chaos
    if backend is not None and backend not in ("python", "numpy"):
        raise ConfigError(f"unknown backend {backend!r} "
                          f"(choose from python, numpy)")
    return _CONFIG


def current_config() -> RuntimeConfig:
    return _CONFIG


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Effective worker count: explicit argument > configured value."""
    if jobs is None:
        return max(1, _CONFIG.jobs)
    if jobs < 0:
        raise ConfigError(f"jobs must be >= 0, got {jobs}")
    return jobs or (os.cpu_count() or 1)


def apply_config(config: RuntimeConfig) -> None:
    """Adopt *config* wholesale (used by worker-process initializers).

    Workers always run serially (``jobs=1``) — nested pools would
    oversubscribe the machine without changing any result — and never
    supervise sub-sweeps of their own, so the supervision fields are
    carried only for completeness.
    """
    _CONFIG.jobs = 1
    _CONFIG.cache_dir = config.cache_dir
    _CONFIG.no_cache = config.no_cache
    _CONFIG.timeout_s = config.timeout_s
    _CONFIG.retries = config.retries
    _CONFIG.strict = config.strict
    _CONFIG.checkpoint_dir = config.checkpoint_dir
    _CONFIG.trace_dir = config.trace_dir
    _CONFIG.chaos = config.chaos
    if config.trace_dir:
        from repro.runtime import trace
        trace.ensure_started(config.trace_dir, role="worker")
