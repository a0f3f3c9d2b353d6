"""Deterministic ordered map over experiment cells (legacy strict API).

The experiment matrix is embarrassingly parallel: every (die, method,
scenario) cell is an independent computation. :func:`parallel_map`
fans cells out over worker processes and collects results **in
submission order**, so a driver's table is byte-identical whether it
ran on one worker or sixteen.

Since the supervised runtime landed, this module is a thin strict
facade over :func:`repro.runtime.supervisor.supervised_map`: the same
worker management, per-cell reseeding and (when configured) timeouts
and retries — but any cell that terminally fails raises
:class:`~repro.util.errors.RuntimeExecutionError` instead of coming
back as a marked outcome. Drivers that want partial results use
``supervised_map`` directly. Tracing (spans per sweep and per cell,
worker metric ship-back) is inherited from the supervised layer — a
``parallel_map`` under an active tracer emits the same event shapes
as a supervised sweep.

Determinism contract:

* results come back ordered, never in completion order;
* before each cell — in the serial path *and* in workers — the global
  ``random`` module is re-seeded from
  :func:`~repro.runtime.supervisor.cell_seed` of the root seed and the
  cell index, so even a stray library call into global ``random`` draws
  from a per-cell deterministic stream instead of whatever state the
  previous cell left behind;
* workers inherit the parent's runtime config (cache directory) but
  are pinned to ``jobs=1`` — no nested pools.

Workers must be given a module-level function and picklable cells.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, List, Optional, TypeVar

from repro.runtime.supervisor import (  # noqa: F401 (cell_seed re-export)
    SupervisorPolicy,
    cell_seed,
    supervised_map,
)

Cell = TypeVar("Cell")
Result = TypeVar("Result")


def parallel_map(fn: Callable[[Cell], Result], cells: Iterable[Cell],
                 jobs: Optional[int] = None, seed: int = 0
                 ) -> List[Result]:
    """Map *fn* over *cells*, in order, on ``jobs`` worker processes.

    ``jobs`` falls back to the runtime config (default 1 = serial,
    in-process). The serial path applies the same per-cell reseeding as
    the workers, so serial and parallel runs are interchangeable.
    Raises on the first terminal cell failure (strict semantics);
    checkpointing is the supervised drivers' concern, not this map's.
    """
    policy = dataclasses.replace(SupervisorPolicy.from_config(),
                                 strict=True, checkpoint_dir=None)
    sweep = supervised_map(fn, cells, jobs=jobs, seed=seed,
                           label="parallel_map", policy=policy)
    return sweep.results_or_raise()
