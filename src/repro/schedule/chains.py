"""Wrapper scan-chain design: (TAM width x test time) staircases.

The WCM flow decides *how many* wrapper cells a die carries; this
module decides how those cells plus the die's internal scan chains are
stitched into ``w`` balanced wrapper scan chains for a TAM of width
``w`` — the classic wrapper-design half of wrapper/TAM co-optimization
(arXiv 1008.3320, 1008.4448).

The model is deliberately small and exact:

* an **internal scan chain** is atomic (re-stitching functional chains
  per TAM width is not free on silicon), with an integer length,
* every **wrapper cell** (dedicated cell or reused-FF wrapper stage)
  is a single scan bit, freely assignable,
* the per-width test time is the standard scan formula
  ``T(w) = (1 + max_chain_length) * patterns + max_chain_length``
  (scan-in and scan-out share the same chains, one extra shift to
  flush the last response).

The designer is LPT list scheduling on ``w`` identical machines:
internal chains first (longest first), then the unit wrapper cells
water-filled one at a time onto the least-loaded chain. Every job is
placed longest-first (the units are never longer than any chain), so
Graham's bound applies: the realized ``max_chain_length`` is within
``4/3 - 1/(3w)`` of optimal — ``repro.schedule.oracle`` holds the
designer to exactly that bound, and the water-fill makes the staircase
*provably* monotone in the wrapper-cell count: fewer cells (the WCM
win) can never test slower at equal width and patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.util.errors import ConfigError
from repro.util.fingerprint import fingerprint


@dataclass(frozen=True)
class DieTestModel:
    """Everything the scheduler needs to know about one die.

    ``internal_chains`` are the die's functional scan-chain lengths
    (atomic); ``wrapper_cells`` counts single-bit wrapper stages (the
    WCM plan's additional cells, or every TSV for the dedicated
    baseline); ``patterns`` is the scan pattern count the die needs.
    """

    name: str
    internal_chains: Tuple[int, ...]
    wrapper_cells: int
    patterns: int

    def __post_init__(self) -> None:
        if any(length < 1 for length in self.internal_chains):
            raise ConfigError(f"{self.name}: internal chain lengths must "
                              f"be >= 1, got {self.internal_chains}")
        if self.wrapper_cells < 0:
            raise ConfigError(f"{self.name}: negative wrapper cell count")
        if self.patterns < 1:
            raise ConfigError(f"{self.name}: patterns must be >= 1, got "
                              f"{self.patterns}")


def balanced_chain_lengths(ffs: int, chains: int) -> Tuple[int, ...]:
    """Internal chain lengths for *ffs* scan FFs stitched into *chains*
    chains, mirroring ``stitch_scan_chains``' ceil split (every chain
    gets ``ceil(ffs / chains)`` FFs except a shorter last one)."""
    if ffs < 0:
        raise ConfigError(f"negative FF count {ffs}")
    if ffs == 0:
        return ()
    chains = max(1, min(chains, ffs))
    per_chain = -(-ffs // chains)
    lengths: List[int] = []
    taken = 0
    while taken < ffs:
        lengths.append(min(per_chain, ffs - taken))
        taken += per_chain
    return tuple(lengths)


def internal_chain_count(ffs: int) -> int:
    """Default chain-count policy for the experiment driver: one chain
    per ~16 scan FFs, capped at 4 (the ITC'99 dies are small)."""
    return max(1, min(4, -(-ffs // 16)))


def _fill_target(loads: Sequence[int]) -> int:
    """Index of the least-loaded wrapper chain (lowest index on ties).

    Module-level so the mutation-kill self-check can break the
    water-fill in one place (``schedule-fill-longest``).
    """
    return min(range(len(loads)), key=lambda index: (loads[index], index))


def _unit_ids(model: DieTestModel) -> List[str]:
    """Element ids of the single-bit wrapper cells, ``wc0..wcN-1``.

    Module-level seam for the ``schedule-chain-drop`` mutant: the
    cover check must notice a designer that loses a cell.
    """
    return [f"wc{index}" for index in range(model.wrapper_cells)]


@dataclass(frozen=True)
class WrapperChainPlan:
    """One die's wrapper chains at one TAM width.

    ``chains[i]`` holds element ids: ``icK`` = internal chain *K* of
    the model (atomic, length ``internal_chains[K]``), ``wcK`` = one
    wrapper cell bit. ``lengths[i]`` is chain *i*'s total bit count.
    """

    die: str
    width: int
    chains: Tuple[Tuple[str, ...], ...]
    lengths: Tuple[int, ...]

    @property
    def max_length(self) -> int:
        return max(self.lengths) if self.lengths else 0


def design_wrapper(model: DieTestModel, width: int) -> WrapperChainPlan:
    """Partition the die's scan elements into *width* wrapper chains.

    LPT: internal chains descending by length onto the least-loaded
    chain, then wrapper-cell bits water-filled one at a time. The
    internal-chain placement never looks at ``wrapper_cells``, which is
    what makes the staircase monotone in the cell count.
    """
    if width < 1:
        raise ConfigError(f"TAM width must be >= 1, got {width}")
    bins: List[List[str]] = [[] for _ in range(width)]
    loads = [0] * width
    order = sorted(range(len(model.internal_chains)),
                   key=lambda i: (-model.internal_chains[i], i))
    for index in order:
        target = _fill_target(loads)
        bins[target].append(f"ic{index}")
        loads[target] += model.internal_chains[index]
    for unit in _unit_ids(model):
        target = _fill_target(loads)
        bins[target].append(unit)
        loads[target] += 1
    return WrapperChainPlan(die=model.name, width=width,
                            chains=tuple(tuple(b) for b in bins),
                            lengths=tuple(loads))


def chain_test_time(max_length: int, patterns: int) -> int:
    """Scan test time in cycles: ``(1 + L) * p + L`` for the longest
    wrapper chain ``L`` (scan-in overlapped with scan-out of the
    previous pattern; one trailing flush)."""
    return (1 + max_length) * patterns + max_length


@dataclass(frozen=True)
class WidthTimePoint:
    """Test time of one die at one TAM width.

    ``used_width`` is the width of the configuration actually realizing
    ``time`` — a die offered ``w`` lanes may do no better than its
    best narrower design, in which case the extra lanes are wasted and
    ``used_width < width``.
    """

    width: int
    time: int
    used_width: int
    max_length: int


def staircase(model: DieTestModel, max_width: int
              ) -> Tuple[WidthTimePoint, ...]:
    """Per-width test-time points for widths ``1..max_width``.

    Monotone non-increasing *by construction*: the point at width ``w``
    is the best design over all widths ``<= w`` (a die given ``w``
    lanes can always use fewer), so widening never hurts even if the
    greedy designer happens to stumble at some exact width.
    """
    if max_width < 1:
        raise ConfigError(f"max TAM width must be >= 1, got {max_width}")
    points: List[WidthTimePoint] = []
    best_time = None
    best_length = 0
    best_width = 1
    for width in range(1, max_width + 1):
        plan = design_wrapper(model, width)
        time = chain_test_time(plan.max_length, model.patterns)
        if best_time is None or time < best_time:
            best_time, best_length, best_width = time, plan.max_length, width
        points.append(WidthTimePoint(width=width, time=best_time,
                                     used_width=best_width,
                                     max_length=best_length))
    return tuple(points)


def pareto_points(points: Sequence[WidthTimePoint]
                  ) -> Tuple[WidthTimePoint, ...]:
    """The staircase's corners: widths that strictly improve on every
    narrower design. Corner points satisfy ``used_width == width``, so
    they are exactly the (width, time) rectangles worth packing."""
    corners: List[WidthTimePoint] = []
    for point in points:
        if not corners or point.time < corners[-1].time:
            corners.append(point)
    return tuple(corners)


def staircase_fingerprint(model: DieTestModel, max_width: int) -> str:
    """Content fingerprint of one die's staircase (determinism tests)."""
    return fingerprint([
        {"width": p.width, "time": p.time, "used_width": p.used_width,
         "max_length": p.max_length}
        for p in staircase(model, max_width)
    ])
