"""The ATPG flow: random patterns with fault dropping, PODEM top-up,
pattern accounting and coverage metrics.

Phases (mirroring a commercial flow):

1. **Random phase** — blocks of packed random patterns are fault-
   simulated with dropping; a pattern is *kept* only if it is the first
   detector of at least one fault (the usual greedy selection that
   keeps random pattern counts honest).
2. **Deterministic phase** — PODEM targets each surviving fault; every
   generated cube is random-filled, batched into blocks, and fault-
   simulated against the remaining faults so one deterministic pattern
   drops many targets.
3. Optional **reverse-order static compaction**.

Coverage uses the test-coverage convention: proven-untestable and
pre-bond-untestable faults are excluded from the denominator (see
:mod:`repro.atpg.faults`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.atpg.faults import Fault, FaultKind, FaultList, build_fault_list
from repro.atpg.podem import PodemGenerator
from repro.atpg.sim import BlockDetector, CompiledCircuit
from repro.dft.testview import TestView
from repro.runtime import trace
from repro.util.errors import AtpgError, ConfigError
from repro.util.rng import DeterministicRng


@dataclass
class AtpgConfig:
    """Knobs for one ATPG run."""

    seed: int = 2019
    #: patterns per packed block
    block_width: int = 192
    max_random_blocks: int = 24
    #: stop the random phase after this many detection-free blocks
    stop_after_idle_blocks: int = 2
    backtrack_limit: int = 64
    #: cap on PODEM attempts (None = all undetected faults)
    podem_fault_limit: Optional[int] = None
    #: measure on a deterministic fault subsample (None = full universe)
    fault_sample: Optional[int] = None
    #: reverse-order static compaction of the final pattern set
    compaction: bool = False

    def __post_init__(self) -> None:
        # Bad budgets misbehave deep in the engine (empty packed blocks,
        # negative slicing, PODEM loops that never bound) — reject them
        # at construction, where the mistake is still attributable.
        if self.block_width <= 0:
            raise ConfigError(
                f"block_width must be positive, got {self.block_width}")
        if self.max_random_blocks < 0:
            raise ConfigError(f"max_random_blocks must be >= 0, "
                              f"got {self.max_random_blocks}")
        if self.stop_after_idle_blocks < 0:
            raise ConfigError(f"stop_after_idle_blocks must be >= 0, "
                              f"got {self.stop_after_idle_blocks}")
        if self.backtrack_limit < 0:
            raise ConfigError(f"backtrack_limit must be >= 0, "
                              f"got {self.backtrack_limit}")
        if self.podem_fault_limit is not None and self.podem_fault_limit < 0:
            raise ConfigError(f"podem_fault_limit must be >= 0 or None, "
                              f"got {self.podem_fault_limit}")
        if self.fault_sample is not None and self.fault_sample <= 0:
            raise ConfigError(f"fault_sample must be positive or None, "
                              f"got {self.fault_sample}")


@dataclass
class AtpgResult:
    """Outcome of one ATPG run."""

    total_faults: int
    detected: int
    proven_untestable: int
    aborted: int
    pattern_count: int
    random_patterns: int
    deterministic_patterns: int
    prebond_untestable: int
    #: each pattern is an int whose bit *j* is input column *j*
    patterns: List[int] = field(default_factory=list)

    @property
    def undetected(self) -> int:
        return self.total_faults - self.detected - self.proven_untestable

    @property
    def coverage(self) -> float:
        """Test coverage: detected / (total - proven untestable)."""
        denominator = self.total_faults - self.proven_untestable
        return self.detected / denominator if denominator else 1.0

    @property
    def raw_coverage(self) -> float:
        """Fault coverage over the full (collapsed) universe."""
        return self.detected / self.total_faults if self.total_faults else 1.0


# Fault status codes.
_ACTIVE, _DETECTED, _UNTESTABLE, _ABORTED = 0, 1, 2, 3


class _FaultDispatcher:
    """Pre-resolved simulation ops for each fault."""

    def __init__(self, circuit: CompiledCircuit, faults: Sequence[Fault]) -> None:
        self.ops: List[Tuple] = []
        for fault in faults:
            net_id = circuit.net_ids.get(fault.net)
            if net_id is None:
                raise AtpgError(f"fault site net {fault.net!r} not in circuit")
            value = int(fault.polarity)
            if fault.kind is FaultKind.STEM:
                self.ops.append(("s", net_id, value))
            elif fault.kind is FaultKind.OBS_BRANCH:
                self.ops.append(("o", net_id, value))
            else:
                gate_index = circuit.gate_index_by_name.get(fault.owner)
                if gate_index is None:
                    raise AtpgError(f"branch gate {fault.owner!r} not compiled")
                gate = circuit.gates[gate_index]
                positions = [k for k, nid in enumerate(gate.ins)
                             if nid == net_id]
                if not positions:
                    raise AtpgError(
                        f"branch pin {fault.owner}.{fault.pin} not on net "
                        f"{fault.net}"
                    )
                self.ops.append(("b", gate_index, positions[0], value))

    def detect_many(self, circuit: CompiledCircuit, good: List[int],
                    indices: Sequence[int], mask: int) -> List[int]:
        """Detection words of the faults *indices* over one block, in
        order, from one :class:`BlockDetector` they all share."""
        detector = BlockDetector(circuit, good, mask)
        stem, branch = detector.stem, detector.branch
        observation = detector.observation
        words: List[int] = []
        for index in indices:
            op = self.ops[index]
            if op[0] == "s":
                words.append(stem(op[1], op[2]))
            elif op[0] == "o":
                words.append(observation(op[1], op[2]))
            else:
                words.append(branch(op[1], op[2], op[3]))
        return words

    def detect_word(self, circuit: CompiledCircuit, good: List[int],
                    index: int, mask: int) -> int:
        """Detection word of one fault (a one-fault :meth:`detect_many`)."""
        return self.detect_many(circuit, good, (index,), mask)[0]


def _patterns_to_words(patterns: Sequence[int], column_count: int
                       ) -> List[int]:
    """Transpose pattern ints (bit j = column j) into per-column words."""
    words = [0] * column_count
    for k, pattern in enumerate(patterns):
        bit = 1 << k
        p = pattern
        j = 0
        while p:
            if p & 1:
                words[j] |= bit
            p >>= 1
            j += 1
    return words


class AtpgEngine:
    """One ATPG session over a test view."""

    def __init__(self, view: TestView, config: Optional[AtpgConfig] = None,
                 fault_list: Optional[FaultList] = None) -> None:
        self.view = view
        self.config = config or AtpgConfig()
        self.circuit = CompiledCircuit(view)
        faults = fault_list or build_fault_list(view)
        if self.config.fault_sample is not None:
            faults = faults.sample(self.config.fault_sample, self.config.seed)
        self.fault_list = faults
        self.dispatcher = _FaultDispatcher(self.circuit, faults.faults)
        self.rng = DeterministicRng(self.config.seed).child(
            "atpg", view.netlist.name)

    # ------------------------------------------------------------------
    def _detect_many(self, good: List[int], active: Sequence[int],
                     mask: int) -> List[int]:
        """Detection words for the *active* fault indices, in order."""
        return self.dispatcher.detect_many(self.circuit, good, active, mask)

    # ------------------------------------------------------------------
    def run(self) -> AtpgResult:
        config, circuit = self.config, self.circuit
        faults = self.fault_list.faults
        status = [_ACTIVE] * len(faults)
        mask = (1 << config.block_width) - 1
        columns = circuit.input_count

        kept_patterns: List[int] = []
        random_kept = 0
        # One preallocated values buffer serves every block of the run:
        # each phase finishes with a block's good-machine values before
        # simulating the next, so reuse is byte-identical to fresh lists.
        good_buffer = circuit.make_buffer()

        # ---- phase 1: random blocks with dropping ----------------------
        with trace.span("atpg.random", kind="phase"):
            idle = 0
            for _block in range(config.max_random_blocks):
                active = [i for i, s in enumerate(status) if s == _ACTIVE]
                if not active:
                    break
                trace.inc("atpg.random_blocks")
                input_words = [self.rng.getrandbits(config.block_width)
                               for _ in range(columns)]
                good = circuit.simulate(input_words, mask, out=good_buffer)
                first_detector: Dict[int, int] = {}  # pattern k -> #faults
                dets = self._detect_many(good, active, mask)
                for fault_index, det in zip(active, dets):
                    if det:
                        status[fault_index] = _DETECTED
                        k = (det & -det).bit_length() - 1
                        first_detector[k] = first_detector.get(k, 0) + 1
                if not first_detector:
                    idle += 1
                    if idle >= config.stop_after_idle_blocks:
                        break
                    continue
                idle = 0
                for k in sorted(first_detector):
                    pattern = 0
                    for j in range(columns):
                        if (input_words[j] >> k) & 1:
                            pattern |= (1 << j)
                    kept_patterns.append(pattern)
                    random_kept += 1
        trace.inc("atpg.random_patterns", random_kept)

        # ---- phase 2: PODEM top-up -------------------------------------
        generator = PodemGenerator(circuit, config.backtrack_limit)
        deterministic_kept = 0
        batch: List[int] = []
        batch_targets: List[int] = []

        def flush_batch() -> None:
            nonlocal deterministic_kept
            if not batch:
                return
            words = _patterns_to_words(batch, columns)
            batch_mask = (1 << len(batch)) - 1
            good = circuit.simulate(words, batch_mask, out=good_buffer)
            useful = set()
            active = [i for i, s in enumerate(status) if s == _ACTIVE]
            dets = self._detect_many(good, active, batch_mask)
            for fault_index, det in zip(active, dets):
                if det:
                    status[fault_index] = _DETECTED
                    useful.add((det & -det).bit_length() - 1)
            # Targeted faults were verified by construction; keep their
            # patterns even if the batch resim attributes them elsewhere.
            useful.update(
                k for k, target in enumerate(batch_targets)
                if status[target] == _DETECTED
            )
            for k in sorted(useful):
                kept_patterns.append(batch[k])
                deterministic_kept += 1
            batch.clear()
            batch_targets.clear()

        podem_budget = config.podem_fault_limit
        attempts = 0
        with trace.span("atpg.podem", kind="phase"):
            for fault_index, fault in enumerate(faults):
                if status[fault_index] != _ACTIVE:
                    continue
                if podem_budget is not None and attempts >= podem_budget:
                    break
                attempts += 1
                outcome = generator.run(fault)
                trace.inc("atpg.podem_attempts")
                trace.inc("atpg.podem_backtracks", outcome.backtracks)
                if outcome.status == "untestable":
                    status[fault_index] = _UNTESTABLE
                elif outcome.status == "aborted":
                    status[fault_index] = _ABORTED
                else:
                    pattern = 0
                    for j, nid in enumerate(circuit.input_columns):
                        if nid in outcome.assignment:
                            bit = outcome.assignment[nid]
                        else:
                            bit = self.rng.randint(0, 1)
                        if bit:
                            pattern |= (1 << j)
                    batch.append(pattern)
                    batch_targets.append(fault_index)
                    # Marked on PODEM's verdict (the `podem` verify check
                    # is its oracle); the flush re-simulates only the
                    # faults still active.
                    status[fault_index] = _DETECTED
                    if len(batch) >= config.block_width:
                        status[fault_index] = _ACTIVE
                        flush_batch()
            flush_batch()
        trace.inc("atpg.deterministic_patterns", deterministic_kept)

        # ---- phase 3: optional reverse-order compaction ------------------
        if config.compaction and kept_patterns:
            with trace.span("atpg.compaction", kind="phase"):
                kept_patterns = self._compact(kept_patterns)

        detected = sum(1 for s in status if s == _DETECTED)
        untestable = sum(1 for s in status if s == _UNTESTABLE)
        aborted = sum(1 for s in status if s == _ABORTED)
        return AtpgResult(
            total_faults=len(faults),
            detected=detected,
            proven_untestable=untestable,
            aborted=aborted,
            pattern_count=len(kept_patterns),
            random_patterns=random_kept,
            deterministic_patterns=deterministic_kept,
            prebond_untestable=self.fault_list.prebond_untestable,
            patterns=kept_patterns,
        )

    # ------------------------------------------------------------------
    def _compact(self, patterns: List[int]) -> List[int]:
        """Reverse-order static compaction: re-simulate in reverse and
        keep only patterns that first-detect some fault."""
        config, circuit = self.config, self.circuit
        status = [_ACTIVE] * len(self.fault_list.faults)
        keep: List[int] = []
        reverse = list(reversed(patterns))
        width = config.block_width
        good_buffer = circuit.make_buffer()
        for start in range(0, len(reverse), width):
            chunk = reverse[start:start + width]
            words = _patterns_to_words(chunk, circuit.input_count)
            chunk_mask = (1 << len(chunk)) - 1
            good = circuit.simulate(words, chunk_mask, out=good_buffer)
            useful = set()
            active = [i for i, s in enumerate(status) if s == _ACTIVE]
            dets = self._detect_many(good, active, chunk_mask)
            for fault_index, det in zip(active, dets):
                if det:
                    status[fault_index] = _DETECTED
                    useful.add((det & -det).bit_length() - 1)
            for k in sorted(useful):
                keep.append(chunk[k])
        keep.reverse()
        return keep


def run_stuck_at_atpg(view: TestView, config: Optional[AtpgConfig] = None,
                      fault_list: Optional[FaultList] = None) -> AtpgResult:
    """Convenience wrapper: one stuck-at ATPG run over *view*."""
    return AtpgEngine(view, config, fault_list).run()
