"""Transition-delay fault ATPG (two-pattern tests).

A slow-to-rise (STR) fault at a net needs a launch pattern V1 setting
the net to 0 and a capture pattern V2 that would set it to 1 and
propagates the resulting stuck-at-0 behaviour to an observation point;
slow-to-fall (STF) is the dual. Tests are pattern *pairs*; the pattern
count reported is the number of pairs, matching how the paper's tables
count transition patterns.

Pairs are independent (launch-off-shift style); see DESIGN.md §9 for
why launch-on-capture fidelity buys nothing on synthetic substrates.
The machinery reuses the stuck-at engine's packed simulation: the
faulty machine in cycle 2 is exactly a stuck-at-initial-value machine,
gated by the cycle-1 launch condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.atpg.engine import AtpgConfig, AtpgResult, _patterns_to_words
from repro.atpg.faults import Fault, FaultKind, Polarity, build_fault_list
from repro.atpg.podem import PodemGenerator
from repro.atpg.sim import BlockDetector, CompiledCircuit
from repro.dft.testview import TestView
from repro.util.rng import DeterministicRng

_ACTIVE, _DETECTED, _UNTESTABLE, _ABORTED = 0, 1, 2, 3


@dataclass(frozen=True)
class TransitionFault:
    """A slow-to-rise/fall fault at a stem."""

    net: str
    slow_to_rise: bool  # False = slow-to-fall

    @property
    def initial_value(self) -> int:
        """Value the net is stuck near during the capture cycle."""
        return 0 if self.slow_to_rise else 1


def build_transition_faults(view: TestView) -> List[TransitionFault]:
    """Transition universe: STR/STF at every stuck-at stem site."""
    stuck = build_fault_list(view, include_branches=False)
    nets = sorted({f.net for f in stuck.faults if f.kind is FaultKind.STEM})
    faults: List[TransitionFault] = []
    for net in nets:
        faults.append(TransitionFault(net=net, slow_to_rise=True))
        faults.append(TransitionFault(net=net, slow_to_rise=False))
    return faults


def run_transition_atpg(view: TestView, config: Optional[AtpgConfig] = None
                        ) -> AtpgResult:
    """Two-pattern transition ATPG over *view*."""
    config = config or AtpgConfig()
    circuit = CompiledCircuit(view)
    faults = build_transition_faults(view)
    if config.fault_sample is not None and config.fault_sample < len(faults):
        rng = DeterministicRng(config.seed).child("tf_sample")
        faults = rng.sample(faults, config.fault_sample)

    net_ids = [circuit.net_ids[f.net] for f in faults]
    status = [_ACTIVE] * len(faults)
    rng = DeterministicRng(config.seed).child("tf", view.netlist.name)
    mask = (1 << config.block_width) - 1
    columns = circuit.input_count

    kept_pairs: List[Tuple[int, int]] = []
    random_kept = 0

    # ---- phase 1: random pattern pairs --------------------------------
    # Launch and capture values live side by side, so the run reuses two
    # preallocated buffers (one per cycle) across blocks.
    launch_buffer = circuit.make_buffer()
    capture_buffer = circuit.make_buffer()
    idle = 0
    for _block in range(config.max_random_blocks):
        active = [i for i, s in enumerate(status) if s == _ACTIVE]
        if not active:
            break
        words1 = [rng.getrandbits(config.block_width) for _ in range(columns)]
        words2 = [rng.getrandbits(config.block_width) for _ in range(columns)]
        good1 = circuit.simulate(words1, mask, out=launch_buffer)
        good2 = circuit.simulate(words2, mask, out=capture_buffer)
        detector = BlockDetector(circuit, good2, mask)
        first_detector: Dict[int, int] = {}
        for index in active:
            fault = faults[index]
            nid = net_ids[index]
            launch = (~good1[nid] & mask) if fault.slow_to_rise \
                else (good1[nid] & mask)
            if not launch:
                continue
            det = detector.stem(nid, fault.initial_value, launch)
            if det:
                status[index] = _DETECTED
                k = (det & -det).bit_length() - 1
                first_detector[k] = first_detector.get(k, 0) + 1
        if not first_detector:
            idle += 1
            if idle >= config.stop_after_idle_blocks:
                break
            continue
        idle = 0
        for k in sorted(first_detector):
            p1 = sum(((words1[j] >> k) & 1) << j for j in range(columns))
            p2 = sum(((words2[j] >> k) & 1) << j for j in range(columns))
            kept_pairs.append((p1, p2))
            random_kept += 1

    # ---- phase 2: deterministic top-up ---------------------------------
    generator = PodemGenerator(circuit, config.backtrack_limit)
    deterministic_kept = 0
    attempts = 0
    for index, fault in enumerate(faults):
        if status[index] != _ACTIVE:
            continue
        if config.podem_fault_limit is not None \
                and attempts >= config.podem_fault_limit:
            break
        attempts += 1
        nid = net_ids[index]
        initial = fault.initial_value
        # V2: detect stuck-at-initial at the stem.
        capture = generator.run(Fault(
            kind=FaultKind.STEM,
            polarity=Polarity.SA0 if initial == 0 else Polarity.SA1,
            net=fault.net,
        ))
        if capture.status == "untestable":
            status[index] = _UNTESTABLE
            continue
        if capture.status == "aborted":
            status[index] = _ABORTED
            continue
        # V1: justify the initial value on the stem.
        launch = generator.justify(nid, initial)
        if launch.status == "untestable":
            status[index] = _UNTESTABLE
            continue
        if launch.status == "aborted":
            status[index] = _ABORTED
            continue

        def fill(assignment: Dict[int, int]) -> int:
            pattern = 0
            for j, column_net in enumerate(circuit.input_columns):
                bit = assignment.get(column_net, None)
                if bit is None:
                    bit = rng.randint(0, 1)
                if bit:
                    pattern |= (1 << j)
            return pattern

        kept_pairs.append((fill(launch.assignment), fill(capture.assignment)))
        deterministic_kept += 1
        status[index] = _DETECTED

        # Drop other faults with this pair every block_width pairs.
        if deterministic_kept % config.block_width == 0:
            _drop_with_pairs(circuit, faults, net_ids, status,
                             kept_pairs[-config.block_width:], columns,
                             config.block_width)

    detected = sum(1 for s in status if s == _DETECTED)
    untestable = sum(1 for s in status if s == _UNTESTABLE)
    aborted = sum(1 for s in status if s == _ABORTED)
    return AtpgResult(
        total_faults=len(faults),
        detected=detected,
        proven_untestable=untestable,
        aborted=aborted,
        pattern_count=len(kept_pairs),
        random_patterns=random_kept,
        deterministic_patterns=deterministic_kept,
        prebond_untestable=0,
        patterns=[p2 for _p1, p2 in kept_pairs],
    )


def _drop_with_pairs(circuit: CompiledCircuit, faults: List[TransitionFault],
                     net_ids: List[int], status: List[int],
                     pairs: List[Tuple[int, int]], columns: int,
                     block_width: int) -> None:
    """Fault-simulate recent deterministic pairs against active faults."""
    if not pairs:
        return
    words1 = _patterns_to_words([p1 for p1, _ in pairs], columns)
    words2 = _patterns_to_words([p2 for _, p2 in pairs], columns)
    chunk_mask = (1 << len(pairs)) - 1
    good1 = circuit.simulate(words1, chunk_mask)
    good2 = circuit.simulate(words2, chunk_mask)
    detector = BlockDetector(circuit, good2, chunk_mask)
    for index, fault in enumerate(faults):
        if status[index] != _ACTIVE:
            continue
        nid = net_ids[index]
        launch = (~good1[nid] & chunk_mask) if fault.slow_to_rise \
            else (good1[nid] & chunk_mask)
        if not launch:
            continue
        if detector.stem(nid, fault.initial_value, launch):
            status[index] = _DETECTED
