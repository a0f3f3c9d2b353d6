"""ATPG and fault simulation (commercial-ATPG stand-in).

Components:

* :mod:`repro.atpg.faults` — stuck-at fault universe with structural
  equivalence collapsing; pre-bond-untestable exclusion.
* :mod:`repro.atpg.sim` — compiled combinational circuit over a
  :class:`~repro.dft.testview.TestView`; packed parallel-pattern
  simulation (one Python big-int per net per block) and block fault
  detection over fanout-free regions (one event-driven, cone-limited
  propagation per stem, shared by the faults behind it).
* :mod:`repro.atpg.podem` — PODEM deterministic test generation for
  random-resistant faults (two-machine 3-valued codes, one table
  lookup per gate).
* :mod:`repro.atpg.engine` — the ATPG flow: random-pattern phase with
  fault dropping, PODEM top-up, pattern accounting, coverage metrics.
* :mod:`repro.atpg.transition` — two-pattern transition-fault testing
  built on the same machinery.
"""

from repro.atpg.faults import (
    Fault,
    FaultKind,
    FaultList,
    Polarity,
    build_fault_list,
)
from repro.atpg.sim import CompiledCircuit
from repro.atpg.engine import AtpgConfig, AtpgResult, run_stuck_at_atpg
from repro.atpg.transition import run_transition_atpg
from repro.atpg.podem import PodemGenerator

__all__ = [
    "Fault",
    "FaultKind",
    "FaultList",
    "Polarity",
    "build_fault_list",
    "CompiledCircuit",
    "AtpgConfig",
    "AtpgResult",
    "run_stuck_at_atpg",
    "run_transition_atpg",
    "PodemGenerator",
]
