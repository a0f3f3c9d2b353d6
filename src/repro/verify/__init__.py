"""Differential verification subsystem (DESIGN.md §8).

Brute-force oracles for every optimized kernel, a functional
equivalence check of every wrapper insertion, a seeded random instance
generator, metamorphic invariants, a shrinking fuzz driver (``repro
fuzz``) and a mutation-kill self-check that proves the harness can
actually fail.
"""

from repro.verify.checks import CHECKS, Subject, run_checks
from repro.verify.fuzz import FuzzReport, run_fuzz, spec_for_iteration
from repro.verify.instances import InstanceSpec
from repro.verify.mutants import MUTANTS, render_results, self_check
from repro.verify.shrink import shrink

__all__ = [
    "CHECKS",
    "FuzzReport",
    "InstanceSpec",
    "MUTANTS",
    "Subject",
    "render_results",
    "run_checks",
    "run_fuzz",
    "self_check",
    "shrink",
    "spec_for_iteration",
]
