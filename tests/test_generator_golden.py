"""Golden fingerprints of the generated netlists.

``tests/golden/generator_fingerprints.json`` pins the
:func:`~repro.bench.families.netlist_fingerprint` of the eight b11/b12
dies and b20_d1 at the canonical seed, of one fan-out-capped die, and of
the six topology families at ``FamilySpec()`` and at a fan-out-capped
spec, together with each family instance's cluster and level maps. Every
table, workload and fuzz run is computed on these generators, so a
change that moves a single draw fails here as a named case.

Regenerate the file only for an intended change of the generated
netlists: ``PYTHONPATH=src python tests/test_generator_golden.py``.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.bench.families import (
    FAMILIES,
    FamilySpec,
    generate_family,
    netlist_fingerprint,
)
from repro.bench.generator import DieGeneratorConfig, generate_die
from repro.bench.itc99 import die_profile
from repro.util.fingerprint import fingerprint

GOLDEN = Path(__file__).parent / "golden" / "generator_fingerprints.json"

SEED = 2019

#: (circuit, die) of the pinned Table II dies; b18 is left out for time
DIES = [(c, d) for c in ("b11", "b12") for d in range(4)] + [("b20", 1)]

#: tight caps drive the fallback picks of both generators
CAPPED_DIE = DieGeneratorConfig(max_fanout=2, tsv_max_fanout=2)
CAPPED_FAMILY = FamilySpec(max_fanout=2, hub_fanout=4, tsv_max_fanout=2)


def _die_case(circuit, die, config=None):
    netlist = generate_die(die_profile(circuit, die), seed=SEED,
                           config=config)
    return {"netlist": netlist_fingerprint(netlist)}


def _family_case(family, spec):
    instance = generate_family(family, spec, seed=SEED)
    return {"netlist": netlist_fingerprint(instance.netlist),
            "cluster_of_net": fingerprint(instance.cluster_of_net),
            "cluster_of_instance": fingerprint(instance.cluster_of_instance),
            "levels": fingerprint(instance.levels)}


def _cases():
    cases = {f"die/{c}_d{d}": (_die_case, (c, d)) for c, d in DIES}
    cases["die/b12_d1/capped"] = (_die_case, ("b12", 1, CAPPED_DIE))
    for family in FAMILIES:
        cases[f"family/{family}/default"] = (_family_case,
                                             (family, FamilySpec()))
        cases[f"family/{family}/capped"] = (_family_case,
                                            (family, CAPPED_FAMILY))
    return cases


CASES = _cases()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_generated_netlist_matches_golden(case, golden):
    build, args = CASES[case]
    assert build(*args) == golden[case]


if __name__ == "__main__":
    payload = {case: build(*args) for case, (build, args) in CASES.items()}
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(payload)} cases to {GOLDEN}\n")
