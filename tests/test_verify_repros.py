"""Replay every checked-in repro: the fuzzer's fossil record.

Each JSON under ``tests/repros/`` is an :class:`InstanceSpec` promoted
from a fuzz run (``repro fuzz --repro-dir tests/repros``) or seeded as
a degenerate-corner regression anchor. Replaying runs the *full* check
registry — any divergence here is a kernel/oracle regression.
"""

from pathlib import Path

import pytest

from repro.verify import InstanceSpec, run_checks

REPRO_DIR = Path(__file__).parent / "repros"
REPRO_FILES = sorted(REPRO_DIR.glob("*.json"))


def test_corpus_is_not_empty():
    """The corpus must exist — an empty glob would silently skip the
    replay test entirely."""
    assert REPRO_FILES, f"no repro JSONs under {REPRO_DIR}"


def test_corpus_covers_degenerate_corners():
    """The seeded corpus keeps the corner shapes the kernels
    special-case under test forever."""
    specs = [InstanceSpec.load(path) for path in REPRO_FILES]
    assert any(s.tsv_in == 0 for s in specs), "no zero-inbound repro"
    assert any(s.tsv_out == 0 for s in specs), "no zero-outbound repro"
    assert any(s.coincident for s in specs), "no coincident repro"
    assert any(s.d_th_boundary for s in specs), "no d_th-boundary repro"
    assert any(s.scenario == "area" for s in specs), "no area repro"
    assert any(s.method == "agrawal" for s in specs), "no agrawal repro"
    # Topology-family corners (promoted alongside the family axis).
    assert any(s.family == "star" and s.tsv_in == 0 and s.tsv_out == 0
               for s in specs), "no zero-TSV star repro"
    assert any(s.family == "htree" and s.fanout_cap is not None
               for s in specs), "no fanout-capped htree repro"
    assert any(s.family == "grid" and s.d_th_boundary
               for s in specs), "no d_th-boundary grid repro"
    assert any(s.family == "ring" for s in specs), \
        "no degenerate-ring repro"
    # Scheduling corners (promoted with the schedule check): a single
    # internal chain buried under TSV wrapper cells, and a coincident
    # FF-rich die whose reduced wrapper collapses to almost no cells.
    assert any(s.ffs == 1 and s.tsv_in + s.tsv_out >= 12
               for s in specs), "no single-chain TSV-heavy repro"
    assert any(s.coincident and s.ffs >= 6 for s in specs), \
        "no coincident FF-rich repro"


@pytest.mark.parametrize("kernel", ["python"], indirect=True)
@pytest.mark.parametrize("path", REPRO_FILES, ids=lambda p: p.stem)
def test_repro_replays_clean(path, kernel):
    """Every repro that once caught a kernel bug still replays clean."""
    divergences = run_checks(InstanceSpec.load(path))
    assert not divergences, "\n".join(divergences)


@pytest.mark.parametrize("path", REPRO_FILES, ids=lambda p: p.stem)
def test_repro_round_trips(path):
    """load -> to_json -> from_json is the identity, and the file name
    matches the spec's slug (so promotions never collide silently)."""
    spec = InstanceSpec.load(path)
    assert InstanceSpec.from_json(spec.to_json()) == spec
    assert path.stem == spec.slug()
