"""Tests for the die-stack model."""

import pytest

from repro.bench.stack import generate_stack
from repro.threed.model import TsvLink
from repro.util.errors import PartitionError


class TestGeneratedStack:
    def test_stack_counts_and_links(self):
        stack = generate_stack("b11", seed=4)
        assert stack.die_count == 4
        stack.validate_links()
        bonded = [l for l in stack.links if not l.is_external]
        total_in = sum(len(d.inbound_tsvs()) for d in stack.dies)
        assert len(bonded) == total_in  # every inbound fed
        # per Table II, b11 has more outbound than inbound -> externals
        assert any(l.is_external for l in stack.links)

    def test_bad_link_rejected(self):
        stack = generate_stack("b11", seed=4)
        stack.links.append(TsvLink(
            name="bogus", source_die=0,
            source_port=stack.dies[0].inbound_tsvs()[0].name,  # wrong kind
            target_die=1,
            target_port=stack.dies[1].inbound_tsvs()[0].name,
        ))
        with pytest.raises(PartitionError):
            stack.validate_links()

    def test_die_index_bounds(self):
        stack = generate_stack("b11", seed=4)
        with pytest.raises(PartitionError):
            stack.die(9)
