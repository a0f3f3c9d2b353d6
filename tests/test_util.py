"""Tests for repro.util: RNG determinism, tables, errors."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.util import AsciiTable, DeterministicRng, derive_seed
from repro.util.errors import (
    AtpgError,
    ConfigError,
    LibraryError,
    NetlistError,
    PartitionError,
    ReproError,
    TimingError,
)
from repro.util.tables import format_pair, format_percent


class TestDeterministicRng:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(42)
        b = DeterministicRng(42)
        assert [a.random() for _ in range(20)] == \
            [b.random() for _ in range(20)]

    def test_different_seeds_differ(self):
        a = DeterministicRng(1)
        b = DeterministicRng(2)
        assert [a.random() for _ in range(8)] != \
            [b.random() for _ in range(8)]

    def test_child_streams_are_independent(self):
        root = DeterministicRng(7)
        child_a = root.child("a")
        child_b = root.child("b")
        assert child_a.root_seed != child_b.root_seed
        assert child_a.random() != child_b.random()

    def test_child_does_not_depend_on_parent_consumption(self):
        root1 = DeterministicRng(7)
        root1.random()  # consume some entropy
        root2 = DeterministicRng(7)
        assert root1.child("x").root_seed == root2.child("x").root_seed

    def test_child_path_order_matters(self):
        root = DeterministicRng(7)
        assert root.child("a", "b").root_seed != root.child("b", "a").root_seed

    def test_shuffled_leaves_input_untouched(self):
        rng = DeterministicRng(3)
        items = [1, 2, 3, 4, 5]
        copy = rng.shuffled(items)
        assert items == [1, 2, 3, 4, 5]
        assert sorted(copy) == items

    def test_pickle_keeps_stream_and_root_seed(self):
        rng = DeterministicRng(5)
        rng.random()
        copy = pickle.loads(pickle.dumps(rng))
        assert copy.root_seed == 5
        assert [copy.random() for _ in range(4)] == \
            [rng.random() for _ in range(4)]

    def test_derive_seed_stable(self):
        assert derive_seed(10, "x", 3) == derive_seed(10, "x", 3)
        assert derive_seed(10, "x", 3) != derive_seed(10, "x", 4)

    @given(st.integers(min_value=0, max_value=2**32),
           st.integers(min_value=1, max_value=60))
    def test_getrandbits_in_range(self, seed, bits):
        value = DeterministicRng(seed).getrandbits(bits)
        assert 0 <= value < (1 << bits)

    @given(st.integers(min_value=0, max_value=2**16),
           st.lists(st.integers(), min_size=1, max_size=30))
    def test_choice_returns_member(self, seed, items):
        assert DeterministicRng(seed).choice(items) in items


class TestAsciiTable:
    def test_render_alignment(self):
        table = AsciiTable(["a", "long_header"], title="T")
        table.add_row(["xx", 1])
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "long_header" in lines[1]
        assert len({len(l) for l in lines[1:]}) <= 2  # header/divider/rows

    def test_row_width_mismatch_raises(self):
        table = AsciiTable(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_separator_renders_as_divider(self):
        table = AsciiTable(["a"])
        table.add_row(["x"])
        table.add_separator()
        table.add_row(["y"])
        lines = table.render().splitlines()
        assert lines[3] == lines[1]  # same divider

    def test_markdown_render(self):
        table = AsciiTable(["a", "b"])
        table.add_row([1, 2])
        md = table.render_markdown()
        assert "| a | b |" in md
        assert "| 1 | 2 |" in md

    def test_format_percent(self):
        assert format_percent(0.9934) == "99.34%"
        assert format_percent(1.0) == "100.00%"

    def test_format_pair(self):
        assert format_pair(0.995, 82) == "(99.50%, 82)"


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc", [
        NetlistError, LibraryError, TimingError, AtpgError,
        PartitionError, ConfigError,
    ])
    def test_all_domain_errors_are_repro_errors(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")
