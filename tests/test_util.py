"""Tests for the util subpackage."""

import numpy as np
import pytest

from repro.util import as_generator, format_table, spawn_streams


class TestRng:
    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_deterministic(self):
        a = as_generator(7).random(4)
        b = as_generator(7).random(4)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(1)
        assert as_generator(g) is g

    def test_spawn_streams_independent(self):
        streams = spawn_streams(42, 3)
        vals = [s.random() for s in streams]
        assert len(set(vals)) == 3

    def test_spawn_streams_deterministic(self):
        a = [s.random() for s in spawn_streams(42, 2)]
        b = [s.random() for s in spawn_streams(42, 2)]
        assert a == b

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_streams(0, -1)

    def test_spawn_from_generator(self):
        streams = spawn_streams(np.random.default_rng(3), 2)
        assert len(streams) == 2


class TestTables:
    def test_alignment_and_title(self):
        out = format_table(
            ["name", "value"], [["a", 1.0], ["bb", 22.5]], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_cell_count_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["x", "y"]])

    def test_float_formatting(self):
        out = format_table(["v"], [[123456.0], [0.00123], [12.3456]])
        assert "123,456" in out
        assert "0.00123" in out
        assert "12.3" in out
