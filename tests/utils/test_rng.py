"""Tests for repro.utils.rng — deterministic stream management."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import (
    RngStreams,
    as_generator,
    derive_seed,
    generator_from_state,
    spawn_generators,
)


class TestAsGenerator:
    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = as_generator(42).random(5)
        b = as_generator(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(as_generator(1).random(5), as_generator(2).random(5))

    def test_generator_passthrough_identity(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_seed_sequence_accepted(self):
        ss = np.random.SeedSequence(7)
        a = as_generator(ss).random(3)
        b = as_generator(np.random.SeedSequence(7)).random(3)
        np.testing.assert_array_equal(a, b)


class TestSpawnGenerators:
    def test_count(self):
        assert len(spawn_generators(0, 5)) == 5

    def test_zero_is_allowed(self):
        assert spawn_generators(0, 0) == []

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)

    def test_streams_are_independent(self):
        g1, g2 = spawn_generators(42, 2)
        assert not np.array_equal(g1.random(10), g2.random(10))

    def test_deterministic_across_calls(self):
        a = [g.random(4) for g in spawn_generators(42, 3)]
        b = [g.random(4) for g in spawn_generators(42, 3)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_spawn_from_generator(self):
        gen = np.random.default_rng(9)
        children = spawn_generators(gen, 2)
        assert len(children) == 2
        assert not np.array_equal(children[0].random(5), children[1].random(5))


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(42, "x", 1) == derive_seed(42, "x", 1)

    def test_label_sensitivity(self):
        assert derive_seed(42, "x") != derive_seed(42, "y")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_positive_63bit(self):
        s = derive_seed(123, "anything", 4.5)
        assert 0 <= s < 2**63

    def test_rejects_live_generator(self):
        with pytest.raises(TypeError):
            derive_seed(np.random.default_rng(0), "x")


class TestRngStreams:
    def test_same_stream_replayable(self):
        streams = RngStreams(seed=5)
        a = streams.get("match", rep=0).random(4)
        b = streams.get("match", rep=0).random(4)
        np.testing.assert_array_equal(a, b)

    def test_distinct_labels_distinct_streams(self):
        streams = RngStreams(seed=5)
        a = streams.get("match", rep=0).random(4)
        b = streams.get("match", rep=1).random(4)
        assert not np.array_equal(a, b)

    def test_seed_for_matches_get(self):
        streams = RngStreams(seed=5)
        s = streams.seed_for("ga", size=10)
        np.testing.assert_array_equal(
            np.random.default_rng(s).random(3), streams.get("ga", size=10).random(3)
        )

    def test_label_order_irrelevant(self):
        streams = RngStreams(seed=5)
        assert streams.seed_for("x", a=1, b=2) == streams.seed_for("x", b=2, a=1)


class TestGeneratorFromState:
    @pytest.mark.parametrize("name", ["seed", "random", "NoSuchGenerator", None])
    def test_only_a_bit_generator_class_is_built(self, name):
        """A state must name a BitGenerator class. Any other ``numpy.random``
        attribute is refused before it is called (``seed`` would reseed the
        legacy global stream)."""
        legacy = np.random.get_state  # repro: noqa[seed-discipline] -- asserts it is untouched
        before = legacy()[1].copy()
        with pytest.raises(ValueError, match="unknown bit generator"):
            generator_from_state({"bit_generator": name})
        np.testing.assert_array_equal(legacy()[1], before)
