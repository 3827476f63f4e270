"""Tests for random streams, the draw replay, simplex sampling, IQM, and optimality gap."""

import json

import numpy as np
import pytest

import agents_reference
from conftest import micro_suite
from draws_reference import reference_sample_simplex
from morlgen.agents import random_policy_front, train_scalarized_q, weight_grid
from morlgen.lavagrid import LavaGridSpace
from morlgen.stats import (
    GENERATOR_ID,
    RandomStream,
    WordReplay,
    iqm,
    optimality_gap,
    sample_simplex_batch,
)


class TestRandomStream:
    def test_reproducible(self):
        a = RandomStream(42, (1, 2)).rng().random(10)
        b = RandomStream(42, (1, 2)).rng().random(10)
        assert np.array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = RandomStream(42, (1,)).rng().random(10)
        b = RandomStream(42, (2,)).rng().random(10)
        assert not np.array_equal(a, b)

    def test_substream(self):
        s = RandomStream(7).substream(3).substream(1, 4)
        assert s.stream_path == (3, 1, 4)
        assert np.array_equal(s.rng().random(5), RandomStream(7, (3, 1, 4)).rng().random(5))

    def test_generator_id_fixed(self):
        assert GENERATOR_ID == "numpy.PCG64/SeedSequence-spawn-v1"


def generator_emitting(word: int) -> np.random.Generator:
    """A PCG64 generator whose next raw word is `word`.

    PCG64 steps its 128-bit state s and then outputs the XSL-RR of the new
    s: the 64-bit xor of its halves rotated right by its top 6 bits. The
    generator is put on such an s and stepped back once.
    """
    gen = np.random.Generator(np.random.PCG64(0))
    hi = 0x9E3779B97F4A7C15
    rot = hi >> 58
    lo = hi ^ (((word << rot) | (word >> (64 - rot))) & (2**64 - 1))  # rotate left
    state = gen.bit_generator.state
    state["state"]["state"] = hi << 64 | lo
    gen.bit_generator.state = state
    gen.bit_generator.advance(-1)
    return gen


class TestWordReplay:
    """`WordReplay` against a `Generator` that makes the same draws itself."""

    @pytest.mark.parametrize("n", [1, 3, 15, 66, 2**31 + 5, 2**32])
    def test_mixed_draws_match_generator(self, n):
        """2**31 + 5 rejects about half its 32-bit draws; 1 draws nothing."""
        for seed in range(100):
            gen, replayed = RandomStream(seed, (6,)).rng(), RandomStream(seed, (6,)).rng()
            draws = WordReplay(replayed)
            plan = np.random.default_rng(seed)  # which draws, and how many between syncs
            for _ in range(4):
                kinds = plan.random(int(plan.integers(1, 40))) < 0.5
                words = draws.reserve(len(kinds))
                for is_random in kinds.tolist():
                    if is_random:  # the rule `random() < p`, on both sides of the drawn value
                        u, word = gen.random(), next(words)
                        assert not word < draws.random_bound(u)
                        assert word < draws.random_bound(np.nextafter(u, 2.0))
                    else:
                        assert draws.below(n) == gen.integers(n)
                draws.sync()
                assert replayed.bit_generator.state == gen.bit_generator.state
                assert replayed.integers(n) == gen.integers(n)  # numpy's own draws go on

    @pytest.mark.parametrize("word", [0, 5 << 32, 5], ids=["both halves 0", "low half 0",
                                                           "high half 0"])
    def test_zero_draw_is_redrawn(self, word):
        """x = 0 is the one 32-bit draw that integers(3) rejects."""
        gen, replayed = generator_emitting(word), generator_emitting(word)
        assert generator_emitting(word).bit_generator.random_raw() == word
        draws = WordReplay(replayed)
        draws.reserve(4)  # one word per draw; each rejection draws one more
        assert [draws.below(3) for _ in range(4)] == [gen.integers(3) for _ in range(4)]
        draws.sync()
        assert replayed.bit_generator.state == gen.bit_generator.state

    def test_random_bound_edges(self):
        assert WordReplay.random_bound(0.0) == 0
        assert WordReplay.random_bound(-1.0) == 0
        assert WordReplay.random_bound(float("nan")) == 0  # random() < nan never holds
        assert WordReplay.random_bound(1.0) == 2**64
        assert WordReplay.random_bound(2.0**-53) == 1 << 11  # only the words giving 0.0

    def test_needs_pcg64_and_32_bit_bounds(self):
        with pytest.raises(TypeError, match="PCG64"):
            WordReplay(np.random.Generator(np.random.MT19937(0)))
        draws = WordReplay(RandomStream(0).rng())
        draws.reserve(1)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            draws.below(2**32 + 1)

    @pytest.mark.parametrize("source", ["micro", "5x3 space"])
    def test_trainer_leaves_the_generator_where_numpy_would(self, source):
        context = micro_suite()[0][1] if source == "micro" else LavaGridSpace(5, 3, (1, 3))
        grid = weight_grid(4, 3)
        for seed in range(3):
            new_rng, old_rng = RandomStream(seed, (1,)).rng(), RandomStream(seed, (1,)).rng()
            new = train_scalarized_q(context, grid, 60, 0.9, new_rng, max_steps=12)
            old = agents_reference.reference_train_scalarized_q(
                context, grid, 60, 0.9, old_rng, max_steps=12
            )
            assert json.dumps(new.to_json_obj()) == json.dumps(old.to_json_obj())
            assert new_rng.bit_generator.state == old_rng.bit_generator.state

    def test_random_front_leaves_the_generator_where_numpy_would(self):
        context = micro_suite()[0][1]
        for max_steps in (1, 5, 12):
            new_rng, old_rng = RandomStream(4).rng(), RandomStream(4).rng()
            new = random_policy_front(context, 30, 0.9, new_rng, max_steps=max_steps)
            old = agents_reference.reference_random_policy_front(
                context, 30, 0.9, old_rng, max_steps=max_steps
            )
            assert new.points.tobytes() == old.points.tobytes()
            assert new_rng.bit_generator.state == old_rng.bit_generator.state


class TestSampleSimplex:
    def test_k1(self):
        for seed in range(5):
            assert sample_simplex_batch(RandomStream(seed), 1, 1)[0].tolist() == [1.0]

    def test_invariants(self):
        for seed in range(50):
            w = sample_simplex_batch(RandomStream(seed), 3, 1)[0]
            assert (w >= 0).all()
            assert abs(w.sum() - 1.0) < 1e-12

    def test_k0_error(self):
        with pytest.raises(ValueError):
            sample_simplex_batch(RandomStream(0), 0, 1)

    def test_mean_is_half_2d(self):
        w = sample_simplex_batch(RandomStream(123), 2, 1_000_000)
        assert w[:, 0].mean() == pytest.approx(0.5, abs=0.002)

    def test_batch_matches_invariants(self):
        w = sample_simplex_batch(RandomStream(9), 4, 1000)
        assert w.shape == (1000, 4)
        assert (w >= 0).all()
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_spacings_construction(self):
        """The sample equals the sorted-uniform-spacings of the same draws."""
        stream = RandomStream(55, (1,))
        w = sample_simplex_batch(stream, 4, 1)[0]
        cuts = np.sort(stream.rng().random(3))
        expected = np.diff(np.concatenate(([0.0], cuts, [1.0])))
        expected = expected / expected.sum()
        assert np.allclose(w, expected)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_one_point_matches_frozen_sampler(self, k):
        """A one-row batch is the former one-point sampler, bytes and generator state."""
        for seed in range(500):
            new_rng, old_rng = RandomStream(seed, (2,)).rng(), RandomStream(seed, (2,)).rng()
            for _ in range(4):
                new = sample_simplex_batch(new_rng, k, 1)[0]
                old = reference_sample_simplex(old_rng, k)
                assert new.shape == old.shape and new.tobytes() == old.tobytes()
            assert new_rng.bit_generator.state == old_rng.bit_generator.state


class TestIqm:
    def test_four_values(self):
        assert iqm([1, 2, 3, 4]) == 2.5

    def test_constant(self):
        assert iqm([3.3] * 7) == pytest.approx(3.3)

    def test_outlier_trimmed(self):
        assert iqm([0, 0, 0, 0, 10]) == 0.0

    def test_bounded_and_permutation_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            xs = rng.normal(size=rng.integers(1, 30))
            v = iqm(xs)
            assert min(xs) <= v <= max(xs)
            assert iqm(rng.permutation(xs)) == pytest.approx(v)

    def test_empty_error(self):
        with pytest.raises(ValueError):
            iqm([])

    def test_non_finite_error(self):
        with pytest.raises(ValueError):
            iqm([1.0, float("nan")])


class TestOptimalityGap:
    def test_no_gap(self):
        assert optimality_gap([1.0, 1.0]) == 0.0

    def test_hand_value(self):
        assert optimality_gap([0.5, 1.2]) == pytest.approx(0.25)

    def test_single_zero(self):
        assert optimality_gap([0.0]) == 1.0

    def test_zero_iff_all_at_target(self):
        assert optimality_gap([1.0, 1.5, 2.0]) == 0.0
        assert optimality_gap([1.0, 0.999]) > 0.0

    def test_monotone_nonincreasing(self):
        base = optimality_gap([0.5, 0.7, 0.9])
        assert optimality_gap([0.6, 0.7, 0.9]) <= base

    def test_empty_error(self):
        with pytest.raises(ValueError):
            optimality_gap([])
