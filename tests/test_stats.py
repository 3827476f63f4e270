"""Tests for random streams, simplex sampling, IQM, and optimality gap."""

import numpy as np
import pytest

from draws_reference import reference_sample_simplex
from morlgen.stats import (
    GENERATOR_ID,
    RandomStream,
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
