"""Tests for the exact-front oracles and their cross-validation."""

import numpy as np
import pytest

from conftest import dominates
from morlgen.fronts import hypervolume, nhgr
from morlgen.lavagrid import (
    EAST,
    GOAL_REWARD,
    NORTH,
    LavaGridContext,
    LavaGridLayout,
    LavaGridSpace,
)
from morlgen.oracle import (
    MAX_ENUMERATION_HORIZON,
    enumerate_returns,
    pareto_backward_induction,
    replay_witness,
    specialist_front,
)
from morlgen.stats import RandomStream


def ctx(rows, start, direction, weights, name=None):
    layout = LavaGridLayout.from_strings(rows, start, direction)
    return LavaGridContext(layout, np.array(weights, dtype=float), name=name)


def fronts_close(a, b, atol=1e-9):
    """Set equality of two fronts after sorting, per-component tolerance."""
    pa, pb = a.points if hasattr(a, "points") else a, b.points if hasattr(b, "points") else b
    if pa.shape != pb.shape:
        return False
    order_a = np.lexsort(pa.T[::-1])
    order_b = np.lexsort(pb.T[::-1])
    return np.allclose(pa[order_a], pb[order_b], atol=atol, rtol=0.0)


def random_micro_context(seed, size=4):
    return LavaGridSpace(size, size, (0, 3)).sample(RandomStream(seed, (9,)))


class TestBackwardInduction:
    def test_corridor_single_goal(self):
        """Hand-derived: two forward moves collect the goal at step 2."""
        c = ctx(["..G"], (0, 0), EAST, [0.7, 0.2, 0.1])
        gamma = 0.9
        result = pareto_backward_induction(c, gamma, 3)
        expected = np.array([[GOAL_REWARD * 0.7 * gamma, 0.0, -(1 + gamma)]])
        assert result.exact
        assert np.allclose(result.front.points, expected)
        assert fronts_close(result.front, enumerate_returns(c, gamma, 3))

    def test_horizon_one_single_step_enumeration(self):
        c = ctx(["Y..", "...", "..."], (1, 1), NORTH, [0.0, 1.0, 0.0])
        dp = pareto_backward_induction(c, 0.9, 1)
        bf = enumerate_returns(c, 0.9, 1)
        assert dp.front == bf

    def test_cross_oracle_random_micro_contexts(self):
        for seed in range(8):
            c = random_micro_context(seed)
            dp = pareto_backward_induction(c, 0.9, 7)
            bf = enumerate_returns(c, 0.9, 7)
            assert dp.exact
            assert fronts_close(dp.front, bf), f"seed {seed}"

    def test_front_is_antichain(self):
        c = random_micro_context(3, size=5)
        pts = pareto_backward_induction(c, 0.95, 9).front.points
        for i in range(len(pts)):
            for j in range(len(pts)):
                if i != j:
                    assert not dominates(pts[i], pts[j])

    def test_invalid_horizon(self):
        c = random_micro_context(0)
        with pytest.raises(ValueError):
            pareto_backward_induction(c, 0.9, 0)

    def test_invalid_gamma(self):
        c = random_micro_context(0)
        with pytest.raises(ValueError):
            pareto_backward_induction(c, 1.0, 3)

    def test_cap_binds_flags_approximate(self):
        c = ctx(["Y.L.G", ".....", "..L.."], (2, 1), NORTH, [0.5, 0.5, 0.0])
        full = pareto_backward_induction(c, 0.95, 12)
        capped = pareto_backward_induction(c, 0.95, 12, cap=2)
        assert full.exact and len(full.front) > 2
        assert not capped.exact
        assert capped.epsilon > 0.0
        assert len(capped.front) <= 2
        # every exact point is within epsilon of some kept point
        for v in full.front.points:
            assert any(
                (k >= v - capped.epsilon - 1e-9).all() for k in capped.front.points
            )

    def test_generous_cap_stays_exact(self):
        c = random_micro_context(5)
        assert pareto_backward_induction(c, 0.9, 7, cap=10_000).exact


class TestWitnesses:
    def test_every_point_replays_exactly(self):
        for seed in range(5):
            c = random_micro_context(seed)
            dp = pareto_backward_induction(c, 0.9, 7)
            for point, wit in zip(dp.front.points, dp.front.tags):
                assert np.allclose(replay_witness(c, wit, 0.9, 7), point, atol=1e-12)

    def test_empty_witness_is_zero_return(self):
        c = random_micro_context(2)
        assert np.array_equal(replay_witness(c, "", 0.9, 5), np.zeros(3))


class TestEnumerateReturns:
    def test_horizon_zero(self):
        c = random_micro_context(0)
        f = enumerate_returns(c, 0.9, 0)
        assert f.points.tolist() == [[0.0, 0.0, 0.0]]

    def test_horizon_one_all_empty(self):
        c = ctx(["...", "...", ".G."], (0, 0), EAST, [1.0, 0.0, 0.0])
        f = enumerate_returns(c, 0.9, 1)
        assert f.points.tolist() == [[0.0, 0.0, -1.0]]

    def test_horizon_too_large(self):
        c = random_micro_context(0)
        with pytest.raises(ValueError):
            enumerate_returns(c, 0.9, MAX_ENUMERATION_HORIZON + 1)

    def test_negative_horizon(self):
        c = random_micro_context(0)
        with pytest.raises(ValueError):
            enumerate_returns(c, 0.9, -1)


class TestSpecialistFront:
    def test_zero_budget_errors(self):
        c = random_micro_context(0)
        with pytest.raises(ValueError):
            specialist_front(c, 0, 0.9, RandomStream(0))

    def test_hypervolume_bounded_by_oracle(self):
        c = ctx(["Y.L.G", ".....", "..L.."], (2, 1), NORTH, [0.5, 0.5, 0.0])
        dp = pareto_backward_induction(c, 0.95, 12)
        spec = specialist_front(
            c, 2000, 0.95, RandomStream(1, (4, 0)),
            weight_grid_resolution=4, max_steps=12, alpha=0.2,
        )
        ref = dp.front.points.min(axis=0) - 1.0
        assert hypervolume(spec, ref) <= hypervolume(dp.front, ref) + 1e-9

    def test_trivial_context_recovers_oracle(self):
        """Goals adjacent to the start: the specialist should be near-exact."""
        c = ctx(["G.Y", "...", "B.L"], (1, 1), NORTH, [0.4, 0.35, 0.25])
        dp = pareto_backward_induction(c, 0.95, 10)
        spec = specialist_front(
            c, 20000, 0.95, RandomStream(0, (4, 1)),
            weight_grid_resolution=4, max_steps=10, alpha=0.2,
        )
        try:
            score = nhgr(spec, dp.front)
        except ValueError:
            # degenerate oracle bounds: fall back to a hypervolume ratio
            ref = dp.front.points.min(axis=0) - 1.0
            score = hypervolume(spec, ref) / hypervolume(dp.front, ref)
        assert score >= 0.95

    def test_doubling_budget_does_not_hurt(self):
        c = ctx(["Y.L.G", ".....", "..L.."], (2, 1), NORTH, [0.5, 0.5, 0.0])
        dp = pareto_backward_induction(c, 0.95, 12)

        def median_nhgr(episodes):
            vals = []
            for seed in range(5):
                f = specialist_front(
                    c, episodes, 0.95, RandomStream(seed, (4, 2)),
                    weight_grid_resolution=4, max_steps=12, alpha=0.2,
                )
                vals.append(nhgr(f, dp.front))
            return float(np.median(vals))

        assert median_nhgr(16000) >= median_nhgr(8000) - 1e-9


class TestDomainSpaces:
    def test_space_contexts_have_exact_oracle(self):
        space = LavaGridSpace(width=4, height=4, lava_count_range=(0, 2))
        for seed in range(3):
            c = space.sample(RandomStream(seed, (8,)))
            dp = pareto_backward_induction(c, 0.9, 6)
            assert dp.exact
            assert fronts_close(dp.front, enumerate_returns(c, 0.9, 6))
