"""Tests for transitions and the discounted vector rollout."""

import numpy as np
import pytest

from morlgen.lavagrid import FORWARD, NORTH, LavaGridContext, LavaGridEnv, LavaGridLayout
from morlgen.momdp import EpisodeOverError, Transition, rollout
from morlgen.stats import RandomStream


class ScriptedEnv:
    """Emits a fixed reward sequence, terminal after the last entry."""

    def __init__(self, rewards):
        self._rewards = [np.asarray(r, dtype=float) for r in rewards]
        self._i = 0

    def reset(self, context):
        self._i = 0
        return 0

    def step(self, action):
        r = self._rewards[self._i]
        self._i += 1
        terminal = self._i == len(self._rewards)
        return Transition(self._i, r, terminal, False)

    def num_objectives(self):
        return len(self._rewards[0])

    def action_count(self):
        return 1


class TestTransition:
    def test_done_flags(self):
        assert Transition(0, np.zeros(1), True, False).done
        assert Transition(0, np.zeros(1), False, True).done
        assert not Transition(0, np.zeros(1), False, False).done


class TestRollout:
    def test_single_step(self):
        ret = rollout(ScriptedEnv([(3, -1)]), lambda o: 0, None, 0.99)
        assert np.allclose(ret, (3, -1))

    def test_two_step_discount(self):
        ret = rollout(ScriptedEnv([(1, 0), (0, 1)]), lambda o: 0, None, 0.5)
        assert np.allclose(ret, (1, 0.5))

    def test_deterministic(self):
        layout = LavaGridLayout.from_strings(["..G", "...", "..."], (0, 0), NORTH)
        ctx = LavaGridContext(layout, np.array([1.0, 0.0, 0.0]))
        env = LavaGridEnv(max_steps=10)
        a = rollout(env, lambda o: FORWARD, ctx, 0.9, max_steps=10)
        b = rollout(env, lambda o: FORWARD, ctx, 0.9, max_steps=10)
        assert np.array_equal(a, b)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            rollout(ScriptedEnv([(1,)]), lambda o: 0, None, 1.0)
        with pytest.raises(ValueError):
            rollout(ScriptedEnv([(1,)]), lambda o: 0, None, -0.1)

    def test_out_of_range_action(self):
        with pytest.raises(ValueError):
            rollout(ScriptedEnv([(1,)]), lambda o: 5, None, 0.9)

    def test_truncated_return_is_prefix_sum(self):
        """Return at a shorter cap is the prefix of the longer episode's sum."""
        layout = LavaGridLayout.from_strings([".L.G", "....", "...."], (0, 0), NORTH)
        ctx = LavaGridContext(layout, np.array([0.2, 0.3, 0.5]))
        gamma = 0.9
        actions = "RFFF" * 4

        def scripted(m):
            it = iter("LRF".index(ch) for ch in actions[:m])
            env = LavaGridEnv(max_steps=m)
            return rollout(env, lambda o: next(it), ctx, gamma, max_steps=m)

        long = np.zeros(3)
        env = LavaGridEnv(max_steps=16)
        env.reset(ctx)
        disc = 1.0
        partials = []
        for ch in actions:
            tr = env.step("LRF".index(ch))
            long += disc * tr.reward
            disc *= gamma
            partials.append(long.copy())
            if tr.done:
                break
        assert len(partials) >= 3
        for m in range(1, len(partials) + 1):
            assert np.allclose(scripted(m), partials[m - 1])


class TestEpisodeOver:
    def test_step_after_terminal_raises(self):
        layout = LavaGridLayout.from_strings([".G"], (0, 0), NORTH)
        ctx = LavaGridContext(layout, np.array([1.0, 0.0, 0.0]))
        env = LavaGridEnv(max_steps=5)
        env.reset(ctx)
        env.step(1)  # face east
        tr = env.step(2)  # collect the only goal
        assert tr.terminal
        with pytest.raises(EpisodeOverError):
            env.step(0)

    def test_step_before_reset_raises(self):
        with pytest.raises(EpisodeOverError):
            LavaGridEnv().step(0)


class TestDomainRandomization:
    def test_goal_weight_means(self):
        from morlgen.lavagrid import LavaGridSpace

        space = LavaGridSpace(width=5, height=5, lava_count_range=(0, 3))
        rng = RandomStream(77).rng()
        weights = np.array([space.sample(rng).weights for _ in range(20_000)])
        assert np.allclose(weights.mean(axis=0), 1 / 3, atol=0.01)
