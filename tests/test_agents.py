"""Tests for tabular scalarized Q-learning and the random-policy baseline."""

import json
import math

import numpy as np
import pytest

from conftest import micro_suite
from morlgen.agents import (
    TabularQ,
    build_front,
    greedy_value_vector,
    random_policy_front,
    train_scalarized_q,
    weight_grid,
)
from morlgen.fronts import hypervolume
from morlgen.lavagrid import (
    EAST,
    NORTH,
    LavaGridContext,
    LavaGridEnv,
    LavaGridLayout,
    LavaGridSpace,
    state_tables,
)
from morlgen.oracle import pareto_backward_induction
from morlgen.stats import RandomStream


def ctx(rows, start, direction, weights, name=None):
    layout = LavaGridLayout.from_strings(rows, start, direction)
    return LavaGridContext(layout, np.array(weights, dtype=float), name=name)


TWO_GOALS = ctx(["G.Y", "..."], (1, 0), EAST, [0.5, 0.5, 0.0])


class TestWeightGrid:
    def test_count(self):
        for m, k in ((10, 3), (4, 3), (6, 2), (1, 4)):
            assert len(weight_grid(m, k)) == math.comb(m + k - 1, k - 1)

    def test_entries_valid_and_distinct(self):
        grid = weight_grid(7, 3)
        assert np.allclose(grid.sum(axis=1), 1.0)
        assert (grid >= 0).all()
        assert len({tuple(w) for w in grid}) == len(grid)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            weight_grid(0, 3)
        with pytest.raises(ValueError):
            weight_grid(3, 0)


class TestTraining:
    def test_greedy_preference_follows_weight(self):
        """The goal component of the value vector tracks the trained weight."""
        grid = np.array([[0.9, 0.05, 0.05], [0.05, 0.9, 0.05]])
        c = ctx(["G.Y", "..."], (1, 0), EAST, [0.5, 0.5, 0.0])
        q = train_scalarized_q(c, grid, 4000, 0.9, RandomStream(0, (0,)),
                               alpha=0.3, max_steps=8)
        v_green = greedy_value_vector(q, 0, state_tables(c), 0.9, max_steps=8)
        v_yellow = greedy_value_vector(q, 1, state_tables(c), 0.9, max_steps=8)
        # both policies end up collecting both goals; the favored goal is
        # collected first, so its discounted share is larger
        assert v_green[0] >= v_yellow[0] - 1e-9

    def test_hand_replayed_td_updates(self):
        """Tables equal an independent replay of the update rule."""
        grid = weight_grid(2, 3)
        c = ctx(["G.Y", "..."], (1, 0), EAST, [0.5, 0.5, 0.0])
        episodes, gamma, alpha, max_steps = 3, 0.5, 1.0, 4
        stream = RandomStream(11, (1,))
        q = train_scalarized_q(c, grid, episodes, gamma, stream,
                               alpha=alpha, max_steps=max_steps)

        # independent replay with the same stream and schedule
        rng = stream.rng()
        tables = {}
        env = LavaGridEnv(max_steps=max_steps)
        for ep in range(episodes):
            widx = int(rng.integers(len(grid)))
            w = grid[widx]
            span = max(1.0, 0.8 * episodes)
            epsilon = 1.0 + (0.05 - 1.0) * min(1.0, ep / span)
            table = tables.setdefault(widx, {})
            obs = env.reset(c)
            sig = obs.signature()
            for _ in range(max_steps):
                qv = table.setdefault(sig, np.zeros(3))
                if rng.random() < epsilon:
                    a = int(rng.integers(3))
                else:
                    a = int(np.argmax(qv))
                tr = env.step(a)
                nsig = tr.next_observation.signature()
                target = float(w @ tr.reward)
                if not tr.terminal:
                    target += gamma * float(table.setdefault(nsig, np.zeros(3)).max())
                qv[a] += alpha * (target - qv[a])
                sig = nsig
                if tr.done:
                    break

        assert set(q.tables) == set(tables)
        for widx, table in tables.items():
            assert set(q.tables[widx]) == set(table)
            for sig, vals in table.items():
                assert np.allclose(q.tables[widx][sig], vals, atol=1e-12)

    def test_zero_episodes_error(self):
        with pytest.raises(ValueError):
            train_scalarized_q(TWO_GOALS, weight_grid(2, 3), 0, 0.9, RandomStream(0))

    def test_empty_grid_error(self):
        with pytest.raises(ValueError):
            train_scalarized_q(TWO_GOALS, np.empty((0, 3)), 10, 0.9, RandomStream(0))

    def test_generalist_mode_samples_contexts(self):
        from morlgen.lavagrid import LavaGridSpace

        space = LavaGridSpace(width=4, height=4, lava_count_range=(0, 2))
        q = train_scalarized_q(space, weight_grid(2, 3), 50, 0.9,
                               RandomStream(5, (0,)), max_steps=6)
        assert q.episodes_trained == 50
        assert q.metadata["mode"] == "generalist"


class TestGreedyEvaluation:
    def test_untrained_ties_to_action_zero(self):
        """All-zero tables turn left forever; the agent never moves."""
        q = TabularQ(weight_grid=weight_grid(2, 3), alpha=0.1)
        v = greedy_value_vector(q, 0, state_tables(TWO_GOALS), 0.5, max_steps=4)
        expected_time = -(1 + 0.5 + 0.25 + 0.125)
        assert np.allclose(v, [0.0, 0.0, expected_time])

    def test_deterministic(self):
        grid = weight_grid(3, 3)
        q = train_scalarized_q(TWO_GOALS, grid, 500, 0.9, RandomStream(1, (0,)),
                               max_steps=8)
        a = greedy_value_vector(q, 2, state_tables(TWO_GOALS), 0.9, max_steps=8)
        b = greedy_value_vector(q, 2, state_tables(TWO_GOALS), 0.9, max_steps=8)
        assert np.array_equal(a, b)


class TestBuildFront:
    def test_single_weight(self):
        grid = weight_grid(1, 3)[:1]
        q = train_scalarized_q(TWO_GOALS, grid, 200, 0.9, RandomStream(2, (0,)),
                               max_steps=8)
        front = build_front(q, TWO_GOALS, 0.9, max_steps=8)
        assert len(front) <= 1

    def test_tags_are_weight_indices(self):
        grid = weight_grid(4, 3)
        q = train_scalarized_q(TWO_GOALS, grid, 2000, 0.9, RandomStream(3, (0,)),
                               max_steps=8)
        front = build_front(q, TWO_GOALS, 0.9, max_steps=8)
        assert all(isinstance(t, int) and 0 <= t < len(grid) for t in front.tags)

    def test_scalarization_consistency(self):
        grid = weight_grid(4, 3)
        q = train_scalarized_q(TWO_GOALS, grid, 4000, 0.9, RandomStream(4, (0,)),
                               alpha=0.2, max_steps=8)
        vectors = [
            greedy_value_vector(q, widx, state_tables(TWO_GOALS), 0.9, max_steps=8)
            for widx in range(len(grid))
        ]
        front = build_front(q, TWO_GOALS, 0.9, max_steps=8)
        for point, widx in zip(front.points, front.tags):
            w = grid[widx]
            best = max(float(w @ v) for v in vectors)
            assert float(w @ point) >= best - 1e-9


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        grid = weight_grid(3, 3)
        q = train_scalarized_q(TWO_GOALS, grid, 300, 0.9, RandomStream(6, (0,)),
                               max_steps=8)
        path = tmp_path / "agent.json"
        q.save(path)
        q2 = TabularQ.load(path)
        assert np.array_equal(q.weight_grid, q2.weight_grid)
        assert q.alpha == q2.alpha
        assert q.episodes_trained == q2.episodes_trained
        assert set(q.tables) == set(q2.tables)
        for widx in q.tables:
            assert set(q.tables[widx]) == set(q2.tables[widx])
            for sig in q.tables[widx]:
                assert np.array_equal(q.tables[widx][sig], q2.tables[widx][sig])

    def test_identical_training_identical_snapshots(self, tmp_path):
        grid = weight_grid(3, 3)
        for i in range(2):
            q = train_scalarized_q(TWO_GOALS, grid, 300, 0.9, RandomStream(7, (0,)),
                                   max_steps=8)
            q.save(tmp_path / f"agent{i}.json")
        assert (tmp_path / "agent0.json").read_bytes() == (
            tmp_path / "agent1.json"
        ).read_bytes()

    @pytest.mark.parametrize("rows", ["ragged", "all_wide", "all_narrow"])
    def test_malformed_table_rejected(self, rows):
        q = train_scalarized_q(TWO_GOALS, weight_grid(2, 3), 100, 0.9,
                               RandomStream(8, (0,)), max_steps=8)
        obj = q.to_json_obj()
        table = next(iter(obj["tables"].values()))
        for i, key in enumerate(table):
            if rows == "all_wide":
                table[key] = table[key] + [0.0]
            elif rows == "all_narrow":
                table[key] = table[key][:2]
            elif i == 0:
                table[key] = table[key][:2]
        with pytest.raises(ValueError, match="3 Q-values"):
            TabularQ.from_json_obj(obj)

    @pytest.mark.parametrize("agent", ["micro_specialist", "generalist_11x11", "empty_table",
                                       "no_tables", "non_finite"])
    def test_save_writes_json_dump_text(self, tmp_path, agent):
        """`save` writes json's own text; loading it back keeps every Q-value's bits."""
        if agent == "micro_specialist":
            q = train_scalarized_q(micro_suite()[0][1], weight_grid(4, 3), 400, 0.95,
                                   RandomStream(12, (0,)), max_steps=12)
        elif agent == "generalist_11x11":
            q = train_scalarized_q(LavaGridSpace(), weight_grid(10, 3), 300, 0.995,
                                   RandomStream(13, (0,)), max_steps=28)
            assert len(q.tables) >= 10
            assert max(max(digest[:2]) for table in q.tables.values() for digest in table) >= 10
        else:
            q = train_scalarized_q(TWO_GOALS, weight_grid(2, 3), 50, 0.9,
                                   RandomStream(14, (0,)), max_steps=8)
            q.tables[max(q.tables)] = {}
            if agent == "no_tables":
                q.tables.clear()
            elif agent == "non_finite":
                table = q.tables[min(q.tables)]
                rows = sorted(table)
                table[rows[0]] = np.array([np.nan, np.inf, -np.inf])
                table[rows[-1]] = np.array([-np.inf, 1e-300, -0.0])
        path = tmp_path / "agent.json"
        q.save(path)
        assert path.read_text() == json.dumps(q.to_json_obj(), sort_keys=True, indent=1)
        q2 = TabularQ.load(path)
        assert q2.tables.keys() == q.tables.keys()
        for widx, table in q.tables.items():
            assert q2.tables[widx].keys() == table.keys()
            for digest, values in table.items():
                assert q2.tables[widx][digest].tobytes() == values.tobytes()

    def test_version_mismatch(self):
        with pytest.raises(ValueError):
            TabularQ.from_json_obj({"version": 999})


class TestRandomPolicyFront:
    def test_single_rollout(self):
        front = random_policy_front(TWO_GOALS, 1, 0.9, RandomStream(9, (3,)),
                                    max_steps=8)
        assert len(front) == 1

    def test_reproducible(self):
        a = random_policy_front(TWO_GOALS, 20, 0.9, RandomStream(10, (3,)), max_steps=8)
        b = random_policy_front(TWO_GOALS, 20, 0.9, RandomStream(10, (3,)), max_steps=8)
        assert a == b

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            random_policy_front(TWO_GOALS, 0, 0.9, RandomStream(0))

    def test_bounded_by_oracle_hypervolume(self):
        c = ctx(["Y.L.G", ".....", "..L.."], (2, 1), NORTH, [0.5, 0.5, 0.0])
        dp = pareto_backward_induction(c, 0.95, 12)
        front = random_policy_front(c, 100, 0.95, RandomStream(11, (3,)), max_steps=12)
        ref = dp.front.points.min(axis=0) - 1.0
        assert hypervolume(front, ref) <= hypervolume(dp.front, ref) + 1e-9
