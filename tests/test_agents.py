"""Tests for tabular scalarized Q-learning and the random-policy baseline."""

import hashlib
import json
import math
import re
import zlib
from pathlib import Path

import numpy as np
import pytest

from conftest import micro_suite, packed, with_keys, with_stream, with_text
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

        # one sorted row per state that any weight visited; zero where a weight did not
        keys = sorted(set().union(*tables.values()))
        assert q.keys.tolist() == [list(key) for key in keys]
        expected = np.zeros((len(grid), len(keys), 3))
        for widx, table in tables.items():
            for sig, vals in table.items():
                expected[widx, keys.index(sig)] = vals
        assert q.values.shape == expected.shape
        assert np.allclose(q.values, expected, atol=1e-12)

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
        q = TabularQ(weight_grid=weight_grid(2, 3), alpha=0.1,
                     keys=np.empty((0, 4), dtype=np.int64), values=np.zeros((6, 0, 3)))
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


def swap_rows(keys):
    keys[[0, 1]] = keys[[1, 0]]


def repeat_row(keys):
    keys[1] = keys[0]


FIXTURE = Path(__file__).parent / "data" / "snapshot_v2.json"


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
        assert q.metadata == q2.metadata
        assert q2.keys.tolist() == q.keys.tolist()
        assert q2.values.dtype == np.float64 and q2.values.shape == q.values.shape
        assert q2.values.tobytes() == q.values.tobytes()
        assert q2.tables.keys() == q.tables.keys() == set(range(len(grid)))

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
        """A tables member must hold weights x rows x 3 Q-values: not one fewer, 4 or 2 a row."""
        q = train_scalarized_q(TWO_GOALS, weight_grid(2, 3), 100, 0.9,
                               RandomStream(8, (0,)), max_steps=8)
        values = q.values
        if rows == "all_wide":
            values = np.concatenate([values, np.zeros(values.shape[:2] + (1,))], axis=2)
        elif rows == "all_narrow":
            values = values[..., :2]
        else:
            values = values.reshape(-1)[:-1]
        obj = {**q.to_json_obj(), "tables": packed(values, "<f8")}
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
            assert q.values.any(axis=(1, 2)).sum() >= 10
            assert q.keys[:, :2].max() >= 10
        else:
            q = train_scalarized_q(TWO_GOALS, weight_grid(2, 3), 50, 0.9,
                                   RandomStream(14, (0,)), max_steps=8)
            q.values[-1] = 0.0  # a weight with an empty table
            if agent == "no_tables":
                q.keys, q.values = q.keys[:0], q.values[:, :0]
            elif agent == "non_finite":
                q.values[0, 0] = [np.nan, np.inf, -np.inf]
                q.values[0, -1] = [-np.inf, 1e-300, -0.0]
        path = tmp_path / "agent.json"
        q.save(path)
        assert path.read_text() == json.dumps(q.to_json_obj(), sort_keys=True, indent=1)
        q2 = TabularQ.load(path)
        assert q2.keys.tolist() == q.keys.tolist()
        assert q2.values.shape == q.values.shape
        assert q2.values.tobytes() == q.values.tobytes()

    def test_version_mismatch(self):
        with pytest.raises(ValueError):
            TabularQ.from_json_obj({"version": 999})

    def test_version_1_named(self):
        v1 = {"version": 1, "alpha": 0.1, "action_count": 3, "episodes_trained": 1,
              "weight_grid": [[1.0, 0.0, 0.0]], "tables": {"0": {"1,0,0,0": [0.0, 0.0, 0.0]}}}
        with pytest.raises(ValueError, match="unsupported snapshot version 1; .* version 2"):
            TabularQ.from_json_obj(v1)

    @pytest.mark.parametrize("message, edit", [
        pytest.param("no 'keys' field", lambda obj: {k: v for k, v in obj.items() if k != "keys"},
                     id="no keys"),
        pytest.param("'rows' must be a non-negative integer", lambda obj: {**obj, "rows": -1},
                     id="rows negative"),
        pytest.param("'rows' must be a non-negative integer", lambda obj: {**obj, "rows": True},
                     id="rows bool"),
        pytest.param("'tables' must be base64", lambda obj: {**obj, "tables": 5},
                     id="tables a number"),
        pytest.param("'keys' must be base64", with_text("keys", lambda t: t[:4] + " " + t[4:]),
                     id="space in base64"),
        pytest.param("'keys' must be base64", with_text("keys", lambda t: t + "\n"),
                     id="newline after base64"),
        pytest.param("'tables' must be base64", with_text("tables", lambda t: t[:-1]),
                     id="base64 one character short"),
        pytest.param("'tables' must be base64", with_text("tables", lambda t: t + "===="),
                     id="base64 excess padding"),
        pytest.param("'tables' must be base64", with_stream("tables", zlib.decompress),
                     id="not zlib"),
        pytest.param("the stream ends early", with_stream("tables", lambda z: z[:len(z) // 2]),
                     id="truncated stream"),
        pytest.param("the stream runs on", lambda obj: {**obj, "rows": obj["rows"] - 1},
                     id="oversized stream"),
        pytest.param("the stream holds 8", with_stream("tables", lambda z: zlib.compress(
            zlib.decompress(z)[:8])), id="short stream"),
        pytest.param("followed by 2 more bytes", with_stream("keys", lambda z: z + b"\0\0"),
                     id="bytes after the stream"),
        pytest.param("keys must be unique and sorted", with_keys(swap_rows), id="unsorted keys"),
        pytest.param("keys must be unique and sorted", with_keys(repeat_row),
                     id="duplicate keys"),
        pytest.param("row 0 (", with_keys(lambda keys: keys.__setitem__((0, 2), 4)), id="dir 4"),
        pytest.param("row 0 (", with_keys(lambda keys: keys.__setitem__((0, 2), -1)),
                     id="dir -1"),
        pytest.param("is not a state", with_keys(lambda keys: keys.__setitem__((-1, 3), 8)),
                     id="mask 8"),
        pytest.param("is not a state", with_keys(lambda keys: keys.__setitem__((0, 0), -1)),
                     id="x -1"),
        pytest.param("is not a state", with_keys(lambda keys: keys.__setitem__((0, 1), -1)),
                     id="y -1"),
    ])
    def test_malformed_member_rejected(self, message, edit):
        """Each v2 member is strict: a ValueError names the member and what is wrong."""
        q = train_scalarized_q(TWO_GOALS, weight_grid(2, 3), 100, 0.9,
                               RandomStream(8, (0,)), max_steps=8)
        obj = q.to_json_obj()
        assert obj["rows"] >= 2
        with pytest.raises(ValueError, match=re.escape(message)):
            TabularQ.from_json_obj(edit(obj))

    def test_loaded_arrays_are_read_only(self, tmp_path):
        path = tmp_path / "agent.json"
        train_scalarized_q(TWO_GOALS, weight_grid(2, 3), 20, 0.9, RandomStream(8, (0,)),
                           max_steps=8).save(path)
        q = TabularQ.load(path)
        assert not q.keys.flags.writeable and not q.values.flags.writeable

    def test_committed_v2_snapshot(self):
        """The committed snapshot loads to the same Q bytes and greedy front everywhere."""
        q = TabularQ.load(FIXTURE)
        assert q.values.shape == (6, 41, 3) and q.episodes_trained == 300
        assert hashlib.sha256(q.keys.astype("<i4").tobytes()).hexdigest() == (
            "06cde9c036dfb83fccf31542b40b8cd7dfe1e6ee7aa30791fad46817f2994ce2"
        )
        assert hashlib.sha256(q.values.astype("<f8").tobytes()).hexdigest() == (
            "1988c0afd0e3dcb5be62174a245c0fc0bbee017712863e77bed2397319fbadf4"
        )
        goals = ["0x1.4400000000000p+5", "0x1.9000000000000p+5", "0x0.0p+0"]
        vectors = [[goal, "0x0.0p+0", "-0x1.6c8040979fc46p+2"] for goal in goals]
        vectors += [["0x1.4b3851eb851ecp+6", "0x0.0p+0", "-0x1.06161e4f765fep+2"]] * 3
        tables = state_tables(TWO_GOALS)
        got = greedy_value_vector(q, np.arange(6), tables, 0.9, max_steps=8)
        assert [[x.hex() for x in vector] for vector in got.tolist()] == vectors
        front = build_front(q, TWO_GOALS, 0.9, max_steps=8)
        assert [[x.hex() for x in point] for point in front.points.tolist()] == vectors[3:4]
        assert front.tags == [3]


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
