"""Tests for the lava-and-goals gridworld domain."""

import numpy as np
import pytest

from morlgen import lavagrid
from morlgen.lavagrid import (
    DIR_CHARS,
    EAST,
    FORWARD,
    GOAL_BLUE,
    GOAL_GREEN,
    GOAL_REWARD,
    GOAL_YELLOW,
    NORTH,
    TURN_LEFT,
    TURN_RIGHT,
    WEST,
    LavaGridContext,
    LavaGridEnv,
    LavaGridLayout,
    LavaGridSpace,
    builtin_context,
    builtin_eval_contexts,
    compile_context,
    pose_geometry,
    random_layout,
    render_ascii,
)
from morlgen.stats import RandomStream


def ctx(rows, start, direction, weights):
    layout = LavaGridLayout.from_strings(rows, start, direction)
    return LavaGridContext(layout, np.array(weights, dtype=float))


FULL = ctx(
    ["G.Y", "...", "B.L"], (1, 1), EAST, [0.5, 0.3, 0.2]
)


def bfs_reachable(layout):
    """Independent BFS oracle over forward moves (lava passable)."""
    from collections import deque

    seen = {layout.agent_start}
    queue = deque(seen)
    while queue:
        x, y = queue.popleft()
        for dx, dy in ((0, 1), (0, -1), (1, 0), (-1, 0)):
            nx, ny = x + dx, y + dy
            if 0 <= nx < layout.width and 0 <= ny < layout.height and (nx, ny) not in seen:
                seen.add((nx, ny))
                queue.append((nx, ny))
    return seen


class TestLayout:
    def test_round_trip_strings(self):
        rows = ["G.Y", "...", "B.L"]
        layout = LavaGridLayout.from_strings(rows, (1, 1), EAST)
        assert layout.to_strings() == rows

    def test_validate_passes(self):
        FULL.validate()

    def test_duplicate_goal_rejected(self):
        with pytest.raises(ValueError):
            LavaGridLayout.from_strings(["GG.", "Y.B"], (2, 0), EAST).validate()

    def test_missing_goal_rejected_when_required(self):
        layout = LavaGridLayout.from_strings(["G.Y", "..."], (0, 1), EAST)
        with pytest.raises(ValueError):
            layout.validate(require_all_goals=True)
        layout.validate(require_all_goals=False)

    def test_start_on_nonempty_rejected(self):
        with pytest.raises(ValueError):
            LavaGridLayout.from_strings(["G.Y", "B.L"], (0, 0), EAST).validate()

    def test_unknown_character_rejected(self):
        with pytest.raises(ValueError):
            LavaGridLayout.from_strings(["G?Y"], (0, 0), EAST)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            LavaGridLayout.from_strings(["G.Y", ".."], (0, 1), EAST)

    @pytest.mark.parametrize("code", [-1, 5, 127])
    def test_out_of_range_code_rejected(self, code):
        layout = LavaGridLayout.from_strings(["G.Y", "..B"], (0, 1), EAST)
        layout.tiles[1, 1] = code
        with pytest.raises(ValueError, match="^tiles contain unknown cell codes$"):
            layout.validate()

    def test_validation_messages(self):
        dup = LavaGridLayout.from_strings(["GYG", "B.Y"], (1, 1), EAST)
        with pytest.raises(ValueError, match="^goal G appears 2 times$"):
            dup.validate()
        missing = LavaGridLayout.from_strings(["Y..", "..."], (1, 1), EAST)
        with pytest.raises(ValueError, match=r"^missing goal tile\(s\): \['G', 'B'\]$"):
            missing.validate()
        with pytest.raises(ValueError, match="^layout has no goal tiles$"):
            LavaGridLayout.from_strings(["L..", "..."], (1, 1), EAST).validate(False)

    def test_goal_positions_in_code_order(self):
        layout = LavaGridLayout.from_strings(["B.Y", "..G"], (1, 1), EAST)
        assert list(layout.goal_positions().items()) == [
            (GOAL_GREEN, (2, 1)), (GOAL_YELLOW, (2, 0)), (GOAL_BLUE, (0, 0))
        ]


class TestContext:
    def test_weights_must_sum_to_one(self):
        bad = ctx(["G.Y", "...", "B.L"], (1, 1), EAST, [0.5, 0.3, 0.3])
        with pytest.raises(ValueError):
            bad.validate()

    def test_negative_weight_rejected(self):
        bad = ctx(["G.Y", "...", "B.L"], (1, 1), EAST, [1.2, -0.1, -0.1])
        with pytest.raises(ValueError):
            bad.validate()

    def test_json_round_trip(self):
        obj = FULL.to_json_obj()
        back = LavaGridContext.from_json_obj(obj)
        assert back.layout.to_strings() == FULL.layout.to_strings()
        assert back.layout.agent_start == FULL.layout.agent_start
        assert back.layout.agent_dir == FULL.layout.agent_dir
        assert np.allclose(back.weights, FULL.weights)

    def test_json_dir_chars(self):
        assert FULL.to_json_obj()["agent"]["dir"] in DIR_CHARS

    def test_malformed_json_rejected(self):
        with pytest.raises(ValueError):
            LavaGridContext.from_json_obj({"tiles": ["G.Y"]})


class TestReset:
    def test_remaining_weights_equal_context(self):
        env = LavaGridEnv()
        obs = env.reset(FULL)
        assert np.allclose(obs.remaining_weights, FULL.weights)
        assert obs.collected_mask == 0

    def test_pose_matches_layout(self):
        c = ctx(["G.Y", "...", "B.."], (1, 1), EAST, [0.5, 0.3, 0.2])
        obs = LavaGridEnv().reset(c)
        assert (obs.x, obs.y) == (1, 1)
        assert obs.direction == EAST

    def test_two_resets_identical(self):
        env = LavaGridEnv()
        a, b = env.reset(FULL), env.reset(FULL)
        assert a.signature() == b.signature()
        assert np.array_equal(a.remaining_weights, b.remaining_weights)

    def test_remaining_weights_read_only_per_mask(self):
        c = ctx(["G..", "...", "..."], (1, 0), WEST, [0.5, 0.3, 0.2])
        env = LavaGridEnv()
        first = env.reset(c).remaining_weights
        assert not first.flags.writeable
        tr = env.step(TURN_LEFT)
        assert tr.next_observation.remaining_weights is first
        tr = env.step(TURN_RIGHT)
        tr = env.step(FORWARD)  # onto G
        assert tr.next_observation.remaining_weights.tolist() == [0.0, 0.3, 0.2]
        assert c.weights.tolist() == [0.5, 0.3, 0.2]


class TestCompiledContext:
    def test_tables(self):
        c = ctx(["B.L.G", ".....", "..L.."], (2, 1), NORTH, [0.45, 0.0, 0.55])
        model = compile_context(c)
        assert model.full_mask == 5  # G is bit 0, B is bit 2
        assert model.start_pose == (1 * 5 + 2) * 4 + NORTH
        assert model.cell_bit.tolist() == [4, 0, 0, 0, 1] + [0] * 10
        assert model.cell_goal[0] == GOAL_REWARD * 0.55
        assert model.cell_goal[4] == GOAL_REWARD * 0.45
        assert np.flatnonzero(model.cell_lava).tolist() == [2, 12]
        assert set(model.cell_lava.tolist()) == {0.0, -1.0}

    def test_pose_geometry(self):
        moves = pose_geometry(3, 2)
        assert moves.shape == (3 * 2 * 4, 3)
        assert not moves.flags.writeable
        pose = (1 * 3 + 2) * 4 + EAST  # (2, 1) facing the east wall
        assert moves[pose].tolist() == [pose - 1, pose + 1, pose]
        pose = (1 * 3 + 2) * 4 + NORTH
        assert moves[pose, FORWARD] == (0 * 3 + 2) * 4 + NORTH
        assert pose_geometry(3, 2) is moves  # cached per grid size

    def test_invalid_context_rejected(self):
        bad = ctx(["G.Y", "...", "B.L"], (1, 1), EAST, [0.5, 0.3, 0.3])
        with pytest.raises(ValueError, match="sum to 1"):
            compile_context(bad)


class TestStep:
    def test_forward_empty_cell(self):
        env = LavaGridEnv()
        env.reset(FULL)  # (1,1) facing east, (2,1) empty
        tr = env.step(FORWARD)
        assert tr.reward.tolist() == [0.0, 0.0, -1.0]
        assert tr.next_observation.signature()[:2] == (2, 1)

    def test_goal_collection_green(self):
        c = ctx([".G.", "...", "Y.B"], (0, 0), EAST, [0.5, 0.3, 0.2])
        env = LavaGridEnv()
        env.reset(c)
        tr = env.step(FORWARD)
        assert tr.reward.tolist() == [GOAL_REWARD * 0.5, 0.0, -1.0]
        assert tr.next_observation.remaining_weights[0] == 0.0

    def test_goal_pays_once(self):
        c = ctx([".G.", "...", "Y.B"], (0, 0), EAST, [0.5, 0.3, 0.2])
        env = LavaGridEnv()
        env.reset(c)
        env.step(FORWARD)
        tr = env.step(TURN_LEFT)  # still standing on the goal cell
        assert tr.reward.tolist() == [0.0, 0.0, -1.0]

    def test_turn_on_lava_charged(self):
        c = ctx(["L..", "...", "GYB"], (1, 0), WEST, [0.4, 0.3, 0.3])
        env = LavaGridEnv()
        env.reset(c)
        env.step(FORWARD)  # onto the lava cell
        tr = env.step(TURN_LEFT)
        assert tr.reward.tolist() == [0.0, -1.0, -1.0]

    def test_boundary_blocks(self):
        env = LavaGridEnv()
        obs = env.reset(ctx(["G.Y", "...", "B.."], (0, 1), WEST, [0.4, 0.3, 0.3]))
        tr = env.step(FORWARD)
        assert tr.next_observation.signature()[:2] == (0, 1)
        assert tr.reward.tolist() == [0.0, 0.0, -1.0]

    def test_turns_only_rotate(self):
        env = LavaGridEnv()
        env.reset(FULL)
        for action, want in ((TURN_LEFT, NORTH), (TURN_LEFT, WEST), (TURN_RIGHT, NORTH)):
            tr = env.step(action)
            x, y, d, _ = tr.next_observation.signature()
            assert (x, y) == (1, 1)
            assert d == want

    def test_four_turns_restore(self):
        env = LavaGridEnv()
        start = env.reset(FULL).signature()
        for _ in range(4):
            tr = env.step(TURN_RIGHT)
        assert tr.next_observation.signature() == start

    def test_terminal_after_all_goals(self):
        c = ctx(["GYB"], (0, 0), EAST, [0.4, 0.3, 0.3])
        # agent start must be empty; shift to a 2-row grid
        c = ctx(["GYB", "..."], (0, 1), NORTH, [0.4, 0.3, 0.3])
        env = LavaGridEnv()
        env.reset(c)
        env.step(FORWARD)  # onto G
        env.step(TURN_RIGHT)
        env.step(FORWARD)  # onto Y
        tr = env.step(FORWARD)  # onto B
        assert tr.terminal

    def test_goal_total_equals_goal_reward(self):
        c = ctx(["GYB", "..."], (0, 1), NORTH, [0.4, 0.3, 0.3])
        env = LavaGridEnv()
        env.reset(c)
        total = 0.0
        for a in (FORWARD, TURN_RIGHT, FORWARD, FORWARD):
            total += env.step(a).reward[0]
        assert total == pytest.approx(GOAL_REWARD)

    def test_truncation_at_max_steps(self):
        env = LavaGridEnv(max_steps=3)
        env.reset(FULL)
        env.step(TURN_LEFT)
        env.step(TURN_LEFT)
        tr = env.step(TURN_LEFT)
        assert tr.truncated and not tr.terminal

    def test_time_objective_counts_steps(self):
        env = LavaGridEnv(max_steps=6)
        env.reset(FULL)
        total = 0.0
        steps = 0
        while True:
            tr = env.step(TURN_RIGHT)
            total += tr.reward[2]
            steps += 1
            if tr.done:
                break
        assert total == -steps == -6

    def test_invalid_action(self):
        env = LavaGridEnv()
        env.reset(FULL)
        with pytest.raises(ValueError):
            env.step(3)

    def test_determinism_full_sequence(self):
        actions = [FORWARD, TURN_LEFT, FORWARD, TURN_RIGHT, FORWARD] * 3
        def run():
            env = LavaGridEnv(max_steps=20)
            env.reset(FULL)
            out = []
            for a in actions:
                tr = env.step(a)
                out.append((tr.next_observation.signature(), tuple(tr.reward)))
                if tr.done:
                    break
            return out
        assert run() == run()


class TestBuiltinContexts:
    TABLE3 = {
        "Snake": (0.20, 0.30, 0.50),
        "Room": (0.50, 0.30, 0.20),
        "Smiley": (0.40, 0.40, 0.20),
        "Maze": (0.05, 0.05, 0.90),
        "CheckerBoard": (0.30, 0.10, 0.60),
        "Corridor": (0.60, 0.10, 0.30),
        "Islands": (1 / 3, 1 / 3, 1 / 3),
        "Labyrinth": (0.50, 0.05, 0.45),
    }

    def test_names_and_weights(self):
        got = {name: tuple(c.weights) for name, c in builtin_eval_contexts()}
        assert set(got) == set(self.TABLE3)
        for name, weights in self.TABLE3.items():
            assert got[name] == pytest.approx(weights, abs=1e-12)

    def test_lookup(self):
        assert tuple(builtin_context("Maze").weights) == pytest.approx((0.05, 0.05, 0.90))
        assert tuple(builtin_context("Room").weights) == pytest.approx((0.50, 0.30, 0.20))

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin_context("Volcano")

    def test_layout_invariants_and_reachability(self):
        for name, c in builtin_eval_contexts():
            c.validate()
            goals = set(c.layout.goal_positions().values())
            assert goals <= bfs_reachable(c.layout), name

    def test_all_11x11(self):
        for _, c in builtin_eval_contexts():
            assert c.layout.tiles.shape == (11, 11)


class TestRandomLayout:
    def test_zero_lava(self):
        layout = random_layout(RandomStream(0), (0, 0), width=5, height=5)
        assert (layout.tiles != 1).all() or (layout.tiles == 1).sum() == 0

    def test_exactly_three_goals_distinct_cells(self):
        for seed in range(20):
            layout = random_layout(RandomStream(seed), (0, 5), width=6, height=6)
            layout.validate()
            assert len(layout.goal_positions()) == 3

    def test_reachability_oracle(self):
        for seed in range(200):
            layout = random_layout(RandomStream(seed), (0, 8), width=6, height=6)
            reach = bfs_reachable(layout)
            assert all(p in reach for p in layout.goal_positions().values())

    def test_impossible_range_rejected(self):
        with pytest.raises(ValueError):
            random_layout(RandomStream(0), (30, 30), width=3, height=3)

    def test_space_sampling_reproducible(self):
        space = LavaGridSpace(width=5, height=5, lava_count_range=(0, 4))
        a = space.sample(RandomStream(3))
        b = space.sample(RandomStream(3))
        assert a.layout.to_strings() == b.layout.to_strings()
        assert np.allclose(a.weights, b.weights)

    @pytest.mark.parametrize("cells, weights, message", [
        (lambda c: c[:1] * 2 + c[2:], None, "cells must be distinct"),
        (None, [1.2, -0.2, 0.0], "goal weights must be nonnegative"),
        (None, [0.5, 0.2, 0.2], "goal weights must sum to 1"),
        (None, [np.nan, np.nan, np.nan], "goal weights must be nonnegative"),
        (None, [np.nan, 1.0, 0.0], "goal weights must be nonnegative"),
    ], ids=["agent on a goal", "negative weight", "weights sum to 0.9", "NaN weights",
            "one NaN weight"])
    def test_draw_checked_as_validate_checks(self, monkeypatch, cells, weights, message):
        draw_cells = lavagrid._draw_cells
        if cells:
            monkeypatch.setattr(lavagrid, "_draw_cells", lambda *args: (
                cells(draw_cells(*args)[0]), 0))
        if weights:
            monkeypatch.setattr(lavagrid, "sample_simplex_batch",
                                lambda *args: np.array([weights]))
            with pytest.raises(ValueError, match=message):  # validate's own text
                LavaGridContext(FULL.layout, np.array(weights)).validate()
        with pytest.raises(ValueError, match=message):
            LavaGridSpace(5, 5, (0, 4)).draw(RandomStream(0))


class TestRender:
    def test_ascii_shows_agent(self):
        art = render_ascii(FULL)
        assert art.splitlines()[1][1] == ">"

    def test_ascii_tracks_env(self):
        env = LavaGridEnv()
        env.reset(FULL)
        env.step(TURN_LEFT)
        art = render_ascii(FULL, env)
        assert art.splitlines()[1][1] == "^"
