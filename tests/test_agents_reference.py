"""The compiled-model agents against their frozen environment-driven reference.

`agents_reference.py` holds the trainer, greedy rollout and random floor
that stepped `LavaGridEnv`. The tests here require byte-identical
snapshots (`to_json_obj()` as JSON text, so every float and every visited
state key counts) and byte-identical greedy and random fronts. The
domain-randomized contexts are pinned on their own: `LavaGridSpace.sample`
to the frozen per-cell sampler in `draws_reference.py`, and the per-cell
lists that the trainer builds from `LavaGridSpace.draw` to
`compile_context` of the sampled context.
"""

import json

import numpy as np
import pytest

import agents_reference as ref
import draws_reference
from conftest import MICRO_GAMMA, MICRO_HORIZON, micro_suite
from morlgen.agents import (
    build_front,
    random_policy_front,
    train_scalarized_q,
    weight_grid,
)
from morlgen.lavagrid import (
    LAVA,
    NORTH,
    LavaGridContext,
    LavaGridEnv,
    LavaGridLayout,
    LavaGridSpace,
    builtin_eval_contexts,
    compile_context,
)
from morlgen.stats import RandomStream

GRID = weight_grid(4, 3)
MICRO = micro_suite()
# The only goal lies one step ahead of the start: many episodes end on a
# terminal step, the rest are truncated.
ONE_STEP = LavaGridContext(
    LavaGridLayout.from_strings(["LGL", "...", "..."], (1, 1), NORTH), np.array([1.0, 0.0, 0.0])
)
EPSILONS = {
    "annealed": {},
    "greedy": {"eps_start": 0.0, "eps_end": 0.0},
    "random": {"eps_start": 1.0, "eps_end": 1.0},
}


def snapshot_text(q):
    return json.dumps(q.to_json_obj(), sort_keys=True)


def assert_same_training(source, episodes, seed, gamma=MICRO_GAMMA, **kwargs):
    args = (source, GRID, episodes, gamma, RandomStream(seed, (1,)))
    new = train_scalarized_q(*args, alpha=0.2, **kwargs)
    old = ref.reference_train_scalarized_q(*args, alpha=0.2, **kwargs)
    assert snapshot_text(new) == snapshot_text(old)
    return new


def assert_same_front(new, old):
    assert new.points.shape == old.points.shape
    assert new.points.tobytes() == old.points.tobytes()
    assert new.tags == old.tags


@pytest.mark.parametrize("eps", sorted(EPSILONS))
def test_micro_specialists_match_reference(eps):
    for seed, (name, ctx) in enumerate(MICRO):
        q = assert_same_training(ctx, 300, seed, max_steps=MICRO_HORIZON, **EPSILONS[eps])
        assert_same_front(
            build_front(q, ctx, MICRO_GAMMA, max_steps=MICRO_HORIZON),
            ref.reference_build_front(q, GRID, ctx, MICRO_GAMMA, max_steps=MICRO_HORIZON),
        )


@pytest.mark.parametrize("eps", sorted(EPSILONS))
@pytest.mark.parametrize("space", [LavaGridSpace(5, 3, (1, 3)), LavaGridSpace(11, 11, (0, 30))],
                         ids=["5x3", "11x11"])
def test_domain_randomized_generalists_match_reference(space, eps):
    q = assert_same_training(space, 150, 7, max_steps=20, **EPSILONS[eps])
    assert q.metadata["mode"] == "generalist"


@pytest.mark.parametrize("max_steps", [1, 2])
def test_truncated_episodes_match_reference(max_steps):
    for seed, (name, ctx) in enumerate(MICRO):
        assert_same_training(ctx, 50, seed, max_steps=max_steps)
    assert_same_training(LavaGridSpace(5, 3, (1, 3)), 50, 3, max_steps=max_steps)


@pytest.mark.parametrize("eps", sorted(EPSILONS))
def test_terminal_episodes_match_reference(eps, monkeypatch):
    ends = {"terminal": 0, "truncated": 0}

    class CountingEnv(LavaGridEnv):
        def step(self, action):
            tr = super().step(action)
            ends["terminal"] += tr.terminal
            ends["truncated"] += tr.truncated
            return tr

    monkeypatch.setattr(ref, "LavaGridEnv", CountingEnv)
    q = assert_same_training(ONE_STEP, 200, 5, gamma=0.9, max_steps=4, **EPSILONS[eps])
    assert ends["terminal"] > 0 and ends["truncated"] > 0
    for max_steps in (1, 4):
        assert_same_front(
            build_front(q, ONE_STEP, 0.9, max_steps=max_steps),
            ref.reference_build_front(q, GRID, ONE_STEP, 0.9, max_steps=max_steps),
        )


def front_contexts():
    """The 8 builtins, sampled 11x11 DR contexts and an 11x11 two-goal context."""
    contexts = [ctx for _, ctx in builtin_eval_contexts()]
    contexts += [LavaGridSpace().sample(RandomStream(seed, (5,))) for seed in range(3)]
    maze = builtin_eval_contexts()[3][1]
    rows = [row.replace("Y", ".") for row in maze.layout.to_strings()]
    layout = LavaGridLayout.from_strings(rows, maze.layout.agent_start, maze.layout.agent_dir)
    contexts.append(LavaGridContext(layout, np.array([0.4, 0.0, 0.6])))  # full mask 5
    return contexts


def test_builtin_fronts_match_reference():
    gamma = 0.995
    q = assert_same_training(LavaGridSpace(), 200, 11, gamma=gamma, max_steps=28)
    for max_steps in (1, 2, 28, 64):
        for idx, ctx in enumerate(front_contexts()):
            assert_same_front(
                build_front(q, ctx, gamma, max_steps=max_steps),
                ref.reference_build_front(q, GRID, ctx, gamma, max_steps=max_steps),
            )
            stream = RandomStream(idx, (3,))
            assert_same_front(
                random_policy_front(ctx, 20, gamma, stream, max_steps=max_steps),
                ref.reference_random_policy_front(ctx, 20, gamma, stream, max_steps=max_steps),
            )


@pytest.mark.parametrize("max_steps", [1, 2, MICRO_HORIZON, 64])
def test_random_fronts_match_reference(max_steps):
    for idx, (name, ctx) in enumerate(MICRO + [("OneStep", ONE_STEP)]):
        stream = RandomStream(idx, (3,))
        assert_same_front(
            random_policy_front(ctx, 100, MICRO_GAMMA, stream, max_steps=max_steps),
            ref.reference_random_policy_front(ctx, 100, MICRO_GAMMA, stream, max_steps=max_steps),
        )


def test_rollout_arguments_checked_like_reference():
    ctx = MICRO[0][1]
    q = train_scalarized_q(ctx, GRID, 5, MICRO_GAMMA, RandomStream(0))
    for kwargs in ({"gamma": 1.0}, {"gamma": -0.1}, {"max_steps": 0}):
        args = {"gamma": MICRO_GAMMA, "max_steps": MICRO_HORIZON, **kwargs}
        with pytest.raises(ValueError) as new:
            build_front(q, ctx, args["gamma"], max_steps=args["max_steps"])
        with pytest.raises(ValueError) as old:
            ref.reference_build_front(q, GRID, ctx, args["gamma"], max_steps=args["max_steps"])
        assert str(new.value) == str(old.value)


@pytest.mark.parametrize("space", [LavaGridSpace(11, 11, (0, 30)), LavaGridSpace(5, 3, (1, 3))],
                         ids=["11x11", "5x3"])
def test_domain_randomized_draws_match_reference(space):
    """Same tiles, start pose, weight bytes and generator state, draw after draw.

    The trainer's per-cell lists of each draw (`ContextDraw.cell_lists`)
    equal `compile_context` of the context that `sample` makes, field by
    field.
    """
    lava_counts = set()
    for seed in range(1000):
        rngs = [RandomStream(seed, (9,)).rng() for _ in range(3)]
        new_rng, old_rng, draw_rng = rngs
        for _ in range(3):
            new, old = space.sample(new_rng), draws_reference.reference_sample(space, old_rng)
            assert new.layout.tiles.dtype == old.layout.tiles.dtype
            assert new.layout.tiles.shape == old.layout.tiles.shape
            assert new.layout.tiles.tobytes() == old.layout.tiles.tobytes()
            assert new.layout.agent_start == old.layout.agent_start
            assert new.layout.agent_dir == old.layout.agent_dir
            assert new.weights.tobytes() == old.weights.tobytes()
            drawn = space.draw(draw_rng)
            model = compile_context(new)
            assert (drawn.width, drawn.height) == (model.width, model.height)
            start_pose, full_mask, cell_bit, cell_goal, cell_lava = drawn.cell_lists()
            assert start_pose == model.start_pose and full_mask == model.full_mask
            assert cell_bit == model.cell_bit.tolist()
            assert cell_goal == model.cell_goal.tolist()
            assert cell_lava == model.cell_lava.tolist()
            assert new_rng.bit_generator.state == old_rng.bit_generator.state
            assert draw_rng.bit_generator.state == old_rng.bit_generator.state
            lava_counts.add(int((new.layout.tiles == LAVA).sum()))
    lo, hi = space.lava_count_range
    assert lava_counts == set(range(lo, hi + 1))


def test_sampled_contexts_must_share_one_grid_size():
    class TwoSizes:
        def __init__(self):
            self.spaces = [LavaGridSpace(5, 3, (1, 3)), LavaGridSpace(4, 4, (1, 3))]
            self.draws = 0

        def draw(self, rng):
            self.draws += 1
            return self.spaces[self.draws % 2].draw(rng)

    with pytest.raises(ValueError, match="one grid size"):
        train_scalarized_q(TwoSizes(), GRID, 4, MICRO_GAMMA, RandomStream(0), max_steps=3)
