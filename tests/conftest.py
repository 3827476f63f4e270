"""Shared fixtures: the fixed micro-context suite and its evaluation config.

The micro suite is five 5x3 contexts with an exactly computable optimal
front whose objective ranges are nondegenerate in all three objectives.
Four share one lava topology (two goals in the top corners, a lava tile
blocking the direct route to the right goal and a lava pocket below) so
routing trade-offs, not layout quirks, drive the fronts; the fifth is
the vertical mirror of that topology with the goals pulled inward.
"""

import base64
import zlib

import numpy as np
import pytest

from morlgen import harness
from morlgen.lavagrid import NORTH, SOUTH, LavaGridContext, LavaGridLayout

MICRO_GAMMA = 0.95
MICRO_HORIZON = 12


def dominates(a, b):
    """Test-side Pareto dominance: a >= b everywhere and > somewhere."""
    return bool(np.all(np.asarray(a) >= b) and np.any(np.asarray(a) > b))


def micro_context(rows, weights, name, start=(2, 1), direction=NORTH):
    layout = LavaGridLayout.from_strings(rows, start, direction)
    ctx = LavaGridContext(layout, np.array(weights, dtype=float), name=name)
    ctx.validate(require_all_goals=False)
    return ctx


def micro_suite():
    """Five named micro-contexts for oracle-grounded end-to-end tests."""
    return [
        ("ForkYG", micro_context(["Y.L.G", ".....", "..L.."], [0.5, 0.5, 0.0], "ForkYG")),
        ("ForkGY", micro_context(["G.L.Y", ".....", "..L.."], [0.6, 0.4, 0.0], "ForkGY")),
        ("ForkBG", micro_context(["B.L.G", ".....", "..L.."], [0.45, 0.0, 0.55], "ForkBG")),
        ("ForkYB", micro_context(["Y.L.B", ".....", "..L.."], [0.0, 0.55, 0.45], "ForkYB")),
        ("ForkSouth", micro_context(["..L..", ".....", "G.LY."], [0.5, 0.5, 0.0],
                                     "ForkSouth", direction=SOUTH)),
    ]


def micro_config(seeds=(0, 1, 2, 3, 4), train_episodes=20000):
    return harness.EvalConfig(
        contexts=micro_suite(),
        seeds=list(seeds),
        gamma=MICRO_GAMMA,
        max_steps=MICRO_HORIZON,
        train_episodes=train_episodes,
        weight_grid_resolution=4,
        alpha=0.2,
        dr_width=5,
        dr_height=3,
        dr_lava_range=(1, 3),
    )


def packed(array, dtype):
    """Base64 text of the zlib-compressed bytes of `array` in `dtype`: a v2 snapshot member."""
    return base64.b64encode(zlib.compress(np.asarray(array, dtype=dtype).tobytes())).decode()


def unpacked(text, dtype, shape):
    """The writable array of a v2 snapshot member's text, in `shape`."""
    return np.frombuffer(zlib.decompress(base64.b64decode(text)), dtype).reshape(shape).copy()


def q_values(obj):
    """A snapshot object's Q array, (weights, rows, action_count)."""
    shape = (len(obj["weight_grid"]), obj["rows"], obj["action_count"])
    return unpacked(obj["tables"], "<f8", shape)


def with_keys(change):
    """A snapshot edit: `keys` re-packed after `change` edits the (rows, 4) array in place."""
    def edit(obj):
        keys = unpacked(obj["keys"], "<i4", (-1, 4))
        change(keys)
        return {**obj, "keys": packed(keys, "<i4")}
    return edit


def with_stream(name, change):
    """A snapshot edit: member `name` re-encoded after `change(stream)` edits its zlib bytes."""
    def edit(obj):
        return {**obj, name: base64.b64encode(change(base64.b64decode(obj[name]))).decode()}
    return edit


def with_text(name, change):
    """A snapshot edit: member `name`'s base64 text edited by `change(text)`."""
    return lambda obj: {**obj, name: change(obj[name])}


@pytest.fixture(scope="session")
def micro_contexts():
    return micro_suite()


@pytest.fixture(scope="session")
def micro_eval_config():
    return micro_config()
