"""Frozen reference for the domain-randomization draws of `LavaGridSpace.sample`.

This is the context sampler as it was before its layout and weight draws
were vectorized: the layout sampler (`random_layout`, since removed)
placed each tile in a per-cell loop, and the goal weights came from a
one-point simplex sampler. They are
unchanged but for their names (`reference_*`). `LavaGridSpace.sample`
must reproduce their tiles, start pose, weight bytes and generator state
exactly (see test_agents_reference.py).
"""

from __future__ import annotations

import numpy as np

from morlgen.lavagrid import (
    GOAL_CODES,
    LAVA,
    LavaGridContext,
    LavaGridLayout,
    LavaGridSpace,
    _lava_count_bounds,
)
from morlgen.stats import _rng_of


def reference_sample_simplex(stream, k: int) -> np.ndarray:
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = _rng_of(stream)
    if k == 1:
        return np.array([1.0])
    cuts = np.sort(rng.random(k - 1))
    w = np.diff(np.concatenate(([0.0], cuts, [1.0])))
    return w / w.sum()


def reference_random_layout(stream, lava_count_range, width: int, height: int) -> LavaGridLayout:
    rng = _rng_of(stream)
    lo, hi = _lava_count_bounds(lava_count_range, width, height)
    lava_count = int(rng.integers(lo, hi + 1))
    chosen = rng.choice(width * height, size=lava_count + 4, replace=False)
    tiles = np.zeros((height, width), dtype=np.int8)
    cells = [(int(c % width), int(c // width)) for c in chosen]
    for (x, y), code in zip(cells[1:4], GOAL_CODES):
        tiles[y, x] = code
    for x, y in cells[4:]:
        tiles[y, x] = LAVA
    return LavaGridLayout(tiles, cells[0], int(rng.integers(4)))


def reference_sample(space: LavaGridSpace, stream) -> LavaGridContext:
    rng = _rng_of(stream)
    layout = reference_random_layout(rng, space.lava_count_range, space.width, space.height)
    weights = reference_sample_simplex(rng, 3)
    return LavaGridContext(layout, weights)
