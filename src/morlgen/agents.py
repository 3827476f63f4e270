"""Desk-scale baseline agents: weight-conditioned tabular Q-learning.

A single trainer covers both the specialist (fixed context) and the
generalist (fresh context sampled per episode, i.e. domain randomization).
Preferences are discretized on a simplex grid; each grid weight owns its
own Q-table over the dynamic episode state (position, orientation,
collected-goals mask), and rewards are scalarized with that weight during
training. The tables are one array over the states any weight visited,
and snapshots store it compressed (`TabularQ`). Greedy evaluation
recovers the underlying vector returns, whose Pareto filter is the
agent's front. A uniform-random-policy floor baseline rounds out the
module. Training steps per-cell lists (those of
`lavagrid.compile_context`, or of a domain-randomized draw); greedy and
random rollouts step the context's (state, action) tables
(`lavagrid.state_tables`), which the oracle backs up too. None of them
steps the environment. Training and the random floor replay their
generator's draws on its raw words (`stats.WordReplay`).
"""

from __future__ import annotations

import base64
import itertools
import json
import math
import numbers
import zlib
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .fronts import ParetoFront, pareto_filter
from .lavagrid import (
    DEFAULT_MAX_STEPS,
    GOAL_CODES,
    NUM_ACTIONS,
    NUM_OBJECTIVES,
    LavaGridContext,
    StateTables,
    compile_context,
    pose_geometry,
    state_tables,
)
from .stats import GENERATOR_ID, WordReplay, _rng_of

SNAPSHOT_VERSION = 2


def weight_grid(resolution: int, k: int) -> np.ndarray:
    """All compositions of `resolution` into k parts, divided by resolution.

    A deterministic lattice covering the (k-1)-simplex; the number of rows
    is C(resolution + k - 1, k - 1).
    """
    if resolution < 1 or k < 1:
        raise ValueError("resolution and k must be positive")
    rows = []
    for cuts in itertools.combinations(range(resolution + k - 1), k - 1):
        prev = -1
        parts = []
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(resolution + k - 2 - prev)
        rows.append(parts)
    return np.array(rows, dtype=float) / resolution


@dataclass
class TabularQ:
    """Per-weight Q-tables over one sorted array of visited states.

    `keys` holds every (x, y, dir, mask) state that any grid weight
    visited, one row each, sorted. `values[w]` is weight w's (rows,
    action_count) Q-table over those rows; a row that weight never visited
    is zero, and its greedy action is 0, as for a state nobody visited.
    """

    weight_grid: np.ndarray
    alpha: float
    keys: np.ndarray  # (rows, 4) integers
    values: np.ndarray  # (weights, rows, action_count) float64
    action_count: int = NUM_ACTIONS
    episodes_trained: int = 0
    metadata: dict = field(default_factory=dict)

    @property
    def tables(self) -> dict[int, np.ndarray]:
        """Weight index -> that weight's (rows, action_count) Q-table, a view of `values`."""
        return dict(enumerate(self.values))

    # -- snapshots --------------------------------------------------------

    def to_json_obj(self) -> dict:
        """The snapshot object: the readable fields, then `keys` and `tables` as `_pack` text."""
        return {
            "version": SNAPSHOT_VERSION,
            "alpha": self.alpha,
            "action_count": self.action_count,
            "episodes_trained": self.episodes_trained,
            "weight_grid": [[float(x) for x in row] for row in self.weight_grid],
            "metadata": dict(sorted(self.metadata.items())),
            "rows": len(self.keys),
            "keys": _pack(self.keys, _KEY_DTYPE),
            "tables": _pack(self.values, _Q_DTYPE),
        }

    def save(self, path) -> None:
        """Write `json.dump(self.to_json_obj(), fh, sort_keys=True, indent=1)`'s text."""
        text = json.dumps(self.to_json_obj(), sort_keys=True, indent=1)
        with open(path, "w") as fh:
            fh.write(text)

    @classmethod
    def from_json_obj(cls, obj) -> "TabularQ":
        """The agent of a snapshot object; ValueError names a bad or missing field."""
        if not isinstance(obj, dict):
            raise ValueError("a snapshot must be a JSON object")
        version = obj.get("version")
        if not (_is_int(version) and version == SNAPSHOT_VERSION):
            raise ValueError(
                f"unsupported snapshot version {version!r}; "
                f"this morlgen reads version {SNAPSHOT_VERSION}"
            )
        grid = _field(obj, "weight_grid", _matrix, "a 2-D array of numbers")
        action_count = _field(obj, "action_count", _action_count, f"the integer {NUM_ACTIONS}")
        rows = _field(obj, "rows", _count, "a non-negative integer")
        keys = _unpack(obj, "keys", _KEY_DTYPE, (rows, 4), f"{rows} rows of 4 integers")
        _check_keys(keys)
        return cls(
            weight_grid=grid,
            alpha=_field(obj, "alpha", _alpha, "a number in (0, 1]"),
            action_count=action_count,
            keys=keys,
            values=_unpack(
                obj, "tables", _Q_DTYPE, (len(grid), rows, action_count),
                f"{len(grid)} weights x {rows} rows x {action_count} Q-values",
            ),
            episodes_trained=_field(obj, "episodes_trained", _count, "a non-negative integer"),
            metadata=(
                _field(obj, "metadata", _json_object, "an object") if "metadata" in obj else {}
            ),
        )

    @classmethod
    def load(cls, path) -> "TabularQ":
        with open(path) as fh:
            return cls.from_json_obj(json.load(fh))


_KEY_DTYPE = np.dtype("<i4")
_Q_DTYPE = np.dtype("<f8")
_MASKS = 1 << len(GOAL_CODES)  # a collected mask has one bit per goal colour


def _pack(array: np.ndarray, dtype: np.dtype) -> str:
    """Base64 text of the zlib-compressed bytes of `array` in `dtype`, in C order."""
    data = np.ascontiguousarray(array, dtype=dtype).tobytes()
    return base64.b64encode(zlib.compress(data)).decode("ascii")


def _unpack(obj: dict, name: str, dtype: np.dtype, shape: tuple, what: str) -> np.ndarray:
    """The read-only array that `_pack` wrote as field `name`, of `shape` in `dtype`.

    The text must be canonical base64 (what `_pack` writes) of one whole
    zlib stream of exactly the bytes of `shape`; it is inflated to at most
    that many bytes, so a stream that runs on is cut off and rejected, not
    held.
    """
    if name not in obj:
        raise ValueError(f"snapshot has no {name!r} field")
    size = math.prod(shape) * dtype.itemsize
    problem = f"snapshot field {name!r} must be base64 of zlib-compressed {what}"
    try:
        stream = base64.b64decode(obj[name], validate=True)
        if base64.b64encode(stream).decode("ascii") != obj[name]:
            raise ValueError  # padding or spare bits that another decoder may read otherwise
        inflate = zlib.decompressobj()
        # max_length 0 would mean no bound: an empty array reads at most one byte
        data = inflate.decompress(stream, size or 1)
    except (TypeError, ValueError, OverflowError, zlib.error):  # binascii.Error is a ValueError
        raise ValueError(f"{problem}, got {obj[name]!r:.40}") from None
    if len(data) < size:
        fault = f"the stream holds {len(data):,}" if inflate.eof else "the stream ends early"
    elif not inflate.eof:
        fault = "the stream runs on"
    elif inflate.unused_data:
        fault = f"the stream is followed by {len(inflate.unused_data):,} more bytes"
    else:
        return np.frombuffer(data, dtype).reshape(shape)
    raise ValueError(f"{problem} ({size:,} bytes); {fault}")


def _check_keys(keys: np.ndarray) -> None:
    """ValueError unless every key is a state (x, y >= 0, a direction, a mask), once, in order."""
    x, y, direction, mask = keys.T
    bad = (x < 0) | (y < 0) | (direction < 0) | (direction > 3) | (mask < 0) | (mask >= _MASKS)
    if bad.any():
        row = int(bad.argmax())
        raise ValueError(
            f"snapshot field 'keys': row {row} {tuple(keys[row].tolist())} is not a state "
            f"(x, y >= 0, dir 0 to 3, mask 0 to {_MASKS - 1})"
        )
    step = np.diff(keys.astype(np.int64), axis=0)
    moved = step != 0
    first = moved.argmax(axis=1)
    after = moved.any(axis=1) & (step[np.arange(len(step)), first] > 0)
    if not after.all():
        row = int(after.argmin()) + 1
        raise ValueError(
            f"snapshot field 'keys': row {row} {tuple(keys[row].tolist())} does not follow "
            f"row {row - 1} {tuple(keys[row - 1].tolist())}; keys must be unique and sorted"
        )


def _field(obj: dict, name: str, convert, expected: str):
    """`convert(obj[name])`, or a ValueError that names the missing or bad field."""
    if name not in obj:
        raise ValueError(f"snapshot has no {name!r} field")
    try:
        return convert(obj[name])
    except (TypeError, ValueError):
        raise ValueError(
            f"snapshot field {name!r} must be {expected}, got {obj[name]!r:.40}"
        ) from None


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _json_object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError
    return value


def _matrix(value) -> np.ndarray:
    if not isinstance(value, list) or not all(
        isinstance(row, list) and all(map(_is_real, row)) for row in value
    ):
        raise TypeError
    rows = np.array(value, dtype=float)
    if rows.ndim != 2:
        raise ValueError
    return rows


def _alpha(value) -> float:
    if not (_is_real(value) and 0.0 < value <= 1.0):
        raise ValueError
    return float(value)


def _action_count(value) -> int:
    if not (_is_int(value) and value == NUM_ACTIONS):
        raise ValueError
    return value


def _count(value) -> int:
    if not (_is_int(value) and value >= 0):
        raise ValueError
    return value


def _epsilon(episode: int, episodes: int, start: float, end: float, frac: float) -> float:
    anneal_span = max(1.0, frac * episodes)
    return start + (end - start) * min(1.0, episode / anneal_span)


def train_scalarized_q(
    context_source,
    weight_grid: np.ndarray,
    episodes: int,
    gamma: float,
    stream,
    alpha: float = 0.1,
    eps_start: float = 1.0,
    eps_end: float = 0.05,
    eps_anneal_frac: float = 0.8,
    max_steps: int | None = None,
) -> TabularQ:
    """Epsilon-greedy one-step TD learning on linearly scalarized rewards.

    `context_source` is either a fixed context (specialist mode) or a
    context space with a `draw(rng)` method like `LavaGridSpace.draw`
    (generalist mode: a fresh context is drawn for every training episode).
    Each episode also draws a uniform weight index from the grid and
    updates that weight's table with
    Q <- Q + alpha * (w.r + gamma * max_a' Q' - Q).

    Episodes step per-cell lists on integer pose and mask ids: those of
    `compile_context` for a fixed context, and `ContextDraw.cell_lists` of
    each drawn one, which needs no context object. Each weight's Q-values
    live in a dict keyed by state id pose << 3 | mask (a mask has one bit
    per goal colour), with a zero row made on a state's first visit, until
    training ends; then every visited state becomes one row of
    `TabularQ.keys`, as (x, y, dir, mask), and the Q-values fill
    `TabularQ.values` (`_arrays`). State ids depend on the grid width,
    so every drawn context must share one grid size. Every w.r is the float
    of a numpy dot product, as for the environment's reward vector, cached
    per weight and reward.

    The weight index, the epsilon tests and the random actions are the
    generator's `integers` and `random` draws, replayed on its raw words
    (`WordReplay`); the generator is synced before each context draw and
    at the end, so every draw is as numpy makes it.
    """
    if episodes < 1:
        raise ValueError("episodes must be at least 1")
    grid = np.asarray(weight_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("weight grid must be nonempty")
    rng = _rng_of(stream)
    max_steps = DEFAULT_MAX_STEPS if max_steps is None else max_steps
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    fixed = isinstance(context_source, LavaGridContext)
    size = None
    if fixed:  # validated and compiled once
        model = compile_context(context_source)
        size = (model.width, model.height)
        start_pose, full_mask = model.start_pose, model.full_mask
        cell_bit, cell_goal, cell_lava = (
            model.cell_bit.tolist(), model.cell_goal.tolist(), model.cell_lava.tolist()
        )
        goal_r: dict[tuple[int, int], float] = {}  # (weight, cell) -> w.r
    # w.r of a step onto a plain cell and onto lava, per weight
    plain_r = [_scalarized(w, 0.0, 0.0) for w in grid]
    lava_r = [_scalarized(w, 0.0, -1.0) for w in grid]
    # per weight: Q-values by state id
    store = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0.0]))
    draws = WordReplay(rng)
    below = draws.below
    episode_words = 2 * max_steps + 1  # the weight draw, then a test and an action per step
    for ep in range(episodes):
        if not fixed:
            draws.sync()  # the context draws are numpy's own
            drawn = context_source.draw(rng)
            if size is None:
                size = (drawn.width, drawn.height)
            elif (drawn.width, drawn.height) != size:
                raise ValueError("sampled contexts must share one grid size")
            start_pose, full_mask, cell_bit, cell_goal, cell_lava = drawn.cell_lists()
            goal_r = {}
        if ep == 0:
            moves = pose_geometry(*size).tolist()
        word = draws.reserve(episode_words).__next__
        widx = below(len(grid))
        explore = draws.random_bound(_epsilon(ep, episodes, eps_start, eps_end, eps_anneal_frac))
        table = store[widx]
        r_plain, r_lava = plain_r[widx], lava_r[widx]
        pose, mask = start_pose, 0
        qv = table[pose << 3]
        for _ in range(max_steps):
            if word() < explore:  # rng.random() < epsilon
                a = below(NUM_ACTIONS)
            else:  # argmax, ties to the lowest action
                q0, q1, q2 = qv
                a = 0 if q0 >= q1 and q0 >= q2 else (1 if q1 >= q2 else 2)
            pose = moves[pose][a]
            cell = pose >> 2
            bit = cell_bit[cell] & ~mask
            if bit:
                mask |= bit
                r = goal_r.get((widx, cell))
                if r is None:
                    r = goal_r[widx, cell] = _scalarized(grid[widx], cell_goal[cell], 0.0)
            else:
                r = r_lava if cell_lava[cell] else r_plain
            if mask == full_mask:  # terminal: no successor entry
                qv[a] += alpha * (r - qv[a])
                break
            nq = table[pose << 3 | mask]
            qv[a] += alpha * (r + gamma * max(nq) - qv[a])
            qv = nq
    draws.sync()
    keys, values = _arrays(store, len(grid), size[0])
    return TabularQ(
        weight_grid=grid,
        alpha=alpha,
        keys=keys,
        values=values,
        episodes_trained=int(episodes),
        metadata={
            "mode": "specialist" if fixed else "generalist",
            "gamma": gamma,
            "eps_start": eps_start,
            "eps_end": eps_end,
            "eps_anneal_frac": eps_anneal_frac,
            "max_steps": max_steps,
            "rng": GENERATOR_ID,
        },
    )


def _scalarized(w: np.ndarray, goal: float, lava: float) -> float:
    """w.r for the reward vector (goal, lava, -1), as a numpy dot product."""
    return float(w @ np.array([goal, lava, -1.0]))


def _arrays(store: dict, weights: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted (x, y, dir, mask) keys of every state id in `store`, and the Q array.

    `store` maps a weight index to that weight's {state id: Q-values}; a
    state id is pose << 3 | mask on a grid `width` cells wide.
    """
    ids = np.array(sorted(set().union(*store.values())), dtype=np.int64)
    pose, mask = ids >> 3, ids & 7
    y, x = np.divmod(pose >> 2, width)
    order = np.lexsort((mask, pose & 3, y, x))
    keys = np.stack([x, y, pose & 3, mask], axis=1)[order]
    row = dict(zip(ids[order].tolist(), range(len(ids))))
    values = np.zeros((weights, len(ids), NUM_ACTIONS))
    for widx, table in store.items():
        values[widx, [row[s] for s in table]] = list(table.values())
    return keys, values


def _play(tables: StateTables, choose, gamma: float, max_steps: int) -> np.ndarray:
    """Discounted vector return of one episode on a context's tables.

    `choose(state)` picks each action. The return accumulates
    ret += disc * r per objective, as `momdp.rollout` does on the
    environment, so both give the same floats. Entries are read with
    `ndarray.item`, which needs no Python copy of the tables.
    """
    next_state, rewards, terminal = tables.next_state, tables.rewards, tables.terminal
    s = tables.start
    goal = lava = time = 0.0
    disc = 1.0
    for _ in range(max_steps):
        a = choose(s)
        goal += disc * rewards.item(s, a, 0)
        lava += disc * rewards.item(s, a, 1)
        time += disc * rewards.item(s, a, 2)
        disc *= gamma
        s = next_state.item(s, a)
        if terminal.item(s):
            break
    return np.array([goal, lava, time])


def _check_rollout(gamma: float, max_steps: int) -> None:
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must be in [0, 1)")


def greedy_value_vector(
    q: TabularQ,
    widx,
    tables: StateTables,
    gamma: float,
    max_steps: int | None = None,
) -> np.ndarray:
    """Discounted vector returns of the greedy policies of grid weights `widx`.

    `widx` is one weight index, giving one vector, or an array of them,
    giving one row per index. The weights' episodes run in lockstep: each
    step maps every state to its row of `q.keys` through one state-id
    array (a state no weight visited maps to action 0), takes one argmax
    per weight, and adds disc * r to each weight's return while its
    episode runs. Those are the float operations of `_play`, per weight,
    so every vector is the one a rollout of that weight alone gives.
    """
    max_steps = DEFAULT_MAX_STEPS if max_steps is None else max_steps
    _check_rollout(gamma, max_steps)
    lanes = np.asarray(widx, dtype=np.intp).reshape(-1)
    next_state, rewards, terminal = tables.next_state, tables.rewards, tables.terminal
    width, rows = tables.width, len(q.keys)
    x, y, direction, mask = q.keys.astype(np.int64).T
    here = np.flatnonzero((x < width) & (y < len(terminal) // (width * 4 * _MASKS)))
    row_of = np.full(len(terminal), rows)  # the row past the last: action 0
    row_of[((y[here] * width + x[here]) << 2 | direction[here]) << 3 | mask[here]] = here
    greedy = np.zeros((len(lanes), rows + 1), dtype=np.intp)
    greedy[:, :rows] = q.values[lanes].argmax(axis=2)
    lane = np.arange(len(lanes))
    s = np.full(len(lanes), tables.start)
    running = np.ones(len(lanes), dtype=bool)
    ret = np.zeros((len(lanes), NUM_OBJECTIVES))
    disc = 1.0
    for _ in range(max_steps):
        a = greedy[lane, row_of[s]]
        np.add(ret, disc * rewards[s, a], out=ret, where=running[:, None])
        disc *= gamma
        s = next_state[s, a]
        running &= ~terminal[s]
        if not running.any():
            break
    return ret.reshape(np.shape(widx) + (NUM_OBJECTIVES,))


def build_front(
    q: TabularQ,
    context: LavaGridContext,
    gamma: float,
    max_steps: int | None = None,
) -> ParetoFront:
    """Pareto filter of the greedy value vectors over the agent's weight grid.

    Surviving points are tagged with their generating weight index.
    """
    tables = state_tables(context)
    n = len(q.weight_grid)
    vectors = greedy_value_vector(q, np.arange(n), tables, gamma, max_steps)
    return pareto_filter(vectors, tags=list(range(n)))


def random_policy_front(
    context: LavaGridContext,
    n: int,
    gamma: float,
    stream,
    max_steps: int | None = None,
) -> ParetoFront:
    """Floor baseline: Pareto filter of n uniform-random-action rollouts.

    Each action is the generator's `integers(NUM_ACTIONS)` draw, replayed
    on its raw words (`WordReplay`); a rollout that ends early leaves the
    words it did not use for the next one.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = _rng_of(stream)
    max_steps = DEFAULT_MAX_STEPS if max_steps is None else max_steps
    _check_rollout(gamma, max_steps)
    tables = state_tables(context)
    draws = WordReplay(rng)
    below = draws.below
    vectors = []
    for _ in range(n):
        draws.reserve(max_steps)
        vectors.append(_play(tables, lambda _s: below(NUM_ACTIONS), gamma, max_steps))
    draws.sync()
    return pareto_filter(np.array(vectors))
