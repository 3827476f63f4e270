"""Desk-scale baseline agents: weight-conditioned tabular Q-learning.

A single trainer covers both the specialist (fixed context) and the
generalist (fresh context sampled per episode, i.e. domain randomization).
Preferences are discretized on a simplex grid; each grid weight owns its
own Q-table over the dynamic episode state (position, orientation,
collected-goals mask), and rewards are scalarized with that weight during
training. Greedy evaluation recovers the underlying vector returns, whose
Pareto filter is the agent's front. A uniform-random-policy floor
baseline rounds out the module. Training steps per-cell lists (those of
`lavagrid.compile_context`, or of a domain-randomized draw); greedy and
random rollouts step the context's (state, action) tables
(`lavagrid.state_tables`), which the oracle backs up too. None of them
steps the environment. Training and the random floor replay their
generator's draws on its raw words (`stats.WordReplay`).
"""

from __future__ import annotations

import itertools
import json
import numbers
import re
from collections import defaultdict
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .fronts import ParetoFront, pareto_filter
from .lavagrid import (
    DEFAULT_MAX_STEPS,
    NUM_ACTIONS,
    LavaGridContext,
    StateTables,
    compile_context,
    pose_geometry,
    state_tables,
)
from .stats import GENERATOR_ID, WordReplay, _rng_of

SNAPSHOT_VERSION = 1


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
    """Per-weight Q-tables keyed by the dynamic episode state."""

    weight_grid: np.ndarray
    alpha: float
    action_count: int = NUM_ACTIONS
    tables: dict[int, dict[tuple, np.ndarray]] = field(default_factory=dict)
    episodes_trained: int = 0
    metadata: dict = field(default_factory=dict)

    def greedy_action(self, widx: int, digest: tuple) -> int:
        table = self.tables.get(widx, {})
        q = table.get(digest)
        if q is None:
            return 0  # unseen state: ties break to the lowest action index
        return int(q.argmax())

    # -- snapshots --------------------------------------------------------

    def _head(self) -> dict:
        """The snapshot object without its tables."""
        return {
            "version": SNAPSHOT_VERSION,
            "alpha": self.alpha,
            "action_count": self.action_count,
            "episodes_trained": self.episodes_trained,
            "weight_grid": [[float(x) for x in row] for row in self.weight_grid],
            "metadata": dict(sorted(self.metadata.items())),
        }

    def to_json_obj(self) -> dict:
        return {
            **self._head(),
            "tables": {
                str(widx): {
                    ",".join(map(str, digest)): q.tolist()
                    for digest, q in sorted(table.items())
                }
                for widx, table in sorted(self.tables.items())
            },
        }

    def save(self, path) -> None:
        """Write the text of `json.dump(self.to_json_obj(), fh, sort_keys=True, indent=1)`.

        `json.dumps` renders the small fields around an empty `tables`; each
        weight table is then formatted as one string and written in one
        call, so the text of one table at a time is held.
        """
        text = json.dumps({**self._head(), "tables": {}}, sort_keys=True, indent=1)
        head, tail = text.split('\n "tables": {}', 1)  # the one key at indent 1
        with open(path, "w") as fh:
            fh.write(head + '\n "tables": {')
            sep = "\n"
            for widx, table in sorted(self.tables.items(), key=lambda item: str(item[0])):
                fh.write(f'{sep}  "{widx}": {_table_text(table)}')
                sep = ",\n"
            fh.write(("\n }" if self.tables else "}") + tail)

    @classmethod
    def from_json_obj(cls, obj) -> "TabularQ":
        """The agent of a snapshot object; ValueError names a bad or missing field."""
        if not isinstance(obj, dict):
            raise ValueError("a snapshot must be a JSON object")
        version = obj.get("version")
        if not (_is_int(version) and version == SNAPSHOT_VERSION):
            raise ValueError(f"unsupported snapshot version {version!r}")
        q = cls(
            weight_grid=_field(obj, "weight_grid", _matrix, "a 2-D array of numbers"),
            alpha=_field(obj, "alpha", _alpha, "a number in (0, 1]"),
            action_count=_field(obj, "action_count", _action_count, f"the integer {NUM_ACTIONS}"),
            episodes_trained=_field(obj, "episodes_trained", _count, "a non-negative integer"),
            metadata=(
                _field(obj, "metadata", _json_object, "an object") if "metadata" in obj else {}
            ),
        )
        indices = {str(i): i for i in range(len(q.weight_grid))}
        for widx, table in _field(obj, "tables", _json_object, "an object").items():
            if widx not in indices:
                raise ValueError(
                    f"snapshot table key {widx!r} is not a weight index 0 to {len(indices) - 1}"
                )
            q.tables[indices[widx]] = _parse_table(widx, table, q.action_count)
        return q

    @classmethod
    def load(cls, path) -> "TabularQ":
        with open(path) as fh:
            return cls.from_json_obj(json.load(fh))


def _table_text(table: dict[tuple, np.ndarray]) -> str:
    """One weight table as `json.dump(..., sort_keys=True, indent=1)` writes it at depth 2.

    States are ordered by their key strings, as json's `sort_keys` orders
    them. Q-values are written by `repr`, as json writes floats; a finite
    float's repr has no letter n, so only a table holding NaN or an
    infinity needs json's names for them.
    """
    if not table:
        return "{}"
    rows = sorted(
        ((",".join(map(str, digest)), q) for digest, q in table.items()), key=itemgetter(0)
    )
    text = ",\n".join(
        f'   "{key}": [\n    ' + ",\n    ".join(map(repr, q.tolist())) + "\n   ]"
        for key, q in rows
    )
    if "n" in text:
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return "{\n" + text + "\n  }"


_COORD = "(?:0|[1-9][0-9]*)"  # a canonical decimal integer, as `str` writes one
_STATE_KEY = re.compile(f"{_COORD},{_COORD},{_COORD},{_COORD}")
_STATE_KEYS = re.compile(f"{_STATE_KEY.pattern}(?:;{_STATE_KEY.pattern})*")


def _parse_table(widx: str, table: dict, action_count: int) -> dict[tuple, np.ndarray]:
    """One weight's snapshot table as {(x, y, dir, mask): Q-values}.

    Every state key must be "x,y,dir,mask" as `to_json_obj` writes it, so
    no two keys name one state. The keys, joined by ";", are checked in one
    regular-expression match; they and the Q-values are then each parsed
    in one numpy call, and every value is a row of one (states,
    action_count) array.
    """
    if not isinstance(table, dict):
        raise ValueError(f"snapshot table {widx} must be an object of states")
    if not table:
        return {}
    text = ";".join(table)
    if not (_STATE_KEYS.fullmatch(text) and text.count(";") == len(table) - 1):
        key = next(key for key in table if not _STATE_KEY.fullmatch(key))
        raise ValueError(
            f"snapshot table {widx}: state key {key!r} is not x,y,dir,mask in canonical decimal"
        )
    try:
        keys = np.array(text.replace(";", ",").split(","), dtype=np.int64).reshape(-1, 4)
        values = np.array(list(table.values()), dtype=float)
        if values.shape[1:] != (action_count,):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ValueError(
            f"snapshot table {widx}: every state needs a key of 4 integers "
            f"and {action_count} Q-values"
        ) from None
    return dict(zip(map(tuple, keys.tolist()), values))


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
    training ends; then the visited states move into `TabularQ.tables`
    under their (x, y, dir, mask) keys. State ids depend on the grid width,
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
    q = TabularQ(
        weight_grid=grid,
        alpha=alpha,
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
    width = size[0]
    for widx, table in sorted(store.items()):
        q.tables[widx] = {
            _state_key(s >> 3, s & 7, width): np.array(row) for s, row in table.items()
        }
    q.episodes_trained = int(episodes)
    return q


def _scalarized(w: np.ndarray, goal: float, lava: float) -> float:
    """w.r for the reward vector (goal, lava, -1), as a numpy dot product."""
    return float(w @ np.array([goal, lava, -1.0]))


def _state_key(pose: int, mask: int, width: int) -> tuple[int, int, int, int]:
    """The (x, y, dir, mask) Q-table key of a pose id and collected mask."""
    y, x = divmod(pose >> 2, width)
    return (x, y, pose & 3, mask)


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
    widx: int,
    tables: StateTables,
    gamma: float,
    max_steps: int | None = None,
) -> np.ndarray:
    """Discounted vector return of the greedy policy for one grid weight."""
    max_steps = DEFAULT_MAX_STEPS if max_steps is None else max_steps
    _check_rollout(gamma, max_steps)

    def choose(s: int) -> int:
        return q.greedy_action(widx, _state_key(s >> 3, s & 7, tables.width))

    return _play(tables, choose, gamma, max_steps)


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
    vectors = [
        greedy_value_vector(q, widx, tables, gamma, max_steps) for widx in range(n)
    ]
    return pareto_filter(np.array(vectors), tags=list(range(n)))


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
