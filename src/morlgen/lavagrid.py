"""A deterministic lava-and-goals gridworld with weight-conditioned rewards.

The agent steers a MiniGrid-style triangle (turn left/right, forward) over
an 11x11 wall-enclosed grid to collect three colored goals. Rewards are
3-vectors ordered (goal, lava, time): collecting an uncollected goal pays
its color's share of a fixed bonus, standing on lava costs -1 per
timestep, and every step costs -1. Lava is traversable and never ends the
episode; the episode terminates once every goal present in the layout has
been collected, and truncates at a step cap.

Smaller grids are supported for desk-scale exact-oracle experiments; the
standard domain is 11x11 with all three goals present.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .momdp import EpisodeOverError, Transition
from .stats import _rng_of, sample_simplex_batch

EMPTY, LAVA, GOAL_GREEN, GOAL_YELLOW, GOAL_BLUE = 0, 1, 2, 3, 4
TILE_CHARS = ".LGYB"
GOAL_CODES = (GOAL_GREEN, GOAL_YELLOW, GOAL_BLUE)

NORTH, EAST, SOUTH, WEST = 0, 1, 2, 3
DIR_CHARS = "NESW"
# (dx, dy) per direction; y grows downward.
DIR_DELTAS = ((0, -1), (1, 0), (0, 1), (-1, 0))
AGENT_CHARS = "^>v<"

TURN_LEFT, TURN_RIGHT, FORWARD = 0, 1, 2
NUM_ACTIONS = 3
ACTION_CHARS = "LRF"

NUM_OBJECTIVES = 3  # (goal, lava, time)
GOAL_REWARD = 100.0
DEFAULT_MAX_STEPS = 256
DEFAULT_GAMMA = 0.995
DEFAULT_SIZE = 11


@dataclass
class LavaGridLayout:
    """Static grid content plus the agent's start pose.

    `tiles[y, x]` holds a cell code; the outer boundary is an implicit
    wall (moving off-grid is blocked), so there are no wall tiles.
    """

    tiles: np.ndarray
    agent_start: tuple[int, int]
    agent_dir: int

    def __post_init__(self):
        self.tiles = np.asarray(self.tiles, dtype=np.int8)
        self.agent_start = (int(self.agent_start[0]), int(self.agent_start[1]))
        self.agent_dir = int(self.agent_dir)

    @property
    def width(self) -> int:
        return self.tiles.shape[1]

    @property
    def height(self) -> int:
        return self.tiles.shape[0]

    def goal_positions(self) -> dict[int, tuple[int, int]]:
        """Mapping goal code -> (x, y) for goals present in the layout."""
        flat = self.tiles.ravel()
        cells = np.flatnonzero((flat >= GOAL_GREEN) & (flat <= GOAL_BLUE))
        found: dict[int, list[int]] = {}
        for cell, code in zip(cells.tolist(), flat[cells].tolist()):
            found.setdefault(code, []).append(cell)
        out = {}
        for code in GOAL_CODES:
            where = found.get(code)
            if where is None:
                continue
            if len(where) > 1:
                raise ValueError(f"goal {TILE_CHARS[code]} appears {len(where)} times")
            y, x = divmod(where[0], self.width)
            out[code] = (x, y)
        return out

    def validate(self, require_all_goals: bool = True) -> None:
        """Check layout invariants; raises ValueError on violation."""
        if self.tiles.ndim != 2:
            raise ValueError("tiles must be a 2-D grid")
        h, w = self.tiles.shape
        if h < 1 or w < 1:
            raise ValueError("grid must be nonempty")
        if self.tiles.min() < EMPTY or self.tiles.max() > GOAL_BLUE:
            raise ValueError("tiles contain unknown cell codes")
        goals = self.goal_positions()  # raises on duplicated colors
        if require_all_goals and len(goals) != len(GOAL_CODES):
            missing = [TILE_CHARS[c] for c in GOAL_CODES if c not in goals]
            raise ValueError(f"missing goal tile(s): {missing}")
        if not goals:
            raise ValueError("layout has no goal tiles")
        x, y = self.agent_start
        if not (0 <= x < w and 0 <= y < h):
            raise ValueError(f"agent start {self.agent_start} out of bounds")
        if self.tiles[y, x] != EMPTY:
            raise ValueError("agent start must be an empty tile")
        if not 0 <= self.agent_dir < 4:
            raise ValueError(f"invalid agent orientation {self.agent_dir}")

    @classmethod
    def from_strings(
        cls, rows: list[str], agent_start: tuple[int, int], agent_dir: int
    ) -> "LavaGridLayout":
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("rows must be nonempty and rectangular")
        try:
            tiles = np.array(
                [[TILE_CHARS.index(ch) for ch in row] for row in rows], dtype=np.int8
            )
        except ValueError as exc:
            raise ValueError(f"unknown tile character: {exc}") from None
        return cls(tiles, agent_start, agent_dir)

    def to_strings(self) -> list[str]:
        return ["".join(TILE_CHARS[c] for c in row) for row in self.tiles]


@dataclass
class LavaGridContext:
    """One complete environment configuration: layout plus goal weights."""

    layout: LavaGridLayout
    weights: np.ndarray  # (green, yellow, blue), summing to 1
    name: str | None = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)

    def validate(self, require_all_goals: bool = True) -> None:
        self.layout.validate(require_all_goals=require_all_goals)
        _check_goal_weights(self.weights)

    def to_json_obj(self) -> dict:
        obj = {
            "tiles": self.layout.to_strings(),
            "agent": {
                "x": self.layout.agent_start[0],
                "y": self.layout.agent_start[1],
                "dir": DIR_CHARS[self.layout.agent_dir],
            },
            "weights": [float(w) for w in self.weights],
        }
        if self.name is not None:
            obj["name"] = self.name
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "LavaGridContext":
        try:
            agent = obj["agent"]
            layout = LavaGridLayout.from_strings(
                list(obj["tiles"]),
                (int(agent["x"]), int(agent["y"])),
                DIR_CHARS.index(str(agent["dir"])),
            )
            weights = np.asarray(obj["weights"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed context object: {exc}") from None
        return cls(layout, weights, name=obj.get("name"))


def _check_goal_weights(weights: np.ndarray) -> None:
    if weights.shape != (3,):
        raise ValueError("weights must have exactly 3 components")
    if not (weights >= 0).all():  # false for NaN too
        raise ValueError(f"goal weights must be nonnegative numbers, got {weights.tolist()!r}")
    if abs(float(weights.sum()) - 1.0) > 1e-9:
        raise ValueError(f"goal weights must sum to 1, got {weights.sum()!r}")


@dataclass(frozen=True)
class LavaGridObs:
    """Full observation: static grid, agent pose, remaining goal weights."""

    tiles: np.ndarray
    x: int
    y: int
    direction: int
    remaining_weights: np.ndarray
    collected_mask: int

    def signature(self) -> tuple[int, int, int, int]:
        """The per-episode dynamic state (pose + collected goals)."""
        return (self.x, self.y, self.direction, self.collected_mask)


class LavaGridEnv:
    """Deterministic gridworld environment with vector rewards."""

    def __init__(self, max_steps: int = DEFAULT_MAX_STEPS):
        if max_steps < 1:
            raise ValueError("max_steps must be positive")
        self.max_steps = max_steps
        self._ctx: LavaGridContext | None = None

    def num_objectives(self) -> int:
        return NUM_OBJECTIVES

    def action_count(self) -> int:
        return NUM_ACTIONS

    def reset(self, context: LavaGridContext) -> LavaGridObs:
        context.validate(require_all_goals=False)
        self._ctx = context
        self._goals = context.layout.goal_positions()
        # bit i of the mask corresponds to GOAL_CODES[i]
        self._full_mask = sum(
            1 << i for i, code in enumerate(GOAL_CODES) if code in self._goals
        )
        # remaining goal weights per collected mask, shared by every observation
        self._remaining = []
        for mask in range(self._full_mask + 1):
            remaining = np.array(context.weights, dtype=float)
            for i in range(3):
                if mask & (1 << i):
                    remaining[i] = 0.0
            remaining.flags.writeable = False
            self._remaining.append(remaining)
        self._x, self._y = context.layout.agent_start
        self._dir = context.layout.agent_dir
        self._mask = 0
        self._steps = 0
        self._done = False
        return self._obs()

    def _obs(self) -> LavaGridObs:
        return LavaGridObs(
            tiles=self._ctx.layout.tiles,
            x=self._x,
            y=self._y,
            direction=self._dir,
            remaining_weights=self._remaining[self._mask],
            collected_mask=self._mask,
        )

    def step(self, action: int) -> Transition:
        if self._ctx is None:
            raise EpisodeOverError("reset() must be called before step()")
        if self._done:
            raise EpisodeOverError("episode is over; call reset()")
        if action == TURN_LEFT:
            self._dir = (self._dir - 1) % 4
        elif action == TURN_RIGHT:
            self._dir = (self._dir + 1) % 4
        elif action == FORWARD:
            dx, dy = DIR_DELTAS[self._dir]
            nx, ny = self._x + dx, self._y + dy
            layout = self._ctx.layout
            if 0 <= nx < layout.width and 0 <= ny < layout.height:
                self._x, self._y = nx, ny
        else:
            raise ValueError(f"invalid action {action!r}")

        reward = np.zeros(NUM_OBJECTIVES)
        cell = int(self._ctx.layout.tiles[self._y, self._x])
        if cell in GOAL_CODES:
            bit = 1 << GOAL_CODES.index(cell)
            if self._mask & bit == 0 and self._full_mask & bit:
                reward[0] += GOAL_REWARD * float(
                    self._ctx.weights[GOAL_CODES.index(cell)]
                )
                self._mask |= bit
        if cell == LAVA:
            reward[1] -= 1.0
        reward[2] -= 1.0

        self._steps += 1
        terminal = self._mask == self._full_mask
        truncated = not terminal and self._steps >= self.max_steps
        self._done = terminal or truncated
        return Transition(self._obs(), reward, terminal, truncated)

    # -- episode state save/restore (used by the exhaustive enumerator) ---

    def clone_state(self) -> tuple:
        return (self._x, self._y, self._dir, self._mask, self._steps, self._done)

    def restore_state(self, state: tuple) -> None:
        self._x, self._y, self._dir, self._mask, self._steps, self._done = state


# -- compiled model ---------------------------------------------------------
#
# The same dynamics as `LavaGridEnv`, as flat tables. A pose is one
# (x, y, direction) with id (y * width + x) * 4 + direction, so a pose's
# cell is pose >> 2. The pose geometry depends only on the grid size; the
# goal and lava tables depend on the context.


@functools.lru_cache(maxsize=16)
def pose_geometry(width: int, height: int) -> np.ndarray:
    """Next pose of every (pose, action) on a width x height grid.

    A read-only (width * height * 4, NUM_ACTIONS) integer array.
    """
    y, x, d = np.meshgrid(np.arange(height), np.arange(width), np.arange(4), indexing="ij")
    dx, dy = np.array(DIR_DELTAS).T
    fx, fy = x + dx[d], y + dy[d]
    inside = (fx >= 0) & (fx < width) & (fy >= 0) & (fy < height)
    moves = {  # action -> (nx, ny, nd)
        TURN_LEFT: (x, y, (d - 1) % 4),
        TURN_RIGHT: (x, y, (d + 1) % 4),
        FORWARD: (np.where(inside, fx, x), np.where(inside, fy, y), d),
    }
    nxt = np.empty((width * height * 4, NUM_ACTIONS), dtype=np.int64)
    for a, (nx, ny, nd) in moves.items():
        nxt[:, a] = ((ny * width + nx) * 4 + nd).ravel()
    nxt.flags.writeable = False
    return nxt


@dataclass(frozen=True)
class CompiledContext:
    """A validated context as flat per-cell tables over its pose geometry.

    Entering a cell whose goal bit is not yet in the collected mask pays
    (cell_goal, 0, -1) and sets the bit; entering any other cell pays
    (0, cell_lava, -1). The episode is terminal once the mask equals
    full_mask.
    """

    width: int
    height: int
    start_pose: int
    full_mask: int
    cell_bit: np.ndarray  # goal bit of each cell, 0 if none
    cell_goal: np.ndarray  # GOAL_REWARD * w_i on goal i's cell, else 0
    cell_lava: np.ndarray  # -1.0 on lava, else 0.0

    @property
    def next_pose(self) -> np.ndarray:
        return pose_geometry(self.width, self.height)


def _cell_lists(
    n_cells: int, goals, lava, weights: np.ndarray
) -> tuple[list[int], list[float], list[float]]:
    """The cell_bit, cell_goal and cell_lava tables of `CompiledContext`, as lists.

    `goals` holds a pair (i, cell) for goal GOAL_CODES[i] on cell, `lava`
    the lava cells; cells are flat ids y * width + x.
    """
    bit, goal, lava_r = [0] * n_cells, [0.0] * n_cells, [0.0] * n_cells
    for i, cell in goals:
        bit[cell] = 1 << i
        goal[cell] = GOAL_REWARD * float(weights[i])
    for cell in lava:
        lava_r[cell] = -1.0
    return bit, goal, lava_r


def compile_context(context: LavaGridContext) -> CompiledContext:
    """Validate `context` and compile it (see `CompiledContext`)."""
    context.validate(require_all_goals=False)
    layout = context.layout
    width = layout.width
    goals = [
        (GOAL_CODES.index(code), y * width + x) for code, (x, y) in layout.goal_positions().items()
    ]
    lava = np.flatnonzero(layout.tiles.ravel() == LAVA).tolist()
    cell_bit, cell_goal, cell_lava = _cell_lists(layout.tiles.size, goals, lava, context.weights)
    sx, sy = layout.agent_start
    return CompiledContext(
        width=width,
        height=layout.height,
        start_pose=(sy * width + sx) * 4 + layout.agent_dir,
        full_mask=sum(1 << i for i, _ in goals),
        cell_bit=np.array(cell_bit),
        cell_goal=np.array(cell_goal),
        cell_lava=np.array(cell_lava),
    )


@dataclass(frozen=True)
class StateTables:
    """A context's episode as tables over every (state, action).

    A state is a pose and a collected mask, with id pose << 3 | mask (a
    mask has one bit per goal colour). Action a in state s pays the
    reward vector rewards[s, a] and moves to next_state[s, a]; the
    episode ends on entering a state whose terminal flag is set.
    """

    width: int
    start: int
    next_state: np.ndarray  # (states, NUM_ACTIONS) int64
    rewards: np.ndarray  # (states, NUM_ACTIONS, NUM_OBJECTIVES)
    terminal: np.ndarray  # (states,) bool


def state_tables(context: LavaGridContext) -> StateTables:
    """Validate `context` and build its `StateTables` from `compile_context`."""
    model = compile_context(context)
    mask = np.arange(8)[None, :, None]
    pose = model.next_pose[:, None, :]  # (pose, 1, action): the next pose
    cell = pose >> 2
    bit = model.cell_bit[cell]
    fresh = (mask & bit) != bit  # an uncollected goal lies on the new cell
    next_state = pose << 3 | mask | bit  # (pose, mask, action)
    rewards = np.empty(next_state.shape + (NUM_OBJECTIVES,))
    rewards[..., 0] = np.where(fresh, model.cell_goal[cell], 0.0)
    rewards[..., 1] = model.cell_lava[cell]
    rewards[..., 2] = -1.0
    n_states = next_state.size // NUM_ACTIONS
    return StateTables(
        width=model.width,
        start=model.start_pose << 3,
        next_state=next_state.reshape(n_states, NUM_ACTIONS),
        rewards=rewards.reshape(n_states, NUM_ACTIONS, NUM_OBJECTIVES),
        terminal=np.arange(n_states) & 7 == model.full_mask,
    )


def render_ascii(context: LavaGridContext, env: LavaGridEnv | None = None) -> str:
    """Debug rendering: tile characters with the agent drawn as an arrow."""
    rows = [list(r) for r in context.layout.to_strings()]
    if env is not None and env._ctx is context:
        rows[env._y][env._x] = AGENT_CHARS[env._dir]
    else:
        x, y = context.layout.agent_start
        rows[y][x] = AGENT_CHARS[context.layout.agent_dir]
    return "\n".join("".join(r) for r in rows)


def _lava_count_bounds(lava_count_range, width: int, height: int) -> tuple[int, int]:
    """The (lo, hi) lava counts, checked to leave room for goals and agent."""
    lo, hi = int(lava_count_range[0]), int(lava_count_range[1])
    if lo < 0 or hi < lo:
        raise ValueError(f"invalid lava count range ({lo}, {hi})")
    if hi + 4 > width * height:
        raise ValueError("lava count range leaves no room for goals and agent")
    return lo, hi


def _draw_cells(rng, lava_count_range, width: int, height: int) -> tuple[list[int], int]:
    """A layout's draws: its lava count, its cells, then the agent's direction.

    The cells are distinct flat ids y * width + x: the agent's, the green,
    yellow and blue goals', then the lava cells. Lava is passable and the
    grid has no walls, so every goal is reachable from the start.
    """
    lo, hi = _lava_count_bounds(lava_count_range, width, height)
    lava_count = int(rng.integers(lo, hi + 1))
    cells = rng.choice(width * height, size=lava_count + 4, replace=False).tolist()
    return cells, int(rng.integers(4))


def _layout(cells: list[int], agent_dir: int, width: int, height: int) -> LavaGridLayout:
    tiles = np.zeros(width * height, dtype=np.int8)
    tiles[cells[1:4]] = GOAL_CODES
    tiles[cells[4:]] = LAVA
    y, x = divmod(cells[0], width)
    return LavaGridLayout(tiles.reshape(height, width), (x, y), agent_dir)


class ContextDraw(NamedTuple):
    """One domain-randomized context as `LavaGridSpace.draw` drew it."""

    width: int
    height: int
    cells: list[int]  # as `_draw_cells` gives them
    agent_dir: int
    weights: np.ndarray  # (green, yellow, blue)

    def cell_lists(self) -> tuple[int, int, list[int], list[float], list[float]]:
        """start_pose, full_mask and the per-cell tables of this draw, as lists.

        They equal `compile_context`'s for the context that
        `LavaGridSpace.sample` makes of the same draw, but need no context.
        """
        cells = self.cells
        goals = enumerate(cells[1:4])
        tables = _cell_lists(self.width * self.height, goals, cells[4:], self.weights)
        return (cells[0] * 4 + self.agent_dir, (1 << len(GOAL_CODES)) - 1, *tables)


@dataclass(frozen=True)
class LavaGridSpace:
    """Context parameter space for domain randomization."""

    width: int = DEFAULT_SIZE
    height: int = DEFAULT_SIZE
    lava_count_range: tuple[int, int] = (0, 30)

    def __post_init__(self):
        _lava_count_bounds(self.lava_count_range, self.width, self.height)

    def draw(self, stream) -> ContextDraw:
        """One context's draws: its layout's (`_draw_cells`), then its goal weights.

        A draw is checked for what `LavaGridContext.validate` requires of the
        context it makes: distinct cells, and weights that are nonnegative
        and sum to 1.
        """
        rng = _rng_of(stream)
        cells, agent_dir = _draw_cells(rng, self.lava_count_range, self.width, self.height)
        weights = sample_simplex_batch(rng, 3, 1)[0]
        if len(set(cells)) != len(cells):
            raise ValueError("agent, goal and lava cells must be distinct")
        _check_goal_weights(weights)
        return ContextDraw(self.width, self.height, cells, agent_dir, weights)

    def sample(self, stream) -> LavaGridContext:
        drawn = self.draw(stream)
        layout = _layout(drawn.cells, drawn.agent_dir, self.width, self.height)
        return LavaGridContext(layout, drawn.weights)


# -- builtin evaluation contexts ------------------------------------------
#
# The tile patterns are hand-authored to evoke each environment's name;
# goal weights are (green, yellow, blue).

_BUILTIN_SPECS: list[tuple[str, tuple[float, float, float], list[str], tuple[int, int], int]] = [
    (
        "Snake",
        (0.20, 0.30, 0.50),
        [
            "...........",
            ".LLLLLLLLL.",
            ".........L.",
            ".LLLLLLLLL.",
            ".L.........",
            ".LLLLLLLLL.",
            ".........L.",
            ".LLLLLLLLL.",
            ".L.........",
            ".L.G..Y..B.",
            "...........",
        ],
        (0, 0),
        SOUTH,
    ),
    (
        "Room",
        (0.50, 0.30, 0.20),
        [
            "...........",
            ".LLLLLLLLL.",
            ".L.......L.",
            ".L.G...Y.L.",
            ".L.......L.",
            ".L...B...L.",
            ".L.......L.",
            ".L.......L.",
            ".LLLL.LLLL.",
            "...........",
            "...........",
        ],
        (5, 10),
        NORTH,
    ),
    (
        "Smiley",
        (0.40, 0.40, 0.20),
        [
            "...........",
            "...........",
            "..LL...LL..",
            "..LL...LL..",
            "...........",
            ".....G.....",
            ".L.......L.",
            "..L.....L..",
            "...LLLLL...",
            "....Y.B....",
            "...........",
        ],
        (5, 0),
        SOUTH,
    ),
    (
        "Maze",
        (0.05, 0.05, 0.90),
        [
            "...........",
            "LLLL.LLLLL.",
            "...L.L...L.",
            ".L.L.L.L.L.",
            ".L.L.L.LGL.",
            ".L.L.L.LLL.",
            ".L...L...L.",
            ".LLLLLLL.L.",
            ".L.....L.L.",
            ".L.Y.B.L...",
            "...........",
        ],
        (0, 0),
        EAST,
    ),
    (
        "CheckerBoard",
        (0.30, 0.10, 0.60),
        [
            "...........",
            ".L.L.L.L.L.",
            "...........",
            ".L.L.L.L.L.",
            "...........",
            ".L.L.L.L.L.",
            "...........",
            ".L.L.L.L.L.",
            "...........",
            ".L.L.L.L.L.",
            "G....Y....B",
        ],
        (0, 0),
        EAST,
    ),
    (
        "Corridor",
        (0.60, 0.10, 0.30),
        [
            "...........",
            "LLLLLLLLLL.",
            "...........",
            ".LLLLLLLLLL",
            "G..........",
            "LLLLLLLLLL.",
            "..........Y",
            ".LLLLLLLLLL",
            "...........",
            "LLLLLLLLLL.",
            "B..........",
        ],
        (1, 0),
        EAST,
    ),
    (
        "Islands",
        (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
        [
            "...........",
            ".LL....LL..",
            ".LL....LL..",
            "....G......",
            "......LL...",
            ".LL...LL...",
            ".LL........",
            "....Y...LL.",
            "........LL.",
            ".B.........",
            "...........",
        ],
        (5, 10),
        NORTH,
    ),
    (
        "Labyrinth",
        (0.50, 0.05, 0.45),
        [
            "...........",
            ".LLLLLLLLL.",
            ".L.......L.",
            ".L.LLLLL.L.",
            ".L.L...L.L.",
            ".L.L.G.L.L.",
            ".L.L...L.L.",
            ".L.LLL.L.L.",
            ".L.......L.",
            ".LLLLLLLL..",
            "Y.........B",
        ],
        (0, 0),
        SOUTH,
    ),
]


def builtin_eval_contexts() -> list[tuple[str, LavaGridContext]]:
    """The 8 named evaluation contexts with their fixed goal weights."""
    out = []
    for name, weights, rows, agent, direction in _BUILTIN_SPECS:
        layout = LavaGridLayout.from_strings(rows, agent, direction)
        ctx = LavaGridContext(layout, np.array(weights), name=name)
        ctx.validate()
        out.append((name, ctx))
    return out


def builtin_context(name: str) -> LavaGridContext:
    for n, ctx in builtin_eval_contexts():
        if n == name:
            return ctx
    raise KeyError(f"unknown builtin context {name!r}")
