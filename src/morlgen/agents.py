"""Desk-scale baseline agents: weight-conditioned tabular Q-learning.

A single trainer covers both the specialist (fixed context) and the
generalist (fresh context sampled per episode, i.e. domain randomization).
Preferences are discretized on a simplex grid; each grid weight owns its
own Q-table over the dynamic episode state (position, orientation,
collected-goals mask), and rewards are scalarized with that weight during
training. Greedy evaluation recovers the underlying vector returns, whose
Pareto filter is the agent's front. A uniform-random-policy floor
baseline rounds out the module.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .fronts import ParetoFront, pareto_filter
from .lavagrid import DEFAULT_MAX_STEPS, LavaGridContext, LavaGridEnv, NUM_ACTIONS
from .momdp import rollout
from .stats import GENERATOR_ID, _rng_of

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

    def values(self, widx: int, digest: tuple) -> np.ndarray:
        table = self.tables.setdefault(widx, {})
        q = table.get(digest)
        if q is None:
            q = table[digest] = np.zeros(self.action_count)
        return q

    def greedy_action(self, widx: int, digest: tuple) -> int:
        table = self.tables.get(widx, {})
        q = table.get(digest)
        if q is None:
            return 0  # unseen state: ties break to the lowest action index
        return int(np.argmax(q))

    # -- snapshots --------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "version": SNAPSHOT_VERSION,
            "alpha": self.alpha,
            "action_count": self.action_count,
            "episodes_trained": self.episodes_trained,
            "weight_grid": [[float(x) for x in row] for row in self.weight_grid],
            "tables": {
                str(widx): {
                    ",".join(map(str, digest)): [float(v) for v in q]
                    for digest, q in sorted(table.items())
                }
                for widx, table in sorted(self.tables.items())
            },
            "metadata": dict(sorted(self.metadata.items())),
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_obj(), fh, sort_keys=True, indent=1)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TabularQ":
        if obj.get("version") != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {obj.get('version')!r}")
        q = cls(
            weight_grid=np.array(obj["weight_grid"], dtype=float),
            alpha=float(obj["alpha"]),
            action_count=int(obj["action_count"]),
            episodes_trained=int(obj["episodes_trained"]),
            metadata=dict(obj.get("metadata", {})),
        )
        for widx_str, table in obj["tables"].items():
            q.tables[int(widx_str)] = {
                tuple(int(x) for x in digest.split(",")): np.array(vals, dtype=float)
                for digest, vals in table.items()
            }
        return q

    @classmethod
    def load(cls, path) -> "TabularQ":
        with open(path) as fh:
            return cls.from_json_obj(json.load(fh))


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
    context space with a `sample(stream)` method (generalist mode: a fresh
    context is drawn for every training episode). Each episode also draws
    a uniform weight index from the grid and updates that weight's table
    with Q <- Q + alpha * (w.r + gamma * max_a' Q' - Q).
    """
    if episodes < 1:
        raise ValueError("episodes must be at least 1")
    grid = np.asarray(weight_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("weight grid must be nonempty")
    rng = _rng_of(stream)
    max_steps = DEFAULT_MAX_STEPS if max_steps is None else max_steps
    env = LavaGridEnv(max_steps=max_steps)
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
    for ep in range(episodes):
        ctx = context_source if fixed else context_source.sample(rng)
        widx = int(rng.integers(len(grid)))
        w = grid[widx]
        epsilon = _epsilon(ep, episodes, eps_start, eps_end, eps_anneal_frac)
        obs = env.reset(ctx)
        digest = obs.signature()
        for _ in range(max_steps):
            qvals = q.values(widx, digest)
            if rng.random() < epsilon:
                action = int(rng.integers(q.action_count))
            else:
                action = int(np.argmax(qvals))
            tr = env.step(action)
            scalar = float(w @ tr.reward)
            next_digest = tr.next_observation.signature()
            if tr.terminal:
                target = scalar
            else:
                target = scalar + gamma * float(q.values(widx, next_digest).max())
            qvals[action] += alpha * (target - qvals[action])
            digest = next_digest
            if tr.done:
                break
        q.episodes_trained += 1
    return q


def greedy_value_vector(
    q: TabularQ,
    widx: int,
    context: LavaGridContext,
    gamma: float,
    max_steps: int | None = None,
) -> np.ndarray:
    """Discounted vector return of the greedy policy for one grid weight."""
    max_steps = DEFAULT_MAX_STEPS if max_steps is None else max_steps
    env = LavaGridEnv(max_steps=max_steps)

    def policy(obs) -> int:
        return q.greedy_action(widx, obs.signature())

    return rollout(env, policy, context, gamma, max_steps=max_steps)


def build_front(
    q: TabularQ,
    weight_grid: np.ndarray,
    context: LavaGridContext,
    gamma: float,
    max_steps: int | None = None,
) -> ParetoFront:
    """Pareto filter of the greedy value vectors over the weight grid.

    Surviving points are tagged with their generating weight index.
    """
    n = len(weight_grid)
    vectors = [
        greedy_value_vector(q, widx, context, gamma, max_steps) for widx in range(n)
    ]
    return pareto_filter(np.array(vectors), tags=list(range(n)))


def random_policy_front(
    context: LavaGridContext,
    n: int,
    gamma: float,
    stream,
    max_steps: int | None = None,
) -> ParetoFront:
    """Floor baseline: Pareto filter of n uniform-random-action rollouts."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = _rng_of(stream)
    max_steps = DEFAULT_MAX_STEPS if max_steps is None else max_steps
    env = LavaGridEnv(max_steps=max_steps)
    vectors = []
    for _ in range(n):
        policy = lambda _obs: int(rng.integers(NUM_ACTIONS))  # noqa: E731
        vectors.append(rollout(env, policy, context, gamma, max_steps=max_steps))
    return pareto_filter(np.array(vectors))
