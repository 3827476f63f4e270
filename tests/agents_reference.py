"""Frozen environment-driven reference for the agents in `morlgen.agents`.

This is the trainer, greedy rollout and random floor as they were before
they moved onto the compiled context model, unchanged but for their
names (`reference_*`) and for the Q-tables: the trainer keeps its own
per-weight {(x, y, dir, mask): Q-values} dicts (`_values` is the former
`TabularQ.values` method) and fills them out to `TabularQ`'s arrays at
the end (`array_form`), and the greedy rollout looks a state up by its
key (`greedy_action`, the former `TabularQ.greedy_action`). They step the
readable `LavaGridEnv` one observation at a time. The compiled versions
must reproduce their snapshots (`to_json_obj()`) and fronts byte for byte
(see test_agents_reference.py).
"""

from __future__ import annotations

import numpy as np

from morlgen.agents import TabularQ, _epsilon
from morlgen.fronts import ParetoFront, pareto_filter
from morlgen.lavagrid import DEFAULT_MAX_STEPS, LavaGridContext, LavaGridEnv, NUM_ACTIONS
from morlgen.momdp import rollout
from morlgen.stats import GENERATOR_ID, _rng_of


def _values(tables: dict, widx: int, digest: tuple) -> np.ndarray:
    table = tables.setdefault(widx, {})
    vals = table.get(digest)
    if vals is None:
        vals = table[digest] = np.zeros(NUM_ACTIONS)
    return vals


def array_form(grid: np.ndarray, tables: dict) -> tuple[np.ndarray, np.ndarray]:
    """`TabularQ`'s keys and values of per-weight {(x, y, dir, mask): Q-values} `tables`.

    One row per state that any weight visited, in sorted key order; a
    weight's row of a state it never visited is zero.
    """
    keys = sorted(set().union(*tables.values()))
    row = {key: i for i, key in enumerate(keys)}
    values = np.zeros((len(grid), len(keys), NUM_ACTIONS))
    for widx, table in tables.items():
        for key, vals in table.items():
            values[widx, row[key]] = vals
    return np.array(keys, dtype=np.int64).reshape(-1, 4), values


def greedy_action(q: TabularQ, rows: dict, widx: int, digest: tuple) -> int:
    """The argmax of weight widx's Q-values at state `digest`; 0 for an unseen state.

    `rows` maps each key of `q.keys`, as a tuple, to its row.
    """
    row = rows.get(digest)
    if row is None:
        return 0  # unseen state: ties break to the lowest action index
    return int(q.values[widx, row].argmax())


def reference_train_scalarized_q(
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
    if episodes < 1:
        raise ValueError("episodes must be at least 1")
    grid = np.asarray(weight_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("weight grid must be nonempty")
    rng = _rng_of(stream)
    max_steps = DEFAULT_MAX_STEPS if max_steps is None else max_steps
    env = LavaGridEnv(max_steps=max_steps)
    fixed = isinstance(context_source, LavaGridContext)
    metadata = {
        "mode": "specialist" if fixed else "generalist",
        "gamma": gamma,
        "eps_start": eps_start,
        "eps_end": eps_end,
        "eps_anneal_frac": eps_anneal_frac,
        "max_steps": max_steps,
        "rng": GENERATOR_ID,
    }
    tables: dict[int, dict[tuple, np.ndarray]] = {}
    for ep in range(episodes):
        ctx = context_source if fixed else context_source.sample(rng)
        widx = int(rng.integers(len(grid)))
        w = grid[widx]
        epsilon = _epsilon(ep, episodes, eps_start, eps_end, eps_anneal_frac)
        obs = env.reset(ctx)
        digest = obs.signature()
        for _ in range(max_steps):
            qvals = _values(tables, widx, digest)
            if rng.random() < epsilon:
                action = int(rng.integers(NUM_ACTIONS))
            else:
                action = int(np.argmax(qvals))
            tr = env.step(action)
            scalar = float(w @ tr.reward)
            next_digest = tr.next_observation.signature()
            if tr.terminal:
                target = scalar
            else:
                target = scalar + gamma * float(_values(tables, widx, next_digest).max())
            qvals[action] += alpha * (target - qvals[action])
            digest = next_digest
            if tr.done:
                break
    keys, values = array_form(grid, tables)
    return TabularQ(weight_grid=grid, alpha=alpha, keys=keys, values=values,
                    episodes_trained=episodes, metadata=metadata)


def reference_greedy_value_vector(
    q: TabularQ,
    widx: int,
    context: LavaGridContext,
    gamma: float,
    max_steps: int | None = None,
) -> np.ndarray:
    max_steps = DEFAULT_MAX_STEPS if max_steps is None else max_steps
    env = LavaGridEnv(max_steps=max_steps)
    rows = {tuple(key): i for i, key in enumerate(q.keys.tolist())}

    def policy(obs) -> int:
        return greedy_action(q, rows, widx, obs.signature())

    return rollout(env, policy, context, gamma, max_steps=max_steps)


def reference_build_front(
    q: TabularQ,
    weight_grid: np.ndarray,
    context: LavaGridContext,
    gamma: float,
    max_steps: int | None = None,
) -> ParetoFront:
    n = len(weight_grid)
    vectors = [
        reference_greedy_value_vector(q, widx, context, gamma, max_steps)
        for widx in range(n)
    ]
    return pareto_filter(np.array(vectors), tags=list(range(n)))


def reference_random_policy_front(
    context: LavaGridContext,
    n: int,
    gamma: float,
    stream,
    max_steps: int | None = None,
) -> ParetoFront:
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
