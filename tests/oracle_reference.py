"""Frozen per-state reference for `morlgen.oracle.pareto_backward_induction`.

This is the oracle's original pure-Python dynamic program, unchanged but
for the entry point's name (`reference_backward_induction`) and the
`OracleFront` it returns, whose front's tags are the witnesses. It builds the
tables with a loop over every (state, action), backs up one state at a
time, filters each state's candidates with a greedy scan over sorted
tuples, and prunes cap-bound states with the same epsilon bisection.
The layer-vectorized oracle must reproduce its points, witnesses, `exact`
and `epsilon` byte for byte (see test_oracle_reference.py).
"""

from __future__ import annotations

import numpy as np

from morlgen.fronts import pareto_filter
from morlgen.lavagrid import (
    ACTION_CHARS,
    DIR_DELTAS,
    FORWARD,
    GOAL_CODES,
    GOAL_REWARD,
    LAVA,
    NUM_ACTIONS,
    LavaGridContext,
)
from morlgen.oracle import OracleFront


def _build_tables(context: LavaGridContext):
    """Per-state transition and reward tables over (x, y, dir, mask)."""
    layout = context.layout
    w, h = layout.width, layout.height
    goals = layout.goal_positions()
    goal_bits = {pos: 1 << GOAL_CODES.index(code) for code, pos in goals.items()}
    goal_weight = {
        pos: GOAL_REWARD * float(context.weights[GOAL_CODES.index(code)])
        for code, pos in goals.items()
    }
    full_mask = sum(goal_bits.values())

    def encode(x, y, d, mask):
        return ((y * w + x) * 4 + d) * (full_mask + 1) + mask

    n_states = w * h * 4 * (full_mask + 1)
    next_state = np.empty((n_states, NUM_ACTIONS), dtype=np.int64)
    rewards = np.zeros((n_states, NUM_ACTIONS, 3))
    tiles = layout.tiles
    for y in range(h):
        for x in range(w):
            for d in range(4):
                for mask in range(full_mask + 1):
                    s = encode(x, y, d, mask)
                    for a in range(NUM_ACTIONS):
                        if a == FORWARD:
                            dx, dy = DIR_DELTAS[d]
                            nx, ny = x + dx, y + dy
                            if not (0 <= nx < w and 0 <= ny < h):
                                nx, ny = x, y
                            nd = d
                        else:
                            nx, ny, nd = x, y, (d - 1) % 4 if a == 0 else (d + 1) % 4
                        nmask = mask
                        r = [0.0, 0.0, -1.0]
                        bit = goal_bits.get((nx, ny), 0)
                        if bit and not mask & bit:
                            nmask = mask | bit
                            r[0] = goal_weight[(nx, ny)]
                        if tiles[ny, nx] == LAVA:
                            r[1] = -1.0
                        next_state[s, a] = encode(nx, ny, nd, nmask)
                        rewards[s, a] = r
    sx, sy = layout.agent_start
    start = encode(sx, sy, layout.agent_dir, 0)
    terminal = np.zeros(n_states, dtype=bool)
    for s in range(n_states):
        terminal[s] = s % (full_mask + 1) == full_mask
    return start, next_state, rewards, terminal


def _eps_prune(entries: list, eps: float) -> list:
    """Keep a subset such that every dropped vector is eps-dominated."""
    kept: list = []
    for vec, wit in entries:
        if not any(all(kv >= v - eps for kv, v in zip(k, vec)) for k, _ in kept):
            kept.append((vec, wit))
    return kept


def _prune_to_cap(entries: list, cap: int) -> tuple[list, float]:
    """Smallest-epsilon pruning (binary search) that respects the cap."""
    if len(entries) <= cap:
        return entries, 0.0
    arr = np.array([e[0] for e in entries])
    hi = float((arr.max(axis=0) - arr.min(axis=0)).max())
    lo = 0.0
    best = None
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        pruned = _eps_prune(entries, mid)
        if len(pruned) <= cap:
            best, hi = (pruned, mid), mid
        else:
            lo = mid
    if best is None:
        best = (_eps_prune(entries, hi), hi)
    return best


def _nondominated_entries(entries: list) -> list:
    """Nondominated, deduplicated (vector, witness) entries, canonical order."""
    entries = sorted(entries, key=lambda e: e[0], reverse=True)
    kept: list = []
    for vec, wit in entries:
        dominated = False
        for kv, _ in kept:
            if all(a >= b for a, b in zip(kv, vec)):
                dominated = True  # covers exact duplicates (kept first wins)
                break
        if not dominated:
            kept.append((vec, wit))
    return kept


def reference_backward_induction(
    context: LavaGridContext,
    gamma: float,
    horizon: int,
    cap: int | None = None,
) -> OracleFront:
    """Optimal Pareto front of discounted returns from the start state.

    Computes, for t = horizon down to 0, the nondominated set of returns
    achievable from each reachable state with horizon - t steps remaining;
    terminal states (all goals collected) contribute the zero vector.
    Exact whenever the per-state cap never binds.
    """
    if horizon < 1:
        raise ValueError("horizon must be positive")
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must be in [0, 1)")
    context.validate(require_all_goals=False)
    start, next_state, rewards, terminal = _build_tables(context)

    # Forward reachability: states reachable in exactly t steps.
    reach = [np.array([start])]
    for _ in range(horizon):
        prev = reach[-1]
        live = prev[~terminal[prev]]
        reach.append(np.unique(next_state[live].ravel()) if live.size else live)

    zero = (0.0, 0.0, 0.0)
    max_eps = 0.0
    # Witnesses are reverse-linked (action, tail) chains shared across layers.
    layer: dict[int, list] = {int(s): [(zero, None)] for s in reach[horizon]}
    for t in range(horizon - 1, -1, -1):
        new_layer: dict[int, list] = {}
        for s in map(int, reach[t]):
            if terminal[s]:
                new_layer[s] = [(zero, None)]
                continue
            candidates = []
            for a in range(NUM_ACTIONS):
                ns = int(next_state[s, a])
                r = rewards[s, a]
                for vec, wit in layer[ns]:
                    cand = (
                        r[0] + gamma * vec[0],
                        r[1] + gamma * vec[1],
                        r[2] + gamma * vec[2],
                    )
                    candidates.append((cand, (a, wit)))
            kept = _nondominated_entries(candidates)
            if cap is not None and len(kept) > cap:
                kept, eps = _prune_to_cap(kept, cap)
                max_eps = max(max_eps, eps)
            new_layer[s] = kept
        layer = new_layer

    entries = layer[start]
    vectors = np.array([e[0] for e in entries])
    witnesses = []
    for _, node in entries:
        actions = []
        while node is not None:
            a, node = node
            actions.append(ACTION_CHARS[a])
        witnesses.append("".join(actions))
    return OracleFront(
        front=pareto_filter(vectors, tags=witnesses),
        exact=max_eps == 0.0,
        epsilon=max_eps,
    )
