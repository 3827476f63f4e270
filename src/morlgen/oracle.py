"""Exact optimal-front computation for deterministic gridworld contexts.

The optimal Pareto front of a finite-horizon deterministic episode is
computed by set-valued backward induction over the time-expanded state
(position, orientation, collected-goals mask): each state's return set is
the nondominated union, over actions, of the step reward plus the
discounted successor set. Every front vector carries a witness action
sequence, so fronts are replay-verifiable against the live environment.

The backup runs one horizon layer at a time on the context's
`lavagrid.state_tables` (next state, reward vector and terminal flag of
every (state, action)), and filters each layer's candidates with
`fronts.nondominated_by_group`, one group per state. An independent
brute-force enumerator over all action sequences provides the
cross-check oracle for small horizons. When the per-state set size
exceeds a cap, sets are thinned by epsilon-dominance pruning with the
smallest epsilon that respects the cap, and the result is flagged
approximate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import agents
from .fronts import ParetoFront, nondominated_by_group as _nondominated_entries, pareto_filter
from .lavagrid import (
    ACTION_CHARS,
    NUM_ACTIONS,
    LavaGridContext,
    LavaGridEnv,
    StateTables,
    state_tables,
)
from .momdp import rollout

MAX_ENUMERATION_HORIZON = 14


@dataclass(frozen=True)
class OracleFront:
    """An optimal-front estimate; each point's tag is its witness action string."""

    front: ParetoFront  # tags: action strings ('L','R','F'), aligned with points
    exact: bool
    epsilon: float = 0.0  # largest pruning epsilon applied, 0 when exact


def _build_tables(context: LavaGridContext) -> StateTables:
    """The context's (state, action) tables; raises ValueError if invalid."""
    return state_tables(context)


def _cover_index(entries: np.ndarray) -> tuple[np.ndarray, list[list[int]]]:
    """Each objective's column in ascending order, with prefix bitsets.

    prefixes[k][c] is the bitset (bit m for row m) of the c rows that come
    first in objective k's ascending order.
    """
    order = np.argsort(entries, axis=0, kind="stable")
    prefixes = []
    for rows in order.T.tolist():
        bits = [0]
        for m in rows:
            bits.append(bits[-1] | 1 << m)
        prefixes.append(bits)
    return np.take_along_axis(entries, order, axis=0).T.copy(), prefixes


def _eps_prune(entries: np.ndarray, eps: float, index) -> list[int]:
    """Indices of a subset such that every dropped vector is eps-dominated.

    Scans in order and keeps a vector unless an already-kept one is
    >= it minus eps in every objective. `index` is `_cover_index(entries)`.
    In objective k, the rows m with entries[m, k] - eps <= entries[i, k]
    are the first ones of the column's ascending order (subtracting eps
    keeps that order), so the rows that row i covers are an AND of three
    prefix bitsets, and the scan runs on bits.
    """
    ascending, (p0, p1, p2) = index
    low = ascending - eps
    c0, c1, c2 = [lk.searchsorted(ek, "right").tolist() for lk, ek in zip(low, entries.T)]
    uncovered = (1 << len(entries)) - 1
    kept = []
    while uncovered:
        i = (uncovered & -uncovered).bit_length() - 1  # the first uncovered row
        kept.append(i)
        uncovered &= ~(p0[c0[i]] & p1[c1[i]] & p2[c2[i]] | 1 << i)
    return kept


def _prune_to_cap(entries: np.ndarray, cap: int) -> tuple[list[int], float]:
    """Smallest-epsilon pruning (binary search) that respects the cap."""
    if len(entries) <= cap:
        return list(range(len(entries))), 0.0
    index = _cover_index(entries)
    hi = float((entries.max(axis=0) - entries.min(axis=0)).max())
    lo = 0.0
    best = None
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        pruned = _eps_prune(entries, mid, index)
        if len(pruned) <= cap:
            best, hi = (pruned, mid), mid
        else:
            lo = mid
    if best is None:
        best = (_eps_prune(entries, hi, index), hi)
    return best


def check_arguments(gamma: float, horizon: int, cap: int | None) -> None:
    """Raise ValueError unless :func:`pareto_backward_induction` accepts them."""
    if horizon < 1:
        raise ValueError("horizon must be positive")
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must be in [0, 1)")
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")


def pareto_backward_induction(
    context: LavaGridContext,
    gamma: float,
    horizon: int,
    cap: int | None = None,
) -> OracleFront:
    """Optimal Pareto front of discounted returns from the start state.

    Computes, for t = horizon down to 0, the nondominated set of returns
    achievable from each reachable state with horizon - t steps remaining;
    terminal states (all goals collected) contribute the zero vector.
    Each layer is backed up at once: the sets of all its states live in
    one array, and the candidates R + gamma * V of every (state, action)
    are filtered together. Exact whenever the per-state cap never binds.
    """
    check_arguments(gamma, horizon, cap)
    tables = _build_tables(context)
    next_state, rewards, terminal = tables.next_state, tables.rewards, tables.terminal

    # Forward reachability: states reachable in exactly t steps, ascending.
    reach = [np.array([tables.start])]
    seen = np.zeros(len(terminal), dtype=bool)
    for _ in range(horizon):
        prev = reach[-1]
        seen[:] = False
        seen[next_state[prev[~terminal[prev]]]] = True
        reach.append(np.flatnonzero(seen))

    # The sets of layer t: state reach[t][i] owns rows first[i]:first[i] +
    # count[i] of `vectors`. Row j's witness starts with action
    # node_action[t][nodes[j]] and goes on at node node_parent[t][nodes[j]]
    # of layer t + 1; node -1 ends a witness.
    states = reach[horizon]
    count = np.ones(len(states), dtype=np.int64)
    vectors = np.zeros((len(states), 3))
    nodes = np.full(len(states), -1, dtype=np.int32)
    node_action = [None] * horizon
    node_parent = [None] * horizon
    position = np.zeros(len(terminal), dtype=np.int64)  # a state's index in its layer
    max_eps = 0.0
    for t in range(horizon - 1, -1, -1):
        first = np.cumsum(count) - count
        layer_states = reach[t]
        is_live = ~terminal[layer_states]
        live = layer_states[is_live]
        # Candidates of every live (state, action) pair, pairs in order.
        position[states] = np.arange(len(states))
        succ = position[next_state[live]].ravel()
        sizes = count[succ]
        pair = np.repeat(np.arange(len(succ)), sizes)
        shift = first[succ] - (np.cumsum(sizes) - sizes)  # row of src minus row of pair
        src = np.arange(len(pair)) + np.repeat(shift, sizes)
        cand = vectors[src]
        cand *= gamma
        cand += np.repeat(rewards[live].reshape(-1, 3), sizes, axis=0)  # R + gamma * V
        group = pair // NUM_ACTIONS
        kept = _nondominated_entries(cand, group)
        if cap is not None:
            kept_sizes = np.bincount(group[kept], minlength=len(live))
            over = np.flatnonzero(kept_sizes > cap)
            if over.size:
                starts = np.cumsum(kept_sizes) - kept_sizes
                keep = np.repeat(kept_sizes <= cap, kept_sizes)
                for g in over:
                    lo = starts[g]
                    sub, eps = _prune_to_cap(cand[kept[lo:lo + kept_sizes[g]]], cap)
                    keep[lo + np.array(sub)] = True
                    max_eps = max(max_eps, eps)
                kept = kept[keep]
        node_action[t] = (pair[kept] % NUM_ACTIONS).astype(np.int8)
        node_parent[t] = nodes[src[kept]]
        # The new layer's rows, ordered by state: the kept candidates, and a
        # zero vector with node -1 for each terminal state in between.
        term_pos = np.flatnonzero(~is_live)
        owner = np.flatnonzero(is_live)[group[kept]]
        at = np.arange(len(kept)) + np.searchsorted(term_pos, owner)
        vectors = np.zeros((len(kept) + len(term_pos), 3))
        vectors[at] = cand[kept]
        nodes = np.full(len(vectors), -1, dtype=np.int32)
        nodes[at] = np.arange(len(kept))
        count = np.bincount(owner, minlength=len(layer_states))
        count[term_pos] = 1
        states = layer_states

    witnesses = []
    for node in nodes:
        chain = []
        t = 0
        while node >= 0:
            chain.append(ACTION_CHARS[node_action[t][node]])
            node = node_parent[t][node]
            t += 1
        witnesses.append("".join(chain))
    return OracleFront(
        front=pareto_filter(vectors, tags=witnesses),
        exact=max_eps == 0.0,
        epsilon=max_eps,
    )


def enumerate_returns(
    context: LavaGridContext, gamma: float, horizon: int
) -> ParetoFront:
    """Brute-force front: simulate every action sequence up to `horizon`.

    Episodes run until terminal or exactly `horizon` steps; the collected
    return vectors are Pareto-filtered. Independent of the backward
    induction path (drives the live environment step by step).
    """
    if horizon > MAX_ENUMERATION_HORIZON:
        raise ValueError(
            f"horizon {horizon} too large for exhaustive enumeration "
            f"(max {MAX_ENUMERATION_HORIZON})"
        )
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    env = LavaGridEnv(max_steps=max(horizon, 1))
    env.reset(context)
    returns: list[tuple] = []

    def dfs(depth: int, acc: np.ndarray, disc: float) -> None:
        if depth == horizon:
            returns.append(tuple(acc))
            return
        saved = env.clone_state()
        for a in range(NUM_ACTIONS):
            tr = env.step(a)
            nxt = acc + disc * tr.reward
            if tr.terminal:
                returns.append(tuple(nxt))
            else:
                dfs(depth + 1, nxt, disc * gamma)
            env.restore_state(saved)

    if horizon == 0:
        returns.append((0.0, 0.0, 0.0))
    else:
        dfs(0, np.zeros(3), 1.0)
    return pareto_filter(np.array(returns))


def replay_witness(
    context: LavaGridContext, actions: str, gamma: float, max_steps: int
) -> np.ndarray:
    """Discounted return of a scripted action sequence (witness validation)."""
    codes = [ACTION_CHARS.index(ch) for ch in actions]
    if not codes:
        return np.zeros(3)
    it = iter(codes)

    def policy(_obs) -> int:
        return next(it)

    env = LavaGridEnv(max_steps=max_steps)
    return rollout(env, policy, context, gamma, max_steps=len(codes))


def specialist_front(
    context: LavaGridContext,
    episodes: int,
    gamma: float,
    stream,
    weight_grid_resolution: int = 10,
    max_steps: int | None = None,
    alpha: float = 0.1,
) -> ParetoFront:
    """Optimal-front estimate from a specialist trained on the fixed context.

    Trains weight-conditioned tabular Q-learning on the context, evaluates
    the greedy policy for every grid weight, and Pareto-filters the value
    vectors. Unioned with a cap-bound backward-induction front, it recovers
    points that the epsilon-pruning dropped.
    """
    if episodes < 1:
        raise ValueError("training budget must be at least one episode")
    q = agents.train_scalarized_q(
        context_source=context,
        weight_grid=agents.weight_grid(weight_grid_resolution, 3),
        episodes=episodes,
        gamma=gamma,
        stream=stream,
        alpha=alpha,
        max_steps=max_steps,
    )
    front = agents.build_front(q, context, gamma, max_steps=max_steps)
    if len(front) == 0:
        raise RuntimeError("specialist training produced an empty front")
    return front
