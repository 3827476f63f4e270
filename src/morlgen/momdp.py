"""Episode rollout for multi-objective environments with vector rewards.

A context fully determines one environment configuration (transitions,
rewards, initial state). An environment exposes `reset(context)`,
`step(action) -> Transition`, `num_objectives()` and `action_count()`;
`rollout` accumulates the discounted vector return of a policy on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


@dataclass(frozen=True)
class Transition:
    """One environment step: next observation, vector reward, end flags."""

    next_observation: Any
    reward: np.ndarray
    terminal: bool
    truncated: bool

    @property
    def done(self) -> bool:
        return self.terminal or self.truncated


class EpisodeOverError(RuntimeError):
    """Raised when step() is called after terminal/truncated without reset."""


def rollout(
    env,
    policy: Callable[[Any], int],
    context,
    gamma: float,
    max_steps: int = 256,
) -> np.ndarray:
    """Discounted vector return of `policy` on one episode of `context`.

    Accumulates sum_t gamma^t r_{t+1} componentwise until the environment
    reports terminal or truncated, or `max_steps` elapse. Deterministic
    given (context, policy).
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must be in [0, 1)")
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    obs = env.reset(context)
    ret = np.zeros(env.num_objectives())
    disc = 1.0
    for _ in range(max_steps):
        action = policy(obs)
        if not 0 <= int(action) < env.action_count():
            raise ValueError(f"policy returned out-of-range action {action!r}")
        tr = env.step(int(action))
        ret += disc * tr.reward
        disc *= gamma
        obs = tr.next_observation
        if tr.done:
            break
    return ret
