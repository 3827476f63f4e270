"""Generalization evaluation toolkit for multi-objective RL agents.

Submodules:
    fronts   - Pareto dominance, hypervolume, NHGR/EUM/EUGR metrics
    stats    - seeded streams, simplex sampling, IQM, optimality gap
    momdp    - transitions and discounted vector rollout
    lavagrid - the deterministic lava-and-goals gridworld domain
    oracle   - exact optimal fronts by backward induction + brute force
    agents   - tabular scalarized Q-learning and random-policy baselines
    harness  - end-to-end evaluation protocol and reports
    cli      - reproducible command-line pipeline
"""

__version__ = "0.1.0"
