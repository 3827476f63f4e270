"""Compute an exact optimal front for a small gridworld and replay a witness.

Run with:  python3 demos/oracle_walkthrough.py
"""

import numpy as np

from morlgen.lavagrid import NORTH, LavaGridContext, LavaGridLayout, render_ascii
from morlgen.oracle import enumerate_returns, pareto_backward_induction, replay_witness

GAMMA = 0.95
# Horizon 10 keeps the exhaustive 3^H cross-check fast enough for a demo.
HORIZON = 10


def main() -> None:
    layout = LavaGridLayout.from_strings(
        ["Y.L.G", ".....", "..L.."], agent_start=(2, 1), agent_dir=NORTH
    )
    ctx = LavaGridContext(layout, np.array([0.5, 0.5, 0.0]), name="Fork")
    print(render_ascii(ctx))

    result = pareto_backward_induction(ctx, GAMMA, HORIZON)
    print(f"exact={result.exact}  points={len(result.front)}")
    print("objective order: (goal, lava, time)")
    for point, wit in zip(result.front.points, result.front.tags):
        print(f"  {np.round(point, 3)}  actions={wit or '(stay put)'}")

    # Cross-check against brute-force enumeration of every action sequence.
    brute = enumerate_returns(ctx, GAMMA, HORIZON)
    match = np.allclose(
        result.front.sorted_points(), brute.sorted_points(), atol=1e-9
    )
    print("matches exhaustive enumeration:", match)

    # Witnesses are executable: replaying one reproduces its value vector.
    point, wit = result.front.points[0], result.front.tags[0]
    replayed = replay_witness(ctx, wit, GAMMA, HORIZON)
    print(f"replayed witness '{wit}': {np.round(replayed, 3)}")


if __name__ == "__main__":
    main()
