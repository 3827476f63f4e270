"""Train specialists, score them against the exact oracle, print a report.

Two contexts and two seeds keep the full pipeline under a minute.

Run with:  python3 demos/end_to_end.py
"""

import numpy as np

from morlgen import agents, harness
from morlgen.lavagrid import NORTH, SOUTH, LavaGridContext, LavaGridLayout


def context(rows, weights, name, direction=NORTH):
    layout = LavaGridLayout.from_strings(rows, agent_start=(2, 1), agent_dir=direction)
    ctx = LavaGridContext(layout, np.array(weights, dtype=float), name=name)
    ctx.validate(require_all_goals=False)
    return ctx


def main() -> None:
    config = harness.EvalConfig(
        contexts=[
            ("ForkYG", context(["Y.L.G", ".....", "..L.."], [0.5, 0.5, 0.0], "ForkYG")),
            ("ForkSouth", context(["..L..", ".....", "G.LY."], [0.5, 0.5, 0.0],
                                  "ForkSouth", direction=SOUTH)),
        ],
        seeds=[0, 1],
        gamma=0.95,
        max_steps=12,
        train_episodes=20000,
        weight_grid_resolution=4,
        alpha=0.2,
        dr_width=5,
        dr_height=3,
        dr_lava_range=(1, 3),
    )

    refs = harness.make_reference_fronts(config)
    for name, ref in refs.items():
        print(f"reference {name}: {ref.provenance}, {len(ref.front)} points")

    def front_for_cell(seed, idx, name, ctx):  # train the context's specialist in process
        q = harness.train_agent(config, seed, idx)
        return agents.build_front(q, ctx, config.gamma, max_steps=config.max_steps)

    report = harness.evaluate_custom(config, refs, "specialist", front_for_cell)
    print(f"\nagent kind: {report.agent_kind}")
    for cell in report.cells:
        print(
            f"  seed={cell['seed']} context={cell['context']}"
            f" nhgr={cell['nhgr']:.3f} eugr={cell['eugr']:.3f}"
        )
    agg = report.aggregates
    print(f"\nNHGR IQM={agg['nhgr_iqm']:.3f}  optimality gap={agg['nhgr_optimality_gap']:.3f}")

    floor = harness.evaluate_random_baseline(config, refs)
    print(f"random-policy floor gap={floor.aggregates['nhgr_optimality_gap']:.3f}")


if __name__ == "__main__":
    main()
