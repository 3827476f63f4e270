"""The benchmark's two workloads: their inputs, commands and time budgets.

Every input is made from the workload seed; the program receives only the
generated config file. Both workloads keep the paper's domain: the 3
objectives (goal, lava, time) of the lava gridworld.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# train and eval always get this; it equals nproc on the 2-CPU reference
# machine and is fixed so a run does not depend on the machine it runs on.
PARALLEL = "2"

# The five 5x3 micro contexts of the test suite (tests/conftest.py), with an
# exactly computable front at gamma 0.95 and horizon 12.
MICRO_CONTEXTS = [
    ("ForkYG", ["Y.L.G", ".....", "..L.."], [0.5, 0.5, 0.0], "N"),
    ("ForkGY", ["G.L.Y", ".....", "..L.."], [0.6, 0.4, 0.0], "N"),
    ("ForkBG", ["B.L.G", ".....", "..L.."], [0.45, 0.0, 0.55], "N"),
    ("ForkYB", ["Y.L.B", ".....", "..L.."], [0.0, 0.55, 0.45], "N"),
    ("ForkSouth", ["..L..", ".....", "G.LY."], [0.5, 0.5, 0.0], "S"),
]

BUILTINS = [
    "Snake", "Room", "Smiley", "Maze", "CheckerBoard", "Corridor", "Islands", "Labyrinth",
]


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a round: its kind, arguments and time budget."""

    kind: str  # "train" or "eval"
    label: str  # output directory name inside the round directory
    argv: tuple[str, ...]
    budget_s: float
    report: bool  # writes report.json/report.csv
    self_test: bool = False


def micro_config(seed: int) -> dict:
    """Five exact micro contexts, two training seeds, the full protocol."""
    return {
        "contexts": [
            {
                "name": name,
                "context": {
                    "tiles": rows,
                    "agent": {"x": 2, "y": 1, "dir": direction},
                    "weights": weights,
                    "name": name,
                },
            }
            for name, rows, weights, direction in MICRO_CONTEXTS
        ],
        "seeds": [2 * seed, 2 * seed + 1],
        "gamma": 0.95,
        "max_steps": 12,
        "train_episodes": 2000,
        "weight_grid_resolution": 4,
        "alpha": 0.2,
        "eval_episodes": 100,
        "eum_weight_samples": 100,
        "reference_seed": seed,
        "dr_width": 5,
        "dr_height": 3,
        "dr_lava_range": [1, 3],
    }


def builtin_config(seed: int) -> dict:
    """The eight 11x11 builtins at the paper's gamma, grid and DR space.

    The horizon is cut from 256 to 28, where the capped oracle (cap 32) is
    exact on seven builtins and cap-bound on Corridor.
    """
    return {
        "contexts": [{"builtin": name} for name in BUILTINS],
        "seeds": [2 * seed, 2 * seed + 1],
        "gamma": 0.995,
        "max_steps": 28,
        "train_episodes": 2000,
        "weight_grid_resolution": 10,
        "alpha": 0.1,
        "eval_episodes": 100,
        "eum_weight_samples": 100,
        "oracle_cap": 32,
        "reference_specialist_episodes": 300,
        "reference_seed": seed,
        "dr_width": 11,
        "dr_height": 11,
        "dr_lava_range": [0, 30],
    }


# Time budgets per command: at least seven times the reference machine's time.
MICRO_TRAIN_BUDGET_S, MICRO_EVAL_BUDGET_S = 60.0, 20.0
BUILTIN_TRAIN_BUDGET_S, BUILTIN_EVAL_BUDGET_S = 40.0, 60.0


def _train(cfg: str, rd: Path, budget_s: float, *mode: str) -> Command:
    argv = ["train", "--config", cfg, "--out", str(rd / "snapshots"), "--parallel", PARALLEL]
    if mode:
        argv += ["--mode", *mode]
    return Command("train", "snapshots", tuple(argv), budget_s, report=False)


def _eval(cfg: str, rd: Path, budget_s: float, label: str, *extra: str) -> Command:
    argv = ["eval", "--config", cfg, "--out", str(rd / label), "--parallel", PARALLEL, *extra]
    return Command(
        "eval", label, tuple(argv), budget_s, report=True, self_test="--self-test" in extra
    )


def micro_commands(cfg: str, rd: Path) -> list[Command]:
    """train (specialists and generalist), then four evals."""
    snaps, budget = str(rd / "snapshots"), MICRO_EVAL_BUDGET_S
    return [
        _train(cfg, rd, MICRO_TRAIN_BUDGET_S),
        _eval(cfg, rd, budget, "eval-specialist", "--agents", snaps, "--kind", "specialist"),
        _eval(cfg, rd, budget, "eval-generalist", "--agents", snaps, "--kind", "generalist"),
        _eval(cfg, rd, budget, "eval-random", "--random-baseline"),
        _eval(cfg, rd, budget, "eval-selftest", "--self-test"),
    ]


def builtin_commands(cfg: str, rd: Path) -> list[Command]:
    """train --mode generalist, then the generalist and random-baseline evals."""
    snaps, budget = str(rd / "snapshots"), BUILTIN_EVAL_BUDGET_S
    return [
        _train(cfg, rd, BUILTIN_TRAIN_BUDGET_S, "generalist"),
        _eval(cfg, rd, budget, "eval-generalist", "--agents", snaps, "--kind", "generalist"),
        _eval(cfg, rd, budget, "eval-random", "--random-baseline"),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int], dict]  # seed -> config JSON object
    commands: Callable[[str, Path], list[Command]]  # (config path, round dir) -> one round


WORKLOADS = {
    w.name: w
    for w in (
        Workload("micro-pipeline", micro_config, micro_commands),
        Workload("builtin-generalist", builtin_config, builtin_commands),
    )
}


def write_config(workload: Workload, seed: int, path: Path) -> None:
    path.write_text(json.dumps(workload.config(seed), indent=1, sort_keys=True) + "\n")
