"""Tests of the benchmark's own checkers.

    PYTHONPATH=src python3 -m pytest perfbench/test_checks.py -q
"""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from checks import check_report, check_weights, hypervolume_3d, optimal_values  # noqa: E402
from morlgen.lavagrid import EAST, LavaGridContext, LavaGridLayout  # noqa: E402
from morlgen.oracle import enumerate_returns  # noqa: E402
from workloads import MICRO_CONTEXTS  # noqa: E402


def context(rows, weights, start=(0, 0), direction=EAST):
    layout = LavaGridLayout.from_strings(rows, start, direction)
    return LavaGridContext(layout, np.array(weights, dtype=float))


def micro_contexts():
    return [
        (name, LavaGridContext.from_json_obj(
            {"tiles": rows, "agent": {"x": 2, "y": 1, "dir": d}, "weights": w}))
        for name, rows, w, d in MICRO_CONTEXTS
    ]


def inclusion_exclusion_hv(points, ref):
    """Union volume as the alternating sum over subsets of their intersection."""
    total = 0.0
    for size in range(1, len(points) + 1):
        for subset in itertools.combinations(points, size):
            corner = np.min(subset, axis=0) - ref
            total += (-1) ** (size + 1) * float(np.prod(np.clip(corner, 0.0, None)))
    return total


@pytest.mark.parametrize(
    "points, ref, expected",
    [
        ([[2, 3, 4]], [0, 0, 0], 24.0),
        ([[3, 3, 3]], [1, 1, 1], 8.0),
        ([[2, 1, 1], [1, 2, 1]], [0, 0, 0], 3.0),
        ([[3, 1, 1], [1, 3, 1], [1, 1, 3]], [0, 0, 0], 7.0),
        ([[-1, 5, 5], [2, 2, 0]], [0, 0, 0], 0.0),
        ([[2, 2, 2], [1, 1, 1]], [0, 0, 0], 8.0),
        (np.empty((0, 3)), [0, 0, 0], 0.0),
    ],
)
def test_hypervolume_hand_cases(points, ref, expected):
    assert hypervolume_3d(points, ref) == pytest.approx(expected, abs=1e-12)


def test_hypervolume_matches_inclusion_exclusion():
    rng = np.random.default_rng(3)
    for _ in range(200):
        pts = rng.integers(-2, 6, size=(int(rng.integers(1, 7)), 3)).astype(float)
        if rng.random() < 0.5:
            pts = pts + rng.random(pts.shape)
        ref = rng.integers(-2, 2, size=3).astype(float)
        assert hypervolume_3d(pts, ref) == pytest.approx(
            inclusion_exclusion_hv(pts, ref), rel=1e-12, abs=1e-12
        )


def test_optimal_values_one_step_to_goal():
    # Facing east, one step forward collects the only goal and ends the episode.
    ctx = context([".G"], [1.0, 0.0, 0.0])
    w = np.array([[1, 0, 0], [0, 0, 1], [0.5, 0.25, 0.25], [0, 1, 0]])
    for horizon in (1, 3):
        np.testing.assert_allclose(
            optimal_values(ctx, 0.9, horizon, w), [100.0, -1.0, 49.75, 0.0], atol=1e-12
        )


def test_optimal_values_lava_trade_off():
    # The goal lies behind one lava tile: w.(0, -1, -1) + 0.9 w.(100, 0, -1)
    # through the lava, against 0 goal and 0 lava for turning on the spot.
    ctx = context([".LG"], [1.0, 0.0, 0.0])
    w = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0.5, 0.5, 0]])
    np.testing.assert_allclose(
        optimal_values(ctx, 0.9, 2, w), [90.0, 0.0, -1.9, 44.5], atol=1e-12
    )
    # One step is too short to reach the goal.
    np.testing.assert_allclose(optimal_values(ctx, 0.9, 1, w), [0.0, 0.0, -1.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("horizon", [3, 6, 9])
def test_optimal_values_match_enumeration(horizon):
    weights = check_weights(horizon)
    for name, ctx in micro_contexts():
        front = enumerate_returns(ctx, 0.95, horizon).points
        expected = (weights @ front.T).max(axis=1)
        np.testing.assert_allclose(
            optimal_values(ctx, 0.95, horizon, weights), expected, rtol=0, atol=1e-9, err_msg=name
        )


GAMMA, HORIZON = 0.95, 9  # ForkSouth has a 6-point front at horizon 9


@pytest.fixture(scope="module")
def exact_case():
    name, ctx = micro_contexts()[-1]
    weights = check_weights(0)
    front = enumerate_returns(ctx, GAMMA, HORIZON).points
    vstar = {name: optimal_values(ctx, GAMMA, HORIZON, weights)}
    return name, front, weights, vstar


def self_test_report(name, ref_front, agent_front, provenance="oracle-exact", epsilon=0.0):
    ref_front = np.asarray(ref_front, dtype=float)
    return {
        "reference_fronts": {
            name: {"provenance": provenance, "epsilon": epsilon, "front": ref_front.tolist()}
        },
        "cells": [
            {
                "seed": 0,
                "context": name,
                "nhgr": 1.0,
                "eugr": 1.0,
                "hypervolume": hypervolume_3d(agent_front, ref_front.min(axis=0)),
                "front": np.asarray(agent_front, dtype=float).tolist(),
            }
        ],
    }


def run_check(case, report, self_test=True):
    _, _, weights, vstar = case
    return check_report(report, vstar, weights, GAMMA, HORIZON, self_test)


def test_exact_report_passes(exact_case):
    name, front, _, _ = exact_case
    assert len(front) > 2
    assert run_check(exact_case, self_test_report(name, front, front)) == []


def _best_point(case):
    """Index of the front point that beats all others by most, for some check weight."""
    _, front, weights, _ = case
    utility = np.sort(weights @ front.T, axis=1)
    w = int(np.argmax(utility[:, -1] - utility[:, -2]))
    return int(np.argmax(front @ weights[w]))


def _perturbations(case):
    name, front, _, _ = case
    raised = front.copy()
    raised[_best_point(case)] += 1e-6
    dropped = np.delete(front, _best_point(case), axis=0)
    yield "reference above V*", self_test_report(name, raised, front), True
    yield "reference below V*", self_test_report(name, dropped, dropped), True
    yield "agent above V*", self_test_report(name, front, raised), True
    bad_hv = self_test_report(name, front, front)
    bad_hv["cells"][0]["hypervolume"] += 1e-6 * max(1.0, bad_hv["cells"][0]["hypervolume"])
    yield "stored hypervolume", bad_hv, True
    for key, value in (("nhgr", 1.01), ("nhgr", -0.01), ("nhgr", None)):
        bad = self_test_report(name, front, front)
        bad["cells"][0][key] = value
        yield f"nhgr {value}", bad, False
    bad = self_test_report(name, front, front)
    bad["cells"][0]["eugr"] = 0.999
    yield "self-test eugr", bad, True
    yield "unknown provenance", self_test_report(name, front, front, "guess"), True


def test_each_check_rejects_its_perturbation(exact_case):
    for label, report, self_test in _perturbations(exact_case):
        assert run_check(exact_case, report, self_test), label


def test_cap_bound_reference_uses_the_accumulated_bound(exact_case):
    name, front, weights, vstar = exact_case
    dropped = np.delete(front, _best_point(exact_case), axis=0)
    gap = float((vstar[name] - (weights @ dropped.T).max(axis=1)).max())
    factor = (1 - GAMMA**HORIZON) / (1 - GAMMA)
    enough, short = 1.01 * gap / factor, 0.99 * gap / factor
    ok = self_test_report(name, dropped, dropped, "oracle-eps-pruned", enough)
    bad = self_test_report(name, dropped, dropped, "oracle-eps-pruned", short)
    assert run_check(exact_case, ok) == []
    assert run_check(exact_case, bad)
