"""Acceptance suite: ten property-based and desk-scale ordering checks.

Each test prints one PASS line on success; failures surface through the
normal assertion mechanism. Derived expectations come from independent
oracles (rectangle sweep, Monte Carlo, exhaustive enumeration, analytic
integrals) rather than from the code under test.
"""

import json
import time

import numpy as np
import pytest

from conftest import micro_config
from test_lavagrid import bfs_reachable
from morlgen import harness
from morlgen.cli import main
from morlgen.fronts import (
    FrontBounds,
    eum,
    hv_norm,
    hypervolume,
    nhgr,
    pareto_filter,
)
from morlgen.lavagrid import (
    LavaGridContext,
    builtin_eval_contexts,
    random_layout,
)
from morlgen.oracle import (
    enumerate_returns,
    pareto_backward_induction,
    replay_witness,
)
from morlgen.stats import RandomStream, iqm, optimality_gap, sample_simplex_batch


def report(name):
    print(f"ACCEPTANCE {name}: PASS")


def sweep_hv_2d(points, ref):
    """Independent 2-D rectangle sweep (disjoint strips by decreasing y)."""
    pts = [(x - ref[0], y - ref[1]) for x, y in points]
    pts = [(x, y) for x, y in pts if x > 0 and y > 0]
    pts.sort(key=lambda p: (-p[1], p[0]))
    area, x_prev = 0.0, 0.0
    for x, y in pts:
        if x > x_prev:
            area += (x - x_prev) * y
            x_prev = x
    return area


def mc_hv(points, ref, n, rng):
    """Independent Monte Carlo hypervolume estimate and its standard error."""
    pts = np.asarray(points, dtype=float)
    upper = pts.max(axis=0)
    span = upper - ref
    if (span <= 0).any():
        return 0.0, 0.0
    box = float(np.prod(span))
    hits = 0
    for start in range(0, n, 250_000):
        m = min(250_000, n - start)
        s = ref + span * rng.random((m, pts.shape[1]))
        hits += int((s[:, None, :] < pts[None, :, :]).all(axis=2).any(axis=1).sum())
    p = hits / n
    return box * p, box * np.sqrt(max(p * (1 - p), 1e-12) / n)


def test_hypervolume_correctness():
    """200 random fronts: 2-D vs sweep oracle, 3-D/4-D vs Monte Carlo."""
    t0 = time.time()
    rng = np.random.default_rng(100)
    mc_rng = np.random.default_rng(101)
    for trial in range(200):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(1, 21))
        pts = rng.random((n, k)) * 2
        front = pareto_filter(pts)
        ref = np.zeros(k)
        exact = hypervolume(front, ref)
        if k == 2:
            assert abs(exact - sweep_hv_2d(front.points, ref)) < 1e-9
        else:
            samples = 1_000_000 if trial % 10 == 0 else 100_000
            est, se = mc_hv(front.points, ref, samples, mc_rng)
            assert abs(exact - est) <= 3 * se + 1e-12, trial
    elapsed = time.time() - t0
    assert elapsed < 60, f"took {elapsed:.1f}s"
    report("hypervolume-correctness")


def test_scale_invariance():
    """hv_norm unchanged under positive per-objective affine rescaling."""
    rng = np.random.default_rng(200)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        pts = rng.random((int(rng.integers(2, 12)), k)) * 3 - 1
        front = pareto_filter(pts)
        bounds = FrontBounds(np.full(k, -1.0), np.full(k, 2.0))
        base = hv_norm(front, bounds)
        scale = rng.random(k) * 9 + 0.05
        shift = rng.normal(size=k) * 20
        rescaled = pareto_filter(front.points * scale + shift)
        rb = FrontBounds(bounds.v_min * scale + shift, bounds.v_max * scale + shift)
        assert abs(hv_norm(rescaled, rb) - base) < 1e-9
    report("scale-invariance")


def test_nhgr_self_identity_and_monotonicity():
    rng = np.random.default_rng(300)
    checked = 0
    while checked < 100:
        k = int(rng.integers(2, 5))
        front = pareto_filter(rng.random((int(rng.integers(3, 15)), k)) + 0.2)
        try:
            bounds = FrontBounds.of_front(front)
        except ValueError:
            continue
        if hv_norm(front, bounds) <= 0:
            continue
        assert abs(nhgr(front, front) - 1.0) < 1e-12
        sub = front.points[: max(1, len(front) // 2)]
        base = nhgr(pareto_filter(sub), front)
        grown = np.vstack([sub, rng.random((2, k)) + 0.2])
        assert nhgr(pareto_filter(grown), front) >= base - 1e-12
        checked += 1
    report("nhgr-identity-monotonicity")


def test_eum_analytic():
    weights = sample_simplex_batch(RandomStream(400), 2, 1_000_000)
    value = eum(pareto_filter([(1.0, 0.0), (0.0, 1.0)]), weights)
    assert value == pytest.approx(0.75, abs=0.01)
    rng = np.random.default_rng(401)
    pts = rng.random((30, 3))
    w3 = rng.dirichlet(np.ones(3), size=200)
    assert eum(pts, w3) == eum(pareto_filter(pts), w3)
    report("eum-analytic")


def test_oracle_equivalence():
    """50 micro-contexts: uncapped DP equals enumeration; witnesses replay."""
    t0 = time.time()
    for seed in range(50):
        rng = RandomStream(seed, (500,)).rng()
        size = int(rng.integers(3, 6))
        horizon = int(rng.integers(6, 9 if size == 5 else 10))
        layout = random_layout(rng, (0, size), width=size, height=size)
        ctx = LavaGridContext(layout, sample_simplex_batch(rng, 3, 1)[0])
        gamma = float(rng.uniform(0.8, 0.99))
        dp = pareto_backward_induction(ctx, gamma, horizon)
        assert dp.exact
        bf = enumerate_returns(ctx, gamma, horizon)
        a = dp.front.sorted_points()
        b = bf.sorted_points()
        assert a.shape == b.shape, seed
        assert np.allclose(a, b, atol=1e-9, rtol=0.0), seed
        for point, wit in zip(dp.front.points, dp.front.tags):
            replayed = replay_witness(ctx, wit, gamma, horizon)
            assert np.allclose(replayed, point, atol=1e-9), seed
    elapsed = time.time() - t0
    assert elapsed < 300, f"took {elapsed:.1f}s"
    report("oracle-equivalence")


def test_aggregation_exact():
    assert iqm([1, 2, 3, 4]) == 2.5
    assert optimality_gap([0.5, 1.2]) == 0.25
    report("aggregation-exact")


@pytest.fixture(scope="module")
def micro_reports(tmp_path_factory):
    """Specialist, generalist, and random-baseline reports on the micro suite.

    Made as a user makes them: `morlgen train`, then one `morlgen eval`
    per kind, each report read back from its report.json.
    """
    root = tmp_path_factory.mktemp("micro")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(micro_config().to_json_obj()))
    snaps = str(root / "snapshots")
    assert main(["train", "--config", str(cfg), "--out", snaps]) == 0
    scored = {
        "specialist": ["--agents", snaps, "--kind", "specialist"],
        "generalist": ["--agents", snaps, "--kind", "generalist"],
        "random": ["--random-baseline"],
    }
    reports = {}
    for kind, flags in scored.items():
        out = root / kind
        assert main(["eval", "--config", str(cfg), "--out", str(out), *flags]) == 0
        obj = json.loads((out / "report.json").read_text())
        reports[kind] = harness.EvalReport.from_json_obj(obj)
        for name, ref in reports[kind].reference_fronts.items():
            assert ref["provenance"] == "oracle-exact", name
    return reports


def test_end_to_end_specialist(micro_reports):
    """Tabular specialists reach median NHGR >= 0.95 vs the exact oracle."""
    t0 = time.time()
    cells = micro_reports["specialist"].cells
    assert len(cells) == 25  # 5 contexts x 5 seeds
    median = float(np.median([c["nhgr"] for c in cells]))
    assert median >= 0.95, f"median NHGR {median:.3f}"
    assert time.time() - t0 < 900
    report("end-to-end-specialist")


def test_generalization_gap_ordering(micro_reports):
    """Specialists >= generalist >= random per context; strict gap ordering."""

    def per_context_median(rep):
        by_ctx = {}
        for cell in rep.cells:
            by_ctx.setdefault(cell["context"], []).append(cell["nhgr"])
        return {name: float(np.median(vals)) for name, vals in by_ctx.items()}

    spec = per_context_median(micro_reports["specialist"])
    gen = per_context_median(micro_reports["generalist"])
    rand = per_context_median(micro_reports["random"])
    for name in spec:
        assert spec[name] >= gen[name] - 1e-12, name
        assert gen[name] >= rand[name] - 1e-12, name
    gaps = {
        kind: micro_reports[kind].aggregates["nhgr_optimality_gap"]
        for kind in ("specialist", "generalist", "random")
    }
    assert gaps["random"] > gaps["generalist"] > gaps["specialist"], gaps
    report("generalization-gap-ordering")


def test_determinism(tmp_path):
    """cmd_eval reruns are byte-identical; --parallel never changes outputs."""
    cfg = micro_config(seeds=[0], train_episodes=200)
    obj = cfg.to_json_obj()
    obj["contexts"] = obj["contexts"][:2]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(obj))
    blobs = []
    for name, parallel in (("a", "1"), ("b", "1"), ("c", "8")):
        out = tmp_path / name
        code = main(["eval", "--config", str(cfg_path), "--random-baseline",
                     "--parallel", parallel, "--out", str(out)])
        assert code == 0
        blobs.append(
            ((out / "report.json").read_bytes(), (out / "report.csv").read_bytes())
        )
    assert blobs[0] == blobs[1] == blobs[2]
    report("determinism")


def test_builtin_contexts():
    table3 = {
        "Snake": (0.20, 0.30, 0.50),
        "Room": (0.50, 0.30, 0.20),
        "Smiley": (0.40, 0.40, 0.20),
        "Maze": (0.05, 0.05, 0.90),
        "CheckerBoard": (0.30, 0.10, 0.60),
        "Corridor": (0.60, 0.10, 0.30),
        "Islands": (1 / 3, 1 / 3, 1 / 3),
        "Labyrinth": (0.50, 0.05, 0.45),
    }
    contexts = builtin_eval_contexts()
    assert [name for name, _ in contexts] == list(table3)
    for name, ctx in contexts:
        assert tuple(ctx.weights) == pytest.approx(table3[name], abs=1e-12), name
        ctx.validate()
        assert set(ctx.layout.goal_positions().values()) <= bfs_reachable(ctx.layout), name
    report("builtin-contexts")
