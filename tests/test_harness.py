"""Tests for the evaluation protocol, reference fronts, and reports."""

import json

import numpy as np
import pytest

from conftest import MICRO_GAMMA, MICRO_HORIZON, micro_config, micro_context, micro_suite
from morlgen import agents
from morlgen.fronts import hypervolume
from morlgen.harness import (
    EvalConfig,
    EvalReport,
    evaluate_custom,
    evaluate_random_baseline,
    evaluate_reference_self_test,
    make_reference_fronts,
)
from morlgen.oracle import pareto_backward_induction
from morlgen.stats import iqm, optimality_gap


def tiny_config(**overrides):
    base = dict(
        contexts=micro_suite()[:2],
        seeds=[0],
        gamma=MICRO_GAMMA,
        max_steps=MICRO_HORIZON,
        train_episodes=200,
        weight_grid_resolution=4,
        alpha=0.2,
        reference_specialist_episodes=200,
        dr_width=5,
        dr_height=3,
        dr_lava_range=(1, 3),
    )
    base.update(overrides)
    return EvalConfig(**base)


def trivial_context():
    """A context whose only goal is one step away: a one-point reference."""
    return micro_context(["G..", "...", "..."], [1.0, 0.0, 0.0], "Trivial", start=(0, 1))


class TestEvalConfig:
    def test_empty_contexts_error(self):
        with pytest.raises(ValueError):
            tiny_config(contexts=[])

    def test_empty_seeds_error(self):
        with pytest.raises(ValueError):
            tiny_config(seeds=[])

    def test_zero_train_episodes_error(self):
        with pytest.raises(ValueError):
            tiny_config(train_episodes=0)

    def test_json_round_trip(self):
        cfg = tiny_config()
        back = EvalConfig.from_json_obj(cfg.to_json_obj())
        assert back.to_json_obj() == cfg.to_json_obj()

    def test_builtin_context_items(self):
        cfg = EvalConfig.from_json_obj(
            {"contexts": [{"builtin": "Maze"}], "seeds": [0]}
        )
        name, ctx = cfg.contexts[0]
        assert name == "Maze"
        assert tuple(ctx.weights) == pytest.approx((0.05, 0.05, 0.90))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            EvalConfig.from_json_obj({"seeds": [0]})

    def test_unknown_key_rejected(self):
        obj = tiny_config().to_json_obj()
        obj["train_episode"] = 1
        with pytest.raises(ValueError, match="train_episode"):
            EvalConfig.from_json_obj(obj)

    def test_eval_episodes_below_grid_size_accepted(self, monkeypatch):
        # resolution 4 over 3 objectives: 15 grid weights
        cfg = tiny_config(eval_episodes=14)
        counts = []
        rollouts = agents.random_policy_front
        monkeypatch.setattr(
            agents, "random_policy_front",
            lambda ctx, count, *args, **kwargs:
                counts.append(count) or rollouts(ctx, count, *args, **kwargs),
        )
        evaluate_random_baseline(cfg)
        assert counts == [14] * len(cfg.contexts)

    def test_eval_episodes_zero_rejected(self):
        with pytest.raises(ValueError, match="eval_episodes"):
            tiny_config(eval_episodes=0)


class TestReferenceFronts:
    def test_micro_contexts_are_oracle_exact(self):
        cfg = tiny_config()
        refs = make_reference_fronts(cfg)
        for name, _ in cfg.contexts:
            assert refs[name].provenance == "oracle-exact"

    def test_oracle_exact_matches_direct_call(self):
        cfg = tiny_config()
        refs = make_reference_fronts(cfg)
        for name, ctx in cfg.contexts:
            direct = pareto_backward_induction(
                ctx, cfg.gamma, cfg.max_steps, cap=cfg.oracle_cap
            )
            assert refs[name].front == direct.front

    def test_cap_bound_union_dominates_inputs(self):
        cfg = tiny_config(oracle_cap=2)
        refs = make_reference_fronts(cfg)
        for name, ctx in cfg.contexts:
            ref = refs[name]
            assert ref.provenance == "oracle-eps-pruned"
            assert ref.epsilon > 0.0
            capped = pareto_backward_induction(ctx, cfg.gamma, cfg.max_steps, cap=2)
            anchor = np.vstack([ref.front.points, capped.front.points]).min(axis=0) - 1.0
            assert hypervolume(ref.front, anchor) >= hypervolume(capped.front, anchor) - 1e-9


class TestSelfTest:
    def test_reference_scores_itself_perfectly(self):
        cfg = tiny_config()
        report = evaluate_reference_self_test(cfg)
        assert report.cells, "no cells evaluated"
        for cell in report.cells:
            assert cell["nhgr"] == pytest.approx(1.0, abs=1e-9)
            assert cell["eugr"] == pytest.approx(1.0, abs=1e-9)
        assert report.aggregates["nhgr_iqm"] == pytest.approx(1.0, abs=1e-9)
        assert report.aggregates["nhgr_optimality_gap"] == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_reference_excluded(self):
        cfg = tiny_config(contexts=micro_suite()[:1] + [("Trivial", trivial_context())])
        report = evaluate_reference_self_test(cfg)
        assert "Trivial" in report.excluded_contexts
        assert all(c["context"] != "Trivial" for c in report.cells)

    def test_every_context_excluded_raises_before_training(self):
        def no_cell(*args):
            raise AssertionError("asked for an agent's front")

        cfg = tiny_config(contexts=[("Trivial", trivial_context())])
        refs = make_reference_fronts(cfg)
        with pytest.raises(ValueError, match="Trivial"):
            evaluate_custom(cfg, refs, "generalist", no_cell)
        with pytest.raises(ValueError, match="Trivial"):
            evaluate_reference_self_test(cfg)


class TestRandomBaseline:
    def test_cells_complete_and_bounded(self):
        cfg = tiny_config(seeds=[0, 1])
        report = evaluate_random_baseline(cfg)
        assert len(report.cells) == 2 * len(cfg.contexts)
        for cell in report.cells:
            assert 0.0 <= cell["nhgr"] <= 1.0

    def test_deterministic_reports(self):
        cfg = tiny_config()
        a = evaluate_random_baseline(cfg).to_json()
        b = evaluate_random_baseline(cfg).to_json()
        assert a == b


class TestAggregates:
    @staticmethod
    def aggregates(cells):
        report = EvalReport("random", cells, {}, [], {}, {})
        return report.recompute_aggregates()

    @staticmethod
    def cell(nhgr, eugr, negative=False):
        return {"nhgr": nhgr, "eugr": eugr, "eugr_denominator_negative": negative}

    def test_negative_eugr_denominator_skipped(self):
        cells = [
            self.cell(0.2, 0.5),
            self.cell(0.4, 0.9),
            self.cell(0.6, 3.0, negative=True),
            self.cell(0.8, None),
        ]
        agg = self.aggregates(cells)
        assert agg["eugr_iqm"] == iqm([0.5, 0.9])
        assert agg["eugr_optimality_gap"] == optimality_gap([0.5, 0.9])
        assert agg["nhgr_iqm"] == iqm([0.2, 0.4, 0.6, 0.8])
        assert agg["nhgr_optimality_gap"] == optimality_gap([0.2, 0.4, 0.6, 0.8])

    def test_only_negative_denominators_leave_eugr_undefined(self):
        agg = self.aggregates([self.cell(0.5, -2.0, negative=True)])
        assert agg["eugr_iqm"] is None
        assert agg["eugr_optimality_gap"] is None
        assert agg["nhgr_iqm"] == 0.5


class TestReport:
    def report(self):
        return evaluate_random_baseline(tiny_config())

    def test_aggregate_consistency(self):
        report = self.report()
        assert report.recompute_aggregates() == report.aggregates

    def test_json_round_trip(self):
        report = self.report()
        back = EvalReport.from_json_obj(json.loads(report.to_json()))
        assert back.to_json() == report.to_json()

    def test_schema_version_enforced(self):
        obj = json.loads(self.report().to_json())
        obj["schema_version"] = 99
        with pytest.raises(ValueError):
            EvalReport.from_json_obj(obj)

    def test_csv_rows(self, tmp_path):
        report = self.report()
        path = tmp_path / "report.csv"
        report.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "seed,context,metric,value,provenance"
        assert len(lines) == 1 + 4 * len(report.cells)

    def test_cells_ordered_by_context(self):
        report = self.report()
        names = [c["context"] for c in report.cells]
        assert names == sorted(names)

    def test_scores_reproducible_from_stored_fronts(self):
        from morlgen.fronts import ParetoFront, nhgr

        cfg = tiny_config()
        report = evaluate_random_baseline(cfg)
        refs = {
            name: ParetoFront.from_json_obj(obj["front"])
            for name, obj in report.reference_fronts.items()
        }
        for cell in report.cells:
            front = ParetoFront.from_json_obj(cell["front"])
            assert nhgr(front, refs[cell["context"]]) == pytest.approx(
                cell["nhgr"], abs=1e-12
            )


class TestMicroConfigFixture:
    def test_micro_suite_fronts_are_nondegenerate(self):
        cfg = micro_config(seeds=[0])
        refs = make_reference_fronts(cfg)
        for name, _ in cfg.contexts:
            pts = refs[name].front.points
            spread = pts.max(axis=0) - pts.min(axis=0)
            assert (spread > 0).all(), name
