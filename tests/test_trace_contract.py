"""The benchmark's tracing contract with `morlgen`.

`perfbench/tracing.py` times the program by wrapping the functions it
names in `WRAPS`, and the benchmark prints its per-layer metrics as the
last line of a traced run, in strict JSON. These tests use that module
read-only: every wrapped function must exist, and a tiny traced
train/eval run must give the expected metric names with plain, finite
Python numbers, also when `train --parallel 2` trains a share of its
agents in a forked child, and when `eval --parallel 2` computes a share
of its reference fronts in one.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from test_cli import write_config
from morlgen import cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# The per-layer metrics of the tiny run below, as the parent of the
# compiled-model trainer gave them.
EXPECTED_METRICS = {
    "agents.build_front_s", "agents.greedy_rollouts", "agents.load_s",
    "agents.q_entries", "agents.random_front_s", "agents.save_s",
    "agents.train_episodes", "agents.train_s", "agents.train_steps",
    "agents.train_steps_per_s", "cli.self_s", "fronts.eum_s",
    "fronts.hypervolume_calls", "fronts.hypervolume_s", "fronts.nhgr_s",
    "fronts.nondominated_calls", "fronts.nondominated_points",
    "fronts.nondominated_s", "harness.cells", "harness.evaluate_s",
    "harness.excluded_contexts", "harness.reference_fronts_s",
    "lavagrid.sample_calls", "lavagrid.sample_s", "lavagrid.step_calls",
    "lavagrid.step_s", "momdp.rollout_calls", "momdp.rollout_s",
    "oracle.backward_induction_calls", "oracle.backward_induction_s",
    "oracle.capped_contexts", "oracle.compile_s", "oracle.filter_calls",
    "oracle.filter_candidates", "oracle.filter_kept", "oracle.filter_s",
    "oracle.front_points", "oracle.horizon_layers", "oracle.ms_per_layer",
    "oracle.prune_calls", "oracle.prune_passes", "oracle.prune_s",
    "oracle.specialist_front_s",
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_exists(tracing):
    for name, module_name, path, _, _ in tracing.WRAPS:
        owner = importlib.import_module(module_name)
        for part in path[:-1]:
            owner = getattr(owner, part)
        assert vars(owner).get(path[-1]) is not None, name


def traced_metrics(tracing, tmp_path, train_flags=(), eval_flags=()):
    """The per-layer metrics of a tiny traced train/eval run, checked as strict JSON."""
    config = str(write_config(tmp_path, train_episodes=40, eval_episodes=20))
    snaps = str(tmp_path / "snapshots")
    commands = [
        ["train", "--config", config, "--out", snaps, *train_flags],
        ["eval", "--config", config, "--agents", snaps, "--kind", "specialist",
         "--out", str(tmp_path / "specialist"), *eval_flags],
        ["eval", "--config", config, "--agents", snaps, "--kind", "generalist",
         "--out", str(tmp_path / "generalist"), *eval_flags],
        ["eval", "--config", config, "--random-baseline", "--out", str(tmp_path / "random"),
         *eval_flags],
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [cli.main(argv) for argv in commands]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0, 0]
    assert tracer.absent == []
    metrics = tracer.layer_metrics()
    assert set(metrics) == EXPECTED_METRICS
    for name, (value, unit) in metrics.items():
        assert type(value) in (int, float), (name, type(value))
    json.dumps(
        {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, allow_nan=False
    )
    return metrics


def test_tiny_traced_run_gives_strict_json_metrics(tracing, tmp_path):
    metrics = traced_metrics(tracing, tmp_path)
    assert metrics["agents.train_episodes"][0] == 2 * 40 + 40  # two specialists, one generalist


def test_traced_run_training_in_two_processes_keeps_every_metric(tracing, tmp_path):
    # The jobs are the generalist, then the two specialists: this process
    # trains the first share, the generalist, and a forked child the rest.
    metrics = traced_metrics(tracing, tmp_path, train_flags=["--parallel", "2"])
    assert metrics["agents.train_episodes"][0] == 40


def test_traced_run_evaluating_in_two_processes_keeps_every_metric(tracing, tmp_path):
    # Each eval's own process computes the first context's reference, and
    # may claim the second before the forked child does.
    metrics = traced_metrics(tracing, tmp_path, eval_flags=["--parallel", "2"])
    assert 3 <= metrics["oracle.backward_induction_calls"][0] <= 6
    assert metrics["agents.train_episodes"][0] == 2 * 40 + 40
