"""Tests for the command-line pipeline."""

import importlib.util
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    micro_config,
    micro_context,
    micro_suite,
    packed,
    q_values,
    unpacked,
    with_keys,
    with_stream,
    with_text,
)
from morlgen import agents, cli, harness, oracle
from morlgen.cli import EXIT_APPROXIMATE, EXIT_INPUT_ERROR, EXIT_OK, main
from morlgen.oracle import enumerate_returns

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def write_config(tmp_path, **overrides):
    episodes = overrides.pop("train_episodes", 300)
    cfg = micro_config(seeds=[0], train_episodes=max(episodes, 1))
    obj = cfg.to_json_obj()
    obj["train_episodes"] = episodes
    obj["contexts"] = obj["contexts"][:2]
    obj["reference_specialist_episodes"] = 300
    obj.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return path


def micro_context_file(tmp_path):
    _, ctx = micro_suite()[0]
    path = tmp_path / "context.json"
    path.write_text(json.dumps(ctx.to_json_obj()))
    return path, ctx


def with_weights(obj, more):
    """`obj` whose tables member holds `more` tables beyond (or, if negative, short of) the grid's."""
    tables = q_values(obj)
    if more < 0:
        tables = tables[:more]
    else:
        tables = np.concatenate([tables, np.zeros((more,) + tables.shape[1:])])
    return {**obj, "tables": packed(tables, "<f8")}


def with_key_fields(obj, fields):
    """`obj` whose keys member holds rows of `fields` integers instead of 4."""
    keys = unpacked(obj["keys"], "<i4", (-1, 4))
    keys = keys[:, :fields] if fields < 4 else np.pad(keys, ((0, 0), (0, fields - 4)))
    return {**obj, "keys": packed(keys, "<i4")}


NAN_WEIGHTS = pytest.mark.parametrize(
    "weights", [[float("nan")] * 3, [float("nan"), 1.0, 0.0]], ids=["NaN weights", "one NaN weight"]
)


class TestOracleCommand:
    def test_builtin_maze_manifest_echoes_weights(self, tmp_path):
        out = tmp_path / "out"
        code = main(["oracle", "Maze", "--horizon", "4", "--cap", "8",
                     "--out", str(out)])
        assert code in (EXIT_OK, EXIT_APPROXIMATE)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "oracle"
        assert manifest["base_seed"] is None
        assert manifest["context"]["weights"] == pytest.approx([0.05, 0.05, 0.90])
        assert (out / "front.csv").exists()
        assert (out / "witnesses.json").exists()

    def test_nonexistent_file_exit_2(self, tmp_path):
        assert main(["oracle", "no_such_context.json",
                     "--out", str(tmp_path / "o")]) == EXIT_INPUT_ERROR

    def test_malformed_json_exit_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"tiles": [\n  "G.Y",\n  ]\n}')
        assert main(["oracle", str(bad), "--out", str(tmp_path / "o")]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert ":3:" in err  # line-anchored message

    def test_micro_context_matches_enumeration(self, tmp_path):
        path, ctx = micro_context_file(tmp_path)
        out = tmp_path / "out"
        code = main(["oracle", str(path), "--gamma", "0.95", "--horizon", "9",
                     "--out", str(out)])
        assert code == EXIT_OK
        a = np.loadtxt(out / "front.csv", delimiter=",", skiprows=1, ndmin=2)
        b = enumerate_returns(ctx, 0.95, 9).sorted_points()
        assert a.shape == b.shape and np.allclose(a, b, atol=1e-9)

    def test_cap_bound_exit_3(self, tmp_path):
        path, _ = micro_context_file(tmp_path)
        out = tmp_path / "out"
        code = main(["oracle", str(path), "--gamma", "0.95", "--horizon", "12",
                     "--cap", "2", "--out", str(out)])
        assert code == EXIT_APPROXIMATE
        sidecar = json.loads((out / "witnesses.json").read_text())
        assert sidecar["exact"] is False
        assert sidecar["epsilon"] > 0

    @NAN_WEIGHTS
    def test_nan_goal_weights_exit_2(self, tmp_path, capsys, weights):
        path, ctx = micro_context_file(tmp_path)
        obj = ctx.to_json_obj()
        obj["weights"] = weights
        path.write_text(json.dumps(obj))  # Python's json writes and reads NaN
        out = tmp_path / "out"
        assert main(["oracle", str(path), "--horizon", "4", "--out", str(out)]) == EXIT_INPUT_ERROR
        assert "goal weights must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def assert_exit_2_before_any_output(tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        assert main(["oracle", "Maze", "--horizon", "6", flag, value,
                     "--out", str(out)]) == EXIT_INPUT_ERROR
        assert flag[2:] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_cap_below_one_exit_2(self, tmp_path, capsys, cap):
        self.assert_exit_2_before_any_output(tmp_path, capsys, "--cap", cap)

    @pytest.mark.parametrize("flag, value", [
        ("--gamma", "1.5"), ("--gamma", "-0.1"), ("--gamma", "nan"), ("--horizon", "0"),
    ])
    def test_gamma_or_horizon_out_of_range_exit_2(self, tmp_path, capsys, flag, value):
        self.assert_exit_2_before_any_output(tmp_path, capsys, flag, value)


class TestConfigErrors:
    def assert_train_and_eval_exit_2(self, tmp_path, cfg):
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "t")]) == EXIT_INPUT_ERROR
        assert main(["eval", "--config", str(cfg), "--self-test",
                     "--out", str(tmp_path / "e")]) == EXIT_INPUT_ERROR

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        # oracle_state_limit was a config key; it is unknown now
        for key in ("train_episode", "oracle_state_limit"):
            self.assert_train_and_eval_exit_2(tmp_path, write_config(tmp_path, **{key: 1}))
            assert key in capsys.readouterr().err

    def test_eval_episodes_zero_exit_2(self, tmp_path, capsys):
        self.assert_train_and_eval_exit_2(tmp_path, write_config(tmp_path, eval_episodes=0))
        assert "eval_episodes" in capsys.readouterr().err

    def test_oracle_cap_below_one_exit_2(self, tmp_path, capsys):
        self.assert_train_and_eval_exit_2(tmp_path, write_config(tmp_path, oracle_cap=0))
        assert "oracle_cap" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("seeds", ["a"]),
        ("seeds", [1.5]),
        ("seeds", [-1]),
        ("gamma", "0.9"),
        ("gamma", 1.5),
        ("gamma", -0.1),
        ("alpha", -1),
        ("alpha", 0),
        ("alpha", 1.5),
        ("max_steps", "12"),
        ("max_steps", 0),
        ("eum_weight_samples", 2.5),
        ("dr_width", 0),
        ("dr_lava_range", [1]),
        ("dr_lava_range", [3, 1]),
        ("dr_lava_range", [0, 1.5]),
        ("dr_lava_range", [0, 12]),  # 12 lava cells leave a 5x3 grid no room for goals
    ])
    def test_malformed_value_exit_2_before_any_work(self, tmp_path, capsys, key, value):
        self.assert_train_and_eval_exit_2(tmp_path, write_config(tmp_path, **{key: value}))
        assert not (tmp_path / "t").exists() and not (tmp_path / "e").exists()
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert key in err or "lava count range" in err

    @pytest.mark.parametrize("names, message", [
        (["ForkYG", "ForkYG"], "distinct"),
        (["ForkYG", "Fork/GY"], "without '/'"),
        (["ForkYG", ""], "nonempty"),
        (["ForkYG", 5], "strings"),
    ])
    def test_bad_context_names_exit_2_before_any_output(self, tmp_path, capsys, names, message):
        # a repeated name would share one reference front, snapshot and cells file
        obj = json.loads(write_config(tmp_path).read_text())
        for item, name in zip(obj["contexts"], names):
            item["name"] = name
        cfg = tmp_path / "names.json"
        cfg.write_text(json.dumps(obj))
        self.assert_train_and_eval_exit_2(tmp_path, cfg)
        assert not (tmp_path / "t").exists() and not (tmp_path / "e").exists()
        err = capsys.readouterr().err
        assert "context names" in err and message in err

    @pytest.mark.parametrize("edit, message", [
        (lambda obj: [1, 2], "a config must be a JSON object"),
        (lambda obj: "abc", "a config must be a JSON object"),
        (lambda obj: 3, "a config must be a JSON object"),
        (lambda obj: None, "a config must be a JSON object"),
        (lambda obj: {**obj, "contexts": "Maze"},
         "invalid config: contexts must be a list, got 'Maze'"),
        (lambda obj: {**obj, "seeds": 3}, "invalid config: seeds must be a list, got 3"),
        (lambda obj: {key: obj[key] for key in obj if key != "seeds"},
         "invalid config: missing key 'seeds'"),
        (lambda obj: {**obj, "contexts": [obj["contexts"][0], "Maze"]},
         "invalid config: contexts[1] must be an object with a 'builtin' or a 'context' key, "
         "got 'Maze'"),
        (lambda obj: {**obj, "contexts": [{}]},
         "invalid config: contexts[0] must be an object with a 'builtin' or a 'context' key, "
         "got {}"),
        (lambda obj: {"contexts": [{"builtin": "Nope"}], "seeds": [0]},
         "invalid config: contexts[0]: unknown builtin context 'Nope'"),
        (lambda obj: {**obj, "contexts": [obj["contexts"][0], {"builtin": "maze"}]},
         "invalid config: contexts[1]: unknown builtin context 'maze'"),
    ], ids=["a list", "a string", "a number", "null", "contexts a string", "seeds a number",
            "no seeds", "a context a string", "an empty context", "an unknown builtin",
            "a builtin misspelled"])
    def test_malformed_shape_exit_2_before_any_output(self, tmp_path, capsys, edit, message):
        cfg = tmp_path / "shape.json"
        cfg.write_text(json.dumps(edit(json.loads(write_config(tmp_path).read_text()))))
        self.assert_train_and_eval_exit_2(tmp_path, cfg)
        assert not (tmp_path / "t").exists() and not (tmp_path / "e").exists()
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == f"error: {cfg}: {message}\n" * 2

    def test_repeated_seeds_exit_2_before_any_output(self, tmp_path, capsys):
        # a repeated seed would train one snapshot twice and count its cells twice
        self.assert_train_and_eval_exit_2(tmp_path, write_config(tmp_path, seeds=[0, 2, 0, 2, 1]))
        assert not (tmp_path / "t").exists() and not (tmp_path / "e").exists()
        assert "seeds must be distinct, repeated: [0, 2]" in capsys.readouterr().err

    @NAN_WEIGHTS
    def test_nan_goal_weights_exit_2_before_any_output(self, tmp_path, capsys, weights):
        obj = json.loads(write_config(tmp_path).read_text())
        obj["contexts"][1]["context"]["weights"] = weights
        cfg = tmp_path / "nan.json"
        cfg.write_text(json.dumps(obj))
        self.assert_train_and_eval_exit_2(tmp_path, cfg)
        assert not (tmp_path / "t").exists() and not (tmp_path / "e").exists()
        assert "context 'ForkGY': goal weights must be nonnegative" in capsys.readouterr().err

    def test_negative_seed_override_exit_2_before_any_work(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        for command in (["train"], ["eval", "--self-test"]):
            out = tmp_path / command[0]
            assert main([*command, "--config", str(cfg), "--seed", "-1",
                         "--out", str(out)]) == EXIT_INPUT_ERROR
            assert not out.exists()
            assert "seeds" in capsys.readouterr().err

    def test_benchmark_configs_load(self, monkeypatch):
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
        spec.loader.exec_module(workloads)
        for workload in workloads.WORKLOADS.values():
            for seed in range(3):
                harness.EvalConfig.from_json_obj(workload.config(seed))

    def test_snapshot_weight_grid_mismatch_exit_2(self, tmp_path, capsys):
        snaps = tmp_path / "snaps"
        coarse = write_config(tmp_path, weight_grid_resolution=2)  # 6 grid weights
        assert main(["train", "--config", str(coarse), "--mode", "generalist",
                     "--out", str(snaps)]) == EXIT_OK
        cfg = write_config(tmp_path)  # resolution 4: 15 grid weights
        out = tmp_path / "e"
        assert main(["eval", "--config", str(cfg), "--agents", str(snaps),
                     "--out", str(out)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "6 grid weights" in err and "gives 15" in err
        assert not (out / "report.json").exists()

    def test_every_context_excluded_exit_2(self, tmp_path, capsys):
        trivial = micro_context(["G..", "...", "..."], [1.0, 0.0, 0.0], "Trivial",
                                start=(0, 1))
        cfg = write_config(
            tmp_path, contexts=[{"name": "Trivial", "context": trivial.to_json_obj()}]
        )
        out = tmp_path / "o"
        assert main(["eval", "--config", str(cfg), "--self-test",
                     "--out", str(out)]) == EXIT_INPUT_ERROR
        assert "Trivial" in capsys.readouterr().err
        assert not (out / "report.json").exists()


class TestTrainCommand:
    def test_zero_episodes_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, train_episodes=0)
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == EXIT_INPUT_ERROR

    def test_snapshots_reproducible(self, tmp_path):
        cfg = write_config(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--config", str(cfg), "--mode", "generalist",
                         "--out", str(out)]) == EXIT_OK
            outs.append((out / "generalist_seed0.json").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("modes", [["generalist", "generalist"],
                                       ["specialists", "generalist", "specialists"]])
    def test_repeated_mode_usage_error_before_any_output(self, tmp_path, capsys, modes):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", str(write_config(tmp_path)), "--mode", *modes,
                  "--out", str(out)])
        assert exc.value.code == EXIT_INPUT_ERROR
        assert "argument --mode: each mode may be given once, repeated: " in capsys.readouterr().err
        assert not out.exists()

    def test_specialist_snapshots_written(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--mode", "specialists",
                     "--out", str(out)]) == EXIT_OK
        assert (out / "specialist_seed0_ForkYG.json").exists()
        assert (out / "specialist_seed0_ForkGY.json").exists()


def snapshot_files(out):
    """Every file `train` wrote, with the manifest's `out` entry left out."""
    files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["out"]
    return files, manifest


def assert_no_child_left():
    with pytest.raises(ChildProcessError):  # every child was waited for
        os.waitpid(-1, os.WNOHANG)


class TestParallelTrain:
    """`train --parallel N` trains its jobs in N processes, which claim them one at a time.

    No test here starts more than 3 processes.
    """

    def test_snapshots_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, train_episodes=60)  # 3 jobs: a generalist, 2 specialists
        outputs = []
        for parallel in ("1", "2", "3"):
            out = tmp_path / f"p{parallel}"
            assert main(["train", "--config", str(cfg), "--parallel", parallel,
                         "--out", str(out)]) == EXIT_OK
            outputs.append(snapshot_files(out))
        assert len(outputs[0][0]) == 3
        assert outputs[0] == outputs[1] == outputs[2]

    def test_each_job_trained_once(self, tmp_path, monkeypatch):
        # Three processes, more than the CPUs of a 2-CPU machine, claim 24
        # jobs; a lost or a repeated claim shows in the log that every
        # training appends to, though not in the snapshots, which a second
        # training of a job would simply rewrite.
        cfg = write_config(tmp_path, seeds=[0, 1, 2, 3, 4, 5, 6, 7])  # 8 x 3 jobs
        log = tmp_path / "jobs"

        class Untrained:
            def save(self, path):
                pass

        def log_job(config, seed, idx=None):  # a forked child inherits it
            fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, f"{seed} {idx}\n".encode())
            finally:
                os.close(fd)
            return Untrained()

        monkeypatch.setattr(harness, "train_agent", log_job)
        assert main(["train", "--config", str(cfg), "--parallel", "3",
                     "--out", str(tmp_path / "o")]) == EXIT_OK
        jobs = sorted(tuple(line.split()) for line in log.read_text().splitlines())
        assert jobs == sorted((str(seed), idx) for seed in range(8)
                              for idx in ("None", "0", "1"))
        assert_no_child_left()

    @pytest.mark.parametrize("failing", [(1,), (0, 1), (None, 1)],
                             ids=["one specialist", "two specialists", "generalist and a specialist"])
    @pytest.mark.parametrize("parallel", ["2", "3"])
    def test_failure_exits_2_as_one_process_does(self, tmp_path, capsys, monkeypatch,
                                                 parallel, failing):
        cfg = write_config(tmp_path, train_episodes=10)
        train_agent = harness.train_agent

        def fail_some(config, seed, idx=None):  # a forked child inherits it
            if idx in failing:
                raise ValueError(f"job {idx} failed")
            return train_agent(config, seed, idx)

        monkeypatch.setattr(harness, "train_agent", fail_some)
        errors = []
        for flags in ([], ["--parallel", parallel]):
            assert main(["train", "--config", str(cfg), *flags,
                         "--out", str(tmp_path / "o")]) == EXIT_INPUT_ERROR
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == f"error: job {failing[0]} failed\n"
        with pytest.raises(ChildProcessError):  # every child was waited for
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_below_one_exit_2_before_any_output(self, tmp_path, capsys, command, value):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        scored = ["--self-test"] if command == "eval" else []
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), *scored, "--parallel", value,
                  "--out", str(out)])
        assert exc.value.code == EXIT_INPUT_ERROR
        assert "argument --parallel: must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("value", ["two", "1.5"])
    def test_not_an_integer_exit_2_before_any_output(self, tmp_path, capsys, command, value):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        scored = ["--self-test"] if command == "eval" else []
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), *scored, "--parallel", value,
                  "--out", str(out)])
        assert exc.value.code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert f"argument --parallel: must be an integer, got '{value}'" in err
        assert "_process_count" not in err
        assert not out.exists()


def eval_files(out):
    """The bytes of `report.json`, `report.csv` and every `cells/` file of an eval."""
    files = {name: (out / name).read_bytes() for name in ("report.json", "report.csv")}
    files.update({f"cells/{p.name}": p.read_bytes() for p in (out / "cells").iterdir()})
    return files


def trivial_context(name):
    """A context whose only goal is one step away: a degenerate, one-point reference."""
    return micro_context(["G..", "...", "..."], [1.0, 0.0, 0.0], name, start=(0, 1))


def config_of(tmp_path, contexts):
    """A two-seed config of `contexts` [(name, context)], with tiny training."""
    return write_config(
        tmp_path, seeds=[0, 1], train_episodes=40, eval_episodes=20,
        contexts=[{"name": name, "context": ctx.to_json_obj()} for name, ctx in contexts],
    )


class TestParallelEval:
    """`eval --parallel N` computes the reference fronts, then each seed's cells, in N processes.

    Each config here has at most 3 contexts, so no test starts more than 3
    processes.
    """

    @pytest.mark.parametrize("scored", [
        ["--agents", "SNAPS", "--kind", "generalist"],
        ["--agents", "SNAPS", "--kind", "specialist"],
        ["--random-baseline"],
        ["--self-test"],
    ], ids=["generalist", "specialist", "random", "self-test"])
    def test_outputs_byte_identical(self, tmp_path, scored):
        cfg = config_of(tmp_path, micro_suite()[:3])
        snaps = tmp_path / "snaps"
        if "--agents" in scored:
            assert main(["train", "--config", str(cfg), "--out", str(snaps)]) == EXIT_OK
        scored = [str(snaps) if flag == "SNAPS" else flag for flag in scored]
        outputs = []
        for parallel in ("1", "2", "3", "8"):
            out = tmp_path / f"p{parallel}"
            assert main(["eval", "--config", str(cfg), *scored, "--parallel", parallel,
                         "--out", str(out)]) == EXIT_OK
            outputs.append(eval_files(out))
        assert len(outputs[0]) == 2 + 2 * 3  # the reports and a cell per (seed, context)
        assert all(files == outputs[0] for files in outputs[1:])
        assert_no_child_left()

    def test_each_context_claimed_once(self, tmp_path, monkeypatch):
        # Three processes, more than the CPUs of a 2-CPU machine, claim 60
        # contexts; a lost or a repeated claim shows in the log that every
        # computation appends to.
        contexts = [(f"T{i}", trivial_context(f"T{i}")) for i in range(60)]
        config = harness.EvalConfig(contexts=contexts, seeds=[0])
        log = tmp_path / "claims"

        def log_claim(config, indices):
            (i,) = indices
            fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, f"{i}\n".encode())
            finally:
                os.close(fd)
            return {config.contexts[i][0]: i}

        monkeypatch.setattr(harness, "make_reference_fronts", log_claim)
        refs = cli._reference_fronts(config, 3)
        assert list(refs.items()) == [(f"T{i}", i) for i in range(60)]
        assert sorted(int(line) for line in log.read_text().split()) == list(range(60))
        assert_no_child_left()

    @pytest.mark.parametrize("parallel", ["1", "2", "3"])
    def test_only_scored_cells_computed_each_once(self, tmp_path, monkeypatch, parallel):
        # The two Trivial contexts have degenerate references, so their cells
        # are never scored: no process may compute them, and none may compute
        # a scored cell a second time.
        (yg, fork_yg), (gy, fork_gy) = micro_suite()[:2]
        contexts = [(yg, fork_yg), ("Trivial", trivial_context("Trivial")), (gy, fork_gy),
                    ("Trivial2", trivial_context("Trivial2"))]
        cfg = write_config(
            tmp_path, seeds=[0, 1, 2], train_episodes=40, eval_episodes=20,
            contexts=[{"name": name, "context": ctx.to_json_obj()} for name, ctx in contexts],
        )
        snaps = tmp_path / "snaps"
        assert main(["train", "--config", str(cfg), "--mode", "generalist",
                     "--out", str(snaps)]) == EXIT_OK
        for seed in range(3):  # so that an agent front can name its seed
            path = snaps / f"generalist_seed{seed}.json"
            obj = json.loads(path.read_text())
            obj["metadata"]["seed"] = seed
            path.write_text(json.dumps(obj))
        log = tmp_path / "cells"

        def log_cell(kind, seed, ctx):  # a forked child inherits it
            fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, f"{kind} {seed} {ctx.name}\n".encode())
            finally:
                os.close(fd)

        build_front, random_policy_front = agents.build_front, agents.random_policy_front

        def agent_front(q, ctx, *args, **kwargs):
            log_cell("agent", q.metadata["seed"], ctx)
            return build_front(q, ctx, *args, **kwargs)

        def random_front(ctx, n, gamma, stream, **kwargs):
            log_cell("random", stream.base_seed, ctx)
            return random_policy_front(ctx, n, gamma, stream, **kwargs)

        monkeypatch.setattr(agents, "build_front", agent_front)
        monkeypatch.setattr(agents, "random_policy_front", random_front)
        for scored in (["--agents", str(snaps)], ["--random-baseline"]):
            assert main(["eval", "--config", str(cfg), *scored, "--parallel", parallel,
                         "--out", str(tmp_path / scored[0])]) == EXIT_OK
        assert sorted(log.read_text().splitlines()) == sorted(
            f"{kind} {seed} {name}"
            for kind in ("agent", "random") for seed in range(3) for name in (yg, gy)
        )
        assert_no_child_left()

    @pytest.mark.parametrize("failing", [("ForkGY",), ("ForkGY", "ForkBG"), ("ForkYG", "ForkBG")],
                             ids=["the second", "the second and third", "the first and third"])
    @pytest.mark.parametrize("parallel", ["2", "3"])
    def test_reference_failure_exits_2_as_one_process_does(self, tmp_path, capsys, monkeypatch,
                                                           parallel, failing):
        cfg = config_of(tmp_path, micro_suite()[:3])
        backward_induction = oracle.pareto_backward_induction

        def fail_some(context, *args, **kwargs):  # a forked child inherits it
            if context.name in failing:
                raise ValueError(f"reference of {context.name} failed")
            return backward_induction(context, *args, **kwargs)

        monkeypatch.setattr(oracle, "pareto_backward_induction", fail_some)
        errors = []
        for flags in ([], ["--parallel", parallel]):
            assert main(["eval", "--config", str(cfg), "--random-baseline", *flags,
                         "--out", str(tmp_path / "o")]) == EXIT_INPUT_ERROR
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == f"error: reference of {failing[0]} failed\n"
        assert_no_child_left()

    @pytest.mark.parametrize("scored", ["random", "broken snapshot"])
    def test_every_reference_degenerate_same_error(self, tmp_path, capsys, scored):
        # With --parallel 1 the references come first, so a broken snapshot is never read.
        cfg = config_of(tmp_path, [("Trivial", trivial_context("Trivial")),
                                   ("Trivial2", trivial_context("Trivial2"))])
        flags = ["--random-baseline"]
        if scored == "broken snapshot":
            snaps = tmp_path / "snaps"
            assert main(["train", "--config", str(cfg), "--mode", "generalist",
                         "--out", str(snaps)]) == EXIT_OK
            (snaps / "generalist_seed0.json").write_text("{")
            flags = ["--agents", str(snaps)]
        errors = []
        for parallel in ("1", "2"):
            assert main(["eval", "--config", str(cfg), *flags, "--parallel", parallel,
                         "--out", str(tmp_path / "o")]) == EXIT_INPUT_ERROR
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0] == ("error: every context has a degenerate reference front: "
                             "['Trivial', 'Trivial2']\n")
        assert_no_child_left()

    @pytest.mark.parametrize("broken, code", [
        ("specialist_seed0_Trivial.json", EXIT_OK),
        ("specialist_seed1_ForkYG.json", EXIT_INPUT_ERROR),
    ], ids=["an excluded context's", "a scored context's"])
    def test_broken_snapshot_as_one_process_reads_it(self, tmp_path, capsys, broken, code):
        # Only the scored contexts' cells are computed, so only a scored
        # context's broken snapshot is read.
        cfg = config_of(tmp_path, [("ForkYG", micro_suite()[0][1]),
                                   ("Trivial", trivial_context("Trivial"))])
        snaps = tmp_path / "snaps"
        assert main(["train", "--config", str(cfg), "--mode", "specialists",
                     "--out", str(snaps)]) == EXIT_OK
        (snaps / broken).write_text("{")
        results = []
        for parallel in ("1", "2"):
            out = tmp_path / f"p{parallel}"
            assert main(["eval", "--config", str(cfg), "--agents", str(snaps), "--kind",
                         "specialist", "--parallel", parallel, "--out", str(out)]) == code
            captured = capsys.readouterr()
            results.append((captured.err, eval_files(out) if code == EXIT_OK else None))
        assert results[0] == results[1]
        assert (str(snaps / broken) in results[0][0]) == (code != EXIT_OK)
        assert_no_child_left()


class TestEvalCommand:
    def test_self_test_prints_perfect_scores(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["eval", "--config", str(cfg), "--self-test",
                     "--out", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "1.000" in printed and "0.000" in printed
        report = json.loads((out / "report.json").read_text())
        assert report["aggregates"]["nhgr_iqm"] == pytest.approx(1.0)
        assert report["aggregates"]["nhgr_optimality_gap"] == pytest.approx(0.0)

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["eval", "--config", str(cfg), "--random-baseline",
                  "--out", str(out)])
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_parallel_flag_does_not_change_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        blobs = []
        for name, par in (("a", "1"), ("b", "8")):
            out = tmp_path / name
            main(["eval", "--config", str(cfg), "--random-baseline",
                  "--parallel", par, "--out", str(out)])
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_missing_snapshot_exit_2(self, tmp_path, capsys, monkeypatch):
        # Checked before the manifest is written or any reference front computed.
        cfg = write_config(tmp_path, seeds=[0, 1])
        snaps = tmp_path / "snaps"
        assert main(["train", "--config", str(cfg), "--seed", "0",
                     "--out", str(snaps)]) == EXIT_OK  # seed 1's snapshots are missing

        def no_references(config):
            raise AssertionError("reference fronts computed")

        monkeypatch.setattr(harness, "make_reference_fronts", no_references)
        for kind in ("generalist", "specialist"):
            out = tmp_path / kind
            assert main(["eval", "--config", str(cfg), "--agents", str(snaps),
                         "--kind", kind, "--out", str(out)]) == EXIT_INPUT_ERROR
            assert f"{kind}_seed1" in capsys.readouterr().err
            assert not out.exists()

    def test_trained_agents_evaluated(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, seeds=[0, 1])
        snaps = tmp_path / "snaps"
        main(["train", "--config", str(cfg), "--mode", "generalist",
              "--out", str(snaps)])
        loads = []
        load = agents.TabularQ.load.__func__
        monkeypatch.setattr(agents.TabularQ, "load",
                            classmethod(lambda cls, path: loads.append(path) or load(cls, path)))
        out = tmp_path / "o"
        assert main(["eval", "--config", str(cfg), "--agents", str(snaps),
                     "--kind", "generalist", "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["agent_kind"] == "generalist"
        assert (out / "cells").is_dir()
        assert len(report["cells"]) == 4
        assert sorted(p.name for p in loads) == ["generalist_seed0.json", "generalist_seed1.json"]

    @pytest.mark.parametrize("row", [[0.0, 1.0], [0.0, 1.0, 2.0, 3.0]])
    def test_malformed_snapshot_exit_2(self, tmp_path, capsys, row):
        cfg = write_config(tmp_path)
        snaps = tmp_path / "snaps"
        main(["train", "--config", str(cfg), "--mode", "generalist", "--out", str(snaps)])
        path = snaps / "generalist_seed0.json"
        obj = json.loads(path.read_text())
        # every row of the wrong length
        obj["tables"] = packed(np.tile(row, (len(obj["weight_grid"]), obj["rows"], 1)), "<f8")
        path.write_text(json.dumps(obj))
        assert main(["eval", "--config", str(cfg), "--agents", str(snaps),
                     "--out", str(tmp_path / "o")]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "generalist_seed0.json" in err and "3 Q-values" in err

    @pytest.mark.parametrize("field, edit", [
        ("'tables'", lambda obj: {k: v for k, v in obj.items() if k != "tables"}),
        ("'tables'", lambda obj: {**obj, "tables": []}),
        ("'keys'", lambda obj: {**obj, "keys": [[0, 0, 0, 0]]}),
        ("'weight_grid'", lambda obj: {k: v for k, v in obj.items() if k != "weight_grid"}),
        ("'weight_grid'", lambda obj: {**obj, "weight_grid": [1.0, 0.0]}),
        ("'alpha'", lambda obj: {**obj, "alpha": None}),
        ("'metadata'", lambda obj: {**obj, "metadata": []}),
        ("JSON object", lambda obj: [obj]),
        pytest.param("'action_count'", lambda obj: {**obj, "action_count": 4, "tables": packed(
            np.concatenate([q_values(obj), np.zeros((len(obj["weight_grid"]), obj["rows"], 1))],
                           axis=2), "<f8")}, id="action_count 4, rows of 4"),
        pytest.param("'action_count'", lambda obj: {**obj, "action_count": 3.7},
                     id="action_count 3.7"),
        pytest.param("'action_count'", lambda obj: {**obj, "action_count": "3"},
                     id="action_count text"),
        pytest.param("'episodes_trained'", lambda obj: {**obj, "episodes_trained": -5},
                     id="episodes_trained negative"),
        pytest.param("'episodes_trained'", lambda obj: {**obj, "episodes_trained": 3.7},
                     id="episodes_trained 3.7"),
        pytest.param("'episodes_trained'", lambda obj: {**obj, "episodes_trained": True},
                     id="episodes_trained bool"),
        pytest.param("'alpha'", lambda obj: {**obj, "alpha": "0.1"}, id="alpha text"),
        pytest.param("'alpha'", lambda obj: {**obj, "alpha": True}, id="alpha bool"),
        pytest.param("'alpha'", lambda obj: {**obj, "alpha": -1.0}, id="alpha negative"),
        pytest.param("'weight_grid'", lambda obj: {**obj, "weight_grid": [
            [str(x) for x in row] for row in obj["weight_grid"]]}, id="weight_grid text"),
        pytest.param("'weight_grid'", lambda obj: {**obj, "weight_grid": [
            [True, False, False], *obj["weight_grid"][1:]]}, id="weight_grid bool"),
        pytest.param("version", lambda obj: {**obj, "version": True}, id="version bool"),
        pytest.param("'rows'", lambda obj: {k: v for k, v in obj.items() if k != "rows"},
                     id="no rows"),
        pytest.param("'rows'", lambda obj: {**obj, "rows": 2.5}, id="rows 2.5"),
        pytest.param("'keys'", lambda obj: {**obj, "rows": obj["rows"] + 1}, id="rows one more"),
    ])
    def test_malformed_snapshot_field_exit_2(self, tmp_path, capsys, field, edit):
        cfg = write_config(tmp_path)
        snaps = tmp_path / "snaps"
        main(["train", "--config", str(cfg), "--mode", "generalist", "--out", str(snaps)])
        path = snaps / "generalist_seed0.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        out = tmp_path / "o"
        assert main(["eval", "--config", str(cfg), "--agents", str(snaps),
                     "--out", str(out)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert str(path) in err and field in err and "Traceback" not in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("edit", [
        pytest.param(with_text("tables", lambda text: text[:8] + "_" + text[8:]),
                     id="table 1_0"),
        pytest.param(with_text("tables", lambda text: "0" + text), id="table 010"),
        pytest.param(with_text("tables", lambda text: " " + text), id="table space 10"),
        pytest.param(with_text("tables", lambda text: "+" + text), id="table +10"),
        pytest.param(lambda obj: with_weights(obj, 1), id="table 15 of 15 weights"),
        pytest.param(lambda obj: with_weights(obj, 100 - len(obj["weight_grid"])),
                     id="table 99"),
        pytest.param(lambda obj: with_weights(obj, -1), id="table -1"),
    ])
    def test_bad_table_key_exit_2(self, tmp_path, capsys, edit):
        """The tables member holds exactly one table per grid weight, as canonical base64.

        Snapshots of version 2 have no table keys: a weight's table is its
        place in the member. Each case restates the version-1 table key of
        its id: a table count that is not the grid's (a 16th table of 15
        weights, tables up to weight 99, one table too few), or text that a
        lenient reader takes for other text, as `int` took "1_0", "010",
        " 10" and "+10" for 10 (base64 decoders skip "_" and spaces unless
        told to validate).
        """
        self.assert_bad_snapshot_exit_2(tmp_path, capsys, edit, "snapshot field 'tables'")

    @pytest.mark.parametrize("edit", [
        pytest.param(with_text("keys", lambda text: "0" + text), id="leading zero"),
        pytest.param(with_text("keys", lambda text: " " + text), id="leading space"),
        pytest.param(with_text("keys", lambda text: "+" + text), id="plus sign"),
        pytest.param(with_text("keys", lambda text: text[:4] + " " + text[4:]),
                     id="space after comma"),
        pytest.param(with_text("keys", lambda text: text[:4] + "_" + text[4:]), id="underscore"),
        pytest.param(lambda obj: with_key_fields(obj, 3), id="three fields"),
        pytest.param(lambda obj: with_key_fields(obj, 5), id="five fields"),
        pytest.param(with_stream("keys", lambda stream: stream + stream), id="two keys in one"),
    ])
    def test_noncanonical_state_key_exit_2(self, tmp_path, capsys, edit):
        """The keys member is canonical base64 of one zlib stream of rows of 4 integers.

        Each case makes the version-1 state key edit of its id on the
        member: a character before or inside its base64 text, rows of 3 or
        5 integers, or two streams in one member.
        """
        self.assert_bad_snapshot_exit_2(tmp_path, capsys, edit, "snapshot field 'keys'")

    @pytest.mark.parametrize("edit, message", [
        pytest.param(with_keys(lambda keys: keys.__setitem__(1, keys[0])),
                     "row 1 ", id="a key twice"),
        pytest.param(with_keys(lambda keys: keys.__setitem__([0, 1], keys[[1, 0]])),
                     "row 1 ", id="two keys swapped"),
        pytest.param(with_keys(lambda keys: keys.__setitem__((2, 2), 4)), "row 2 ", id="dir 4"),
        pytest.param(with_keys(lambda keys: keys.__setitem__((3, 3), 8)), "row 3 ", id="mask 8"),
        pytest.param(with_keys(lambda keys: keys.__setitem__((0, 0), -1)), "row 0 ", id="x -1"),
    ])
    def test_key_not_a_state_in_order_exit_2(self, tmp_path, capsys, edit, message):
        """Every key is a state (dir 0 to 3, mask 0 to 7), and keys are unique and sorted."""
        self.assert_bad_snapshot_exit_2(tmp_path, capsys, edit,
                                        "snapshot field 'keys': " + message)

    def test_version_1_snapshot_exit_2(self, tmp_path, capsys):
        """A version-1 snapshot (one JSON object of states per weight) names its version."""
        def version_1(obj):
            keys = unpacked(obj["keys"], "<i4", (-1, 4)).tolist()
            tables = {str(w): {",".join(map(str, key)): row.tolist()
                               for key, row in zip(keys, table)}
                      for w, table in enumerate(q_values(obj))}
            head = {k: v for k, v in obj.items() if k not in ("rows", "keys", "tables")}
            return {**head, "version": 1, "tables": tables}

        self.assert_bad_snapshot_exit_2(tmp_path, capsys, version_1,
                                        "unsupported snapshot version 1; this morlgen reads "
                                        "version 2")

    @staticmethod
    def assert_bad_snapshot_exit_2(tmp_path, capsys, edit, message):
        """eval --agents exits 2 on a snapshot that `edit` changed, with `message`."""
        cfg = write_config(tmp_path)
        snaps = tmp_path / "snaps"
        main(["train", "--config", str(cfg), "--mode", "generalist", "--out", str(snaps)])
        path = snaps / "generalist_seed0.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        out = tmp_path / "o"
        assert main(["eval", "--config", str(cfg), "--agents", str(snaps),
                     "--out", str(out)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert str(path) in err and message in err and "Traceback" not in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("flags, message", [
        ([], "is required"),
        (["--self-test", "--random-baseline"], "not allowed with"),
        (["--agents", "snaps", "--self-test"], "not allowed with"),
        (["--agents", "snaps", "--random-baseline"], "not allowed with"),
        (["--kind", "generalist"], "is required"),
        (["--self-test", "--kind", "generalist"], "not allowed with argument --self-test"),
        (["--random-baseline", "--kind", "specialist"],
         "not allowed with argument --random-baseline"),
    ])
    def test_one_scoring_source_required(self, tmp_path, capsys, flags, message):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--config", str(cfg), "--out", str(out), *flags])
        assert exc.value.code == EXIT_INPUT_ERROR
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestReportCommand:
    def make_report(self, tmp_path, **overrides):
        cfg = write_config(tmp_path, **overrides)
        out = tmp_path / "o"
        main(["eval", "--config", str(cfg), "--self-test", "--out", str(out)])
        return out / "report.json"

    def test_metric_columns_present(self, tmp_path, capsys):
        path = self.make_report(tmp_path)
        capsys.readouterr()
        assert main(["report", str(path)]) == EXIT_OK
        table = capsys.readouterr().out
        for col in ("HV", "EUM", "NHGR", "EUGR"):
            assert col in table

    def test_truncated_json_exit_2(self, tmp_path):
        path = self.make_report(tmp_path)
        truncated = tmp_path / "trunc.json"
        truncated.write_text(path.read_text()[:200])
        assert main(["report", str(truncated)]) == EXIT_INPUT_ERROR

    def test_schema_mismatch_exit_2(self, tmp_path):
        path = self.make_report(tmp_path)
        obj = json.loads(path.read_text())
        obj["schema_version"] = 99
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert main(["report", str(bad)]) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("edit, message", [
        (lambda obj: obj["cells"][0].pop("context"), "lacks 'context'"),
        (lambda obj: obj["cells"][0].update(nhgr="high"), "'nhgr' must be a number or null"),
        (lambda obj: obj.update(cells="notalist"), "'cells' must be a list"),
        (lambda obj: obj["cells"].append(7), "must be an object, got int"),
        (lambda obj: obj["cells"][0].update(eugr_denominator_negative=0), "must be a bool"),
    ], ids=["no-context", "text-nhgr", "cells-not-a-list", "cell-not-an-object", "int-flag"])
    def test_malformed_cell_exit_2(self, tmp_path, capsys, edit, message):
        path = self.make_report(tmp_path)
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["report", str(path)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_not_an_object_exit_2(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[]")
        assert main(["report", str(path)]) == EXIT_INPUT_ERROR
        assert "JSON object" in capsys.readouterr().err

    def test_rendered_aggregates_match_recomputation(self, tmp_path, capsys):
        path = self.make_report(tmp_path)
        capsys.readouterr()
        main(["report", str(path)])
        out = capsys.readouterr().out
        assert "IQM=1.000" in out and "gap=0.000" in out

    def test_negative_eugr_denominator_left_out_of_aggregate(self, tmp_path, capsys):
        path = self.make_report(tmp_path)
        obj = json.loads(path.read_text())
        obj["cells"][0]["eugr"] = -5.0
        obj["cells"][0]["eugr_denominator_negative"] = True
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["report", str(path)]) == EXIT_OK
        assert "EUGR: IQM=1.000 gap=0.000" in capsys.readouterr().out

    def test_negative_eugr_denominator_left_out_of_context_row(self, tmp_path, capsys):
        path = self.make_report(tmp_path, seeds=[0, 1])
        obj = json.loads(path.read_text())
        flagged = obj["cells"][0]
        flagged["eugr"] = -5.0
        flagged["eugr_denominator_negative"] = True
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["report", str(path)]) == EXIT_OK
        rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()}
        # the context's other seed is a self-test cell with EUGR 1
        assert rows[flagged["context"]][4] == "1.000"
