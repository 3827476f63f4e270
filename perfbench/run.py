"""Benchmark of the morlgen pipeline, end to end and per module.

    python3 perfbench/run.py --workload micro-pipeline --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout. With `--trace 0` every command of
the workload runs as its own `python -m morlgen.cli` child process, round
after round until `--seconds` have passed (at least one whole round), and
the end-to-end metrics are medians over the rounds. With `--trace 1` one
round runs in-process untraced and one traced (see tracing.py), and the
per-layer metrics are printed. Either way every output is checked (see
checks.py), and the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Run outputs go to
perfbench/out/<workload>/, which each run empties first.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, Command, Workload, write_config

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_REPEATS = 9
CLI = [sys.executable, "-m", "morlgen.cli"]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], log_path: Path, timeout: float) -> dict:
    """Run one child to its end or kill its process group after `timeout` s.

    Returns its exit code (None when killed), wall seconds and peak RSS,
    the latter from the kernel's accounting for this child alone.
    """
    if timeout <= 0:
        return {"exit": None, "seconds": 0.0, "rss_mb": 0.0}
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
        )
        lock = threading.Lock()
        state = {"reaped": False, "killed": False}

        def kill():
            with lock:
                if not state["reaped"]:
                    state["killed"] = True
                    try:
                        os.killpg(proc.pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            with lock:
                state["reaped"] = True
            timer.cancel()
            timer.join()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": None if state["killed"] else proc.returncode,
        "seconds": elapsed,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def machine_facts() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
    }


def run_round(workload: Workload, config_path: Path, round_dir: Path, deadline: float):
    """Run every command of one round as a child process."""
    round_dir.mkdir(parents=True)
    commands = workload.commands(str(config_path), round_dir)
    results = []
    for cmd in commands:
        budget = min(cmd.budget_s, deadline - time.perf_counter())
        res = run_child(CLI + list(cmd.argv), round_dir / f"{cmd.label}.log", budget)
        results.append(res)
    snapshots = round_dir / "snapshots"
    snapshot_bytes = sum(
        p.stat().st_size for p in snapshots.glob("*.json") if p.name != "manifest.json"
    )
    return commands, results, {
        "wall_s": sum(r["seconds"] for r in results),
        "train_s": sum(r["seconds"] for c, r in zip(commands, results) if c.kind == "train"),
        "eval_s": sum(r["seconds"] for c, r in zip(commands, results) if c.kind == "eval"),
        "snapshot_bytes": snapshot_bytes,
        "peak_rss_mb": max(r["rss_mb"] for r in results),
    }


def setup(workload: Workload, seed: int, run_dir: Path, deadline: float) -> tuple[Path, float]:
    """Write the workload's inputs and cold-start the CLI; returns one timing."""
    start = time.perf_counter()
    config_path = run_dir / "config.json"
    write_config(workload, seed, config_path)
    res = run_child(CLI + ["--version"], run_dir / "coldstart.log", deadline - time.perf_counter())
    if res["exit"] != 0:
        raise SystemExit(f"error: cold start of the CLI failed; see {run_dir / 'coldstart.log'}")
    return config_path, time.perf_counter() - start


UNITS = {
    "setup_s": "s", "wall_s": "s", "train_s": "s", "eval_s": "s",
    "snapshot_bytes": "bytes", "peak_rss_mb": "MB",
}


def outputs_of(round_dir: Path, commands: list[Command], exits: list) -> dict:
    """What the checks need to know about one round."""
    return {
        "dir": str(round_dir),
        "commands": [
            {"label": c.label, "report": c.report, "self_test": c.self_test, "exit": code}
            for c, code in zip(commands, exits)
        ],
    }


def untraced(workload, seed, seconds, run_dir, deadline):
    setup(workload, seed, run_dir, deadline)  # fills bytecode caches; not timed
    setup_times = []
    for _ in range(SETUP_REPEATS):
        config_path, elapsed = setup(workload, seed, run_dir, deadline)
        setup_times.append(elapsed)
    rounds, outputs = [], []
    measure_start = time.perf_counter()
    while True:
        round_dir = run_dir / f"round{len(rounds)}"
        commands, results, figures = run_round(workload, config_path, round_dir, deadline)
        exits = [r["exit"] for r in results]
        outputs.append(outputs_of(round_dir, commands, exits))
        rounds.append(figures)
        print(f"round {len(rounds) - 1}: " + " ".join(f"{k}={v:.4f}" for k, v in figures.items())
              + f" exits={exits}", flush=True)
        if time.perf_counter() - measure_start >= seconds:
            break
    metrics = {"setup_s": statistics.median(setup_times)}
    for key in ("wall_s", "train_s", "eval_s", "snapshot_bytes", "peak_rss_mb"):
        metrics[key] = statistics.median(r[key] for r in rounds)
    return outputs, {k: (v, UNITS[k]) for k, v in metrics.items()}


def traced(workload, seed, run_dir, deadline):
    config_path, _ = setup(workload, seed, run_dir, deadline)
    round_dirs = [run_dir / "round0", run_dir / "round1"]
    commands = []
    for rd in round_dirs:
        rd.mkdir(parents=True)
        commands.append(workload.commands(str(config_path), rd))
    spec = run_dir / "trace_spec.json"
    spec.write_text(json.dumps({"src": str(SRC), "rounds": [[list(c.argv) for c in cmds] for cmds in commands]}))
    result_path = run_dir / "trace_result.json"
    res = run_child(
        [sys.executable, str(BENCH_DIR / "tracing.py"), str(spec), str(result_path), str(run_dir / "trace_spans.json")],
        run_dir / "trace.log", deadline - time.perf_counter(),
    )
    if res["exit"] != 0:
        exits = [[None] * len(cmds) for cmds in commands]
        return [outputs_of(rd, c, e) for rd, c, e in zip(round_dirs, commands, exits)], {}
    result = json.loads(result_path.read_text())
    exits = [[r["exit"] for r in records] for records in result["rounds"]]
    if result["absent"]:
        print(f"absent (metrics left out): {', '.join(result['absent'])}")
    metrics = {k: (m["value"], m["unit"]) for k, m in result["metrics"].items()}
    return [outputs_of(rd, c, e) for rd, c, e in zip(round_dirs, commands, exits)], metrics


def check(run_dir: Path, seed: int, outputs: list[dict], deadline: float) -> list[str]:
    """Run checks.py on every round's outputs in a child; returns its errors.

    The checks run in their own process so that this one stays small: a
    child's peak RSS as the kernel counts it starts from its parent's size.
    """
    manifest, result_path = run_dir / "check_manifest.json", run_dir / "check_result.json"
    manifest.write_text(json.dumps({"config": str(run_dir / "config.json"), "seed": seed, "rounds": outputs}))
    res = run_child(
        [sys.executable, str(BENCH_DIR / "checks.py"), str(manifest), str(result_path)],
        run_dir / "checks.log", deadline - time.perf_counter(),
    )
    if res["exit"] != 0:
        return [f"checks did not finish (exit {res['exit']}); see {run_dir / 'checks.log'}"]
    result = json.loads(result_path.read_text())
    print(f"checked {result['checked']} reports")
    return result["errors"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_DEADLINE_S
    if not (SRC / "morlgen" / "cli.py").is_file():
        print(f"error: no morlgen sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    run_dir = OUT / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    facts = machine_facts()
    print(f"workload {workload.name} seed {args.seed} trace {args.trace} machine {json.dumps(facts)}", flush=True)
    if args.trace:
        outputs, metrics = traced(workload, args.seed, run_dir, deadline)
    else:
        outputs, metrics = untraced(workload, args.seed, args.seconds, run_dir, deadline)
    errors = check(run_dir, args.seed, outputs, deadline)

    exits = [c["exit"] for r in outputs for c in r["commands"]]
    result = {
        "correct": not errors,
        "attempted": len(exits),
        "failed": sum(code != 0 for code in exits),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(f"attempted {result['attempted']} failed {result['failed']}; {len(errors)} check failures")
    for err in errors[:20]:
        print(f"CHECK FAILED {err}")
    (run_dir / "result.json").write_text(json.dumps({**result, "machine": facts, "seed": args.seed}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
