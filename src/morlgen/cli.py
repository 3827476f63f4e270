"""Reproducible command-line pipeline: oracle, train, eval, report.

Every subcommand writes a run manifest into its output directory before
any results, consults no environment variables, and is idempotent for
identical inputs and seeds. Exit codes: 0 success, 2 user/input error,
3 success with an approximation flag (cap-bound oracle front).
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import pickle
import sys
from pathlib import Path

import numpy as np

from . import __version__, agents, harness, oracle
from .fronts import ParetoFront
from .lavagrid import DEFAULT_GAMMA, DEFAULT_MAX_STEPS, LavaGridContext, builtin_context
from .stats import GENERATOR_ID

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_APPROXIMATE = 3


class InputError(Exception):
    """User or input-file error; maps to exit code 2."""


def _write_manifest(out_dir: Path, subcommand: str, config_path, base_seed, **extra) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "subcommand": subcommand,
        "config": str(config_path) if config_path else None,
        "out": str(out_dir),
        "base_seed": base_seed,
        "software_version": __version__,
        "rng_generator": GENERATOR_ID,
        **extra,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load_json(path: Path):
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from None


def _resolve_context(spec: str) -> LavaGridContext:
    try:
        return builtin_context(spec)
    except KeyError:
        pass
    path = Path(spec)
    if not path.exists():
        raise InputError(f"{spec!r} is neither a builtin context nor an existing file")
    obj = _load_json(path)
    try:
        ctx = LavaGridContext.from_json_obj(obj)
        ctx.validate(require_all_goals=False)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None
    return ctx


def _load_config(args) -> tuple[harness.EvalConfig, Path]:
    """The validated config of `--config`, with `--seed` in place of its seeds."""
    path = Path(args.config)
    obj = _load_json(path)
    try:
        config = harness.EvalConfig.from_json_obj(obj)
        if args.seed is not None:
            config = dataclasses.replace(config, seeds=[args.seed])
        return config, path
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None


def cmd_oracle(args) -> int:
    ctx = _resolve_context(args.context)
    oracle.check_arguments(args.gamma, args.horizon, args.cap)  # before any output
    out_dir = Path(args.out)
    _write_manifest(out_dir, "oracle", None, None, context=ctx.to_json_obj())
    result = oracle.pareto_backward_induction(ctx, args.gamma, args.horizon, cap=args.cap)
    result.front.to_csv(out_dir / "front.csv")
    sidecar = {
        "exact": result.exact,
        "epsilon": result.epsilon,
        "gamma": args.gamma,
        "horizon": args.horizon,
        "cap": args.cap,
        "context": ctx.to_json_obj(),
        "witnesses": {
            ",".join(repr(float(x)) for x in point): wit
            for point, wit in zip(result.front.points, result.front.tags)
        },
    }
    with open(out_dir / "witnesses.json", "w") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=2)
        fh.write("\n")
    status = "exact" if result.exact else f"approximate (epsilon={result.epsilon:g})"
    print(f"oracle front: {len(result.front)} points, {status}")
    return EXIT_OK if result.exact else EXIT_APPROXIMATE


def _run_tasks(run, tasks) -> tuple[dict, tuple | None]:
    """Run `run(task)` for each task up to the first that fails.

    Returns {task: result} of the tasks done and (task, exception) of the
    failed one, or None.
    """
    done = {}
    for task in tasks:
        try:
            done[task] = run(task)
        except Exception as exc:
            return done, (task, exc)
    return done, None


def _run_tasks_and_exit(run, tasks_of, k: int, write_fd: int) -> None:
    """In forked child k: run the tasks of `tasks_of(k)`, send back what they gave, exit."""
    code = 1
    try:
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(_run_tasks(run, tasks_of(k))))
        code = 0
    finally:
        os._exit(code)


def _in_processes(run, tasks_of, processes: int) -> dict:
    """Run `run(task)` for each task of `tasks_of(k)` in process k; {task: result}.

    Process 0 is this one, and processes 1 to `processes` - 1 are forked
    children, each ending with `os._exit`. `tasks_of(k)` is called in
    process k once every child is forked. Tasks are integers, and each
    process stops at its first failing task; a child's results and its
    failure come back pickled over a pipe. Every child is waited for, also
    when this process fails, and the failure of the first task in task
    order is raised, as one process running the tasks in order raises it.
    """
    sys.stdout.flush()  # so that no child holds a copy of unwritten output
    sys.stderr.flush()
    children = []  # (pid, read end of the pipe its report comes back on)
    try:
        for k in range(1, processes):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _run_tasks_and_exit(run, tasks_of, k, write_fd)
            os.close(write_fd)
            children.append((pid, read_fd))
        done, failure = _run_tasks(run, tasks_of(0))
    finally:
        reports = []
        for pid, read_fd in children:
            with open(read_fd, "rb") as pipe:
                sent = pipe.read()
            reports.append((sent, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])))
    failures = [failure] if failure else []
    for sent, code in reports:
        if not sent:
            raise RuntimeError(f"a worker process ended with exit code {code} before it reported")
        child_done, child_failure = pickle.loads(sent)  # written by this program's own child
        done.update(child_done)
        if child_failure:
            failures.append(child_failure)
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return done


def cmd_train(args) -> int:
    config, config_path = _load_config(args)
    out_dir = Path(args.out)
    _write_manifest(out_dir, "train", config_path, config.seeds[0])
    modes = args.mode
    jobs = []  # (seed, context index or None for the generalist, snapshot path)
    for seed in config.seeds:
        if "generalist" in modes:
            jobs.append((seed, None, out_dir / f"generalist_seed{seed}.json"))
        if "specialists" in modes:
            jobs += [
                (seed, idx, out_dir / f"specialist_seed{seed}_{name}.json")
                for idx, (name, _) in enumerate(config.contexts)
            ]

    def train(job: int) -> None:
        seed, idx, path = jobs[job]
        harness.train_agent(config, seed, idx).save(path)

    # process k trains the k-th of `processes` contiguous shares of the jobs
    count, processes = len(jobs), min(args.parallel, len(jobs))
    _in_processes(
        train, lambda k: range(k * count // processes, (k + 1) * count // processes), processes
    )
    print(f"trained {', '.join(modes)} for seeds {config.seeds}")
    return EXIT_OK


def _snapshot_fronts(config, snapshot_dir: Path, kind: str):
    """front_for_cell closure over snapshots that all exist, or raise InputError."""
    suffix = {name: "" if kind == "generalist" else f"_{name}" for name, _ in config.contexts}
    paths = {
        (seed, name): snapshot_dir / f"{kind}_seed{seed}{suffix[name]}.json"
        for seed in config.seeds
        for name in suffix
    }
    for path in paths.values():
        if not path.exists():
            raise InputError(f"missing agent snapshot {path}")
    loaded: dict[Path, agents.TabularQ] = {}  # the last one: cells come seed by seed
    grid = config.weight_grid()

    def front_for_cell(seed, idx, name, ctx):
        path = paths[seed, name]
        if path not in loaded:
            loaded.clear()  # before loading, so one snapshot is held at a time
            try:
                q = agents.TabularQ.load(path)
            except ValueError as exc:
                raise InputError(f"{path}: {exc}") from None
            if not np.array_equal(q.weight_grid, grid):
                raise InputError(
                    f"{path}: snapshot has {len(q.weight_grid)} grid weights, "
                    f"the config's weight_grid_resolution gives {len(grid)}"
                )
            loaded[path] = q
        return agents.build_front(loaded[path], ctx, config.gamma, max_steps=config.max_steps)

    return front_for_cell


def _print_summary(report: harness.EvalReport) -> None:
    agg = report.aggregates

    def fmt(x):
        return "   n/a" if x is None else f"{x:6.3f}"

    print(f"agent: {report.agent_kind}")
    print("metric   IQM     optimality-gap")
    print(f"NHGR   {fmt(agg['nhgr_iqm'])}  {fmt(agg['nhgr_optimality_gap'])}")
    print(f"EUGR   {fmt(agg['eugr_iqm'])}  {fmt(agg['eugr_optimality_gap'])}")
    if report.excluded_contexts:
        print(f"excluded contexts (degenerate reference): {report.excluded_contexts}")


def _write_report(report: harness.EvalReport, out_dir: Path) -> None:
    with open(out_dir / "report.json", "w") as fh:
        fh.write(report.to_json())
    report.write_csv(out_dir / "report.csv")
    cells_dir = out_dir / "cells"
    cells_dir.mkdir(exist_ok=True)
    for cell in report.cells:
        front = ParetoFront.from_json_obj(cell["front"])
        front.to_csv(cells_dir / f"seed{cell['seed']}_{cell['context']}.csv")


def _cells_early(config, front_for_cell):
    """(work, front_for_cell): the work computes every cell now, seed by seed.

    The returned front_for_cell gives a cell computed early, or raises the
    exception that ended the early work at it, only when that cell is
    scored, so the report and the first error are those of computing every
    cell when it is scored.
    """
    early = {}

    def work():
        for seed in config.seeds:
            for idx, (name, ctx) in enumerate(config.contexts):
                try:
                    early[seed, idx] = front_for_cell(seed, idx, name, ctx)
                except Exception as exc:
                    early[seed, idx] = exc
                    return

    def front_or_early(seed, idx, name, ctx):
        if (seed, idx) not in early:
            return front_for_cell(seed, idx, name, ctx)
        front = early.pop((seed, idx))
        if isinstance(front, Exception):
            raise front
        return front

    return work, front_or_early


def _reference_fronts(config, processes: int, early_work=None) -> dict[str, harness.ReferenceFront]:
    """`harness.make_reference_fronts(config)`, computed in `processes` processes.

    Processes claim contexts one at a time, in config order, from a pipe
    that holds the index of the next unclaimed one; each front is drawn
    on its context's own substream, so it does not depend on where it is
    computed. This process forks first, then does `early_work`, if any,
    then computes context 0, which is kept for it so that its share is
    never empty, and claims like the others.
    """
    if processes == 1:
        return harness.make_reference_fronts(config)
    count = len(config.contexts)
    read_fd, write_fd = os.pipe()
    os.write(write_fd, (1).to_bytes(4, "little"))

    def claims():
        while (i := int.from_bytes(os.read(read_fd, 4), "little")) < count:
            os.write(write_fd, (i + 1).to_bytes(4, "little"))
            yield i
        os.write(write_fd, i.to_bytes(4, "little"))  # "none left", for the next claimer

    def tasks_of(k):
        if k:
            return claims()
        if early_work is not None:
            early_work()
        return itertools.chain((0,), claims())

    try:
        done = _in_processes(
            lambda i: harness.make_reference_fronts(config, [i]), tasks_of, processes
        )
    finally:
        os.close(read_fd)
        os.close(write_fd)
    return {name: ref for i in sorted(done) for name, ref in done[i].items()}


def cmd_eval(args) -> int:
    config, config_path = _load_config(args)
    if args.agents is not None:  # before any output or reference front
        kind = args.kind or "generalist"
        front_for_cell = _snapshot_fronts(config, Path(args.agents), kind)
    elif args.random_baseline:
        kind, front_for_cell = "random", harness.random_fronts(config)
    out_dir = Path(args.out)
    _write_manifest(out_dir, "eval", config_path, config.seeds[0])
    processes = min(args.parallel, len(config.contexts))
    early_work = None
    if processes > 1 and not args.self_test:  # a self-test's fronts are the references
        early_work, front_for_cell = _cells_early(config, front_for_cell)
    refs = _reference_fronts(config, processes, early_work)
    if args.self_test:
        report = harness.evaluate_reference_self_test(config, refs)
    else:
        report = harness.evaluate_custom(config, refs, kind, front_for_cell)
    _write_report(report, out_dir)
    _print_summary(report)
    return EXIT_OK


def cmd_report(args) -> int:
    obj = _load_json(Path(args.report))
    try:
        report = harness.EvalReport.from_json_obj(obj)
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"{args.report}: {exc}") from None

    contexts = sorted({c["context"] for c in report.cells})
    print(f"agent: {report.agent_kind}   (software {report.software_version})")
    header = f"{'context':<14}{'HV':>12}{'EUM':>12}{'NHGR':>8}{'EUGR':>8}  provenance"
    print(header)
    print("-" * len(header))
    for name in contexts:
        cells = [c for c in report.cells if c["context"] == name]

        def mean_of(key):
            vals = harness.averageable_scores(cells, key)
            return float(np.mean(vals)) if vals else None

        def fmt(x, width, digits=3):
            return ("n/a" if x is None else f"{x:.{digits}f}").rjust(width)

        print(
            f"{name:<14}"
            f"{fmt(mean_of('hypervolume'), 12)}"
            f"{fmt(mean_of('eum'), 12)}"
            f"{fmt(mean_of('nhgr'), 8)}"
            f"{fmt(mean_of('eugr'), 8)}"
            f"  {cells[0]['provenance']}"
        )
    agg = report.recompute_aggregates()
    print("-" * len(header))

    def fmt_agg(x):
        return "n/a" if x is None else f"{x:.3f}"

    print(
        f"aggregate NHGR: IQM={fmt_agg(agg['nhgr_iqm'])} "
        f"gap={fmt_agg(agg['nhgr_optimality_gap'])}   "
        f"EUGR: IQM={fmt_agg(agg['eugr_iqm'])} "
        f"gap={fmt_agg(agg['eugr_optimality_gap'])}"
    )
    if report.excluded_contexts:
        print(f"excluded contexts: {report.excluded_contexts}")
    return EXIT_OK


def _process_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morlgen",
        description="Multi-objective RL generalization evaluation pipeline.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle", help="compute a reference Pareto front")
    p.add_argument("context", help="builtin context name or context JSON file")
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    p.add_argument("--horizon", type=int, default=DEFAULT_MAX_STEPS)
    p.add_argument("--cap", type=int, default=32, help="per-state set-size cap")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("train", help="train generalist and/or specialist agents")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override config seeds")
    p.add_argument(
        "--mode",
        nargs="+",
        choices=["generalist", "specialists"],
        default=["generalist", "specialists"],
    )
    p.add_argument("--parallel", type=_process_count, default=1, metavar="N",
                   help="train the agents in N processes (default 1); snapshots are independent of it")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate agents and write a report")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    scored = p.add_mutually_exclusive_group(required=True)
    scored.add_argument("--agents", default=None, help="snapshot directory from 'train'")
    scored.add_argument("--self-test", action="store_true", help="score the reference fronts against themselves")
    scored.add_argument("--random-baseline", action="store_true", help="score the uniform-random policy baseline")
    p.add_argument("--kind", choices=["generalist", "specialist"], default=None,
                   help="the snapshots' agent kind, with --agents only (default generalist)")
    p.add_argument("--seed", type=int, default=None, help="override config seeds")
    p.add_argument("--parallel", type=_process_count, default=1, metavar="N",
                   help="compute the reference fronts in N processes (default 1); outputs are independent of it")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="render a report as a plain-text table")
    p.add_argument("report", help="path to report.json")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "eval" and args.kind is not None and args.agents is None:
        other = "--self-test" if args.self_test else "--random-baseline"
        parser.error(f"argument --kind: not allowed with argument {other}")
    try:
        return args.func(args)
    except (InputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
