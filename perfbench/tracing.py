"""Traced in-process run of a workload's commands, for the per-layer metrics.

Run as a child of run.py:

    python3 perfbench/tracing.py SPEC.json RESULT.json SPANS.json

SPEC.json names the source directory and two rounds of CLI argument lists.
The first round runs `morlgen.cli.main` untraced; the second runs the same
commands with wrappers around each module's functions. The wrappers are
set up here, from the benchmark's own files, by replacing module and class
attributes; nothing in the program changes. The difference between the two
rounds' wall time is the tracing overhead.

Each wrapped call updates its function's call count, inclusive time and
self time (inclusive minus the time of wrapped calls made inside it).
Calls of the coarse functions are also kept as spans (id, name, start,
end, parent) in memory and written to SPANS.json when the run ends; the
hot functions (env steps, rollouts, filters) are only counted, which keeps
the trace small. A function the program no longer has is listed as absent,
and the metrics derived from it are left out.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import traceback


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _observe_evaluate(tracer, args, kwargs):
    """Trace the front_for_cell callback so evaluate_custom's self time excludes it."""
    args = list(args)
    if len(args) > 3:
        args[3] = tracer.wrap("harness.front_for_cell", args[3])
    else:
        kwargs["front_for_cell"] = tracer.wrap("harness.front_for_cell", kwargs["front_for_cell"])

    def done(report):
        tracer.add("harness.cells", len(report.cells))
        tracer.add("harness.excluded_contexts", len(report.excluded_contexts))

    return tuple(args), kwargs, done


def _observe_backward_induction(tracer, args, kwargs):
    def done(result):
        tracer.add("oracle.horizon_layers", _arg(args, kwargs, 2, "horizon"))
        tracer.add("oracle.capped_contexts", int(not result.exact))
        tracer.add("oracle.front_points", len(result.front))

    return args, kwargs, done


def _observe_train(tracer, args, kwargs):
    steps_before = tracer.calls("lavagrid.step")

    def done(q):
        tracer.add("agents.train_steps", tracer.calls("lavagrid.step") - steps_before)
        tracer.add("agents.train_episodes", q.episodes_trained)
        tracer.add("agents.q_entries", sum(len(t) for t in q.tables.values()))

    return args, kwargs, done


def _observe_nondominated(tracer, args, kwargs):
    points = _arg(args, kwargs, 0, "points")
    return args, kwargs, lambda _: tracer.add("fronts.nondominated_points", len(points))


def _observe_filter(tracer, args, kwargs):
    entries = _arg(args, kwargs, 0, "entries")

    def done(kept):
        tracer.add("oracle.filter_candidates", len(entries))
        tracer.add("oracle.filter_kept", len(kept))

    return args, kwargs, done


# (trace name, module, attribute path, keep spans, observer)
WRAPS = [
    ("cli.train", "morlgen.cli", ("cmd_train",), True, None),
    ("cli.eval", "morlgen.cli", ("cmd_eval",), True, None),
    ("harness.reference_fronts", "morlgen.harness", ("make_reference_fronts",), True, None),
    ("harness.evaluate", "morlgen.harness", ("evaluate_custom",), True, _observe_evaluate),
    ("oracle.backward_induction", "morlgen.oracle", ("pareto_backward_induction",), True,
     _observe_backward_induction),
    ("oracle.compile", "morlgen.oracle", ("_build_tables",), True, None),
    ("oracle.filter", "morlgen.oracle", ("_nondominated_entries",), False, _observe_filter),
    ("oracle.prune", "morlgen.oracle", ("_prune_to_cap",), False, None),
    ("oracle.prune_pass", "morlgen.oracle", ("_eps_prune",), False, None),
    ("oracle.specialist_front", "morlgen.oracle", ("specialist_front",), True, None),
    ("agents.train", "morlgen.agents", ("train_scalarized_q",), True, _observe_train),
    ("agents.save", "morlgen.agents", ("TabularQ", "save"), True, None),
    ("agents.load", "morlgen.agents", ("TabularQ", "load"), True, None),
    ("agents.build_front", "morlgen.agents", ("build_front",), True, None),
    ("agents.greedy_rollout", "morlgen.agents", ("greedy_value_vector",), False, None),
    ("agents.random_front", "morlgen.agents", ("random_policy_front",), True, None),
    ("lavagrid.step", "morlgen.lavagrid", ("LavaGridEnv", "step"), False, None),
    ("lavagrid.sample", "morlgen.lavagrid", ("LavaGridSpace", "sample"), False, None),
    ("momdp.rollout", "morlgen.momdp", ("rollout",), False, None),
    ("fronts.nondominated", "morlgen.fronts", ("nondominated_indices",), False,
     _observe_nondominated),
    ("fronts.hypervolume", "morlgen.fronts", ("hypervolume",), False, None),
    ("fronts.eum", "morlgen.fronts", ("eum",), False, None),
    ("fronts.nhgr", "morlgen.fronts", ("nhgr",), False, None),
]


class Tracer:
    """Call counts, inclusive and self times, counters and spans of wrapped calls."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.absent: list[str] = []
        self._stack: list[list] = [[0.0, None]]  # frames: [wrapped child time, span id]
        self._patches: list[tuple] = []

    def add(self, key: str, value) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def wrap(self, name: str, fn, keep_spans: bool = True, observe=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            done = None
            if observe is not None:
                args, kwargs, done = observe(self, args, kwargs)
            parent = stack[-1]
            span_id = len(spans) if keep_spans else parent[1]
            if keep_spans:
                spans.append(None)  # reserve the id; filled in on return
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                parent[0] += elapsed
                if keep_spans:
                    spans[span_id] = (span_id, name, start, end, parent[1])
            if done is not None:
                done(result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in sorted({w[1] for w in WRAPS})]
        for name, module_name, path, keep_spans, observe in WRAPS:
            owner = importlib.import_module(module_name)
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(path[-1]) if owner is not None else None
            if raw is None:
                self.absent.append(name)
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__, keep_spans, observe))
            else:
                wrapped = self.wrap(name, raw, keep_spans, observe)
            self._patch(owner, path[-1], wrapped)
            if len(path) == 1:  # also rebind names imported with `from x import f`
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is raw and module is not owner:
                            self._patch(module, attr, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, leaving out those of absent functions."""
        out: dict[str, tuple[float, str]] = {}
        st, ct = self.stats, self.counters

        def put(metric, value, unit):
            out[metric] = (value, unit)

        def has(*names):
            return all(n in st for n in names)

        if has("cli.train", "cli.eval"):
            put("cli.self_s", st["cli.train"][2] + st["cli.eval"][2], "s")
        if has("harness.reference_fronts"):
            put("harness.reference_fronts_s", st["harness.reference_fronts"][1], "s")
        if has("harness.evaluate"):
            put("harness.evaluate_s", st["harness.evaluate"][2], "s")
            put("harness.cells", ct.get("harness.cells", 0), "count")
            put("harness.excluded_contexts", ct.get("harness.excluded_contexts", 0), "count")
        if has("oracle.backward_induction"):
            calls, incl, _ = st["oracle.backward_induction"]
            layers = ct.get("oracle.horizon_layers", 0)
            put("oracle.backward_induction_s", incl, "s")
            put("oracle.backward_induction_calls", calls, "count")
            put("oracle.horizon_layers", layers, "count")
            if layers:
                put("oracle.ms_per_layer", 1000.0 * incl / layers, "ms")
            put("oracle.capped_contexts", ct.get("oracle.capped_contexts", 0), "count")
            put("oracle.front_points", ct.get("oracle.front_points", 0), "count")
        if has("oracle.compile"):
            put("oracle.compile_s", st["oracle.compile"][2], "s")
        if has("oracle.filter"):
            put("oracle.filter_s", st["oracle.filter"][2], "s")
            put("oracle.filter_calls", st["oracle.filter"][0], "count")
            put("oracle.filter_candidates", ct.get("oracle.filter_candidates", 0), "count")
            put("oracle.filter_kept", ct.get("oracle.filter_kept", 0), "count")
        if has("oracle.prune"):
            put("oracle.prune_s", st["oracle.prune"][1], "s")
            put("oracle.prune_calls", st["oracle.prune"][0], "count")
        if has("oracle.prune_pass"):
            put("oracle.prune_passes", st["oracle.prune_pass"][0], "count")
        if has("oracle.specialist_front"):
            put("oracle.specialist_front_s", st["oracle.specialist_front"][1], "s")
        if has("agents.train", "lavagrid.step"):
            train_s = st["agents.train"][1]
            steps = ct.get("agents.train_steps", 0)
            put("agents.train_s", train_s, "s")
            put("agents.train_episodes", ct.get("agents.train_episodes", 0), "count")
            put("agents.train_steps", steps, "count")
            if train_s > 0:
                put("agents.train_steps_per_s", steps / train_s, "1/s")
            put("agents.q_entries", ct.get("agents.q_entries", 0), "count")
        for metric, name, column in (
            ("agents.save_s", "agents.save", 2),
            ("agents.load_s", "agents.load", 2),
            ("agents.build_front_s", "agents.build_front", 1),
            ("agents.greedy_rollouts", "agents.greedy_rollout", 0),
            ("agents.random_front_s", "agents.random_front", 1),
            ("lavagrid.step_calls", "lavagrid.step", 0),
            ("lavagrid.step_s", "lavagrid.step", 2),
            ("lavagrid.sample_calls", "lavagrid.sample", 0),
            ("lavagrid.sample_s", "lavagrid.sample", 2),
            ("momdp.rollout_calls", "momdp.rollout", 0),
            ("momdp.rollout_s", "momdp.rollout", 2),
            ("fronts.nondominated_calls", "fronts.nondominated", 0),
            ("fronts.nondominated_s", "fronts.nondominated", 2),
            ("fronts.hypervolume_calls", "fronts.hypervolume", 0),
            ("fronts.hypervolume_s", "fronts.hypervolume", 2),
            ("fronts.eum_s", "fronts.eum", 2),
            ("fronts.nhgr_s", "fronts.nhgr", 2),
        ):
            if has(name):
                put(metric, st[name][column], "count" if column == 0 else "s")
        if has("fronts.nondominated"):
            put("fronts.nondominated_points", ct.get("fronts.nondominated_points", 0), "count")
        return out


def _run_round(cli, commands) -> tuple[list[dict], float]:
    """Run each command in-process; returns per-command records and wall time."""
    records = []
    for argv in commands:
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception:  # one failed command must not hide the others
            traceback.print_exc()
            code = 1
        records.append({"argv": argv, "exit": code, "seconds": time.perf_counter() - start})
    return records, sum(r["seconds"] for r in records)


def main(spec_path: str, result_path: str, spans_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    cli = importlib.import_module("morlgen.cli")
    untraced, untraced_wall = _run_round(cli, spec["rounds"][0])
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_wall = _run_round(cli, spec["rounds"][1])
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    with open(result_path, "w") as fh:
        json.dump(
            {
                "rounds": [untraced, traced],
                "absent": tracer.absent,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            },
            fh,
            indent=1,
        )
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["id", "name", "start", "end", "parent"], "spans": tracer.spans}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
