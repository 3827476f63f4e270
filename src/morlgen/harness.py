"""End-to-end evaluation protocol for generalist and specialist agents.

`train_agent` trains the agents that `morlgen train` saves. For each
(seed, context) cell, `evaluate_custom` takes the approximate front that
its caller gives (a saved agent's greedy front, the random floor, or the
reference itself) and scores it against the context's reference front
with NHGR, EUGR, EUM, and raw hypervolume; then it aggregates the
per-cell scores with the interquartile mean and the optimality gap.
Reference fronts come from capped backward induction; a cap-bound front
is unioned with a specialist front, and the provenance is recorded.
Reports serialize deterministically: identical configurations reproduce
byte-identical output.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields

import numpy as np

from . import __version__, agents, oracle
from .agents import _is_int, _is_real
from .fronts import (
    FrontBounds,
    ParetoFront,
    eum,
    hv_norm,
    hypervolume,
    nhgr,
    pareto_filter,
)
from .lavagrid import (
    DEFAULT_GAMMA,
    DEFAULT_MAX_STEPS,
    LavaGridContext,
    LavaGridSpace,
    builtin_context,
)
from .stats import GENERATOR_ID, RandomStream, iqm, optimality_gap, sample_simplex_batch

# Stream-id lanes, so every randomness consumer has a stable coordinate.
_TRAIN, _EUM, _SPECIALIST, _RANDOM, _REFERENCE = 0, 1, 2, 3, 4

REPORT_SCHEMA_VERSION = 1


# EvalConfig's integer fields and the least value of each.
_INT_FIELDS = {
    "eval_episodes": 1, "eum_weight_samples": 1, "max_steps": 1, "train_episodes": 1,
    "weight_grid_resolution": 1, "reference_specialist_episodes": 1,
    "reference_seed": 0, "dr_width": 1, "dr_height": 1,
}


@dataclass
class EvalConfig:
    """Everything needed to reproduce one evaluation run."""

    contexts: list[tuple[str, LavaGridContext]]
    seeds: list[int]
    eval_episodes: int = 100
    eum_weight_samples: int = 100
    gamma: float = DEFAULT_GAMMA
    max_steps: int = DEFAULT_MAX_STEPS
    train_episodes: int = 5000
    weight_grid_resolution: int = 10
    alpha: float = 0.1
    oracle_cap: int = 32
    reference_specialist_episodes: int = 20000
    reference_seed: int = 0
    dr_width: int = 11
    dr_height: int = 11
    dr_lava_range: tuple[int, int] = (0, 30)

    def __post_init__(self):
        if not self.contexts:
            raise ValueError("config must declare at least one context")
        # a name keys the reference front and names snapshot and cell files
        names = [name for name, _ in self.contexts]
        for name in names:
            if not (isinstance(name, str) and name and "/" not in name):
                raise ValueError(
                    f"context names must be nonempty strings without '/', got {name!r}"
                )
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise ValueError(f"context names must be distinct, repeated: {repeated}")
        for name, ctx in self.contexts:  # checked here, before any output
            try:
                ctx.validate(require_all_goals=False)
            except ValueError as exc:
                raise ValueError(f"context {name!r}: {exc}") from None
        if not self.seeds:
            raise ValueError("config must declare at least one seed")
        if not all(_is_int(seed) and seed >= 0 for seed in self.seeds):
            raise ValueError(f"seeds must be nonnegative integers, got {self.seeds!r}")
        for name, least in _INT_FIELDS.items():
            value = getattr(self, name)
            if not (_is_int(value) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        cap = self.oracle_cap
        if cap is not None and not (_is_int(cap) and cap >= 1):
            raise ValueError(f"oracle_cap must be at least 1, got {cap!r}")
        if not (_is_real(self.gamma) and 0.0 <= self.gamma < 1.0):
            raise ValueError(f"gamma must be a number in [0, 1), got {self.gamma!r}")
        if not (_is_real(self.alpha) and 0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must be a number in (0, 1], got {self.alpha!r}")
        lava = self.dr_lava_range
        if len(lava) != 2 or not all(_is_int(n) for n in lava):
            raise ValueError(f"dr_lava_range must be two integers, got {list(lava)!r}")
        self.dr_space()  # raises ValueError unless the lava range fits the grid

    def dr_space(self) -> LavaGridSpace:
        return LavaGridSpace(self.dr_width, self.dr_height, tuple(self.dr_lava_range))

    def weight_grid(self) -> np.ndarray:
        return agents.weight_grid(self.weight_grid_resolution, 3)

    def to_json_obj(self) -> dict:
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        obj["contexts"] = [
            {"name": name, "context": ctx.to_json_obj()} for name, ctx in self.contexts
        ]
        obj["seeds"] = list(self.seeds)
        obj["dr_lava_range"] = list(self.dr_lava_range)
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "EvalConfig":
        try:
            unknown = sorted(set(obj) - {f.name for f in fields(cls)})
            if unknown:
                raise ValueError(f"invalid config: unknown key(s) {unknown}")
            contexts = []
            for item in obj["contexts"]:
                if "builtin" in item:
                    name = item["builtin"]
                    contexts.append((item.get("name", name), builtin_context(name)))
                else:
                    ctx = LavaGridContext.from_json_obj(item["context"])
                    contexts.append((item.get("name", ctx.name or "context"), ctx))
            kwargs = dict(obj, contexts=contexts, seeds=list(obj["seeds"]))
            if "dr_lava_range" in obj:
                kwargs["dr_lava_range"] = tuple(obj["dr_lava_range"])
            return cls(**kwargs)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"invalid config: {exc}") from None


@dataclass
class ReferenceFront:
    """An optimal-front estimate for one context plus its provenance."""

    front: ParetoFront
    provenance: str  # oracle-exact | oracle-eps-pruned
    epsilon: float = 0.0


def make_reference_fronts(config: EvalConfig, indices=None) -> dict[str, ReferenceFront]:
    """Best obtainable reference front per context, provenance recorded.

    Backward induction runs on every context (or on the contexts at
    `indices`, in their order) with the configured cap. A cap-bound
    (epsilon-pruned) result is unioned with a specialist front, drawn on
    the context's own substream, so a front does not depend on which
    others are computed with it.
    """
    refs: dict[str, ReferenceFront] = {}
    ref_stream = RandomStream(config.reference_seed, (_REFERENCE,))
    for i in range(len(config.contexts)) if indices is None else indices:
        name, ctx = config.contexts[i]
        orf = oracle.pareto_backward_induction(
            ctx, config.gamma, config.max_steps, cap=config.oracle_cap
        )
        if orf.exact:
            refs[name] = ReferenceFront(orf.front, "oracle-exact")
            continue
        spec = oracle.specialist_front(
            ctx,
            config.reference_specialist_episodes,
            config.gamma,
            ref_stream.substream(i),
            weight_grid_resolution=config.weight_grid_resolution,
            max_steps=config.max_steps,
            alpha=config.alpha,
        )
        union = pareto_filter(np.vstack([orf.front.points, spec.points]))
        refs[name] = ReferenceFront(union, "oracle-eps-pruned", epsilon=orf.epsilon)
    return refs


def _is_score(value) -> bool:
    return value is None or _is_real(value)


# A stored cell's fields, each with what its value must be and the check of it.
_CELL_FIELDS = {
    "seed": ("an integer", _is_int),
    "context": ("a string", lambda v: isinstance(v, str)),
    "provenance": ("a string", lambda v: isinstance(v, str)),
    "hypervolume": ("a number or null", _is_score),
    "eum": ("a number or null", _is_score),
    "nhgr": ("a number or null", _is_score),
    "eugr": ("a number or null", _is_score),
    "eugr_denominator_negative": ("a bool", lambda v: isinstance(v, bool)),
}


def _check_cells(cells) -> None:
    """Raise ValueError, naming the field, unless `cells` is a list of well-formed cells."""
    if not isinstance(cells, list):
        raise ValueError(f"'cells' must be a list, got {type(cells).__name__}")
    for i, cell in enumerate(cells):
        if not isinstance(cell, dict):
            raise ValueError(f"cell {i} must be an object, got {type(cell).__name__}")
        for name, (what, ok) in _CELL_FIELDS.items():
            if name not in cell:
                raise ValueError(f"cell {i} lacks {name!r}")
            if not ok(cell[name]):
                raise ValueError(f"cell {i}: {name!r} must be {what}, got {cell[name]!r}")


@dataclass
class EvalReport:
    """Per-cell fronts and metrics plus cross-context aggregates."""

    agent_kind: str
    cells: list[dict]
    reference_fronts: dict[str, dict]
    excluded_contexts: list[str]
    aggregates: dict[str, float]
    config_echo: dict
    rng_generator: str = GENERATOR_ID
    software_version: str = __version__
    schema_version: int = REPORT_SCHEMA_VERSION

    def to_json_obj(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "software_version": self.software_version,
            "rng_generator": self.rng_generator,
            "agent_kind": self.agent_kind,
            "config": self.config_echo,
            "reference_fronts": self.reference_fronts,
            "excluded_contexts": self.excluded_contexts,
            "cells": self.cells,
            "aggregates": self.aggregates,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json_obj(cls, obj: dict) -> "EvalReport":
        if not isinstance(obj, dict):
            raise ValueError("a report must be a JSON object")
        if obj.get("schema_version") != REPORT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported report schema version {obj.get('schema_version')!r}"
            )
        _check_cells(obj["cells"])
        return cls(
            agent_kind=obj["agent_kind"],
            cells=obj["cells"],
            reference_fronts=obj["reference_fronts"],
            excluded_contexts=obj["excluded_contexts"],
            aggregates=obj["aggregates"],
            config_echo=obj["config"],
            rng_generator=obj["rng_generator"],
            software_version=obj["software_version"],
        )

    def write_csv(self, path) -> None:
        """Flat per-cell metric rows: seed, context, metric, value, provenance."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["seed", "context", "metric", "value", "provenance"])
            for cell in self.cells:
                for metric in ("hypervolume", "eum", "nhgr", "eugr"):
                    value = cell[metric]
                    writer.writerow(
                        [
                            cell["seed"],
                            cell["context"],
                            metric,
                            "" if value is None else repr(value),
                            cell["provenance"],
                        ]
                    )

    def recompute_aggregates(self) -> dict[str, float]:
        """Aggregates rebuilt from the stored per-cell scores."""
        return _aggregate(self.cells)


def averageable_scores(cells: list[dict], metric: str) -> list[float]:
    """The cells' values of `metric` that may be averaged together.

    Undefined values are left out. EUGR also skips cells whose reference
    EUM is negative: there the ratio's order is inverted, so it cannot be
    averaged with the others.
    """
    return [
        c[metric]
        for c in cells
        if c[metric] is not None
        and not (metric == "eugr" and c["eugr_denominator_negative"])
    ]


def _aggregate(cells: list[dict]) -> dict[str, float]:
    """IQM and optimality gap per ratio metric over its averageable scores."""
    out: dict[str, float] = {}
    for metric in ("nhgr", "eugr"):
        scores = averageable_scores(cells, metric)
        if scores:
            out[f"{metric}_iqm"] = iqm(scores)
            out[f"{metric}_optimality_gap"] = optimality_gap(scores)
        else:
            out[f"{metric}_iqm"] = None
            out[f"{metric}_optimality_gap"] = None
    return out


def _reference_valid(ref: ReferenceFront) -> bool:
    """A reference front supports NHGR iff its bounds and HV are nondegenerate."""
    try:
        bounds = FrontBounds.of_front(ref.front)
    except ValueError:  # includes DegenerateRangeError
        return False
    return hv_norm(ref.front, bounds) > 0.0


def evaluate_custom(
    config: EvalConfig,
    refs: dict[str, ReferenceFront],
    agent_kind: str,
    front_for_cell,
) -> EvalReport:
    """Score `front_for_cell(seed, index, name, context)` over all cells.

    Raises ValueError, before any cell is scored, when every context's
    reference front is degenerate.
    """
    ordered = sorted(enumerate(config.contexts), key=lambda item: item[1][0])
    valid = {name: _reference_valid(refs[name]) for _, (name, _) in ordered}
    excluded = sorted(name for name, ok in valid.items() if not ok)
    if len(excluded) == len(valid):
        raise ValueError(
            f"every context has a degenerate reference front: {excluded}"
        )

    cells: list[dict] = []
    for seed in config.seeds:
        for idx, (name, ctx) in ordered:
            if not valid[name]:
                continue
            ref = refs[name]
            front = front_for_cell(seed, idx, name, ctx)
            weights = sample_simplex_batch(
                RandomStream(seed, (_EUM, idx)), 3, config.eum_weight_samples
            )
            ref_point = ref.front.points.min(axis=0)
            cell_nhgr = nhgr(front, ref.front)
            eum_ref = eum(ref.front, weights)
            cell_eum = eum(front, weights) if len(front) else None
            if cell_eum is None or eum_ref == 0.0:
                cell_eugr = None
            else:
                cell_eugr = cell_eum / eum_ref
            cells.append(
                {
                    "seed": seed,
                    "context": name,
                    "provenance": ref.provenance,
                    "nhgr": cell_nhgr,
                    "eugr": cell_eugr,
                    "eugr_denominator_negative": bool(eum_ref < 0.0),
                    "eum": cell_eum,
                    "hypervolume": hypervolume(front, ref_point),
                    "front": front.to_json_obj(),
                }
            )
    report = EvalReport(
        agent_kind=agent_kind,
        cells=cells,
        reference_fronts={
            name: {
                "provenance": refs[name].provenance,
                "epsilon": refs[name].epsilon,
                "front": refs[name].front.to_json_obj(),
            }
            for _, (name, _) in ordered
        },
        excluded_contexts=excluded,
        aggregates=_aggregate(cells),
        config_echo=config.to_json_obj(),
    )
    return report


def train_agent(config: EvalConfig, seed: int, idx: int | None = None) -> agents.TabularQ:
    """Train the generalist of `seed` or, given `idx`, that context's specialist.

    The generalist samples a fresh context from the domain-randomization
    space every episode; the specialist trains on `config.contexts[idx]`.
    """
    if idx is None:
        source, lane = config.dr_space(), (_TRAIN,)
    else:
        source, lane = config.contexts[idx][1], (_SPECIALIST, idx)
    return agents.train_scalarized_q(
        context_source=source,
        weight_grid=config.weight_grid(),
        episodes=config.train_episodes,
        gamma=config.gamma,
        stream=RandomStream(seed, lane),
        alpha=config.alpha,
        max_steps=config.max_steps,
    )


def random_fronts(config: EvalConfig):
    """front_for_cell of the uniform-random-policy floor baseline."""

    def front_for_cell(seed, idx, name, ctx):
        return agents.random_policy_front(
            ctx,
            config.eval_episodes,
            config.gamma,
            RandomStream(seed, (_RANDOM, idx)),
            max_steps=config.max_steps,
        )

    return front_for_cell


def evaluate_random_baseline(
    config: EvalConfig, refs: dict[str, ReferenceFront] | None = None
) -> EvalReport:
    """Score the uniform-random-policy floor baseline."""
    refs = make_reference_fronts(config) if refs is None else refs
    return evaluate_custom(config, refs, "random", random_fronts(config))


def evaluate_reference_self_test(
    config: EvalConfig, refs: dict[str, ReferenceFront] | None = None
) -> EvalReport:
    """Self-test: score the reference fronts against themselves (NHGR = 1)."""
    refs = make_reference_fronts(config) if refs is None else refs

    def front_for_cell(seed, idx, name, ctx):
        return refs[name].front

    return evaluate_custom(config, refs, "reference-self-test", front_for_cell)
