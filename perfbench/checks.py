"""Checks of the program's outputs against the benchmark's own oracles.

The oracles share no code with the program's oracle, harness or metrics:

* `optimal_values` is a scalarized backward induction that learns the
  transitions by driving the live `LavaGridEnv` from every reachable state
  (through `restore_state`), never from the oracle's tables. It gives V*_w,
  the best discounted value w.r of any policy within the horizon, for many
  weights w at once.
* `hypervolume_3d` is the exact 3-D hypervolume on the coordinate-compressed
  grid: a grid cell is covered iff some point is >= its upper corner.

Every check returns a list of error strings; an empty list means it passed.
run.py runs this file on a finished run's outputs, with the morlgen
sources on PYTHONPATH:

    python3 perfbench/checks.py MANIFEST.json RESULT.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from morlgen.lavagrid import NUM_ACTIONS, LavaGridContext, LavaGridEnv, builtin_context

VALUE_TOL = 1e-9
HV_RTOL = 1e-9


def simplex_lattice(resolution: int) -> np.ndarray:
    """All 3-part weights i/r, j/r, k/r with i + j + k = r."""
    rows = [
        (i, j, resolution - i - j)
        for i in range(resolution + 1)
        for j in range(resolution + 1 - i)
    ]
    return np.array(rows, dtype=float) / resolution


def check_weights(seed: int, random_count: int = 64) -> np.ndarray:
    """The fixed 66-weight lattice plus seeded uniform simplex weights."""
    rng = np.random.default_rng([seed, 7919])
    random = rng.dirichlet(np.ones(3), size=random_count)
    return np.vstack([simplex_lattice(10), random])


def transition_model(context: LavaGridContext):
    """(next, reward, terminal) arrays over the states reachable from start.

    `next[s, a]` is the successor index, `reward[s, a]` the 3-vector reward
    and `terminal[s, a]` whether the step ends the episode. State 0 is the
    start. Terminal successors are not expanded: they are worth 0.
    """
    env = LavaGridEnv(max_steps=1)
    env.reset(context)
    start = env.clone_state()[:4]
    index = {start: 0}
    order = [start]
    nxt, rew, term = [], [], []
    i = 0
    while i < len(order):
        row_n, row_r, row_t = [], [], []
        for a in range(NUM_ACTIONS):
            env.restore_state((*order[i], 0, False))
            tr = env.step(a)
            succ = tr.next_observation.signature()
            if tr.terminal:
                row_n.append(0)
            else:
                if succ not in index:
                    index[succ] = len(order)
                    order.append(succ)
                row_n.append(index[succ])
            row_r.append(np.asarray(tr.reward, dtype=float))
            row_t.append(tr.terminal)
        nxt.append(row_n)
        rew.append(row_r)
        term.append(row_t)
        i += 1
    return np.array(nxt), np.array(rew), np.array(term)


def optimal_values(context: LavaGridContext, gamma: float, horizon: int, weights) -> np.ndarray:
    """V*_w at the start state for every row w of `weights`, by backward induction."""
    nxt, rew, term = transition_model(context)
    w = np.asarray(weights, dtype=float)
    scalar = rew @ w.T  # (states, actions, weights)
    cont = (~term)[:, :, None] * gamma
    value = np.zeros((nxt.shape[0], w.shape[0]))
    for _ in range(horizon):
        value = (scalar + cont * value[nxt]).max(axis=1)
    return value[0]


def hypervolume_3d(points, ref) -> float:
    """Exact hypervolume of the union of boxes [ref, p] for 3-D points p."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3) - np.asarray(ref, dtype=float)
    pts = pts[(pts > 0).all(axis=1)]
    if pts.shape[0] == 0:
        return 0.0
    axes = [np.unique(np.concatenate([[0.0], pts[:, d]])) for d in range(3)]
    marks = np.zeros(tuple(len(a) for a in axes), dtype=bool)
    marks[tuple(np.searchsorted(axes[d], pts[:, d]) for d in range(3))] = True
    covered = marks
    for d in range(3):  # covered[i, j, k]: some point >= corner (x_i, y_j, z_k)
        covered = np.flip(np.logical_or.accumulate(np.flip(covered, d), axis=d), d)
    widths = [np.diff(a) for a in axes]
    return float(np.einsum("ijk,i,j,k->", covered[1:, 1:, 1:].astype(float), *widths))


def _envelope(points, weights) -> np.ndarray:
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    return (np.asarray(weights) @ pts.T).max(axis=1)


def check_reference(name, ref: dict, vstar, weights, gamma, horizon) -> list[str]:
    """A reference front's envelope max_p w.p against V*_w.

    Exact references agree within 1e-9. A cap-bound (epsilon-pruned) one
    lies below V*_w by at most eps (1 - gamma^H) / (1 - gamma): each layer
    loses at most eps in every objective, and the weights sum to 1.
    Specialist references are only checked to be achievable.
    """
    gap = vstar - _envelope(ref["front"], weights)
    prov = ref["provenance"]
    if prov == "oracle-exact":
        upper = VALUE_TOL
    elif prov == "oracle-eps-pruned":
        upper = ref["epsilon"] * (1 - gamma**horizon) / (1 - gamma) + VALUE_TOL
    elif prov == "specialist":
        upper = np.inf
    else:
        return [f"{name}: unknown provenance {prov!r}"]
    errors = []
    if gap.min() < -VALUE_TOL:
        errors.append(f"{name}: {prov} reference exceeds V*_w by {-gap.min():.3g}")
    if gap.max() > upper:
        errors.append(f"{name}: {prov} reference below V*_w by {gap.max():.3g} > {upper:.3g}")
    return errors


def check_report(report: dict, vstar: dict, weights, gamma, horizon, self_test: bool) -> list[str]:
    """Every correctness check on one report.json object."""
    errors = []
    refs = report["reference_fronts"]
    for name, ref in refs.items():
        errors += check_reference(name, ref, vstar[name], weights, gamma, horizon)
    if not report["cells"]:
        errors.append("report has no cells")
    for cell in report["cells"]:
        where = f"seed {cell['seed']} {cell['context']}"
        front = cell["front"]
        if front:
            excess = (_envelope(front, weights) - vstar[cell["context"]]).max()
            if excess > VALUE_TOL:
                errors.append(f"{where}: agent front beats V*_w by {excess:.3g}")
        ref_front = np.asarray(refs[cell["context"]]["front"], dtype=float)
        hv = hypervolume_3d(front, ref_front.min(axis=0))
        if abs(hv - cell["hypervolume"]) > HV_RTOL * max(1.0, abs(hv)):
            errors.append(f"{where}: hypervolume {cell['hypervolume']!r} != independent {hv!r}")
        if cell["nhgr"] is None or not 0.0 <= cell["nhgr"] <= 1.0:
            errors.append(f"{where}: NHGR {cell['nhgr']!r} outside [0, 1]")
        if self_test and (cell["nhgr"] != 1.0 or cell["eugr"] != 1.0):
            errors.append(f"{where}: self-test NHGR {cell['nhgr']!r} EUGR {cell['eugr']!r} != 1")
    return errors


def contexts_of(config: dict) -> dict[str, LavaGridContext]:
    """The config's contexts by report name."""
    out = {}
    for item in config["contexts"]:
        if "builtin" in item:
            out[item["builtin"]] = builtin_context(item["builtin"])
        else:
            out[item["name"]] = LavaGridContext.from_json_obj(item["context"])
    return out


def check_outputs(manifest: dict) -> tuple[int, list[str]]:
    """Check every report of every round; returns (reports checked, errors).

    Besides `check_report`, every round's report.json and report.csv must
    be byte-identical to the first round's, and the evals of one round must
    agree on the reference fronts.
    """
    config = json.loads(Path(manifest["config"]).read_text())
    gamma, horizon = config["gamma"], config["max_steps"]
    weights = check_weights(manifest["seed"])
    vstar = {
        name: optimal_values(ctx, gamma, horizon, weights)
        for name, ctx in contexts_of(config).items()
    }
    checked, errors, first = 0, [], {}
    for rnd in manifest["rounds"]:
        round_dir = Path(rnd["dir"])
        refs = {}
        for cmd in rnd["commands"]:
            if cmd["exit"] != 0 or not cmd["report"]:
                continue
            where = f"{round_dir.name}/{cmd['label']}"
            out = round_dir / cmd["label"]
            report = json.loads((out / "report.json").read_text())
            errors += [
                f"{where}: {e}"
                for e in check_report(report, vstar, weights, gamma, horizon, cmd["self_test"])
            ]
            refs[cmd["label"]] = report["reference_fronts"]
            files = {f: (out / f).read_bytes() for f in ("report.json", "report.csv")}
            for f, data in files.items():
                if data != first.setdefault(cmd["label"], files)[f]:
                    errors.append(f"{where}/{f} differs from the first round's")
            checked += 1
        if len({json.dumps(r, sort_keys=True) for r in refs.values()}) > 1:
            errors.append(f"{round_dir.name}: the evals disagree on the reference fronts")
    return checked, errors


if __name__ == "__main__":
    checked, errors = check_outputs(json.loads(Path(sys.argv[1]).read_text()))
    Path(sys.argv[2]).write_text(json.dumps({"checked": checked, "errors": errors}))
