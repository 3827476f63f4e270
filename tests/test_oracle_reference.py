"""The layer-vectorized oracle against its frozen per-state reference.

`oracle_reference.py` holds the oracle's original dynamic program. The
tests here require byte-identical outputs from the two (front points,
witnesses, `exact`, `epsilon`), the same kept rows from the vectorized
filter and pruning as from the reference's scans, and compiled tables
that agree with `LavaGridEnv.step` for every (state, action).
"""

import numpy as np
import pytest

import oracle_reference as ref
from conftest import MICRO_GAMMA, MICRO_HORIZON, micro_suite
from morlgen.lavagrid import (
    GOAL_CODES,
    NUM_ACTIONS,
    LavaGridContext,
    LavaGridEnv,
    builtin_context,
    builtin_eval_contexts,
    random_layout,
)
from morlgen.oracle import (
    _build_tables,
    _nondominated_entries,
    _prune_to_cap,
    pareto_backward_induction,
)
from morlgen.stats import RandomStream, sample_simplex_batch

CAPS = (None, 2, 4, 8)


def random_context(seed, size):
    rng = RandomStream(seed, (31,)).rng()
    layout = random_layout(rng, (0, size + 2), width=size, height=size)
    return LavaGridContext(layout, sample_simplex_batch(rng, 3, 1)[0])


def assert_identical(new, old):
    assert new.front.points.shape == old.front.points.shape
    assert new.front.points.tobytes() == old.front.points.tobytes()
    assert tuple(new.front.tags) == tuple(old.front.tags)
    assert new.exact == old.exact
    assert new.epsilon == old.epsilon


@pytest.mark.parametrize("cap", CAPS)
def test_micro_contexts_match_reference(cap):
    for name, ctx in micro_suite():
        new = pareto_backward_induction(ctx, MICRO_GAMMA, MICRO_HORIZON, cap)
        old = ref.reference_backward_induction(ctx, MICRO_GAMMA, MICRO_HORIZON, cap)
        assert_identical(new, old)


@pytest.mark.parametrize("cap", CAPS)
def test_random_layouts_match_reference(cap):
    approximate = 0
    for seed in range(8):
        ctx = random_context(seed, size=5 + seed % 2)
        for gamma in (0.9, 0.995):
            new = pareto_backward_induction(ctx, gamma, 12, cap)
            old = ref.reference_backward_induction(ctx, gamma, 12, cap)
            assert_identical(new, old)
            approximate += not new.exact
    if cap is not None and cap <= 4:
        assert approximate > 0  # the pruning path ran


def lattice_entries(rng, n, span):
    """Integer-lattice vectors: many ties, duplicates and dominated rows."""
    return rng.integers(-span, span + 1, size=(n, 3)).astype(float)


def assert_filter_matches_scan(entries, groups):
    kept = _nondominated_entries(entries, groups).tolist()
    expected = []
    for g in np.unique(groups):
        rows = np.flatnonzero(groups == g)
        scan = ref._nondominated_entries([(tuple(entries[i]), int(i)) for i in rows])
        expected.extend(i for _, i in scan)
    assert kept == expected


def test_filter_matches_reference_scan():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n_groups = int(rng.integers(1, 6))
        groups = np.sort(rng.integers(0, n_groups, size=int(rng.integers(0, 60))))
        entries = lattice_entries(rng, len(groups), int(rng.integers(1, 4)))
        assert_filter_matches_scan(entries, groups)


def plane_entries(rng, n, total):
    """Integer vectors with one coordinate sum: none dominates another."""
    cuts = np.sort(rng.integers(0, total + 1, size=(n, 2)), axis=1)
    return np.column_stack([cuts[:, 0], cuts[:, 1] - cuts[:, 0], total - cuts[:, 1]]).astype(float)


def test_filter_ties_in_objective_0():
    # Objective 0 ties everywhere; objectives 1 and 2 decide dominance and order.
    entries = np.array(
        [[1, 0, 5], [1, 2, 3], [1, 2, 5], [1, 1, 1], [1, 3, 0], [1, 0, 6], [1, 2, 5]],
        dtype=float,
    )
    assert _nondominated_entries(entries, np.zeros(7, dtype=np.int64)).tolist() == [4, 2, 5]
    rng = np.random.default_rng(7)
    for _ in range(50):
        entries = lattice_entries(rng, 40, 3)
        entries[:, 0] = rng.integers(0, 2)
        assert_filter_matches_scan(entries, np.sort(rng.integers(0, 3, size=40)))


def test_filter_signed_zeros():
    # -0.0 == 0.0: the first of two such rows is kept, whichever sign it has.
    entries = np.array(
        [[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [-0.0, 1.0, 0.0], [0.0, 1.0, -0.0],
         [-0.0, -0.0, -0.0], [0.0, 0.0, 0.0]]
    )
    for groups in (np.zeros(6, dtype=np.int64), np.array([0, 0, 0, 1, 1, 1])):
        assert_filter_matches_scan(entries, groups)
        assert_filter_matches_scan(entries[::-1].copy(), groups)
    kept = _nondominated_entries(entries, np.zeros(6, dtype=np.int64))
    assert entries[kept].tobytes() == entries[[2, 0]].tobytes()


def test_filter_duplicates_across_actions():
    # A state's three actions lead to the same set: only the first action's rows stay.
    rng = np.random.default_rng(8)
    for _ in range(20):
        run = plane_entries(rng, int(rng.integers(1, 20)), 12)
        entries = np.vstack([run, run, run])
        groups = np.zeros(len(entries), dtype=np.int64)
        kept = _nondominated_entries(entries, groups)
        assert kept.max() < len(run)
        assert_filter_matches_scan(entries, groups)


def test_filter_large_groups():
    # Groups of 96 to 150 rows, most of them nondominated, next to small ones.
    rng = np.random.default_rng(9)
    for size in (96, 120, 150):
        big = np.vstack([plane_entries(rng, size // 3, 40) for _ in range(3)])
        small = lattice_entries(rng, 10, 2)
        entries = np.vstack([small[:5], big, small[5:]])
        groups = np.repeat([0, 1, 2], [5, len(big), 5])
        assert_filter_matches_scan(entries, groups)
        assert len(_nondominated_entries(entries, groups)) > size // 2


def assert_prune_matches_reference(front, cap):
    kept, eps = _prune_to_cap(front, cap)
    expected, expected_eps = ref._prune_to_cap([(tuple(v), i) for i, v in enumerate(front)], cap)
    assert kept == [i for _, i in expected]
    assert eps == expected_eps
    assert len(kept) <= cap


def test_prune_matches_reference_bisection():
    rng = np.random.default_rng(6)
    for _ in range(100):
        entries = lattice_entries(rng, int(rng.integers(2, 40)), int(rng.integers(1, 6)))
        scan = ref._nondominated_entries([(tuple(v), i) for i, v in enumerate(entries)])
        front = np.array([v for v, _ in scan])
        assert_prune_matches_reference(front, int(rng.integers(1, len(front) + 1)))


def test_prune_edge_sizes():
    rng = np.random.default_rng(10)
    for n in (65, 100):  # the covers bitset spans more than one 64-bit word
        front = plane_entries(rng, n, 1000) + rng.random((n, 3))
        for cap in (1, n // 2, n - 1):
            assert_prune_matches_reference(front, cap)
    for cap in (1, 5, 32):  # one row over the cap
        assert_prune_matches_reference(plane_entries(rng, cap + 1, 50) / 7.0, cap)
    for n, cap in ((2, 1), (5, 2), (70, 3)):  # identical rows: eps 0 keeps the first
        assert_prune_matches_reference(np.full((n, 3), -1.5), cap)


def test_snake_horizon_64_matches_reference():
    ctx = builtin_context("Snake")
    new = pareto_backward_induction(ctx, 0.995, 64, 32)
    old = ref.reference_backward_induction(ctx, 0.995, 64, 32)
    assert_identical(new, old)
    assert new.exact


def table_contexts():
    contexts = [ctx for _, ctx in builtin_eval_contexts() + micro_suite()]
    contexts += [random_context(100 + seed, size=7) for seed in range(4)]
    return contexts


@pytest.mark.parametrize("ctx", table_contexts(), ids=lambda c: c.name or "random")
def test_tables_match_environment(ctx):
    tables = _build_tables(ctx)
    next_state, rewards, terminal = tables.next_state, tables.rewards, tables.terminal
    layout = ctx.layout
    full_mask = sum(1 << GOAL_CODES.index(code) for code in layout.goal_positions())

    def encode(x, y, d, mask):  # the shared state id pose << 3 | mask
        return ((y * layout.width + x) * 4 + d) << 3 | mask

    sx, sy = layout.agent_start
    assert tables.width == layout.width
    assert tables.start == encode(sx, sy, layout.agent_dir, 0)
    assert next_state.shape == (layout.width * layout.height * 4 * 8, NUM_ACTIONS)
    env = LavaGridEnv(max_steps=2)
    env.reset(ctx)
    for y in range(layout.height):
        for x in range(layout.width):
            for d in range(4):
                for mask in range(8):
                    if mask & ~full_mask:
                        continue  # a goal the layout lacks: never reached
                    s = encode(x, y, d, mask)
                    assert terminal[s] == (mask == full_mask)
                    for a in range(NUM_ACTIONS):
                        env.restore_state((x, y, d, mask, 0, False))
                        tr = env.step(a)
                        nx, ny, nd, nmask = env.clone_state()[:4]
                        assert next_state[s, a] == encode(nx, ny, nd, nmask)
                        assert rewards[s, a].tobytes() == tr.reward.tobytes()
                        assert terminal[next_state[s, a]] == tr.terminal
