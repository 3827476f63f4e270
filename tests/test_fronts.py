"""Tests for Pareto geometry and quality indicators.

Derived expectations are checked against independent oracles implemented
here: a brute-force pairwise dominance filter, a 2-D rectangle sweep, and
a Monte Carlo hypervolume estimator.
"""

import numpy as np
import pytest

from conftest import dominates
from morlgen.fronts import (
    DegenerateRangeError,
    FrontBounds,
    ParetoFront,
    UndefinedRatioError,
    eum,
    hv_norm,
    hypervolume,
    nhgr,
    nondominated_by_group,
    nondominated_indices,
    normalize_front,
    pareto_filter,
)


def brute_force_indices(points):
    """Independent O(n^2) nondominated filter used as a test oracle.

    Returns the ascending indices of the nondominated points, keeping only
    the first occurrence of each exact duplicate.
    """
    pts = [tuple(p) for p in points]
    kept = []
    for i, p in enumerate(pts):
        dominated = False
        for j, q in enumerate(pts):
            if i == j:
                continue
            if all(a >= b for a, b in zip(q, p)) and any(a > b for a, b in zip(q, p)):
                dominated = True
            if j < i and q == p:
                dominated = True
        if not dominated:
            kept.append(i)
    return kept


def brute_force_front(points):
    """Sorted nondominated point set of the brute-force oracle."""
    pts = [tuple(p) for p in points]
    return sorted(pts[i] for i in brute_force_indices(points))


def brute_force_by_group(points, groups):
    """The brute-force filter applied per group, in the grouped filter's order:
    by group, then lexicographically descending, ties by index."""
    kept = []
    for g in np.unique(groups):
        rows = np.flatnonzero(groups == g)
        kept += [int(rows[i]) for i in brute_force_indices(points[rows])]
    return sorted(kept, key=lambda i: (groups[i], tuple(-points[i]), i))


def monte_carlo_hv(points, n, rng):
    """Independent hypervolume oracle: hit ratio of n uniform samples in the
    bounding box [0, max(points)], in batches of 100,000."""
    pts = np.asarray(points, dtype=float)
    upper = pts.max(axis=0)
    hits = 0
    for start in range(0, n, 100_000):
        s = upper * rng.random((min(100_000, n - start), pts.shape[1]))
        hits += int((s[:, None, :] < pts[None, :, :]).all(axis=2).any(axis=1).sum())
    return float(np.prod(upper)) * hits / n


def sweep_hv_2d(points, ref):
    """Independent 2-D hypervolume oracle: disjoint rectangles sorted by y.

    For mutually nondominated points sorted by decreasing y, x increases;
    each point contributes the strip between the previous x and its own.
    """
    pts = [(x - ref[0], y - ref[1]) for x, y in points]
    pts = [(x, y) for x, y in pts if x > 0 and y > 0]
    pts.sort(key=lambda p: (-p[1], p[0]))
    area = 0.0
    x_prev = 0.0
    for x, y in pts:
        if x > x_prev:
            area += (x - x_prev) * y
            x_prev = x
    return area


class TestParetoFilter:
    def test_basic(self):
        f = pareto_filter([(1, 0), (0, 1), (0.5, 0.5), (0.4, 0.4)])
        assert sorted(map(tuple, f.points)) == [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]

    def test_duplicate_collapse(self):
        f = pareto_filter([(1, 1), (1, 1)])
        assert f.points.tolist() == [[1.0, 1.0]]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        pts = rng.random((50, 3))
        f = pareto_filter(pts)
        assert sorted(map(tuple, f.points)) == brute_force_front(pts)

    def test_idempotent_and_permutation_invariant(self):
        rng = np.random.default_rng(11)
        pts = rng.random((40, 3))
        f1 = pareto_filter(pts)
        f2 = pareto_filter(f1.points)
        assert f1 == f2
        perm = rng.permutation(len(pts))
        assert pareto_filter(pts[perm]) == f1

    def test_removed_points_are_dominated(self):
        rng = np.random.default_rng(13)
        pts = rng.random((30, 3))
        kept = set(map(tuple, pareto_filter(pts).points))
        for p in pts:
            if tuple(p) not in kept:
                assert any(
                    dominates(k, p) or tuple(k) == tuple(p) for k in kept
                )

    def test_empty(self):
        assert len(pareto_filter([])) == 0

    def test_tags_carried(self):
        f = pareto_filter([(1, 0), (0.2, 0.0), (0, 1)], tags=["a", "b", "c"])
        assert set(f.tags) == {"a", "c"}

    def test_duplicate_keeps_first_tag(self):
        pts = [(0, 2), (1, 1), (0, 2), (1, 1), (0.5, 0.5), (1, 1)]
        f = pareto_filter(pts, tags=["a", "b", "c", "d", "e", "f"])
        assert f.tags == ["a", "b"]
        assert f.points.tolist() == [[0.0, 2.0], [1.0, 1.0]]
        # Same values in another order: the first occurrence still wins.
        f = pareto_filter(pts[::-1], tags=["f", "e", "d", "c", "b", "a"])
        assert f.tags == ["f", "c"]

    def test_front_rejects_dominated_input(self):
        with pytest.raises(ValueError):
            ParetoFront([(1, 1), (0, 0)])


class TestHypervolume:
    def test_unit_box(self):
        assert hypervolume(pareto_filter([(1, 1)]), (0, 0)) == pytest.approx(1.0)

    def test_hand_2d(self):
        f = pareto_filter([(0.5, 1), (1, 0.5)])
        assert hypervolume(f, (0, 0)) == pytest.approx(0.75, abs=1e-12)

    def test_zero_width(self):
        f = pareto_filter([(0, 1), (1, 0)])
        assert hypervolume(f, (0, 0)) == 0.0

    def test_matches_2d_sweep_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            pts = rng.random((rng.integers(1, 15), 2)) * 4 - 1
            f = pareto_filter(pts)
            ref = (-1.0, -1.0)
            assert hypervolume(f, ref) == pytest.approx(
                sweep_hv_2d(f.points, ref), abs=1e-9
            )

    def test_matches_monte_carlo_3d(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            f = pareto_filter(rng.random((12, 3)))
            exact = hypervolume(f, np.zeros(3))
            n = 200_000
            est = monte_carlo_hv(f.points, n, np.random.default_rng(1))
            box = float(np.prod(f.points.max(axis=0)))
            p = est / box if box else 0.0
            se = box * np.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(exact - est) <= 3 * se + 1e-12

    def test_monotone_under_addition(self):
        rng = np.random.default_rng(23)
        pts = rng.random((10, 3))
        f = pareto_filter(pts)
        base = hypervolume(f, np.zeros(3))
        extra = np.vstack([pts, rng.random((1, 3))])
        assert hypervolume(pareto_filter(extra), np.zeros(3)) >= base - 1e-12

    def test_dominated_addition_no_change(self):
        pts = np.array([[0.9, 0.9, 0.9], [0.2, 0.2, 0.2]])
        a = hypervolume(pareto_filter(pts[:1]), np.zeros(3))
        b = hypervolume(pareto_filter(pts), np.zeros(3))
        assert abs(a - b) < 1e-12

    def test_axis_permutation_invariance(self):
        rng = np.random.default_rng(29)
        pts = rng.random((8, 4))
        ref = np.array([-0.5, -0.2, 0.0, 0.1])
        base = hypervolume(pareto_filter(pts), ref)
        for _ in range(5):
            perm = rng.permutation(4)
            assert hypervolume(
                pareto_filter(pts[:, perm]), ref[perm]
            ) == pytest.approx(base, abs=1e-9)

    def test_high_dim_exact(self):
        pts = np.ones((1, 7)) * 0.5
        assert hypervolume(pareto_filter(pts), np.zeros(7)) == pytest.approx(
            0.5**7, rel=1e-12
        )

    def test_empty_front(self):
        assert hypervolume(pareto_filter([]), np.zeros(0)) == 0.0


class TestHvNorm:
    def bounds(self):
        return FrontBounds(np.zeros(2), np.array([10.0, 10.0]))

    def test_unit_corner(self):
        assert hv_norm(pareto_filter([(10, 10)]), self.bounds()) == pytest.approx(1.0)

    def test_hand_quarter(self):
        assert hv_norm(pareto_filter([(5, 5)]), self.bounds()) == pytest.approx(0.25)

    def test_clamped_below(self):
        assert hv_norm(pareto_filter([(-5, 5)]), self.bounds()) == 0.0

    def test_clamped_above_capped(self):
        assert hv_norm(pareto_filter([(20, 20)]), self.bounds()) == pytest.approx(1.0)

    def test_affine_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            pts = rng.random((6, 3)) * 2 - 0.5
            f = pareto_filter(pts)
            bounds = FrontBounds(np.full(3, -0.5), np.full(3, 1.5))
            base = hv_norm(f, bounds)
            scale = rng.random(3) * 5 + 0.1
            shift = rng.normal(size=3) * 10
            f2 = pareto_filter(f.points * scale + shift)
            b2 = FrontBounds(bounds.v_min * scale + shift, bounds.v_max * scale + shift)
            assert abs(hv_norm(f2, b2) - base) < 1e-9

    def test_degenerate_bounds_error(self):
        with pytest.raises(DegenerateRangeError):
            FrontBounds(np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    def test_normalize_clips(self):
        out = normalize_front(pareto_filter([(15, -3)]), self.bounds())
        assert out.tolist() == [[1.0, 0.0]]


class TestNhgr:
    def optimal(self):
        return pareto_filter([(0, 1), (0.75, 0.75), (1, 0)])

    def test_identity(self):
        assert nhgr(self.optimal(), self.optimal()) == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        val = nhgr(pareto_filter([(0.5, 0.5)]), self.optimal())
        assert val == pytest.approx(0.25 / 0.5625, abs=1e-12)

    def test_empty_approx(self):
        assert nhgr(pareto_filter([]), self.optimal()) == 0.0

    def test_empty_optimal_error(self):
        with pytest.raises(ValueError):
            nhgr(self.optimal(), pareto_filter([]))

    def test_zero_hv_optimal_error(self):
        with pytest.raises(UndefinedRatioError):
            nhgr(self.optimal(), pareto_filter([(0, 1), (1, 0)]))

    def test_degenerate_range_error(self):
        with pytest.raises(DegenerateRangeError):
            nhgr(self.optimal(), pareto_filter([(0, 1), (0.5, 1)]))

    def test_monotone_under_point_addition(self):
        rng = np.random.default_rng(37)
        opt = pareto_filter(rng.random((12, 3)) + 1.0)
        for _ in range(20):
            sub = rng.random((4, 3)) + 1.0
            base = nhgr(pareto_filter(sub), opt)
            grown = np.vstack([sub, rng.random((2, 3)) + 1.0])
            assert nhgr(pareto_filter(grown), opt) >= base - 1e-12

    def test_capped_at_one(self):
        opt = pareto_filter([(0, 1), (0.6, 0.6), (1, 0)])
        better = pareto_filter([(0, 2), (1.5, 1.5), (2, 0)])
        assert nhgr(better, opt) == 1.0


class TestUtilities:
    def test_eum_constant(self):
        w = np.random.default_rng(0).dirichlet(np.ones(2), size=50)
        assert eum(pareto_filter([(1, 1)]), w) == pytest.approx(1.0)

    def test_eum_dominated_invariance(self):
        w = np.random.default_rng(1).dirichlet(np.ones(2), size=50)
        with_dom = eum(np.array([(1, 0), (0, 1), (0.4, 0.4)]), w)
        without = eum(np.array([(1, 0), (0, 1)]), w)
        assert with_dom == without

    def test_eum_equals_filtered(self):
        rng = np.random.default_rng(2)
        pts = rng.random((20, 3))
        w = rng.dirichlet(np.ones(3), size=100)
        assert eum(pts, w) == eum(pareto_filter(pts), w)

    def test_eum_empty_errors(self):
        with pytest.raises(ValueError):
            eum(pareto_filter([]), [[0.5, 0.5]])
        with pytest.raises(ValueError):
            eum(pareto_filter([(1, 1)]), np.empty((0, 2)))


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        f = pareto_filter(np.random.default_rng(5).random((10, 3)))
        path = tmp_path / "front.csv"
        f.to_csv(path)
        back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert back.tobytes() == f.sorted_points().tobytes()  # full precision, bit for bit

    def test_csv_header(self, tmp_path):
        f = pareto_filter([(1.0, 2.0, 3.0)])
        path = tmp_path / "front.csv"
        f.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "obj_0,obj_1,obj_2"

    def test_json_round_trip(self):
        f = pareto_filter(np.random.default_rng(6).random((8, 2)))
        assert ParetoFront.from_json_obj(f.to_json_obj()) == f

    def test_json_rejects_ragged(self):
        with pytest.raises(ValueError):
            ParetoFront.from_json_obj([[1.0, 2.0], [3.0]])

    def test_json_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ParetoFront.from_json_obj([[1.0, float("inf")]])

    def test_points_immutable(self):
        f = pareto_filter([(1, 0), (0, 1)])
        with pytest.raises(ValueError):
            f.points[0, 0] = 5.0

    def test_nondominated_indices_first_duplicate_kept(self):
        assert nondominated_indices([(1, 1), (1, 1), (0, 2)]) == [0, 2]

    def test_nondominated_indices_match_brute_force_with_ties(self):
        # A small integer lattice makes ties and exact duplicates common.
        rng = np.random.default_rng(17)
        for _ in range(300):
            k = int(rng.integers(1, 5))
            n = int(rng.integers(0, 101))
            pts = rng.integers(0, int(rng.integers(1, 5)), size=(n, k)).astype(float)
            assert nondominated_indices(pts) == brute_force_indices(pts)


def grouped_cases(k, rng):
    """(points, groups) inputs of the grouped filter with k objectives."""
    for _ in range(100):  # integer lattices: ties, duplicates and signed zeros
        n = int(rng.integers(0, 60))
        pts = rng.integers(-2, 3, size=(n, k)).astype(float)
        pts[(pts == 0) & (rng.random((n, k)) < 0.5)] = -0.0
        yield pts, rng.integers(0, int(rng.integers(1, 5)), size=n)
    run = rng.integers(0, 4, size=(12, k)).astype(float)
    yield np.vstack([run, run, -run, run]), np.repeat([0, 0, 1, 1], 12)  # duplicate runs
    # one group of 240 rows on the plane sum = 600, mostly nondominated
    cuts = np.sort(rng.integers(0, 601, size=(240, k - 1)), axis=1)
    plane = np.diff(np.column_stack([np.zeros(240), cuts, np.full(240, 600)]), axis=1)
    small = rng.integers(0, 3, size=(10, k)).astype(float)
    yield np.vstack([small[:5], plane, small[5:]]), np.repeat([2, 0, 1], [5, 240, 5])


class TestNondominatedByGroup:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_matches_brute_force_per_group(self, k):
        for pts, groups in grouped_cases(k, np.random.default_rng(k)):
            kept = nondominated_by_group(pts, groups)
            assert kept.tolist() == brute_force_by_group(pts, groups)
        if k > 1:
            assert np.count_nonzero(groups[kept] == 0) > 120  # most of the plane group

    @pytest.mark.parametrize("groups", [[0, 0], [0, 0, 0, 0], [0, -1, 0], [0.0, 0.0, 1.0]])
    def test_invalid_groups(self, groups):
        with pytest.raises(ValueError, match="groups"):
            nondominated_by_group(np.zeros((3, 2)), np.array(groups))
