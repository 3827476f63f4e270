"""Pareto-front geometry and quality indicators for vector-valued returns.

This module provides the core objective-space machinery: nondominated
filtering (the program's one dominance rule), exact hypervolume via
recursive objective slicing, min-max normalized hypervolume, the
normalized hypervolume generalization ratio (NHGR), expected utility
(EUM), and the CSV writer and JSON array form of fronts. The EUGR ratio
of two EUMs is taken where cells are scored, in `harness.evaluate_custom`.

All operations are pure functions of their inputs and safe to call from
multiple threads. Points are plain numpy arrays; a front is a thin
immutable wrapper around an (n, k) array of mutually nondominated,
pairwise-distinct points.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

_SIGN_BIT = np.uint64(1 << 63)
_SCAN_STEPS = 4  # row-by-row steps of the dominance scan before it compares all pairs


class DegenerateRangeError(ValueError):
    """Raised when a normalization range collapses (v_max_i == v_min_i)."""


class UndefinedRatioError(ValueError):
    """Raised when a ratio metric has a zero denominator."""


def _as_points(points, dim: int | None = None) -> np.ndarray:
    """Coerce to a validated (n, k) float array of finite points."""
    arr = np.asarray(points, dtype=float)
    if arr.size == 0:
        k = dim if dim is not None else (arr.shape[1] if arr.ndim == 2 else 0)
        return np.empty((0, k))
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError(f"points must be a 2-D array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("points contain non-finite values")
    if dim is not None and arr.shape[1] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {arr.shape[1]}")
    return arr


def _as_vector(v, dim: int | None = None) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("vector contains non-finite values")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {arr.shape[0]}")
    return arr


def _descending_keys(points: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Sort keys of (group, -p0, ..., -p{k-1}), one 8 * (k + 1)-byte string per row.

    A float's bits, with the sign bit set if it is nonnegative and every
    bit flipped if it is negative, order as the float does when read as a
    big-endian unsigned integer. So the keys compare bytewise as the rows
    do lexicographically, by group and then objectives descending; 0.0 - x
    gives -0.0 and 0.0 one key, as float comparison does.
    """
    n, k = points.shape
    bits = (0.0 - points).view(np.uint64)  # 0.0 - x turns both zeros into +0.0
    keys = np.empty((n, k + 1), dtype=">u8")
    keys[:, 0] = groups
    keys[:, 1:] = bits ^ ((bits.view(np.int64) >> 63).view(np.uint64) | _SIGN_BIT)
    return keys.view(f"V{8 * (k + 1)}").ravel()


def _weakly_above(columns: list, back: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Whether each row `back` is >= its row `rows` in every one of `columns`."""
    hit = columns[0][back] >= columns[0][rows] if columns else np.ones(len(rows), dtype=bool)
    for column in columns[1:]:
        hit &= column[back] >= column[rows]
    return hit


def _nondominated_rows(points: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """:func:`nondominated_by_group` without its input checks.

    Every earlier row of a group is >= in objective 0, so only objectives
    1 to k - 1 are compared, one column at a time (the k-D to (k-1)-D step
    of Kung, Luccio and Preparata's maxima sort, JACM 1975). Each row is
    compared with the rows 1, 2, ... places back until one dominates it,
    and after a few such steps with all its earlier rows at once.
    """
    n = len(points)
    order = np.argsort(_descending_keys(points, groups), kind="stable")
    grp = groups[order]
    rank = np.arange(n) - np.searchsorted(grp, grp)  # position within its group
    columns = [points[order, j] for j in range(1, points.shape[1])]  # objectives 1..k-1
    dominated = np.zeros(n, dtype=bool)
    rows = np.flatnonzero(rank >= 1)  # rows not yet dominated, with earlier rows left
    k = 1  # rows are next compared with the row k places back
    while rows.size:
        if k > _SCAN_STEPS:  # compare the rows left with all their earlier rows at once
            todo = rank[rows] - k + 1
            if todo.sum() <= 2 * n:  # bounds the memory of the pair arrays
                row = np.repeat(rows, todo)
                back = np.repeat(rows - k + np.cumsum(todo) - todo, todo) - np.arange(len(row))
                dominated[row[_weakly_above(columns, back, row)]] = True
                break
        hit = _weakly_above(columns, rows - k, rows)
        dominated[rows[hit]] = True
        k += 1
        rows = rows[~hit & (rank[rows] >= k)]
    return order[~dominated]


def nondominated_by_group(points, groups) -> np.ndarray:
    """Nondominated, deduplicated rows of each group, in canonical order.

    `points` is an (n, k) array of finite points and `groups` holds n
    nonnegative integer group ids. Returns row indices of `points`,
    ordered by group and, within a group, lexicographically descending
    with ties in row order. A row is dropped when an earlier row of its
    group is >= it in every objective, so the first of exact duplicates
    wins. Weak dominance is transitive, so this keeps what a scan against
    the already-kept rows keeps.
    """
    pts = _as_points(points)
    grp = np.asarray(groups)
    if grp.shape != (len(pts),) or grp.dtype.kind not in "iu" or (grp < 0).any():
        raise ValueError(f"groups must be {len(pts)} nonnegative integers")
    return _nondominated_rows(pts, grp)


def nondominated_indices(points) -> list[int]:
    """Indices of the nondominated, deduplicated subset of `points`.

    Exact duplicates are collapsed to their first occurrence. The returned
    index list is sorted ascending, so the selection is order-stable but
    the resulting *set* of points is permutation-invariant. This is
    :func:`nondominated_by_group` with every point in one group.
    """
    pts = _as_points(points)
    return np.sort(_nondominated_rows(pts, np.zeros(len(pts), dtype=np.int64))).tolist()


class ParetoFront:
    """An immutable set of mutually nondominated, pairwise-distinct points.

    Construct with :func:`pareto_filter` (which filters arbitrary input) or
    directly from points already known to satisfy the invariants (checked).
    Optional per-point tags (e.g. generating weight indices) ride along.
    """

    __slots__ = ("_points", "_tags")

    def __init__(self, points, dim: int | None = None, tags=None, _checked: bool = False):
        pts = _as_points(points, dim)
        if not _checked and pts.shape[0] > 1:
            kept = nondominated_indices(pts)
            if len(kept) != pts.shape[0]:
                raise ValueError("points are not mutually nondominated and distinct")
        pts.setflags(write=False)
        self._points = pts
        if tags is not None and len(tags) != pts.shape[0]:
            raise ValueError("tags length must match number of points")
        self._tags = list(tags) if tags is not None else None

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def tags(self):
        return self._tags

    @property
    def num_objectives(self) -> int:
        return self._points.shape[1]

    def __len__(self) -> int:
        return self._points.shape[0]

    def __iter__(self):
        return iter(self._points)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParetoFront):
            return NotImplemented
        return sorted(map(tuple, self._points)) == sorted(map(tuple, other._points))

    def __repr__(self) -> str:
        return f"ParetoFront({self._points.tolist()!r})"

    def sorted_points(self) -> np.ndarray:
        """Points in canonical (lexicographic) order, for stable output."""
        if len(self) == 0:
            return self._points
        order = np.lexsort(self._points.T[::-1])
        return self._points[order]

    # -- serialization ----------------------------------------------------

    def to_csv(self, path) -> None:
        """Write one point per row, columns obj_0..obj_{k-1}, full precision."""
        pts = self.sorted_points()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"obj_{i}" for i in range(self.num_objectives)])
            for row in pts:
                writer.writerow([repr(float(x)) for x in row])

    def to_json_obj(self) -> list[list[float]]:
        return [[float(x) for x in row] for row in self.sorted_points()]

    @classmethod
    def from_json_obj(cls, obj) -> "ParetoFront":
        if not isinstance(obj, list):
            raise ValueError("front JSON must be an array of arrays")
        if obj:
            k = len(obj[0]) if isinstance(obj[0], list) else -1
            for row in obj:
                if not isinstance(row, list) or len(row) != k:
                    raise ValueError("ragged row in front JSON")
                for x in row:
                    if not isinstance(x, (int, float)) or not np.isfinite(x):
                        raise ValueError("non-finite or non-numeric value in front JSON")
        return pareto_filter(np.array(obj, dtype=float).reshape(-1, len(obj[0]) if obj else 0))


def pareto_filter(points, tags=None) -> ParetoFront:
    """Nondominated, deduplicated subset of `points` as a ParetoFront.

    Empty input yields the empty front. The result is independent of input
    order (as a set); surviving tags are carried over when supplied.
    """
    pts = _as_points(points)
    if pts.shape[0] == 0:
        return ParetoFront(pts, _checked=True)
    kept = nondominated_indices(pts)
    kept_tags = [tags[i] for i in kept] if tags is not None else None
    return ParetoFront(pts[kept], tags=kept_tags, _checked=True)


@dataclass(frozen=True)
class FrontBounds:
    """Elementwise min/max normalization bounds for a front's objectives."""

    v_min: np.ndarray
    v_max: np.ndarray

    def __post_init__(self):
        vmin = _as_vector(self.v_min)
        vmax = _as_vector(self.v_max, vmin.shape[0])
        if not (vmax > vmin).all():
            bad = np.where(vmax <= vmin)[0]
            raise DegenerateRangeError(
                f"degenerate range in objective(s) {bad.tolist()}: v_max must exceed v_min"
            )
        vmin.setflags(write=False)
        vmax.setflags(write=False)
        object.__setattr__(self, "v_min", vmin)
        object.__setattr__(self, "v_max", vmax)

    @property
    def num_objectives(self) -> int:
        return self.v_min.shape[0]

    @classmethod
    def of_front(cls, front: ParetoFront) -> "FrontBounds":
        if len(front) == 0:
            raise ValueError("cannot take bounds of an empty front")
        return cls(front.points.min(axis=0), front.points.max(axis=0))


def _hv_2d(pts: np.ndarray) -> float:
    """Exact 2-D hypervolume of boxes [0, p], all p strictly positive."""
    order = np.argsort(-pts[:, 0])
    pts = pts[order]
    vol = 0.0
    y_ceiling = 0.0
    for x, y in pts:
        if y > y_ceiling:
            vol += x * (y - y_ceiling)
            y_ceiling = y
    return vol


def _hv_exact(pts: np.ndarray) -> float:
    """Hypervolume of union of boxes [0, p] by recursive objective slicing.

    Points must be strictly positive in every component. Recurses on the
    last objective: sweep slabs between consecutive heights, each slab
    contributing its thickness times the (k-1)-dimensional hypervolume of
    the points tall enough to reach it.
    """
    n, k = pts.shape
    if n == 0:
        return 0.0
    if k == 1:
        return float(pts.max())
    if k == 2:
        return _hv_2d(pts)
    order = np.argsort(-pts[:, -1])
    pts = pts[order]
    vol = 0.0
    for i in range(n):
        z_hi = pts[i, -1]
        z_lo = pts[i + 1, -1] if i + 1 < n else 0.0
        if z_hi > z_lo:
            slab = pts[: i + 1, :-1]
            kept = nondominated_indices(slab)
            vol += (z_hi - z_lo) * _hv_exact(slab[kept])
    return vol


def _front_points(front) -> np.ndarray:
    if isinstance(front, ParetoFront):
        return front.points
    return _as_points(front)


def hypervolume(front, ref_point) -> float:
    """Hypervolume of `front` relative to `ref_point` (maximization).

    The value is the Lebesgue measure of the union of axis-aligned boxes
    [ref_point, p]; points with any component at or below the reference
    contribute nothing. Exact for any number of objectives (recursive
    objective slicing).
    """
    pts = _front_points(front)
    if pts.shape[0] == 0:
        return 0.0
    ref = _as_vector(ref_point, pts.shape[1])
    shifted = pts - ref
    shifted = shifted[(shifted > 0).all(axis=1)]
    if shifted.shape[0] == 0:
        return 0.0
    return _hv_exact(shifted)


def normalize_front(front, bounds: FrontBounds) -> np.ndarray:
    """Map points to [0,1]^k via the bounds, clamping out-of-range values."""
    pts = _front_points(front)
    if pts.shape[0] == 0:
        return np.empty((0, bounds.num_objectives))
    if pts.shape[1] != bounds.num_objectives:
        raise ValueError("dimension mismatch between front and bounds")
    scaled = (pts - bounds.v_min) / (bounds.v_max - bounds.v_min)
    return np.clip(scaled, 0.0, 1.0)


def hv_norm(front, bounds: FrontBounds) -> float:
    """Normalized hypervolume: min-max scale by `bounds`, reference at origin.

    Out-of-range coordinates are clamped to [0,1], so the result always
    lies in [0,1] regardless of whether the front exceeds the bounds.
    """
    scaled = normalize_front(front, bounds)
    return hypervolume(scaled, np.zeros(bounds.num_objectives))


def nhgr(approx, optimal: ParetoFront) -> float:
    """Normalized hypervolume generalization ratio of `approx` vs `optimal`.

    Both fronts are normalized by the optimal front's elementwise bounds;
    the ratio of their normalized hypervolumes is returned, capped at 1
    (clamping allows the approximation to exceed an approximate optimum).

    Raises:
        DegenerateRangeError: if the optimal front spans no range in some
            objective.
        UndefinedRatioError: if the optimal front's normalized hypervolume
            is zero.
    """
    if len(optimal) == 0:
        raise ValueError("optimal front must be nonempty")
    bounds = FrontBounds.of_front(optimal)
    denom = hv_norm(optimal, bounds)
    if denom == 0.0:
        raise UndefinedRatioError("optimal front has zero normalized hypervolume")
    return min(hv_norm(approx, bounds) / denom, 1.0)


def eum(front, weights) -> float:
    """Expected utility of a front over a sampled weight prior.

    Mean, over the supplied weight vectors, of the best linear utility any
    front point attains. Dominated points never attain the max, so the
    value is invariant under Pareto filtering of the front.
    """
    pts = _front_points(front)
    if pts.shape[0] == 0:
        raise ValueError("front must be nonempty")
    w = _as_points(weights, pts.shape[1])
    if w.shape[0] == 0:
        raise ValueError("weight list must be nonempty")
    utilities = w @ pts.T
    return float(utilities.max(axis=1).mean())
