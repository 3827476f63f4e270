"""Seeded random streams and the statistics used by the evaluation protocol.

Provides reproducible, hierarchically derivable random streams, uniform
sampling on the unit simplex, the interquartile mean, and the optimality
gap. All functions are pure; identical stream coordinates reproduce
bit-identical sequences regardless of thread schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Recorded in every report so results can be reproduced by generator name.
GENERATOR_ID = "numpy.PCG64/SeedSequence-spawn-v1"


@dataclass(frozen=True)
class RandomStream:
    """A pure-function handle on a reproducible random sequence.

    The sequence is fully determined by (base_seed, stream_path). Derived
    substreams extend the path, so disjoint derivations are statistically
    independent and stable across runs.
    """

    base_seed: int
    stream_path: tuple[int, ...] = field(default=())

    def rng(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        seq = np.random.SeedSequence(self.base_seed, spawn_key=self.stream_path)
        return np.random.Generator(np.random.PCG64(seq))

    def substream(self, *ids: int) -> "RandomStream":
        return RandomStream(self.base_seed, self.stream_path + tuple(ids))


def _rng_of(stream) -> np.random.Generator:
    if isinstance(stream, RandomStream):
        return stream.rng()
    if isinstance(stream, np.random.Generator):
        return stream
    raise TypeError(f"expected RandomStream or Generator, got {type(stream)!r}")


def sample_simplex_batch(stream, k: int, n: int) -> np.ndarray:
    """n independent points uniform on the (k-1)-simplex, as an (n, k) array.

    Each row draws k-1 uniforms in [0,1], sorts them, and takes the
    consecutive gaps including the endpoints 0 and 1. Rows are
    renormalized so each sums to 1 at machine precision. One point is
    `sample_simplex_batch(stream, k, 1)[0]`.
    """
    rng = _rng_of(stream)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return np.ones((n, 1))
    cuts = np.sort(rng.random((n, k - 1)), axis=1)
    padded = np.concatenate(
        [np.zeros((n, 1)), cuts, np.ones((n, 1))], axis=1
    )
    w = np.diff(padded, axis=1)
    return w / w.sum(axis=1, keepdims=True)


def _validate_scores(scores) -> np.ndarray:
    arr = np.asarray(scores, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("scores must be a nonempty 1-D sequence")
    if not np.isfinite(arr).all():
        raise ValueError("scores contain non-finite values")
    return arr


def iqm(scores) -> float:
    """Interquartile mean: drop floor(n/4) scores from each end, then mean.

    Whole-sample trimming (no fractional weights), which makes small-sample
    behavior exactly specified: iqm([1,2,3,4]) == 2.5.
    """
    arr = np.sort(_validate_scores(scores))
    trim = arr.size // 4
    return float(arr[trim : arr.size - trim].mean())


def optimality_gap(scores, target: float = 1.0) -> float:
    """Mean shortfall of scores below `target`; overshoot contributes zero."""
    arr = _validate_scores(scores)
    return float(np.maximum(0.0, target - arr).mean())
