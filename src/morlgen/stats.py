"""Seeded random streams and the statistics used by the evaluation protocol.

Provides reproducible, hierarchically derivable random streams, a replay
of a generator's draws on its raw words, uniform sampling on the unit
simplex, the interquartile mean, and the optimality gap. Identical stream
coordinates reproduce bit-identical sequences regardless of thread
schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import length_hint

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


_LOW32 = 0xFFFFFFFF


class WordReplay:
    """A PCG64 `Generator`'s `random() < p` tests and `integers(n)` draws, on its raw words.

    The replay follows numpy's own rules, so every draw is the one the
    generator would make:
    - `random()` is (w >> 11) * 2**-53 for the next 64-bit word w, so
      `random() < p` holds exactly when w < `random_bound(p)`.
    - `integers(n)`, 1 < n <= 2**32, is Lemire's method on 32-bit draws x:
      (x * n) >> 32, redrawn while (x * n) mod 2**32 < 2**32 mod n (for
      n = 3 only when x = 0). A 32-bit draw is the low half of a fresh word,
      whose high half is kept for the next one (PCG64's `has_uint32` and
      `uinteger`); a `random()` word leaves that carry alone.

    Words come in blocks from `bit_generator.random_raw`: `reserve(n)`
    makes n more available and returns the iterator over them, which
    callers read for their `random()` tests and `below(n)` reads too. The
    generator runs ahead of the replay; `sync()` writes the replay's exact
    position back into it. Call `sync()` before any other draw from the
    generator and when done, and `reserve` before drawing again.
    """

    def __init__(self, rng: np.random.Generator):
        if not isinstance(rng.bit_generator, np.random.PCG64):
            raise TypeError(f"the replay needs a PCG64 generator, got {rng.bit_generator!r}")
        self._bits = rng.bit_generator
        self._block: list[int] = []
        self._words = iter(self._block)
        self._has32 = self._u32 = None  # the carry, read from the generator by reserve()

    @staticmethod
    def random_bound(p: float) -> int:
        """The word bound b: `random() < p` exactly when the word drawn is below b."""
        if not p > 0.0:  # NaN included
            return 0
        if p >= 1.0:
            return 1 << 64
        return math.ceil(p * 2.0**53) << 11

    def reserve(self, n: int):
        """Make n more words available, and return the iterator over them.

        A `random()` test takes one word, and a `below` draw at most one.
        """
        if self._has32 is None:
            state = self._bits.state
            self._has32, self._u32 = state["has_uint32"], state["uinteger"]
        if length_hint(self._words) < n:
            self._block = list(self._words) + self._bits.random_raw(n).tolist()
            self._words = iter(self._block)
        return self._words

    def below(self, n: int) -> int:
        """`Generator.integers(n)` for 1 <= n <= 2**32."""
        if not 1 < n <= 1 << 32:
            if n == 1:
                return 0  # numpy draws nothing
            raise ValueError(f"the replay draws integers(n) for 1 <= n <= 2**32, not n = {n}")
        reject = (1 << 32) % n
        while True:
            if self._has32:
                x, self._has32 = self._u32, 0
            else:
                word = next(self._words)
                x, self._u32, self._has32 = word & _LOW32, word >> 32, 1
            m = x * n
            if m & _LOW32 >= reject:
                return m >> 32
            self._block.extend(self._bits.random_raw(1).tolist())  # keeps the reserve whole

    def sync(self) -> None:
        """Write the replay's position (state, has_uint32, uinteger) into the generator."""
        if self._has32 is None:
            return
        unused = length_hint(self._words)
        if unused:
            self._bits.advance(-unused)  # PCG64 steps back by wrapping around 2**128
        state = self._bits.state
        state["has_uint32"], state["uinteger"] = self._has32, self._u32
        self._bits.state = state
        self._block, self._has32 = [], None
        self._words = iter(self._block)


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
