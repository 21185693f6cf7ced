"""Deterministic, splittable random number streams.

Every stochastic component of the simulator draws from an RngStream, a thin
wrapper over numpy's counter-based Philox generator keyed by
(seed, stream_id).  Identical keys give bit-identical sequences; distinct
stream_ids give statistically independent streams, so each Monte Carlo trial
draws from its own substream and results do not depend on the order in which
trials are drawn or whether they are stacked into one batch.

complex_normal_stack draws a whole stack at once: each trial's stream fills
its own slice of one array, and the scaling and complex assembly run once
per stack, so slice t holds the same bits as that stream's own
complex_normal draw.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1


class _PhiloxKey(ISeedSequence):
    """Hands Philox a fixed key as its seed state.  Philox(key=...) would
    first build a SeedSequence from OS entropy and then discard it."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def _mix64(a: int, b: int) -> int:
    """Mix two 64-bit ints into one (splitmix64 finalizer over a*phi + b)."""
    z = (a * 0x9E3779B97F4A7C15 + b) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class RngStream:
    """One independent random stream addressed by (seed, stream_id)."""

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(_PhiloxKey(key)))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    def substream(self, *ids: int) -> "RngStream":
        """Derive an independent child stream from this stream's identity."""
        sid = self.stream_id
        for i in ids:
            sid = _mix64(sid, int(i) & _MASK64)
        return RngStream(self.seed, sid)

    # -- draws ------------------------------------------------------------

    def normal(self, shape=(), mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        if std < 0:
            raise ValueError("std must be >= 0")
        return self._gen.normal(loc=mean, scale=std, size=shape)

    def uniform(self, shape=(), low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._gen.uniform(low=low, high=high, size=shape)

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        """Uniform integers in [low, high)."""
        return self._gen.integers(low, high, size=shape)

    def choice(self, n: int, size: int, replace: bool = False, p=None) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace, p=p)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def complex_normal(self, shape=(), mean: complex = 0.0, var: float = 1.0) -> np.ndarray:
        """i.i.d. circularly-symmetric complex Gaussian CN(mean, var)."""
        return complex_normal_stack((self,), shape, mean, var)[0]


def complex_normal_stack(streams, shape=(), mean: complex = 0.0, var: float = 1.0) -> np.ndarray:
    """[T, *shape] i.i.d. CN(mean, var) draws, slice t from streams[t].

    Each stream fills its own [2, *shape] slice of one float64 buffer with
    the real parts then the imaginary parts, the same sequence as two
    normal(shape) calls on that stream; a stream listed twice draws twice,
    in list order.
    """
    if var < 0:
        raise ValueError("var must be >= 0")
    if isinstance(shape, (int, np.integer)):
        shape = (shape,)
    buf = np.empty((len(streams), 2, *shape))
    for stream, row in zip(streams, buf):
        stream._gen.standard_normal(out=row)
    buf *= math.sqrt(var / 2.0)
    out = np.empty((len(streams), *shape), dtype=np.complex128)
    np.add(buf[:, 0], mean.real, out=out.real)
    np.add(buf[:, 1], mean.imag, out=out.imag)
    return out
