"""Deterministic, splittable random number streams.

Every stochastic component of the simulator draws from an RngStream, a thin
wrapper over numpy's counter-based Philox generator keyed by
(seed, stream_id).  Identical keys give bit-identical sequences; distinct
stream_ids give statistically independent streams, so each Monte Carlo trial
draws from its own substream and results do not depend on the order in which
trials are drawn or whether they are stacked into one batch.

Streams are lazy: a stream holds only its key until it draws, so a parent
that only derives substreams never builds a generator.  complex_normal_stack
draws a whole stack at once: each trial's stream fills its own slice of one
array, and the scaling and complex assembly run once per stack, so slice t
holds the same bits as that stream's own complex_normal draw.  The row of a
stream that has never drawn comes from one shared Philox, re-keyed to that
stream's key; if the stream draws again, it builds its own generator and
first replays that row, so its sequence is the same as if it had drawn
everything itself.  The shared generator assumes one thread draws at a time,
as semlink runs (cli.run_trials is a serial loop).
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


# The shared Philox of first stack rows.  Each row re-keys it through its
# state setter to a fresh Philox's state (counter 0, empty buffer), so no
# state carries from one fill to the next.  The setter reads plain ints
# faster than numpy arrays, so _ROW_KEY is a list set to each stream's key.
_ROW_KEY = [0, 0]
_ROW_STATE = {
    "bit_generator": "Philox",
    "state": {"counter": (0, 0, 0, 0), "key": _ROW_KEY},
    "buffer": (0, 0, 0, 0),
    "buffer_pos": 4,
    "has_uint32": 0,
    "uinteger": 0,
}
_ROW_PHILOX = np.random.Philox(_PhiloxKey(np.zeros(2, dtype=np.uint64)))
_ROW_GEN = np.random.Generator(_ROW_PHILOX)


class RngStream:
    """One independent random stream addressed by (seed, stream_id)."""

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        self._own = None  # this stream's Generator, built at its first own draw
        self._row_shape = None  # shape of a first stack row drawn from _ROW_GEN

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    @property
    def _gen(self) -> np.random.Generator:
        """This stream's Generator, positioned after every draw it made."""
        if self._own is None:
            key = np.array([self.seed, self.stream_id], dtype=np.uint64)
            self._own = np.random.Generator(np.random.Philox(_PhiloxKey(key)))
            if self._row_shape is not None:
                self._own.standard_normal(self._row_shape)
        return self._own

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


def _normal_rows(streams, shape: tuple) -> np.ndarray:
    """[T, *shape] standard normals, row t drawn by streams[t] in list order.

    A stream that has never drawn fills its row from _ROW_GEN re-keyed to
    its key and records the row's shape for its own generator to replay.
    """
    buf = np.empty((len(streams), *shape))
    for stream, row in zip(streams, buf):
        if stream._own is None and stream._row_shape is None:
            _ROW_KEY[0] = stream.seed
            _ROW_KEY[1] = stream.stream_id
            _ROW_PHILOX.state = _ROW_STATE
            _ROW_GEN.standard_normal(out=row)
            stream._row_shape = shape
        else:
            stream._gen.standard_normal(out=row)
    return buf


def _complex_rows(buf: np.ndarray, mean: complex, var: float) -> np.ndarray:
    """[T, *shape] CN(mean, var) from standard normals buf [T, 2, *shape]
    (real parts, then imaginary parts), scaling buf in place."""
    buf *= math.sqrt(var / 2.0)
    out = np.empty((len(buf), *buf.shape[2:]), dtype=np.complex128)
    np.add(buf[:, 0], mean.real, out=out.real)
    np.add(buf[:, 1], mean.imag, out=out.imag)
    return out


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
    return _complex_rows(_normal_rows(streams, (2, *shape)), mean, var)
