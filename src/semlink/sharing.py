"""Multi-user semantic sharing: comparator, partition, transport, accounting.

Sequence position i is declared shared when the per-user feature variances
at that position stay close: d_i, the mean absolute difference of variances
between consecutive users, falls below a threshold.  Shared rows are averaged
across users, broadcast once through a public channel, and re-inserted at
every receiver; private rows travel per user.  Both cross one fading channel
cell straight through channel.fading_cells.  The saving is the fraction of
baseline symbols (K * L_s rows) eliminated by broadcasting.  Each distinct
channel codec encodes and decodes once per transport, however many users
hold it; the streams and their bits are those of the per-user path.

Variance closeness is a proxy for semantic similarity; this module implements
the bookkeeping exactly and leaves the modeling assumption to experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chancodec import ChanCodecParams, chan_decode, chan_encode
from .channel import ChannelConfig, fading_cells
from .errors import ConfigError, ContractError, NumericError
from .rng import RngStream

__all__ = [
    "MultiUserSemantics",
    "SharePartition",
    "variance_profile",
    "divergence",
    "share_divergence",
    "shared_positions",
    "partition",
    "transport",
    "TransportResult",
    "bandwidth_savings",
    "synth_correlated_semantics",
]


@dataclass
class MultiUserSemantics:
    """Stacked per-user semantic rows, aligned along the sequence axis."""

    values: np.ndarray  # [K, L_s, d_s]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3:
            raise ContractError("multi-user semantics must be [K, L_s, d_s]")
        if self.values.shape[0] < 2:
            raise ContractError("multi-user semantics needs K >= 2 users")
        if not np.all(np.isfinite(self.values)):
            raise ContractError("multi-user semantics must be finite")

    @property
    def num_users(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.values.shape[2]


@dataclass
class SharePartition:
    shared_idx: np.ndarray  # sorted positions with d_i < epsilon
    private_idx: np.ndarray  # complement, sorted
    z_pub: np.ndarray  # [L_pub, d_s], user-mean of shared rows
    z_pri: np.ndarray  # [K, L_pri, d_s]

    @property
    def num_users(self) -> int:
        return self.z_pri.shape[0]

    @property
    def l_pub(self) -> int:
        return len(self.shared_idx)

    @property
    def l_pri(self) -> int:
        return len(self.private_idx)

    @property
    def length(self) -> int:
        return self.l_pub + self.l_pri


def variance_profile(z: MultiUserSemantics) -> np.ndarray:
    """Population variance of every [user, position] feature row."""
    if z.feature_dim < 2:
        raise ContractError("variance over a single feature entry is degenerate")
    return z.values.var(axis=2)


def divergence(sigma2: np.ndarray, all_pairs: bool = False) -> np.ndarray:
    """Per-position mean absolute variance difference across users.

    Default compares consecutive user pairs (j, j+1); all_pairs averages over
    every unordered pair instead (sensitivity-study mode).
    """
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    k = sigma2.shape[0]
    if k < 2:
        raise ContractError("divergence needs K >= 2 users")
    if not all_pairs:
        return np.abs(np.diff(sigma2, axis=0)).mean(axis=0)
    a, b = np.triu_indices(k, 1)
    # cumsum adds the pairs in (a, b) order, so the sum is the same to the bit
    # as accumulating them one pair at a time
    return np.cumsum(np.abs(sigma2[a] - sigma2[b]), axis=0)[-1] / len(a)


def share_divergence(z: MultiUserSemantics, all_pairs: bool = False) -> np.ndarray:
    """The epsilon-independent step of partition: d_i of every position of z."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = divergence(variance_profile(z), all_pairs=all_pairs)
    if not np.isfinite(d).all():
        raise NumericError("feature variances or their differences leave the float range")
    return d


def shared_positions(d: np.ndarray, epsilon: float) -> np.ndarray:
    """The threshold step of partition: sorted positions with d_i < epsilon."""
    if not epsilon >= 0:  # NaN too: it would put no position on either side
        raise ContractError(f"epsilon must be >= 0, got {epsilon}")
    return np.flatnonzero(d < epsilon)


def partition(z: MultiUserSemantics, epsilon: float, all_pairs: bool = False) -> SharePartition:
    """Split sequence positions into shared (d_i < epsilon) and private."""
    d = share_divergence(z, all_pairs)
    shared, private = shared_positions(d, epsilon), np.flatnonzero(d >= epsilon)
    z_pub = z.values[:, shared, :].mean(axis=0) if len(shared) else np.zeros((0, z.feature_dim))
    z_pri = z.values[:, private, :]
    return SharePartition(shared, private, z_pub, z_pri)


@dataclass
class TransportResult:
    z_hat: list  # per-user [L_s, d_s] arrays, original row order restored
    rows_sent: int  # semantic rows that hit a channel (L_pub + K * L_pri)
    symbols_sent: int  # complex symbols: rows_sent * symbol_dim


def transport(part: SharePartition, user_codecs: list, pub_codec: ChanCodecParams,
              cfg: ChannelConfig, rng: RngStream) -> TransportResult:
    """Broadcast the shared rows once, send private rows per user, reassemble.

    Forward only, on plain arrays.  The public stream is one fading_cells
    signal on rng.substream(0), a channel realization shared by all
    receivers; private stream u uses rng.substream(100 + u), and all K cross
    the channel as one stack.  Receiver u decodes the detected streams with
    its own decoder and scatters rows back to their original positions.

    Codec work runs once per distinct codec object, not once per user: the
    users holding one codec encode their private rows as one [users, L_pri,
    d_s] stack, and decode the public stream once and their private streams
    as one stack.  A stacked matmul runs each user's rows as a BLAS product
    of its own, so every output keeps the bits of the per-user path.  Rows
    flattened into one matrix would not: numpy sends a single row through
    gemv, and OpenBLAS rounds some rows of a taller matrix in other kernels.
    All codecs must share symbol_dim and have the semantics' width as
    feature_dim (ConfigError otherwise).
    """
    k, d_s = part.num_users, part.z_pri.shape[2]
    if len(user_codecs) != k:
        raise ConfigError(f"{len(user_codecs)} codecs for {k} users")
    sym_dim = pub_codec.symbol_dim
    if any(c.symbol_dim != sym_dim for c in user_codecs):
        raise ConfigError("all channel codecs must share symbol_dim")
    if any(c.feature_dim != d_s for c in (pub_codec, *user_codecs)):
        raise ConfigError(f"all channel codecs must have feature_dim {d_s}, the semantics' width")
    groups = {}  # id(codec) -> (codec, its users); ChanCodecParams is unhashable
    for u, c in enumerate(user_codecs):
        groups.setdefault(id(c), (c, []))[1].append(u)

    x_pub_hat = None
    if part.l_pub:
        x_pub = chan_encode(part.z_pub, pub_codec)[None]
        x_pub_hat = fading_cells(x_pub, [cfg], [rng.substream(0)])[0, 0]

    x_pri_hat = None
    if part.l_pri:
        x_pri = np.empty((k, part.l_pri, sym_dim), dtype=complex)
        for c, users in groups.values():
            x_pri[users] = chan_encode(part.z_pri[users], c)
        x_pri_hat = fading_cells(x_pri, [cfg], [rng.substream(100 + u) for u in range(k)])[0]

    z_hat = [None] * k
    for c, users in groups.values():
        out = np.zeros((len(users), part.length, d_s))
        if x_pub_hat is not None:
            out[:, part.shared_idx] = chan_decode(x_pub_hat, c)
        if x_pri_hat is not None:
            out[:, part.private_idx] = chan_decode(x_pri_hat[users], c)
        for i, u in enumerate(users):
            z_hat[u] = out[i]
    rows_sent = part.l_pub + k * part.l_pri
    return TransportResult(z_hat, rows_sent, rows_sent * sym_dim)


def bandwidth_savings(part: SharePartition) -> float:
    """Fraction of baseline rows eliminated: (K-1) * L_pub / (K * L_s)."""
    k = part.num_users
    if k < 2:
        raise ContractError("savings defined for K >= 2")
    if part.length == 0:
        raise ContractError("empty partition")
    return (k - 1) * part.l_pub / (k * part.length)


def synth_correlated_semantics(rng: RngStream, k: int, length: int, dim: int,
                               shared_fraction: float, jitter: float = 0.4) -> MultiUserSemantics:
    """Directly synthesized correlated semantics for sharing experiments.

    A random subset of round(shared_fraction * length) positions holds one
    base row copied to every user plus per-row jitter noise (row jitter scale
    uniform in [0, jitter]); remaining positions are drawn independently per
    user with per-row amplitudes in [0.5, 1.5], so their variances disagree.
    """
    if not 0.0 <= shared_fraction <= 1.0:
        raise ContractError("shared_fraction outside [0, 1]")
    n_shared = int(round(shared_fraction * length))
    order = rng.permutation(length)
    shared_pos = np.sort(order[:n_shared])

    z = np.empty((k, length, dim))
    amps = rng.uniform((k, length), 0.5, 1.5)
    z[:] = rng.normal((k, length, dim)) * amps[:, :, None]

    if n_shared:
        base = rng.normal((n_shared, dim))
        row_jitter = rng.uniform((n_shared,), 0.0, jitter)
        draws = rng.normal((k, n_shared, dim))  # user u's jitter rows are draws[u]
        with np.errstate(over="ignore"):  # MultiUserSemantics rejects what overflows
            z[:, shared_pos, :] = base + row_jitter[:, None] * draws
    return MultiUserSemantics(z)
