"""Multi-user semantic sharing: comparator, partition, transport, accounting.

Sequence position i is declared shared when the per-user feature variances
at that position stay close: d_i, the mean absolute difference of variances
between consecutive users, falls below a threshold.  Shared rows are averaged
across users, broadcast once through a public channel, and re-inserted at
every receiver; private rows travel per user.  The saving is the fraction of
baseline symbols (K * L_s rows) eliminated by broadcasting.

Variance closeness is a proxy for semantic similarity; this module implements
the bookkeeping exactly and leaves the modeling assumption to experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chancodec import ChanCodecParams, chan_decode, chan_encode
from .channel import ChannelConfig
from .errors import ConfigError, ContractError
from .link import fading_stage, statistical_stage
from .rng import RngStream
from .tensor import Tensor, no_grad

__all__ = [
    "MultiUserSemantics",
    "SharePartition",
    "variance_profile",
    "divergence",
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
    epsilon: float

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


def partition(z: MultiUserSemantics, epsilon: float, all_pairs: bool = False) -> SharePartition:
    """Split sequence positions into shared (d_i < epsilon) and private."""
    if epsilon < 0:
        raise ContractError("epsilon must be >= 0")
    d = divergence(variance_profile(z), all_pairs=all_pairs)
    shared = np.flatnonzero(d < epsilon)
    private = np.flatnonzero(d >= epsilon)
    z_pub = z.values[:, shared, :].mean(axis=0) if len(shared) else np.zeros((0, z.feature_dim))
    z_pri = z.values[:, private, :]
    return SharePartition(shared, private, z_pub, z_pri, float(epsilon))


@dataclass
class TransportResult:
    z_hat: list  # per-user [L_s, d_s] arrays, original row order restored
    rows_sent: int  # semantic rows that hit a channel (L_pub + K * L_pri)
    symbols_sent: int  # complex symbols: rows_sent * symbol_dim


def transport(part: SharePartition, user_codecs: list, pub_codec: ChanCodecParams,
              cfg: ChannelConfig, rng: RngStream) -> TransportResult:
    """Broadcast the shared rows once, send private rows per user, reassemble.

    The public stream uses one channel realization shared by all receivers;
    each private stream uses that user's own realization, drawn from
    rng.substream(100 + u), and all K private streams cross the channel as
    one stack.  Receiver k decodes the concatenated detected streams with its
    own decoder and scatters rows back to their original sequence positions.
    """
    k = part.num_users
    if len(user_codecs) != k:
        raise ConfigError(f"{len(user_codecs)} codecs for {k} users")
    sym_dim = pub_codec.symbol_dim
    if any(c.symbol_dim != sym_dim for c in user_codecs):
        raise ConfigError("all channel codecs must share symbol_dim")
    d_s = user_codecs[0].feature_dim

    with no_grad():  # forward only: the codecs are applied, never trained here
        x_pub_hat = None
        if part.l_pub:
            x_pub_hat = statistical_stage(Tensor(part.z_pub), pub_codec, cfg, rng.substream(0))

        x_pri_hat = None
        if part.l_pri:
            x_pri = np.stack([chan_encode(Tensor(part.z_pri[u]), user_codecs[u])
                              for u in range(k)])
            x_pri_hat = fading_stage(x_pri, cfg, [rng.substream(100 + u) for u in range(k)])

        z_hat = []
        for u in range(k):
            out = np.zeros((part.length, d_s))
            if x_pub_hat is not None:
                out[part.shared_idx] = chan_decode(x_pub_hat, user_codecs[u]).data
            if x_pri_hat is not None:
                out[part.private_idx] = chan_decode(x_pri_hat[u], user_codecs[u]).data
            z_hat.append(out)
    rows_sent = part.l_pub + k * part.l_pri
    return TransportResult(z_hat, rows_sent, rows_sent * sym_dim)


def bandwidth_savings(part: SharePartition, k: int | None = None) -> float:
    """Fraction of baseline rows eliminated: (K-1) * L_pub / (K * L_s)."""
    k = part.num_users if k is None else k
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
        for u in range(k):
            z[u, shared_pos, :] = base + row_jitter[:, None] * rng.normal((n_shared, dim))
    return MultiUserSemantics(z)
