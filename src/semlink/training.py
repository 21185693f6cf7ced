"""Three-phase training: semantic codec, channel codec, whole network.

Phase 1 trains the semantic codec on pixel reconstruction MSE.  Phase 2
freezes it, feeds its semantics through the channel codec and the
differentiable surrogate channel, and trains the channel codec on semantic
MSE.  Phase 3 unfreezes everything and trains on the sum of both terms.

Masks are re-sampled per sample per epoch, SNR is drawn uniformly per batch
from the configured range, and everything is deterministic under a fixed
seed (same config twice gives bit-identical checkpoints).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelConfig
from .errors import ConfigError, ContractError, NonFiniteError, TrainingDiverged
from .link import LinkModel, _encode, codec_only_pass, surrogate_link, surrogate_stage
from .masking import sample_mask
from .rng import RngStream
from .scenes import locate_any
from .tensor import Tensor, add, backward, mul, no_grad, sub, tmean, zero_grad

__all__ = [
    "TrainConfig",
    "LossRecord",
    "Adam",
    "loss_codec",
    "loss_channel",
    "loss_whole",
    "train_phase",
    "sample_nonempty_mask",
]

PHASES = ("codec", "channel", "whole")


@dataclass
class TrainConfig:
    phase: str = "codec"
    lr: float = 2e-4
    epochs: int = 10
    batch_size: int = 8
    seed: int = 0
    mask_prob: float = 0.3  # object-patch mask probability
    snr_lo_db: float = 0.0  # surrogate SNR range, drawn per batch
    snr_hi_db: float = 20.0
    surrogate_kind: str = "awgn"

    def validate(self):
        if self.phase not in PHASES:
            raise ConfigError(f"unknown phase {self.phase!r}")
        if self.lr < 0:
            raise ConfigError("lr must be >= 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if not 0.0 <= self.mask_prob <= 1.0:
            raise ConfigError("mask_prob outside [0, 1]")
        if self.snr_hi_db < self.snr_lo_db:
            raise ConfigError("snr range inverted")
        for snr_db in (self.snr_lo_db, self.snr_hi_db):
            ChannelConfig(kind=self.surrogate_kind, snr_db=snr_db).validate()


@dataclass
class LossRecord:
    phase: str
    epoch: int
    batch: int
    loss: float

    def __post_init__(self):
        if self.loss < 0:
            raise ContractError("loss must be >= 0")


# -- losses ---------------------------------------------------------------------


def _mse(target: Tensor, estimate: Tensor) -> Tensor:
    if target.shape != estimate.shape:
        raise ContractError(f"loss shapes differ: {target.shape} vs {estimate.shape}")
    d = sub(estimate, target)
    return tmean(mul(d, d))


def loss_codec(original: np.ndarray, reconstructed: Tensor) -> Tensor:
    """Pixel MSE between source and reconstructed image."""
    return _mse(original, reconstructed)


def loss_channel(z: Tensor, z_hat: Tensor) -> Tensor:
    """Semantic MSE between transmitted and recovered semantics."""
    return _mse(z, z_hat)


def loss_whole(original, reconstructed, z, z_hat) -> Tensor:
    """Sum of the pixel and semantic MSE terms."""
    return add(loss_codec(original, reconstructed), loss_channel(z, z_hat))


# -- optimizer ------------------------------------------------------------------


class Adam:
    """Adam with bias correction; lr == 0 leaves parameters bit-identical."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: list, lr: float):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grad_scale: float = 1.0) -> None:
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad * grad_scale
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * (g * g)
            if self.lr != 0.0:
                update = self.lr * (self.m[i] / c1) / (np.sqrt(self.v[i] / c2) + self.EPS)
                if not np.all(np.isfinite(update)):
                    raise NonFiniteError("optimizer update is non-finite")
                p.data -= update

    def zero(self) -> None:
        zero_grad(self.params)


# -- phase forwards ---------------------------------------------------------------


_MASK_TRIES = 100


def sample_nonempty_mask(grid, loc, p: float, rng: RngStream):
    """Bernoulli mask resampled until at least one patch is kept."""
    for _ in range(_MASK_TRIES):
        plan = sample_mask(grid, loc, p, rng)
        if plan.keep_count > 0:
            return plan
    raise ContractError(f"no non-empty mask after {_MASK_TRIES} draws (p={p})")


def _sample_loss(model: LinkModel, scene, phase: str, cfg: TrainConfig, snr_db: float | None,
                 rng: RngStream) -> Tensor:
    """One sample's loss for a phase: mask once, then the phase's forward."""
    loc = locate_any(scene, model.grid)
    plan = sample_nonempty_mask(model.grid, loc, cfg.mask_prob, rng.substream(1))
    if phase == "codec":
        q, _ = codec_only_pass(model, scene.image, plan)
        return loss_codec(scene.image, q)
    chan_cfg = ChannelConfig(kind=cfg.surrogate_kind, snr_db=snr_db)
    if phase == "channel":
        with no_grad():  # frozen semantic encoder: semantics enter as constants
            z = _encode(model, scene.image, plan).values
        return loss_channel(z, surrogate_stage(z, model.chan, chan_cfg, rng.substream(2)))
    result = surrogate_link(model, scene.image, plan, chan_cfg, rng.substream(2))
    return loss_whole(scene.image, result.image, result.z.values, result.z_hat.values)


def _phase_trainables(model: LinkModel, phase: str) -> list:
    if phase == "codec":
        return model.codec.trainables()
    if phase == "channel":
        return model.chan.trainables()
    return model.codec.trainables() + model.chan.trainables()


def train_phase(model: LinkModel, scenes: list, cfg: TrainConfig,
                checkpoint_dir=None) -> list:
    """Run one phase over the scene list; returns per-batch LossRecords.

    Parameters outside the phase are never stepped.  Aborts with
    TrainingDiverged if any loss or update becomes non-finite.
    """
    cfg.validate()
    if not scenes:
        raise ConfigError("empty training set")
    params = _phase_trainables(model, cfg.phase)
    opt = Adam(params, cfg.lr)
    root = RngStream(cfg.seed, 0x7E41)
    records = []

    for epoch in range(cfg.epochs):
        batch_index = 0
        pending = 0
        batch_loss = 0.0
        order = root.substream(1, epoch).permutation(len(scenes))
        snr_stream = root.substream(2, epoch)
        snr_db = float(snr_stream.uniform((), cfg.snr_lo_db, cfg.snr_hi_db))

        for pos, scene_idx in enumerate(order):
            scene = scenes[int(scene_idx)]
            sample_rng = root.substream(3, epoch, pos)
            try:
                loss = _sample_loss(model, scene, cfg.phase, cfg, snr_db, sample_rng)
                backward(loss)
            except NonFiniteError as exc:
                raise TrainingDiverged(
                    f"phase {cfg.phase} epoch {epoch} batch {batch_index}: {exc}"
                ) from exc
            batch_loss += float(loss.data)
            pending += 1

            if pending == cfg.batch_size or pos == len(order) - 1:
                try:
                    opt.step(grad_scale=1.0 / pending)
                except NonFiniteError as exc:
                    raise TrainingDiverged(
                        f"phase {cfg.phase} epoch {epoch} batch {batch_index}: {exc}"
                    ) from exc
                opt.zero()
                records.append(LossRecord(cfg.phase, epoch, batch_index, batch_loss / pending))
                batch_index += 1
                pending = 0
                batch_loss = 0.0
                snr_db = float(snr_stream.uniform((), cfg.snr_lo_db, cfg.snr_hi_db))

        if checkpoint_dir is not None:
            model.save(f"{checkpoint_dir}/{cfg.phase}-epoch{epoch:03d}.ckpt")

    return records


def mean_epoch_loss(records: list, epoch: int) -> float:
    vals = [r.loss for r in records if r.epoch == epoch]
    if not vals:
        raise ContractError(f"no records for epoch {epoch}")
    return float(np.mean(vals))


def dataset_loss(model: LinkModel, scenes: list, cfg: TrainConfig) -> float:
    """Mean phase-1 style reconstruction loss over a scene list (no updates)."""
    root = RngStream(cfg.seed, 999)
    total = 0.0
    with no_grad():
        for i, scene in enumerate(scenes):
            loss = _sample_loss(model, scene, "codec", cfg, None, root.substream(i))
            total += float(loss.data)
    return total / len(scenes)
