"""Point-to-point link pipeline: semantic codec + channel codec + channel.

Bundles the trainable pieces behind one object with checkpoint IO, and
provides the forward passes the rest of the system uses: a noiseless codec
pass, a differentiable pass through the surrogate channel for training, and a
statistical pass through fading + L-MMSE detection for evaluation.  Each pass
is composed of the same steps, each written once here: encode, decode, and
one function per channel stage: surrogate_stage on Tensors, which training
differentiates, and fading_stage on plain complex arrays (training phase 2
and multi-user transport call the stages directly).  Images and patch rows
are plain ndarrays: the autodiff graph starts at the codec's patch embedding.

The transmit power scale is treated as known at the receiver (automatic gain
control), so detected symbols are de-normalized before channel decoding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chancodec import ChanCodecParams, chan_decode, chan_encode, chan_decode_real, chan_encode_real
from .channel import ChannelConfig, draw_channel, power_scale, surrogate_channel, transmit_detect
from .codec import CodecConfig, CodecParams, SemanticTensor, decode, encode, zero_fill
from .errors import ContractError, ParseError
from .masking import MaskPlan, PatchGrid, patchify, unpatchify
from .rng import RngStream
from .snapshot import load_tensors, save_tensors
from .tensor import Tensor, div, mul, power, tmean

__all__ = ["LinkModel", "LinkResult", "surrogate_link", "evaluate_link", "codec_only_pass",
           "surrogate_stage", "fading_stage"]


@dataclass
class LinkModel:
    grid: PatchGrid
    codec_cfg: CodecConfig
    codec: CodecParams
    chan: ChanCodecParams

    @staticmethod
    def init(grid: PatchGrid, rng: RngStream, symbol_dim=8, **codec_fields) -> "LinkModel":
        """Fresh model; codec_fields override the CodecConfig defaults."""
        cfg = CodecConfig.for_grid(grid, **codec_fields)
        return LinkModel(
            grid=grid,
            codec_cfg=cfg,
            codec=CodecParams.init(cfg, rng.substream(1)),
            chan=ChanCodecParams.init(cfg.feature_dim, symbol_dim, rng.substream(2)),
        )

    def all_tensors(self) -> dict:
        out = dict(self.codec.tensors())
        out.update(self.chan.tensors())
        return out

    def save(self, path) -> None:
        """Checkpoint: named tensors plus a JSON manifest sidecar."""
        path = Path(path)
        save_tensors(path, self.all_tensors())
        manifest = {
            "codec": self.codec_cfg.to_dict(),
            "grid": {
                "patch_size": self.grid.patch_size,
                "grid_h": self.grid.grid_h,
                "grid_w": self.grid.grid_w,
                "channels": self.grid.channels,
            },
            "symbol_dim": self.chan.symbol_dim,
        }
        path.with_suffix(path.suffix + ".json").write_text(json.dumps(manifest, indent=1, sort_keys=True))

    @staticmethod
    def load(path) -> "LinkModel":
        path = Path(path)
        manifest_path = path.with_suffix(path.suffix + ".json")
        if not path.exists() or not manifest_path.exists():
            raise ParseError(f"checkpoint {path} or its manifest is missing")
        try:  # ConfigError is a ValueError: invalid sizes are a malformed manifest too
            manifest = json.loads(manifest_path.read_text())
            cfg = CodecConfig.from_dict(manifest["codec"])
            g = manifest["grid"]
            grid = PatchGrid(g["patch_size"], g["grid_h"], g["grid_w"], g["channels"])
            model = LinkModel.init(
                grid,
                RngStream(0),
                symbol_dim=int(manifest["symbol_dim"]),
                feature_dim=cfg.feature_dim,
                enc_layers=cfg.enc_layers,
                dec_layers=cfg.dec_layers,
                num_heads=cfg.num_heads,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{manifest_path}: malformed checkpoint manifest ({exc})") from exc
        if model.codec_cfg != cfg:
            got = f"{cfg.patch_dim}/{cfg.num_patches}, grid has {grid.patch_dim}/{grid.num_patches}"
            raise ParseError(f"{manifest_path}: codec patch_dim/num_patches {got}")
        stored = load_tensors(path)
        slots = model.all_tensors()
        if set(stored) != set(slots):
            raise ParseError(f"checkpoint {path} does not match manifest structure")
        for name, slot in slots.items():
            if stored[name].data.shape != slot.data.shape:
                raise ParseError(f"checkpoint tensor {name} has shape {stored[name].data.shape}")
            slot.data[...] = stored[name].data
        return model


@dataclass
class LinkResult:
    image: Tensor  # reconstructed C x H x W
    z: SemanticTensor  # transmitted semantics
    z_hat: SemanticTensor  # received semantics


def _encode(model: LinkModel, image: np.ndarray, plan: MaskPlan) -> SemanticTensor:
    """Patchify, keep the plan's patches, encode them."""
    kept = patchify(image, model.grid)[plan.keep_indices]
    return encode(kept, plan.keep_indices, model.codec, model.codec_cfg)


def _decode(model: LinkModel, z: SemanticTensor) -> Tensor:
    """Zero-fill to the full sequence, decode, unpatchify."""
    return unpatchify(decode(zero_fill(z), model.codec, model.codec_cfg), model.grid)


def _normalize_real(view: Tensor, p_s: float):
    """In-graph power normalization of an interleaved real view.

    Mean per-complex-symbol power is 2 * mean of squared real entries.
    Returns (normalized view, scale tensor).
    """
    mean_pow = mul(tmean(mul(view, view)), 2.0)
    if float(mean_pow.data) == 0.0:
        raise ContractError("cannot normalize an all-zero signal")
    scale = power(div(Tensor(np.asarray(p_s)), mean_pow), 0.5)
    return mul(view, scale), scale


def surrogate_stage(values: Tensor, chan: ChanCodecParams, chan_cfg: ChannelConfig,
                    rng: RngStream) -> Tensor:
    """Differentiable channel stage: semantic rows -> received semantic rows
    through the channel codec and the surrogate channel."""
    norm_view, scale = _normalize_real(chan_encode_real(values, chan), chan_cfg.p_s)
    received = surrogate_channel(norm_view, chan_cfg, rng)
    return chan_decode_real(div(received, scale), chan)


def fading_stage(x: np.ndarray, chan_cfg: ChannelConfig, rngs, frame=None) -> np.ndarray:
    """Stack of T signals [T, ...] -> power normalization, fading, L-MMSE
    detection -> symbols at their original power.

    Signal t is normalized on its own and crosses the channel drawn from
    rngs[t].substream(1) (or frame t of a given frame) with noise from
    rngs[t].substream(2), with the same result as sending it alone.
    """
    s = power_scale(x, chan_cfg.p_s)
    if frame is None:
        frame = draw_channel(chan_cfg, [r.substream(1) for r in rngs])
    return transmit_detect(x * s, frame, [r.substream(2) for r in rngs]) * (1.0 / s)


def codec_only_pass(model: LinkModel, image: np.ndarray, plan: MaskPlan):
    """Mask, encode, zero-fill, decode; no channel.  Returns (Q, Z)."""
    z = _encode(model, image, plan)
    return _decode(model, z), z


def surrogate_link(model: LinkModel, image: np.ndarray, plan: MaskPlan,
                   chan_cfg: ChannelConfig, rng: RngStream) -> LinkResult:
    """Differentiable end-to-end pass used by training phase 3."""
    z = _encode(model, image, plan)
    z_hat = z.with_values(surrogate_stage(z.values, model.chan, chan_cfg, rng))
    return LinkResult(_decode(model, z_hat), z, z_hat)


def evaluate_link(model: LinkModel, image: np.ndarray, plan: MaskPlan,
                  chan_cfg: ChannelConfig, rng: RngStream,
                  frame=None) -> LinkResult:
    """Statistical-channel pass: fading draw, transmit, L-MMSE detect.

    A pre-drawn one-frame stack can be passed to pair arms of a comparison on
    the same channel realization.
    """
    z = _encode(model, image, plan)
    x_hat = fading_stage(chan_encode(z.values.data, model.chan)[None], chan_cfg, [rng], frame)[0]
    z_hat = z.with_values(Tensor(chan_decode(x_hat, model.chan)))
    return LinkResult(_decode(model, z_hat), z, z_hat)
