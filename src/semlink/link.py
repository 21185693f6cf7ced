"""Point-to-point link pipeline: semantic codec + channel codec + channel.

Bundles the trainable pieces behind one object with checkpoint IO, and
provides the forward passes the rest of the system uses: a noiseless codec
pass, a differentiable pass through the surrogate channel for training, and a
statistical pass through fading + L-MMSE detection for evaluation.  Each pass
is composed of the same steps, each written once here: encode, decode, and
the differentiable channel stage surrogate_stage on Tensors, which training
differentiates (training phase 2 calls it directly).  The statistical
channel is channel.fading_cells on plain complex arrays.  link_encode does
the channel-independent half of a statistical pass; link_receive sends its
symbols over groups of channel cells, each group (the cells of one kind
sharing a stream and a frame) in one fading_cells pass, and channel-decodes
and decodes the received sequences as one stack each, forward only (under
tensor.no_grad()).  evaluate_link is the one-cell case, decoded unstacked,
so it also runs with a graph recording.
Images and patch rows are plain ndarrays: the autodiff graph starts at the
codec's patch embedding.

The transmit power scale is treated as known at the receiver (automatic gain
control), so detected symbols are de-normalized before channel decoding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chancodec import ChanCodecParams, chan_decode, chan_encode, chan_decode_real, chan_encode_real
from .channel import ChannelConfig, fading_cells, surrogate_channel
from .codec import CodecConfig, CodecParams, SemanticTensor, decode, encode, zero_fill
from .errors import ContractError, ParseError
from .masking import MaskPlan, PatchGrid, patchify, unpatchify
from .rng import RngStream
from .snapshot import load_tensors, save_tensors
from .tensor import Tensor, div, mul, power, tmean

__all__ = ["LinkModel", "LinkResult", "surrogate_link", "evaluate_link", "codec_only_pass",
           "surrogate_stage", "link_encode", "link_receive"]


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
            g = manifest["grid"]
            sizes = {**g, **manifest["codec"], "symbol_dim": manifest["symbol_dim"]}
            if bad := [k for k, v in sizes.items() if type(v) is not int]:  # not isinstance: True
                raise ValueError(f"{', '.join(bad)} not an integer")
            cfg = CodecConfig.from_dict(manifest["codec"])
            grid = PatchGrid(g["patch_size"], g["grid_h"], g["grid_w"], g["channels"])
            model = LinkModel.init(
                grid,
                _NO_DRAWS,  # the slots are overwritten below
                symbol_dim=manifest["symbol_dim"],
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


class _NoDraws:
    """Stands in for the RngStream of LinkModel.init where every parameter
    is overwritten afterwards: each substream is itself and each draw zeros."""

    def substream(self, *ids) -> "_NoDraws":
        return self

    def normal(self, shape=(), mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        return np.zeros(shape)


_NO_DRAWS = _NoDraws()


@dataclass
class LinkResult:
    image: Tensor  # reconstructed C x H x W; [cells, C, H, W] from link_receive
    z: SemanticTensor  # transmitted semantics
    z_hat: SemanticTensor  # received semantics; values [cells, L, d] from link_receive


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


def link_encode(model: LinkModel, image: np.ndarray,
                plan: MaskPlan) -> tuple[SemanticTensor, np.ndarray]:
    """The channel-independent half of evaluate_link: encode the plan's
    patches and map them to channel symbols.  Returns (Z, symbols)."""
    z = _encode(model, image, plan)
    return z, chan_encode(z.values.data, model.chan)


def _received(model: LinkModel, z: SemanticTensor, rows: np.ndarray) -> LinkResult:
    """Received rows (or a stack of them) zero-filled, decoded, unpatchified."""
    z_hat = z.with_values(Tensor(rows))
    return LinkResult(_decode(model, z_hat), z, z_hat)


def link_receive(model: LinkModel, z: SemanticTensor, x: np.ndarray, groups) -> LinkResult:
    """The per-channel half of evaluate_link for C channel cells at once.

    groups lists (chan_cfgs, rng, frame) triples, frame None to draw it from
    rng: the cells of one kind (they may differ in SNR and CSI error only)
    that share a stream and a frame, sent in one fading_cells pass.  All C
    cells, in group order, are channel-decoded as one [C, L, 2 symbol_dim]
    stack and decoded as one [C, N, d] stack, forward only (call it under
    no_grad()).  The result's image is [C, ch, H, W] and its z_hat values
    [C, L, d], item c the same bits as evaluate_link over cell c alone.
    """
    symbols = np.concatenate([fading_cells(x[None], chan_cfgs, [rng], frame)[:, 0]
                              for chan_cfgs, rng, frame in groups])
    return _received(model, z, chan_decode(symbols, model.chan))


def evaluate_link(model: LinkModel, image: np.ndarray, plan: MaskPlan,
                  chan_cfg: ChannelConfig, rng: RngStream,
                  frame=None) -> LinkResult:
    """Statistical-channel pass: fading draw, transmit, L-MMSE detect.

    A pre-drawn one-frame stack can be passed to pair arms of a comparison on
    the same channel realization.
    """
    z, x = link_encode(model, image, plan)
    return _received(model, z, chan_decode(fading_cells(x[None], [chan_cfg], [rng], frame)[0, 0],
                                           model.chan))
