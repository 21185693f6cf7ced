"""Miniature masked-autoencoder semantic codec.

The encoder embeds the kept patch rows (linear projection plus fixed
sinusoidal position codes indexed by each patch's original grid position)
and runs them through pre-norm residual blocks: x + MSA(LN(x)) followed by
GeLU(LN(x) W + b) + x, then a final layer norm.  The decoder receives the
full-length sequence (zero vectors in masked slots, position codes re-added),
runs its own, shallower, block stack and projects back to patch pixels.
Each block is a single autodiff node: its forward runs the layer-norm,
attention and GeLU kernels of semlink.tensor on plain arrays, and one VJP
returns the gradients of the block input and of the block's 14 tensors.

The decoder also takes a stack of full-length sequences, [..., N, d]: the
channel cells an evaluation sends one encoding over decode in one pass, and
each item gets the bits it would get alone.  A stack runs forward only
(under tensor.no_grad()); with a graph recording it raises ShapeError.

The encoder/decoder depth asymmetry mirrors the deployment split: heavy
encoding at the transmitter, light decoding at the receiver.  CodecConfig
checks its sizes when constructed, so parameters built from one fit together.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .masking import PatchGrid
from .rng import RngStream
from .tensor import (
    AttentionParams,
    Tensor,
    _attention_bwd,
    _attention_fwd,
    _check_finite,
    _forward_only,
    _gelu_bwd,
    _gelu_fwd,
    _layer_norm_bwd,
    _layer_norm_fwd,
    _make,
    add,
    layer_norm,
    matmul,
    scatter_rows,
    sinusoid_table,
)

__all__ = [
    "CodecConfig",
    "BlockParams",
    "CodecParams",
    "SemanticTensor",
    "embed",
    "encode",
    "zero_fill",
    "decode",
]

LN_EPS = 1e-6


@dataclass(frozen=True)
class CodecConfig:
    feature_dim: int = 64
    enc_layers: int = 4
    dec_layers: int = 2
    num_heads: int = 4
    patch_dim: int = 16
    num_patches: int = 64

    def __post_init__(self):
        if min(self.feature_dim, self.num_heads, self.patch_dim, self.num_patches) < 1:
            raise ConfigError("feature_dim, num_heads, patch_dim and num_patches must be >= 1")
        if self.feature_dim % self.num_heads:
            raise ConfigError(f"feature_dim {self.feature_dim} not divisible by "
                              f"{self.num_heads} heads")
        if self.enc_layers < 1 or self.dec_layers < 1:
            raise ConfigError("encoder and decoder need at least one layer")

    @staticmethod
    def for_grid(grid: PatchGrid, **fields) -> "CodecConfig":
        """The config for grid's patches; fields override the other defaults."""
        return CodecConfig(**fields, patch_dim=grid.patch_dim, num_patches=grid.num_patches)

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "CodecConfig":
        return CodecConfig(**{k: int(v) for k, v in d.items()})


@dataclass
class BlockParams:
    """One pre-norm residual block: attention sub-layer plus single-matrix
    feed-forward sub-layer."""

    ln1_gain: Tensor
    ln1_bias: Tensor
    attn: AttentionParams
    ln2_gain: Tensor
    ln2_bias: Tensor
    ff_weight: Tensor
    ff_bias: Tensor

    @staticmethod
    def init(dim: int, rng: RngStream) -> "BlockParams":
        scale = 1.0 / np.sqrt(dim)
        return BlockParams(
            ln1_gain=Tensor(np.ones(dim), requires_grad=True),
            ln1_bias=Tensor(np.zeros(dim), requires_grad=True),
            attn=AttentionParams.init(dim, rng.substream(1)),
            ln2_gain=Tensor(np.ones(dim), requires_grad=True),
            ln2_bias=Tensor(np.zeros(dim), requires_grad=True),
            ff_weight=Tensor(rng.substream(2).normal((dim, dim), std=scale), requires_grad=True),
            ff_bias=Tensor(np.zeros(dim), requires_grad=True),
        )

    def tensors(self, prefix: str) -> dict:
        out = {
            f"{prefix}.ln1_gain": self.ln1_gain,
            f"{prefix}.ln1_bias": self.ln1_bias,
            f"{prefix}.ln2_gain": self.ln2_gain,
            f"{prefix}.ln2_bias": self.ln2_bias,
            f"{prefix}.ff_weight": self.ff_weight,
            f"{prefix}.ff_bias": self.ff_bias,
        }
        for name, t in self.attn.tensors().items():
            out[f"{prefix}.attn.{name}"] = t
        return out


@dataclass
class CodecParams:
    patch_embed_w: Tensor
    patch_embed_b: Tensor
    enc_blocks: list
    enc_final_gain: Tensor
    enc_final_bias: Tensor
    dec_blocks: list
    dec_final_gain: Tensor
    dec_final_bias: Tensor
    out_w: Tensor
    out_b: Tensor
    pos_table: np.ndarray = field(repr=False, default=None)

    @staticmethod
    def init(cfg: CodecConfig, rng: RngStream) -> "CodecParams":
        d = cfg.feature_dim
        return CodecParams(
            patch_embed_w=Tensor(
                rng.substream(10).normal((cfg.patch_dim, d), std=1.0 / np.sqrt(cfg.patch_dim)),
                requires_grad=True,
            ),
            patch_embed_b=Tensor(np.zeros(d), requires_grad=True),
            enc_blocks=[BlockParams.init(d, rng.substream(20, i)) for i in range(cfg.enc_layers)],
            enc_final_gain=Tensor(np.ones(d), requires_grad=True),
            enc_final_bias=Tensor(np.zeros(d), requires_grad=True),
            dec_blocks=[BlockParams.init(d, rng.substream(30, i)) for i in range(cfg.dec_layers)],
            dec_final_gain=Tensor(np.ones(d), requires_grad=True),
            dec_final_bias=Tensor(np.zeros(d), requires_grad=True),
            out_w=Tensor(
                rng.substream(40).normal((d, cfg.patch_dim), std=1.0 / np.sqrt(d)),
                requires_grad=True,
            ),
            out_b=Tensor(np.zeros(cfg.patch_dim), requires_grad=True),
            pos_table=sinusoid_table(cfg.num_patches, d),
        )

    def tensors(self) -> dict:
        out = {
            "embed.w": self.patch_embed_w,
            "embed.b": self.patch_embed_b,
            "enc_final.gain": self.enc_final_gain,
            "enc_final.bias": self.enc_final_bias,
            "dec_final.gain": self.dec_final_gain,
            "dec_final.bias": self.dec_final_bias,
            "out.w": self.out_w,
            "out.b": self.out_b,
        }
        for i, blk in enumerate(self.enc_blocks):
            out.update(blk.tensors(f"enc{i}"))
        for i, blk in enumerate(self.dec_blocks):
            out.update(blk.tensors(f"dec{i}"))
        return out

    def trainables(self) -> list:
        return list(self.tensors().values())


@dataclass
class SemanticTensor:
    """Per-kept-patch feature rows, aligned with the original patch indices;
    a stack [..., L, feature_dim] of such rows shares the indices."""

    values: Tensor  # [L, feature_dim] or [..., L, feature_dim]
    indices: np.ndarray  # strictly increasing kept patch indices, len L
    num_patches: int

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.intp)
        if self.values.ndim < 2 or len(self.indices) != self.values.shape[-2]:
            raise ContractError("semantic rows and indices disagree")
        if len(self.indices) and (
            np.any(np.diff(self.indices) <= 0)
            or self.indices[0] < 0
            or self.indices[-1] >= self.num_patches
        ):
            raise ContractError("indices must be strictly increasing within range")

    @property
    def length(self) -> int:
        return self.values.shape[-2]

    def with_values(self, values: Tensor) -> "SemanticTensor":
        return SemanticTensor(values, self.indices, self.num_patches)


def embed(patches: Tensor, indices, params: CodecParams, cfg: CodecConfig) -> Tensor:
    """Project patch rows to feature_dim and add position codes at the
    patches' original grid indices."""
    idx = np.asarray(indices, dtype=np.intp)
    if patches.shape != (len(idx), cfg.patch_dim):
        raise ShapeError(f"patch rows {patches.shape} do not match indices/patch_dim")
    pos = Tensor(params.pos_table[idx])
    return add(add(matmul(patches, params.patch_embed_w), params.patch_embed_b), pos)


def _block(x: Tensor, blk: BlockParams, num_heads: int) -> Tensor:
    """x1 = x + MSA(LN1(x)); out = x1 + GeLU(LN2(x1) W + b), as one graph node.

    Every array that layer_norm, softmax_attention, matmul, add and gelu
    would check is checked here too, in the same order and with the same
    NonFiniteError message, with or without a graph.  A stacked x
    [..., rows, d] runs forward only.
    """
    d = blk.ln1_gain.shape[0]
    if x.ndim < 2 or x.shape[-1] != d:
        raise ShapeError(f"block input {x.shape} is not [..., rows, {d}]")
    if x.shape[-2] == 0:
        raise ContractError("block input has no rows")
    attn = blk.attn
    parents = (x, blk.ln1_gain, blk.ln1_bias, attn.wq, attn.bq, attn.wk, attn.bk,
               attn.wv, attn.bv, attn.wo, attn.bo, blk.ln2_gain, blk.ln2_bias,
               blk.ff_weight, blk.ff_bias)
    _forward_only(x, parents, "codec block")
    gain1, gain2, weight = blk.ln1_gain.data, blk.ln2_gain.data, blk.ff_weight.data
    normed1, inv1, xhat1 = _layer_norm_fwd(x.data, gain1, blk.ln1_bias.data, LN_EPS)
    _check_finite(normed1)
    attended, cache = _attention_fwd(normed1, normed1, normed1, attn, num_heads)
    _check_finite(attended)
    x1 = attended
    x1 += x.data
    _check_finite(x1)
    normed2, inv2, xhat2 = _layer_norm_fwd(x1, gain2, blk.ln2_bias.data, LN_EPS)
    _check_finite(normed2)
    pre = normed2 @ weight
    _check_finite(pre)
    pre += blk.ff_bias.data
    _check_finite(pre)
    act, phi_cdf = _gelu_fwd(pre)
    _check_finite(act)
    act += x1

    def vjp(g):
        d_pre = _gelu_bwd(g, pre, phi_cdf)
        d_normed2 = d_pre @ weight.T
        d_x1 = g + _layer_norm_bwd(d_normed2, gain2, inv2, xhat2)
        dq, dk, dv, *d_attn = _attention_bwd(d_x1, normed1, normed1, normed1, attn, cache)
        d_normed1 = (dq + dk) + dv  # backward()'s accumulation order for one parent
        return (
            d_x1 + _layer_norm_bwd(d_normed1, gain1, inv1, xhat1),
            np.add.reduce(d_normed1 * xhat1, axis=0), np.add.reduce(d_normed1, axis=0),
            *d_attn,
            np.add.reduce(d_normed2 * xhat2, axis=0), np.add.reduce(d_normed2, axis=0),
            normed2.T @ d_pre, np.add.reduce(d_pre, axis=0),
        )

    return _make(act, parents, vjp)


def encode(patch_rows: Tensor, keep_indices, params: CodecParams,
           cfg: CodecConfig) -> SemanticTensor:
    """Kept patch rows -> semantic rows (same length, feature_dim wide)."""
    idx = np.asarray(keep_indices, dtype=np.intp)
    if len(idx) == 0:
        raise ContractError("encode requires at least one kept patch")
    x = embed(patch_rows, idx, params, cfg)
    for blk in params.enc_blocks:
        x = _block(x, blk, cfg.num_heads)
    z = layer_norm(x, params.enc_final_gain, params.enc_final_bias, LN_EPS)
    return SemanticTensor(z, idx, cfg.num_patches)


def zero_fill(sem: SemanticTensor) -> Tensor:
    """Scatter semantic rows (of every item of a stack) back to original
    patch order; masked slots are zero vectors.  Position codes are NOT added
    here (decode does that)."""
    return scatter_rows(sem.values, sem.indices, sem.num_patches)


def decode(z_full: Tensor, params: CodecParams, cfg: CodecConfig) -> Tensor:
    """Full-length semantic sequence [N, d] -> reconstructed patch rows; a
    stack [..., N, d] decodes in one pass, forward only."""
    if z_full.shape[-2:] != (cfg.num_patches, cfg.feature_dim):
        raise ShapeError(f"decoder input {z_full.shape} does not match config")
    x = add(z_full, Tensor(params.pos_table))  # re-add position codes
    for blk in params.dec_blocks:
        x = _block(x, blk, cfg.num_heads)
    x = layer_norm(x, params.dec_final_gain, params.dec_final_bias, LN_EPS)
    return add(matmul(x, params.out_w), params.out_b)

