"""Trainable linear channel codec.

One affine layer per direction: the encoder compresses each semantic row of
width feature_dim to 2*symbol_dim reals, read as symbol_dim complex symbols
with interleaved (re, im) pairs; the decoder inverts the layout and maps
back to feature_dim.  The *_real maps take Tensors so training can
differentiate through the surrogate channel; chan_encode/chan_decode apply
the same maps to plain ndarrays for the forward-only fading channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ctensor import complex_to_real_view, real_view_to_complex
from .errors import ConfigError, NonFiniteError, ShapeError
from .rng import RngStream
from .tensor import Tensor, add, matmul

__all__ = [
    "ChanCodecParams",
    "chan_encode",
    "chan_decode",
    "chan_encode_real",
    "chan_decode_real",
    "inverse_params",
]


@dataclass
class ChanCodecParams:
    enc_weight: Tensor  # [feature_dim, 2*symbol_dim]
    enc_bias: Tensor  # [2*symbol_dim]
    dec_weight: Tensor  # [2*symbol_dim, feature_dim]
    dec_bias: Tensor  # [feature_dim]

    @property
    def feature_dim(self) -> int:
        return self.enc_weight.shape[0]

    @property
    def symbol_dim(self) -> int:
        return self.enc_weight.shape[1] // 2

    @staticmethod
    def init(feature_dim: int, symbol_dim: int, rng: RngStream) -> "ChanCodecParams":
        if symbol_dim < 1:
            raise ConfigError("symbol_dim must be >= 1")
        two_dc = 2 * symbol_dim
        return ChanCodecParams(
            enc_weight=Tensor(
                rng.substream(1).normal((feature_dim, two_dc), std=1.0 / np.sqrt(feature_dim)),
                requires_grad=True,
            ),
            enc_bias=Tensor(np.zeros(two_dc), requires_grad=True),
            dec_weight=Tensor(
                rng.substream(2).normal((two_dc, feature_dim), std=1.0 / np.sqrt(two_dc)),
                requires_grad=True,
            ),
            dec_bias=Tensor(np.zeros(feature_dim), requires_grad=True),
        )

    def tensors(self, prefix: str = "chan") -> dict:
        return {
            f"{prefix}.enc_weight": self.enc_weight,
            f"{prefix}.enc_bias": self.enc_bias,
            f"{prefix}.dec_weight": self.dec_weight,
            f"{prefix}.dec_bias": self.dec_bias,
        }

    def trainables(self) -> list:
        return [self.enc_weight, self.enc_bias, self.dec_weight, self.dec_bias]


def chan_encode_real(values: Tensor, params: ChanCodecParams) -> Tensor:
    """Row-wise affine map to the interleaved real view [L, 2*symbol_dim]."""
    if values.shape[1] != params.feature_dim:
        raise ShapeError(f"rows of width {values.shape[1]} vs codec feature_dim {params.feature_dim}")
    return add(matmul(values, params.enc_weight), params.enc_bias)


def chan_decode_real(view: Tensor, params: ChanCodecParams) -> Tensor:
    if view.shape[1] != 2 * params.symbol_dim:
        raise ShapeError(f"view width {view.shape[1]} vs 2*symbol_dim {2 * params.symbol_dim}")
    return add(matmul(view, params.dec_weight), params.dec_bias)


def chan_encode(values: np.ndarray, params: ChanCodecParams) -> np.ndarray:
    """Semantic rows [L, feature_dim] -> complex symbols [L, symbol_dim]."""
    if values.ndim != 2 or values.shape[1] != params.feature_dim:
        raise ShapeError(f"rows {values.shape} vs codec feature_dim {params.feature_dim}")
    view = values @ params.enc_weight.data + params.enc_bias.data
    if not np.isfinite(view).all():
        raise NonFiniteError("channel encoder produced non-finite values")
    return real_view_to_complex(view)


def chan_decode(x_hat: np.ndarray, params: ChanCodecParams) -> np.ndarray:
    """Detected symbols [..., L, symbol_dim] -> semantic rows; NonFiniteError if not finite."""
    if x_hat.ndim < 2 or x_hat.shape[-1] != params.symbol_dim:
        raise ShapeError(f"symbols {x_hat.shape} vs symbol_dim {params.symbol_dim}")
    out = complex_to_real_view(x_hat) @ params.dec_weight.data + params.dec_bias.data
    if not np.isfinite(out).all():
        raise NonFiniteError("channel decoder produced non-finite values")
    return out


def inverse_params(params: ChanCodecParams) -> ChanCodecParams:
    """Decoder weights set to the least-squares inverse of the encoder.

    Exact when 2*symbol_dim >= feature_dim; otherwise it is the best linear
    reconstruction in the least-squares sense.
    """
    w = params.enc_weight.data
    b = params.enc_bias.data
    pinv = np.linalg.pinv(w)
    return ChanCodecParams(
        enc_weight=Tensor(w.copy()),
        enc_bias=Tensor(b.copy()),
        dec_weight=Tensor(pinv),
        dec_bias=Tensor(-b @ pinv),
    )
