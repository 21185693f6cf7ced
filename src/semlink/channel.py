"""Physical downlink: power normalization, MIMO fading, L-MMSE detection.

Every call takes a stack of T frames: signals are [T, ...], a ChannelFrame
holds [T, n_r, n_t] matrices, and frame t draws its channel and its noise
from stream t of a sequence of T streams, straight into its slice of one
array per stack (one fill per stream for H and its CSI error, and
rng.complex_normal_stack for the noise), so a frame gives bit-identical
results alone or inside a stack.  One frame is the stack T = 1.  Each
signal's symbols are serialized row-major, zero-padded to a multiple of n_t,
and reshaped into n_t-row blocks under its frame's block-fading channel
matrix.  Detection applies
X_hat = H_hatᴴ (H_hat H_hatᴴ + (noise_var / p_s + n_t csi_error_var) I)⁻¹ Y
blockwise with the estimated CSI and strips the padding.  This is the L-MMSE
estimator for i.i.d. symbols of power p_s when H = H_hat - E with E i.i.d.
CN(0, csi_error_var): the term E X adds p_s n_t csi_error_var to the noise
power a detector built from H_hat sees.  The identity (awgn) channel is
known exactly, so its CSI carries no error: csi_error_var applies to the
Rayleigh and Rician kinds only.

SNR is calibrated per configuration: noise_var is set so the expected
received per-symbol signal power over channel draws divided by noise_var
equals 10**(snr_db/10).  For unit-power fading entries that expectation is
p_s * n_t exactly (Rayleigh and Rician alike), and p_s for the identity
channel, so noise_var scales exactly with SNR.  A ChannelConfig checks its
fields when constructed, so the functions here take every instance as valid.

Signals, channel matrices and detected symbols are plain complex128
ndarrays.  Finiteness is checked twice per pass, once each with
np.isfinite(...).all(): on the signal where it enters transmit, and on the
detector's output in lmmse_detect.  A NaN or Inf in H or H_hat propagates
into that output (or makes the solve fail, which lmmse_detect then reports
as non-finite CSI), so it raises NonFiniteError before reaching a decoder.

Training never touches this statistical channel; it uses surrogate_channel,
a differentiable per-entry gain-plus-noise map over the interleaved real
view, with gains drawn from the matching fading component marginals and
treated as constants by autodiff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, NonFiniteError, NumericError, ShapeError
from .rng import RngStream, _complex_rows, _normal_rows, complex_normal_stack
from .tensor import Tensor, add, mul

__all__ = [
    "ChannelConfig",
    "ChannelFrame",
    "normalize_power",
    "power_scale",
    "calibrate_noise",
    "draw_channel",
    "transmit",
    "lmmse_detect",
    "transmit_detect",
    "surrogate_channel",
]

_INV_FLOOR = 1e-12


@dataclass(frozen=True)
class ChannelConfig:
    kind: str = "awgn"  # awgn | rayleigh | rician
    snr_db: float = 10.0
    n_t: int = 1
    n_r: int = 1
    rician_r: float = 1.0
    csi_error_var: float = 0.0
    p_s: float = 1.0  # max average symbol power (normalization target)

    def __post_init__(self):
        if self.kind not in ("awgn", "rayleigh", "rician"):
            raise ConfigError(f"unknown channel kind {self.kind!r}")
        if self.n_t < 1 or self.n_r < 1:
            raise ConfigError("antenna counts must be >= 1")
        if self.kind == "awgn" and self.n_t != self.n_r:
            raise ConfigError("awgn (identity) channel requires n_t == n_r")
        if min(self.rician_r, self.csi_error_var) < 0:
            raise ConfigError("rician_r and csi_error_var must be >= 0")
        if self.p_s <= 0:
            raise ConfigError("p_s must be > 0")
        # snr_db = inf is the noiseless channel
        if self.snr_db != math.inf and not 0.0 < calibrate_noise(self) < math.inf:
            raise ConfigError(f"snr_db {self.snr_db:g} at p_s {self.p_s:g} puts the noise "
                              "variance outside the float range")

    @property
    def effective_csi_error_var(self) -> float:
        """CSI error variance of the drawn channel (0 for the exact identity)."""
        return 0.0 if self.kind == "awgn" else self.csi_error_var


@dataclass
class ChannelFrame:
    h: np.ndarray  # true channels [T, n_r, n_t]
    h_hat: np.ndarray  # estimated CSI [T, n_r, n_t]
    noise_var: float
    p_s: float = 1.0  # symbol power the detector assumes
    csi_error_var: float = 0.0  # variance of the CSI error entries H_hat - H


def power_scale(x: np.ndarray, p_s: float) -> np.ndarray:
    """Per-signal factors bringing the mean per-symbol power of each signal
    of the stack x [T, ...] exactly to p_s, shaped [T, 1, ..., 1]."""
    mean_pow = np.mean(np.abs(x) ** 2, axis=tuple(range(1, x.ndim)), keepdims=True)
    if np.any(mean_pow == 0.0):
        raise ContractError("cannot normalize an all-zero signal")
    with np.errstate(over="ignore"):
        s = np.sqrt(p_s / mean_pow)
    # p_s near either end of the float range: the ratio of the roots stays inside
    return np.where(np.isinf(s) | (s == 0.0), np.sqrt(p_s) / np.sqrt(mean_pow), s)


def normalize_power(x: np.ndarray, p_s: float) -> np.ndarray:
    """Rescale each signal of the stack x so its mean per-symbol power is p_s."""
    return x * power_scale(x, p_s)


# -- calibration --------------------------------------------------------------


def calibrate_noise(cfg: ChannelConfig) -> float:
    """Noise variance hitting the configured SNR for p_s-power inputs.

    The mean per-receive-symbol gain E||H||_F^2 / n_r is n_t for Rayleigh and
    Rician fading (unit-power entries: mu^2 + sigma^2 = 1) and 1 for the
    identity channel; nan where the result leaves the float range.
    """
    gain = 1.0 if cfg.kind == "awgn" else float(cfg.n_t)
    try:
        return cfg.p_s * gain / 10.0 ** (cfg.snr_db / 10.0)
    except (OverflowError, ZeroDivisionError):
        return math.nan


# -- channel draws -------------------------------------------------------------


def draw_channel(cfg: ChannelConfig, rngs) -> ChannelFrame:
    """One block-fading realization plus its (possibly corrupted) CSI from
    each of T >= 1 streams, as a frame of [T, n_r, n_t] matrices.  Stream t
    draws H then the CSI error in one fill of its slice of the stack (a
    stream listed twice draws both for one frame, then both for the next)."""
    if len(rngs) < 1:
        raise ShapeError("a channel draw needs at least one stream")
    shape = (cfg.n_r, cfg.n_t)
    csi_var = cfg.effective_csi_error_var
    if cfg.kind == "awgn":
        eye = np.eye(cfg.n_r, cfg.n_t, dtype=np.complex128)
        h = np.broadcast_to(eye, (len(rngs), *shape)).copy()
        h_hat = h.copy()  # exact CSI, in its own array
    else:
        # [T, H | CSI error, re | im, n_r, n_t]
        buf = _normal_rows(rngs, (2 if csi_var > 0 else 1, 2, *shape))
        if cfg.kind == "rayleigh":
            h = _complex_rows(buf[:, 0], 0.0, 1.0)
        else:
            r = cfg.rician_r
            h = _complex_rows(buf[:, 0], math.sqrt(r / (r + 1.0)), 1.0 / (r + 1.0))
        h_hat = h + _complex_rows(buf[:, 1], 0.0, csi_var) if csi_var > 0 else h.copy()
    return ChannelFrame(h, h_hat, calibrate_noise(cfg), cfg.p_s, csi_var)


# -- transmission and detection -------------------------------------------------


def _check_stack(shape: tuple, frame: ChannelFrame, what: str) -> int:
    """Number T of frames; shape must start with it."""
    t = len(frame.h)
    if tuple(shape[:1]) != (t,):
        raise ShapeError(f"{what} {shape} does not match a stack of {t} frames")
    return t


def _to_blocks(x: np.ndarray, t: int, n_t: int) -> np.ndarray:
    """[T, n_t, m] blocks filled column-wise, zero-padded to m * n_t."""
    flat = x.reshape(t, -1)
    count = flat.shape[-1]
    m = -(-count // n_t)  # ceil
    padded = np.zeros((t, m * n_t), dtype=np.complex128)
    padded[:, :count] = flat
    return padded.reshape(t, m, n_t).swapaxes(-1, -2)


def transmit(x: np.ndarray, frame: ChannelFrame, rngs) -> np.ndarray:
    """Y = H X_blocks + N with i.i.d. CN(0, noise_var) entries, the noise of
    frame t drawn from rngs[t].

    A non-finite signal raises NonFiniteError; a number of streams other
    than T raises ShapeError, also when the frame is noiseless.
    """
    if not np.isfinite(x).all():
        raise NonFiniteError("transmit rejected a non-finite signal")
    t = _check_stack(x.shape, frame, "signal")
    if len(rngs) != t:
        raise ShapeError(f"{len(rngs)} noise streams do not match {t} frames")
    y = frame.h @ _to_blocks(x, t, frame.h.shape[-1])
    if frame.noise_var > 0:
        y += complex_normal_stack(rngs, y.shape[1:], 0.0, frame.noise_var)
    return y


def lmmse_detect(y: np.ndarray, frame: ChannelFrame, out_shape: tuple) -> np.ndarray:
    """L-MMSE detection with estimated CSI, counting its error as noise.

    Strips the zero-padding and returns the symbols in the [T, ...] layout
    out_shape.  A non-finite output (from non-finite y, H or H_hat) raises
    NonFiniteError.
    """
    hh = frame.h_hat
    if y.ndim != hh.ndim or y.shape[:-1] != hh.shape[:-1]:
        raise ShapeError(f"received blocks {y.shape} do not match CSI {hh.shape}")
    hh_h = hh.conj().swapaxes(-1, -2)
    reg = max(frame.noise_var / frame.p_s + hh.shape[-1] * frame.csi_error_var, _INV_FLOOR)
    # a CSI error near the float range overflows here; the checks below report it
    with np.errstate(over="ignore", invalid="ignore"):
        gram = hh @ hh_h + reg * np.eye(hh.shape[-2])
        try:
            w = np.linalg.solve(gram, y)
        except np.linalg.LinAlgError as exc:
            if not np.isfinite(hh).all():
                raise NonFiniteError("detection rejected non-finite CSI") from exc
            raise NumericError(f"detection system singular: {exc}") from exc
        xb = hh_h @ w
    if not np.isfinite(xb).all():
        raise NonFiniteError("detection produced non-finite symbols")
    t = _check_stack(out_shape, frame, "output")
    count = math.prod(out_shape[1:])
    flat = xb.swapaxes(-1, -2).reshape(t, -1)
    if count > flat.shape[-1]:
        raise ShapeError(f"requested {count} symbols from {flat.shape[-1]} detected")
    return flat[..., :count].reshape(out_shape)


def transmit_detect(x: np.ndarray, frame: ChannelFrame, rngs) -> np.ndarray:
    """Round trip preserving the input layout exactly."""
    y = transmit(x, frame, rngs)
    return lmmse_detect(y, frame, out_shape=x.shape)


# -- differentiable training surrogate ------------------------------------------


def surrogate_gains(cfg: ChannelConfig, shape, rng: RngStream) -> np.ndarray:
    """Per-entry real gains over the interleaved (re, im) view.

    Entries follow the component marginals of the configured fading law:
    ones for awgn, N(0, 1/2) for rayleigh, and N(mu, var/2) on re-slots /
    N(0, var/2) on im-slots for rician.
    """
    if cfg.kind == "awgn":
        return np.ones(shape)
    if cfg.kind == "rayleigh":
        return rng.normal(shape, 0.0, math.sqrt(0.5))
    mu = math.sqrt(cfg.rician_r / (cfg.rician_r + 1.0))
    std = math.sqrt(0.5 / (cfg.rician_r + 1.0))
    w = rng.normal(shape, 0.0, std)
    w[..., 0::2] += mu
    return w


def surrogate_channel(x: Tensor, cfg: ChannelConfig, rng: RngStream) -> Tensor:
    """Differentiable stand-in for the downlink: y = w * x + b.

    w (fading gains) and b (noise, variance noise_var/2 per real slot) are
    drawn per call and enter the graph as constants, so gradients flow to x
    only.
    """
    if x.shape[-1] % 2:
        raise ShapeError("surrogate expects an interleaved real view (even width)")
    w = surrogate_gains(cfg, x.shape, rng)
    noise_var = calibrate_noise(cfg)
    b = rng.normal(x.shape, 0.0, math.sqrt(noise_var / 2.0)) if noise_var > 0 else np.zeros(x.shape)
    return add(mul(x, Tensor(w)), Tensor(b))
