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
blockwise with the estimated CSI, its regularizer set per frame, and strips
the padding.  fading_cells draws H, the standardized CSI error and noise once
for C cells that differ in SNR and CSI error, scales them to every cell, and
detects all C * T frames as one stack.  This is the L-MMSE
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
ndarrays.  Finiteness is checked three times per pass, each with
np.isfinite(...).all(): on the signal where it enters transmit, on the
detector's gram H_hat H_hatᴴ + reg I, and on the detector's output.  A NaN
or Inf in H or H_hat, or a CSI error so large that the gram overflows,
raises NonFiniteError before reaching a decoder.

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
    "fading_cells",
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
    cfg: ChannelConfig | None = None  # the configuration draw_channel drew it for


def power_scale(x: np.ndarray, p_s: float) -> np.ndarray:
    """Per-signal factors bringing the mean per-symbol power of each signal
    of the stack x [T, ...] exactly to p_s, shaped [T, 1, ..., 1]."""
    # np.mean's arithmetic without its wrapper's overhead
    mean_pow = ((np.abs(x) ** 2).sum(axis=tuple(range(1, x.ndim)), keepdims=True)
                / math.prod(x.shape[1:]))
    if np.any(mean_pow == 0.0):
        raise ContractError("cannot normalize an all-zero signal")
    with np.errstate(over="ignore"):
        s = np.sqrt(p_s / mean_pow)
    # p_s near either end of the float range: the ratio of the roots stays inside
    bad = np.isinf(s) | (s == 0.0)
    return np.where(bad, np.sqrt(p_s) / np.sqrt(mean_pow), s) if bad.any() else s


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


def _draw_h(cfg: ChannelConfig, rngs, with_csi: bool):
    """H [T, n_r, n_t], and with_csi the standardized CSI error drawn after it."""
    shape = (cfg.n_r, cfg.n_t)
    if cfg.kind == "awgn":
        return np.broadcast_to(np.eye(*shape, dtype=complex), (len(rngs), *shape)).copy(), None
    # [T, H | CSI error, re | im, n_r, n_t]; Rayleigh is the Rician law at r = 0
    buf = _normal_rows(rngs, (2 if with_csi else 1, 2, *shape))
    r = cfg.rician_r if cfg.kind == "rician" else 0.0
    h = _complex_rows(buf[:, 0], math.sqrt(r / (r + 1.0)), 1.0 / (r + 1.0))
    return h, (buf[:, 1] if with_csi else None)


def draw_channel(cfg: ChannelConfig, rngs) -> ChannelFrame:
    """One block-fading realization plus its (possibly corrupted) CSI from
    each of T >= 1 streams, as a frame of [T, n_r, n_t] matrices.  Stream t
    draws H then the CSI error in one fill of its slice of the stack (a
    stream listed twice draws both for one frame, then both for the next)."""
    if len(rngs) < 1:
        raise ShapeError("a channel draw needs at least one stream")
    csi_var = cfg.effective_csi_error_var
    h, err = _draw_h(cfg, rngs, csi_var > 0)
    h_hat = h + _complex_rows(err, 0.0, csi_var) if csi_var > 0 else h.copy()
    return ChannelFrame(h, h_hat, calibrate_noise(cfg), cfg.p_s, csi_var, cfg)


# -- transmission and detection -------------------------------------------------


def _check_stack(shape: tuple, frame: ChannelFrame, what: str) -> int:
    """Number T of frames; shape must start with it."""
    t = len(frame.h)
    if tuple(shape[:1]) != (t,):
        raise ShapeError(f"{what} {shape} does not match a stack of {t} frames")
    return t


def _to_blocks(x: np.ndarray, t: int, n_t: int) -> np.ndarray:
    """[T, n_t, m] blocks filled column-wise, zero-padded to m * n_t (or a view of x)."""
    flat = x.reshape(t, -1)
    count = flat.shape[-1]
    m = -(-count // n_t)  # ceil
    if count < m * n_t or not (flat.flags.c_contiguous and flat.dtype == np.complex128):
        flat = np.zeros((t, m * n_t), dtype=np.complex128)
        flat[:, :count] = x.reshape(t, -1)
    return flat.reshape(t, m, n_t).swapaxes(-1, -2)


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


def _detect(y: np.ndarray, hh: np.ndarray, reg, out_shape: tuple) -> np.ndarray:
    """L-MMSE symbols [..., *out_shape] from y under hh, reg a float or per frame."""
    hh_h = hh.conj().swapaxes(-1, -2)
    # a CSI error near the float range overflows here; the checks below report it
    with np.errstate(over="ignore", invalid="ignore"):
        gram = hh @ hh_h + reg * np.eye(hh.shape[-2])
        if not np.isfinite(gram).all():
            raise NonFiniteError("detection rejected a non-finite CSI gram")
        try:
            xb = hh_h @ np.linalg.solve(gram, y)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"detection system singular: {exc}") from exc
    if not np.isfinite(xb).all():
        raise NonFiniteError("detection produced non-finite symbols")
    count = math.prod(out_shape[1:])
    flat = xb.swapaxes(-1, -2).reshape(*xb.shape[:-2], -1)
    if count > flat.shape[-1]:
        raise ShapeError(f"requested {count} symbols from {flat.shape[-1]} detected")
    return flat[..., :count].reshape(*xb.shape[:-3], *out_shape)


def lmmse_detect(y: np.ndarray, frame: ChannelFrame, out_shape: tuple) -> np.ndarray:
    """L-MMSE detection with estimated CSI, counting its error as noise.

    Strips the zero-padding and returns the symbols in the [T, ...] layout
    out_shape.  A non-finite gram or output (from non-finite y, H or H_hat,
    or a CSI error overflowing the gram) raises NonFiniteError.
    """
    hh = frame.h_hat
    if y.ndim != hh.ndim or y.shape[:-1] != hh.shape[:-1]:
        raise ShapeError(f"received blocks {y.shape} do not match CSI {hh.shape}")
    _check_stack(out_shape, frame, "output")
    reg = max(frame.noise_var / frame.p_s + hh.shape[-1] * frame.csi_error_var, _INV_FLOOR)
    return _detect(y, hh, reg, out_shape)


def transmit_detect(x: np.ndarray, frame: ChannelFrame, rngs) -> np.ndarray:
    """Round trip preserving the input layout exactly."""
    y = transmit(x, frame, rngs)
    return lmmse_detect(y, frame, out_shape=x.shape)


def _fixed_by_frame(cfg: ChannelConfig) -> tuple:
    """The fields a frame drawn for cfg holds for every cell: all but snr_db."""
    return (cfg.kind, cfg.n_t, cfg.n_r, cfg.rician_r, cfg.csi_error_var, cfg.p_s)


def fading_cells(x: np.ndarray, cfgs: list, rngs, frame=None) -> np.ndarray:
    """T signals [T, ...] over C cells of one kind differing only in SNR and
    CSI error -> [C, T, ...] detected symbols at their original power.  One
    draw of H (rngs[t].substream(1), or a given frame's H and H_hat), CSI
    error and noise (substream(2)) is scaled to every cell: item (c, t) has
    the bits of signal t sent alone over cell c.  A given frame's H must be
    [T, n_r, n_t] of the cells (ShapeError), and a frame that draw_channel
    drew must come from a configuration that differs from every cell in
    snr_db alone (ContractError): its H_hat carries one CSI error, so with a
    frame the cells differ in SNR only."""
    cfg, t = cfgs[0], len(x)
    if len(cfgs) > 1 and len({(c.kind, c.n_t, c.n_r, c.rician_r, c.p_s) for c in cfgs}) > 1:
        raise ContractError("the cells of one fading pass differ beyond SNR and CSI error")
    if len(rngs) != t:
        raise ShapeError(f"{len(rngs)} streams do not match {t} signals")
    s = power_scale(x, cfg.p_s)
    xs = x * s
    if not np.isfinite(xs).all():
        raise NonFiniteError("transmit rejected a non-finite signal")
    csi, noise = [c.effective_csi_error_var for c in cfgs], [calibrate_noise(c) for c in cfgs]
    if frame is None:
        h, err = _draw_h(cfg, [r.substream(1) for r in rngs], max(csi) > 0)
    else:
        if frame.h.shape != (t, cfg.n_r, cfg.n_t):
            raise ShapeError(f"frame channels {frame.h.shape} do not fit {t} signals over "
                             f"{cfg.n_r}x{cfg.n_t} cells")
        if frame.cfg is not None and ({_fixed_by_frame(c) for c in cfgs}
                                      != {_fixed_by_frame(frame.cfg)}):
            raise ContractError(f"a frame drawn for {frame.cfg} crosses cells that differ from "
                                "it beyond snr_db")
        h = frame.h
    hx = h @ _to_blocks(xs, t, cfg.n_t)
    if max(noise) > 0:
        std = _normal_rows([r.substream(2) for r in rngs], (2, *hx.shape[1:]))
    hh = np.empty((len(cfgs), *h.shape), dtype=complex)
    y = np.empty((len(cfgs), *hx.shape), dtype=complex)
    for c, (e, v) in enumerate(zip(csi, noise)):  # each cell scales a copy of the one draw
        hh[c] = (frame.h_hat if frame is not None else
                 h + _complex_rows(err.copy(), 0.0, e) if e > 0 else h)
        y[c] = hx
        if v > 0:  # the last noisy cell scales the draw itself
            y[c] += _complex_rows(std.copy() if any(noise[c + 1:]) else std, 0.0, v)
    reg = np.array([max(v / cfg.p_s + cfg.n_t * e, _INV_FLOOR) for v, e in zip(noise, csi)])
    return _detect(y, hh, reg[:, None, None, None], x.shape) * (1.0 / s)


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
