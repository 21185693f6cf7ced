"""Image-quality and link-quality metrics.

PSNR is capped at 100 dB (the value it would take at MSE = max_val^2 * 1e-10)
so identical images do not produce infinities in CSV aggregation.  SSIM uses
an 8x8 uniform sliding window with stride 1, per channel, averaged, with the
standard constants C1 = (0.01 max)^2 and C2 = (0.03 max)^2; images smaller
than the window fall back to global statistics.  Region variants restrict
both metrics to the pixels of located object patches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ctensor import ComplexTensor
from .errors import ContractError, ShapeError
from .masking import PatchGrid
from .tensor import Tensor

__all__ = ["MetricReport", "psnr", "ssim", "region_metric", "nmse"]

PSNR_CAP_DB = 100.0
SSIM_WINDOW = 8
SSIM_K1 = 0.01
SSIM_K2 = 0.03


@dataclass
class MetricReport:
    psnr_db: float
    ssim: float
    region_psnr_db: float
    region_ssim: float
    nmse: float = 0.0


def _img(a) -> np.ndarray:
    return a.data if isinstance(a, Tensor) else np.asarray(a, dtype=np.float64)


def psnr(a, b, max_val: float = 1.0) -> float:
    """10 log10(max_val^2 / MSE), capped at 100 dB for near-identical inputs."""
    x, y = _img(a), _img(b)
    if x.shape != y.shape:
        raise ShapeError(f"psnr shape mismatch {x.shape} vs {y.shape}")
    if max_val <= 0:
        raise ContractError("max_val must be > 0")
    mse = float(np.mean((x - y) ** 2))
    if mse < max_val * max_val * 1e-10:
        return PSNR_CAP_DB
    return 10.0 * math.log10(max_val * max_val / mse)


def _ssim_stats(x: np.ndarray, y: np.ndarray):
    """Window-population means, variances, covariance (any flat pixel set)."""
    mx, my = x.mean(), y.mean()
    vx = ((x - mx) ** 2).mean()
    vy = ((y - my) ** 2).mean()
    cov = ((x - mx) * (y - my)).mean()
    return mx, my, vx, vy, cov


def _ssim_value(mx, my, vx, vy, cov, max_val):
    c1 = (SSIM_K1 * max_val) ** 2
    c2 = (SSIM_K2 * max_val) ** 2
    return ((2 * mx * my + c1) * (2 * cov + c2)) / ((mx * mx + my * my + c1) * (vx + vy + c2))


def _ssim_channel(x: np.ndarray, y: np.ndarray, max_val: float, mask=None) -> float | None:
    """Mean windowed SSIM of one channel; None when no window placement fits.

    With a mask, only windows lying fully inside the masked region count.
    """
    win = SSIM_WINDOW
    h, w = x.shape
    if h < win or w < win:
        return None
    xw = np.lib.stride_tricks.sliding_window_view(x, (win, win)).reshape(-1, win, win)
    yw = np.lib.stride_tricks.sliding_window_view(y, (win, win)).reshape(-1, win, win)
    if mask is not None:
        inside = (
            np.lib.stride_tricks.sliding_window_view(mask, (win, win))
            .reshape(-1, win, win)
            .all(axis=(1, 2))
        )
        if not inside.any():
            return None
        xw, yw = xw[inside], yw[inside]
    mx = xw.mean(axis=(1, 2))
    my = yw.mean(axis=(1, 2))
    vx = xw.var(axis=(1, 2))
    vy = yw.var(axis=(1, 2))
    cov = (xw * yw).mean(axis=(1, 2)) - mx * my
    return float(np.mean(_ssim_value(mx, my, vx, vy, cov, max_val)))


def ssim(a, b, max_val: float = 1.0) -> float:
    """Mean windowed SSIM over all channels (global-stats fallback when the
    image is smaller than the window)."""
    x, y = _img(a), _img(b)
    if x.shape != y.shape:
        raise ShapeError(f"ssim shape mismatch {x.shape} vs {y.shape}")
    if x.ndim == 2:
        x, y = x[None], y[None]
    vals = []
    for ch in range(x.shape[0]):
        v = _ssim_channel(x[ch], y[ch], max_val)
        if v is None:  # tiny image: single global window
            v = _ssim_value(*_ssim_stats(x[ch], y[ch]), max_val)
        vals.append(v)
    return float(np.mean(vals))


def _region_pixel_mask(loc, grid: PatchGrid) -> np.ndarray:
    mask = np.zeros((grid.grid_h * grid.patch_size, grid.grid_w * grid.patch_size), dtype=bool)
    for idx in loc.patch_indices:
        x, y, w, h = grid.patch_bbox(int(idx))
        mask[y : y + h, x : x + w] = True
    return mask


def region_metric(a, b, loc, grid: PatchGrid, which: str, max_val: float = 1.0) -> float:
    """PSNR or SSIM restricted to the pixels of the located patches.

    PSNR averages squared error over region pixels only.  SSIM keeps the
    original geometry but admits only window placements fully inside the
    region, falling back to global statistics over the region's pixels when
    no window fits.
    """
    if len(loc) == 0:
        raise ContractError("region metric needs a non-empty location")
    if which not in ("psnr", "ssim"):
        raise ContractError(f"unknown metric {which!r}")
    x, y = _img(a), _img(b)
    if x.shape != y.shape:
        raise ShapeError(f"region metric shape mismatch {x.shape} vs {y.shape}")
    mask = _region_pixel_mask(loc, grid)

    if which == "psnr":
        if max_val <= 0:
            raise ContractError("max_val must be > 0")
        diff2 = (x[:, mask] - y[:, mask]) ** 2
        mse = float(diff2.mean())
        if mse < max_val * max_val * 1e-10:
            return PSNR_CAP_DB
        return 10.0 * math.log10(max_val * max_val / mse)

    vals = []
    for ch in range(x.shape[0]):
        v = _ssim_channel(x[ch], y[ch], max_val, mask=mask)
        if v is None:  # region too small for any window: global stats on it
            v = _ssim_value(*_ssim_stats(x[ch][mask], y[ch][mask]), max_val)
        vals.append(v)
    return float(np.mean(vals))


def nmse(x: ComplexTensor, x_hat: ComplexTensor, stacked: bool = False):
    """||x_hat - x||^2 / ||x||^2 over complex symbol tensors.

    stacked treats the first axis as T independent signals and returns the
    [T] array of their NMSEs.
    """
    if x.shape != x_hat.shape:
        raise ShapeError(f"nmse shape mismatch {x.shape} vs {x_hat.shape}")
    axes = tuple(range(1, x.data.ndim)) if stacked else None
    ref = np.sum(np.abs(x.data) ** 2, axis=axes)
    if np.any(ref == 0.0):
        raise ContractError("nmse undefined for a zero reference")
    err = np.sum(np.abs(x_hat.data - x.data) ** 2, axis=axes)
    return err / ref if stacked else float(err) / float(ref)
