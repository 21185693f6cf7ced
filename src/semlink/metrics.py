"""Image-quality and link-quality metrics.

PSNR is capped at 100 dB (the value it would take at MSE = max_val^2 * 1e-10)
so identical images do not produce infinities in CSV aggregation.  SSIM uses
an 8x8 uniform sliding window with stride 1, per channel, averaged, with the
standard constants C1 = (0.01 max)^2 and C2 = (0.03 max)^2; images smaller
than the window fall back to global statistics.  Region variants restrict
both metrics to the pixels of located object patches.

image_report scores one reconstruction from two maps: squared error, whose
mean over all or region pixels gives PSNR and region PSNR, and SSIM per
window and channel, whose five window means (x, y, x², y², xy) come from
running sums along each axis.  Global SSIM is the map's mean, region SSIM
its mean over the windows fully inside the region.  psnr, ssim and
region_metric are single-metric views of the same code.  Evaluation runs the
link under tensor.no_grad(), so the images scored here carry no graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError
from .masking import PatchGrid
from .tensor import Tensor

__all__ = ["MetricReport", "image_report", "psnr", "ssim", "region_metric", "nmse"]

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


def _pair(a, b, what: str, max_val: float):
    x, y = _img(a), _img(b)
    if x.shape != y.shape:
        raise ShapeError(f"{what} shape mismatch {x.shape} vs {y.shape}")
    if max_val <= 0:
        raise ContractError("max_val must be > 0")
    return x, y


def _psnr_db(mse: float, max_val: float) -> float:
    """10 log10(max_val^2 / MSE), capped at 100 dB."""
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


def _window_sums(a: np.ndarray) -> np.ndarray:
    """Sum over every SSIM_WINDOW² placement in the last two axes, from
    running sums along each axis in turn: [..., H, W] -> [..., H-7, W-7]."""
    win = SSIM_WINDOW
    for _ in range(2):  # along W, then (after the swap) along H, then swap back
        c = np.cumsum(a, axis=-1)
        sums = c[..., win - 1:].copy()
        sums[..., 1:] -= c[..., :-win]
        a = sums.swapaxes(-1, -2)
    return a


def _ssim_map(x: np.ndarray, y: np.ndarray, max_val: float):
    """SSIM of every window placement, [C, H-7, W-7]; None when none fits."""
    if x.shape[-2] < SSIM_WINDOW or x.shape[-1] < SSIM_WINDOW:
        return None
    n = SSIM_WINDOW * SSIM_WINDOW
    mx, my, exx, eyy, exy = _window_sums(np.stack([x, y, x * x, y * y, x * y])) / n
    return _ssim_value(mx, my, exx - mx * mx, eyy - my * my, exy - mx * my, max_val)


def _ssim_mean(x, y, smap, max_val, mask=None) -> float:
    """Channel mean of the SSIM map's mean over the windows inside mask
    (all windows without one); global statistics of the masked pixels when
    no window lies inside."""
    inside = None
    if smap is not None and mask is not None:
        inside = _window_sums(mask.astype(np.int64)) == SSIM_WINDOW * SSIM_WINDOW
        if not inside.any():
            smap = None
    vals = []
    for ch in range(x.shape[0]):
        if smap is None:
            xs, ys = (x[ch], y[ch]) if mask is None else (x[ch][mask], y[ch][mask])
            vals.append(_ssim_value(*_ssim_stats(xs, ys), max_val))
        else:
            vals.append(np.mean(smap[ch] if inside is None else smap[ch][inside]))
    return float(np.mean(vals))


def _region_pixel_mask(loc, grid: PatchGrid) -> np.ndarray:
    if len(loc) == 0:
        raise ContractError("region metric needs a non-empty location")
    mask = np.zeros((grid.grid_h * grid.patch_size, grid.grid_w * grid.patch_size), dtype=bool)
    for idx in loc.patch_indices:
        x, y, w, h = grid.patch_bbox(int(idx))
        mask[y : y + h, x : x + w] = True
    return mask


def image_report(original, reconstructed, loc, grid: PatchGrid,
                 max_val: float = 1.0) -> MetricReport:
    """PSNR, SSIM and their region variants of one C x H x W reconstruction,
    from one squared-error map and one SSIM map."""
    x, y = _pair(original, reconstructed, "image report", max_val)
    mask = _region_pixel_mask(loc, grid)
    err2 = (x - y) ** 2
    smap = _ssim_map(x, y, max_val)
    return MetricReport(
        psnr_db=_psnr_db(float(np.mean(err2)), max_val),
        ssim=_ssim_mean(x, y, smap, max_val),
        region_psnr_db=_psnr_db(float(err2[:, mask].mean()), max_val),
        region_ssim=_ssim_mean(x, y, smap, max_val, mask),
    )


def psnr(a, b, max_val: float = 1.0) -> float:
    """10 log10(max_val^2 / MSE), capped at 100 dB for near-identical inputs."""
    x, y = _pair(a, b, "psnr", max_val)
    return _psnr_db(float(np.mean((x - y) ** 2)), max_val)


def ssim(a, b, max_val: float = 1.0) -> float:
    """Mean windowed SSIM over all channels (global-stats fallback when the
    image is smaller than the window)."""
    x, y = _pair(a, b, "ssim", max_val)
    if x.ndim == 2:
        x, y = x[None], y[None]
    return _ssim_mean(x, y, _ssim_map(x, y, max_val), max_val)


def region_metric(a, b, loc, grid: PatchGrid, which: str, max_val: float = 1.0) -> float:
    """PSNR or SSIM restricted to the pixels of the located patches.

    PSNR averages squared error over region pixels only.  SSIM keeps the
    original geometry but admits only window placements fully inside the
    region, falling back to global statistics over the region's pixels when
    no window fits.
    """
    if which not in ("psnr", "ssim"):
        raise ContractError(f"unknown metric {which!r}")
    mask = _region_pixel_mask(loc, grid)
    x, y = _pair(a, b, "region metric", max_val)
    if which == "psnr":
        return _psnr_db(float(((x - y) ** 2)[:, mask].mean()), max_val)
    return _ssim_mean(x, y, _ssim_map(x, y, max_val), max_val, mask)


def nmse(x: np.ndarray, x_hat: np.ndarray, stacked: bool = False):
    """||x_hat - x||^2 / ||x||^2 over complex symbol tensors.

    stacked treats the first axis as T independent signals and returns the
    [T] array of their NMSEs.
    """
    if x.shape != x_hat.shape:
        raise ShapeError(f"nmse shape mismatch {x.shape} vs {x_hat.shape}")
    axes = tuple(range(1, x.ndim)) if stacked else None
    ref = np.sum(np.abs(x) ** 2, axis=axes)
    if np.any(ref == 0.0):
        raise ContractError("nmse undefined for a zero reference")
    err = np.sum(np.abs(x_hat - x) ** 2, axis=axes)
    return err / ref if stacked else float(err) / float(ref)
