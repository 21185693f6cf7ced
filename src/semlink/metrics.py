"""Image-quality and link-quality metrics.

PSNR is capped at 100 dB (the value it would take at MSE = max_val^2 * 1e-10)
so identical images do not produce infinities in CSV aggregation.  SSIM uses
an 8x8 uniform sliding window with stride 1, per channel, averaged, with the
standard constants C1 = (0.01 max)^2 and C2 = (0.03 max)^2; images smaller
than the window fall back to global statistics.  Region variants restrict
both metrics to the pixels of the located object patches (loc, sorted
indices), which PatchGrid.pixel_mask maps to pixels.

image_report scores one reconstruction from two maps: squared error, whose
mean over all or region pixels gives PSNR and region PSNR, and SSIM per
window and channel, whose five window means (x, y, x², y², xy) come from
running sums along each axis.  Global SSIM is the map's mean, region SSIM
its mean over the windows fully inside the region.  The original's half
(region pixel mask, windows inside it, window means of x and x²) is a
ReferenceImage, built once and shared by every reconstruction of that
original; its reports score a stack of reconstructions with one pass of
the maps and one reduction per field over the whole stack, each image's
values summed in the element order of its own per-image mean (so item s has
the bits of reconstruction s scored alone), and image_report is one
reference scoring one reconstruction.  psnr,
ssim and region_metric are single-metric views of the same code.  Evaluation
runs the link under tensor.no_grad(), so the images scored here carry no
graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError
from .masking import PatchGrid
from .tensor import Tensor

__all__ = ["MetricReport", "ReferenceImage", "image_report", "psnr", "ssim", "region_metric",
           "nmse"]

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


def _window_means(a: np.ndarray):
    """Means of a and a² over every window placement, [2, ..., H-7, W-7];
    None when no window fits."""
    if a.shape[-2] < SSIM_WINDOW or a.shape[-1] < SSIM_WINDOW:
        return None
    return _window_sums(np.stack([a, a * a])) / (SSIM_WINDOW * SSIM_WINDOW)


def _ssim_map(x: np.ndarray, y: np.ndarray, x_means, max_val: float):
    """SSIM of every window placement, [..., C, H-7, W-7], of y or a stack of
    y [..., C, H, W] against x, given the original's window means
    _window_means(x); None when no window fits."""
    if x_means is None:
        return None
    mx, exx = x_means
    my, eyy, exy = _window_sums(np.stack([y, y * y, x * y])) / (SSIM_WINDOW * SSIM_WINDOW)
    return _ssim_value(mx, my, exx - mx * mx, eyy - my * my, exy - mx * my, max_val)


def _flat_means(a: np.ndarray) -> np.ndarray:
    """Means over the last axis of a contiguous array: each row summed as
    np.mean sums the same values as one contiguous run."""
    return np.add.reduce(a, axis=-1) / a.shape[-1]


def _ssim_mean(smaps: np.ndarray) -> np.ndarray:
    """Channel mean of the mean of each SSIM map, [..., C, h, w] -> [...].
    The map is a swapped view; like np.mean of one map, the reduction runs
    in its memory order."""
    return _flat_means(np.add.reduce(smaps, axis=(-2, -1)) / (smaps.shape[-2] * smaps.shape[-1]))


def _global_ssim(x, y, max_val, mask=None) -> float:
    """Channel mean of the SSIM of each channel's global statistics over its
    (masked) pixels: the fallback when no window fits (inside the region)."""
    vals = []
    for ch in range(x.shape[0]):
        xs, ys = (x[ch], y[ch]) if mask is None else (x[ch][mask], y[ch][mask])
        vals.append(_ssim_value(*_ssim_stats(xs, ys), max_val))
    return float(np.mean(vals))


@dataclass(frozen=True)
class ReferenceImage:
    """The original image's half of image_report, computed once and shared by
    every reconstruction scored against the same original and region."""

    x: np.ndarray  # original C x H x W
    mask: np.ndarray  # region pixels, H x W
    x_means: np.ndarray | None  # _window_means(x); None when no window fits
    inside: np.ndarray | None  # windows fully inside the region; None when none is
    max_val: float

    @staticmethod
    def of(original, loc, grid: PatchGrid, max_val: float = 1.0) -> "ReferenceImage":
        if max_val <= 0:
            raise ContractError("max_val must be > 0")
        if len(loc) == 0:
            raise ContractError("region metric needs a non-empty location")
        x = _img(original)
        mask = grid.pixel_mask(loc)
        x_means = _window_means(x)
        inside = None
        if x_means is not None:
            inside = _window_sums(mask.astype(np.int64)) == SSIM_WINDOW * SSIM_WINDOW
            inside = inside if inside.any() else None
        return ReferenceImage(x, mask, x_means, inside, max_val)

    def reports(self, reconstructed) -> list:
        """PSNR, SSIM and their region variants of each reconstruction of a
        stack [S, C, H, W], from one squared-error map and one SSIM map of
        the whole stack, each field one reduction over the stack; item s
        equals report of reconstruction s."""
        x, ys, max_val = self.x, np.ascontiguousarray(_img(reconstructed)), self.max_val
        if ys.shape[1:] != x.shape:
            raise ShapeError(f"image report shape mismatch {x.shape} vs {ys.shape[1:]}")
        n = len(ys)
        if n == 0:
            return []
        err2 = (x - ys) ** 2
        mse = _flat_means(err2.reshape(n, -1))
        # pixel-major, the memory order of one image's err2[:, mask]
        region_mse = _flat_means(np.ascontiguousarray(
            err2.transpose(0, 2, 3, 1)[:, self.mask]).reshape(n, -1))
        smaps = _ssim_map(x, ys, self.x_means, max_val)
        ssims = [_global_ssim(x, y, max_val) for y in ys] if smaps is None else _ssim_mean(smaps)
        if smaps is None or self.inside is None:
            region_ssims = [_global_ssim(x, y, max_val, self.mask) for y in ys]
        else:  # each channel's inside windows, in the order of the per-map smap[inside]
            region_ssims = _flat_means(_flat_means(np.ascontiguousarray(smaps[:, :, self.inside])))
        return [MetricReport(_psnr_db(float(m), max_val), float(s),
                             _psnr_db(float(rm), max_val), float(rs))
                for m, s, rm, rs in zip(mse, ssims, region_mse, region_ssims)]

    def report(self, reconstructed) -> MetricReport:
        """PSNR, SSIM and their region variants of one reconstruction."""
        return self.reports(_img(reconstructed)[None])[0]


def image_report(original, reconstructed, loc, grid: PatchGrid,
                 max_val: float = 1.0) -> MetricReport:
    """PSNR, SSIM and their region variants of one C x H x W reconstruction."""
    return ReferenceImage.of(original, loc, grid, max_val).report(reconstructed)


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
    smap = _ssim_map(x, y, _window_means(x), max_val)
    return _global_ssim(x, y, max_val) if smap is None else float(_ssim_mean(smap))


def region_metric(a, b, loc, grid: PatchGrid, which: str, max_val: float = 1.0) -> float:
    """PSNR or SSIM restricted to the pixels of the located patches.

    PSNR averages squared error over region pixels only.  SSIM keeps the
    original geometry but admits only window placements fully inside the
    region, falling back to global statistics over the region's pixels when
    no window fits.
    """
    if which not in ("psnr", "ssim"):
        raise ContractError(f"unknown metric {which!r}")
    report = image_report(a, b, loc, grid, max_val)
    return report.region_psnr_db if which == "psnr" else report.region_ssim


def nmse(x: np.ndarray, x_hat: np.ndarray) -> np.ndarray:
    """||x_hat - x||^2 / ||x||^2 of each signal of the complex stacks
    x, x_hat [T, ...]; returns the [T] array of NMSEs."""
    if x.shape != x_hat.shape:
        raise ShapeError(f"nmse shape mismatch {x.shape} vs {x_hat.shape}")
    axes = tuple(range(1, x.ndim))
    ref = np.sum(np.abs(x) ** 2, axis=axes)
    if np.any(ref == 0.0):
        raise ContractError("nmse undefined for a zero reference")
    return np.sum(np.abs(x_hat - x) ** 2, axis=axes) / ref
