"""Patch bookkeeping and location-informed Bernoulli masking.

An image is cut into a grid of square patches, numbered row-major.  A set of
patches is a sorted, unique np.intp array of these indices, and PatchGrid
alone maps boxes to patches and patches to pixels.  The mask sampler takes
the object patches R (from the scene locator) and masks each patch
independently: object patches with probability p, background patches with
probability 1 - p.  Keeping p below 0.5 biases the kept set towards object
pixels.  A uniform sampler of a given kept count is the baseline being
compared against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .rng import RngStream
from .tensor import Tensor, permute_axes, reshape

__all__ = [
    "PatchGrid",
    "MaskPlan",
    "patchify",
    "unpatchify",
    "sample_mask",
    "random_mask",
]


@dataclass(frozen=True)
class PatchGrid:
    """Square-patch partition of a C x H x W image."""

    patch_size: int
    grid_h: int
    grid_w: int
    channels: int

    @staticmethod
    def for_image(shape, patch_size: int) -> "PatchGrid":
        c, h, w = shape
        if h % patch_size or w % patch_size:
            raise ConfigError(f"image {h}x{w} not divisible by patch size {patch_size}")
        return PatchGrid(patch_size, h // patch_size, w // patch_size, c)

    @property
    def num_patches(self) -> int:
        return self.grid_h * self.grid_w

    @property
    def patch_dim(self) -> int:
        return self.channels * self.patch_size * self.patch_size

    def patch_bbox(self, index: int):
        """Pixel rectangle (x, y, w, h) of one patch."""
        r, c = divmod(index, self.grid_w)
        p = self.patch_size
        return (c * p, r * p, p, p)

    def patches_overlapping(self, bboxes) -> np.ndarray:
        """Sorted indices of the patches sharing at least one pixel with any
        of the (x, y, w, h) boxes."""
        hit = np.zeros((self.grid_h, self.grid_w), dtype=bool)
        p = self.patch_size
        for x, y, w, h in bboxes:
            hit[y // p : (y + h - 1) // p + 1, x // p : (x + w - 1) // p + 1] = True
        return np.flatnonzero(hit)

    def pixel_mask(self, indices) -> np.ndarray:
        """H x W bool mask of the pixels of the given patches."""
        hit = np.zeros(self.num_patches, dtype=bool)
        hit[indices] = True
        p = self.patch_size
        return hit.reshape(self.grid_h, self.grid_w).repeat(p, axis=0).repeat(p, axis=1)


@dataclass
class MaskPlan:
    """Per-patch keep/mask decisions plus the index bookkeeping."""

    masked: np.ndarray  # bool per patch
    object_indices: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))  # R
    object_mask_prob: float = 0.0  # p applied to R; 1 - p to the rest
    keep_indices: np.ndarray = field(init=False)  # sorted kept (unmasked) patch indices

    def __post_init__(self):
        self.masked = np.asarray(self.masked, dtype=bool)
        self.keep_indices = np.flatnonzero(~self.masked)

    @property
    def num_patches(self) -> int:
        return len(self.masked)

    @property
    def keep_count(self) -> int:
        return len(self.keep_indices)

    def to_json(self) -> str:
        return json.dumps(
            {
                "p_r": self.object_mask_prob,
                "keep": self.keep_indices.tolist(),
                "object": self.object_indices.tolist(),
            }
        )


def patchify(image: np.ndarray, grid: PatchGrid) -> np.ndarray:
    """[C,H,W] image -> [num_patches, patch_dim] rows in row-major grid order.

    Row i is the channel-first flattening of the patch at
    (i // grid_w, i % grid_w).  Images and rows are data: plain ndarrays.
    """
    c, h, w = image.shape
    p = grid.patch_size
    if (c, h, w) != (grid.channels, grid.grid_h * p, grid.grid_w * p):
        raise ShapeError(f"image shape {image.shape} does not match grid {grid}")
    arr = image.reshape(c, grid.grid_h, p, grid.grid_w, p)
    return arr.transpose(1, 3, 0, 2, 4).reshape(grid.num_patches, grid.patch_dim)


def unpatchify(rows, grid: PatchGrid) -> Tensor:
    """Inverse of patchify as an autodiff op, from a Tensor or ndarray of rows;
    a stack of rows [..., num_patches, patch_dim] gives [..., C, H, W]."""
    if rows.shape[-2:] != (grid.num_patches, grid.patch_dim):
        raise ShapeError(f"rows shape {rows.shape} does not match grid {grid}")
    lead = rows.shape[:-2]
    k, p = len(lead), grid.patch_size
    arr = reshape(rows, (*lead, grid.grid_h, grid.grid_w, grid.channels, p, p))
    return reshape(
        permute_axes(arr, (*range(k), *(k + a for a in (2, 0, 3, 1, 4)))),
        (*lead, grid.channels, grid.grid_h * p, grid.grid_w * p),
    )


def sample_mask(grid: PatchGrid, loc, p: float, rng: RngStream) -> MaskPlan:
    """Independent Bernoulli mask: patch i is masked with probability p when
    i is an object patch (i in loc) and 1 - p otherwise."""
    if not 0.0 <= p <= 1.0:
        raise ContractError(f"mask probability {p} outside [0, 1]")
    n = grid.num_patches
    probs = np.full(n, 1.0 - p)
    loc = np.asarray(loc, dtype=np.intp)
    probs[loc] = p
    u = rng.uniform((n,))
    return MaskPlan(u < probs, loc, float(p))


def random_mask(grid: PatchGrid, keep_count: int, rng: RngStream) -> MaskPlan:
    """Uniform masking baseline: keep_count patches sampled uniformly without
    replacement; no object set."""
    n = grid.num_patches
    if not 0 <= keep_count <= n:
        raise ContractError(f"keep_count {keep_count} outside [0, {n}]")
    kept = rng.choice(n, keep_count, replace=False) if keep_count else np.empty(0, dtype=np.intp)
    masked = np.ones(n, dtype=bool)
    masked[kept] = False
    return MaskPlan(masked)
