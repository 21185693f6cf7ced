"""Conversions between complex128 symbol arrays and their interleaved real view.

The channel simulation (fading draws, transmit, detection) is evaluation-only
and never differentiated, so it works on plain complex128 ndarrays.  The
channel codec and the differentiable training surrogate work on the real view
instead: each complex symbol becomes an adjacent (re, im) pair of reals.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

__all__ = ["real_view_to_complex", "complex_to_real_view"]


def real_view_to_complex(view: np.ndarray) -> np.ndarray:
    """Interleaved (re, im) real pairs on the last axis -> complex array."""
    if view.shape[-1] % 2 != 0:
        raise ShapeError("real view must have an even last dimension")
    return view[..., 0::2] + 1j * view[..., 1::2]


def complex_to_real_view(z: np.ndarray) -> np.ndarray:
    """Complex array -> interleaved (re, im) real pairs on the last axis."""
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],), dtype=np.float64)
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out
