"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything here is desk-scale: tensors are plain numpy arrays, the autodiff
graph is a throwaway per-sample structure of closures, and all math runs in
64-bit so finite-difference gradient checks are clean.  Tensors are immutable
after construction (training code rebinds parameter data explicitly through
the optimizer, never through graph ops).

Construction rejects NaN/Inf, so a diverging computation raises
NonFiniteError at the op that produced it instead of propagating garbage.
The fused ops (layer_norm, softmax_attention) also check the intermediates
whose overflow their later arithmetic would hide.

Inside a no_grad() block (process-wide) every op returns a constant tensor,
so forward-only callers run the same ops without building a graph.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, NonFiniteError, ShapeError
from .rng import RngStream

__all__ = [
    "Tensor",
    "as_tensor",
    "add",
    "sub",
    "mul",
    "div",
    "power",
    "matmul",
    "permute_axes",
    "reshape",
    "scatter_rows",
    "tsum",
    "tmean",
    "gelu",
    "layer_norm",
    "AttentionParams",
    "softmax_attention",
    "sinusoid_table",
    "backward",
    "zero_grad",
    "no_grad",
]


class Tensor:
    """A float64 array plus the bookkeeping needed for backpropagation."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_consumed")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _vjp=None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("tensor construction rejected non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = _parents  # tuple of parent Tensors
        self._vjp = _vjp  # fn(upstream grad ndarray) -> tuple of parent grads (or None)
        self._consumed = False

    # -- introspection ------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Reduce an upstream gradient back to the shape of a broadcast operand."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _check_finite(arr: np.ndarray, what: str) -> None:
    """Reject non-finite values in a fused op's intermediate (op outputs are
    checked by Tensor construction)."""
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{what} overflowed")


_grad_enabled = True  # cleared inside no_grad()


@contextmanager
def no_grad():
    """Block in which ops record no graph; the previous state comes back on
    exit, also after an exception."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


def _make(data, parents, vjp) -> Tensor:
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=tuple(parents), _vjp=vjp)
    return Tensor(data)


# -- elementwise arithmetic ---------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _make(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(out, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data

    def vjp(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return _make(out, (a, b), vjp)


def power(a, p: float) -> Tensor:
    """Elementwise a**p for a scalar exponent."""
    a = as_tensor(a)
    p = float(p)
    out = a.data**p

    def vjp(g):
        return (g * p * a.data ** (p - 1.0),)

    return _make(out, (a,), vjp)


# -- structural ops -----------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def vjp(g):
        return g @ b.data.T, a.data.T @ g

    return _make(out, (a, b), vjp)


def permute_axes(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    out = a.data.transpose(axes).copy()
    inv = tuple(np.argsort(axes))

    def vjp(g):
        return (g.transpose(inv),)

    return _make(out, (a,), vjp)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(a.shape),)

    return _make(out, (a,), vjp)


def scatter_rows(src, idx, num_rows: int) -> Tensor:
    """Place row i of src at row idx[i] of a zero matrix with num_rows rows.

    Duplicate indices are a contract violation (every destination row is
    written at most once).
    """
    src = as_tensor(src)
    idx = np.asarray(idx, dtype=np.intp)
    if src.ndim != 2 or len(idx) != src.shape[0]:
        raise ContractError(f"scatter_rows: {src.shape} rows vs {len(idx)} indices")
    if len(np.unique(idx)) != len(idx):
        raise ContractError("scatter_rows: duplicate destination indices")
    if len(idx) and (idx.min() < 0 or idx.max() >= num_rows):
        raise ContractError("scatter_rows: destination index out of range")
    out = np.zeros((num_rows, src.shape[1]), dtype=np.float64)
    out[idx] = src.data

    def vjp(g):
        return (g[idx],)

    return _make(out, (src,), vjp)


# -- reductions ---------------------------------------------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make(out, (a,), vjp)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    n = a.size if axis is None else a.shape[axis]

    def vjp(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape) / n,)

    return _make(out, (a,), vjp)


# -- nonlinearities -----------------------------------------------------------

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(a) -> Tensor:
    """Gaussian error linear unit, exact erf form: x * Phi(x)."""
    from scipy.special import erf  # here, not at module top: only the codec needs scipy

    a = as_tensor(a)
    phi_cdf = 0.5 * (1.0 + erf(a.data * _INV_SQRT2))
    out = a.data * phi_cdf

    def vjp(g):
        pdf = np.exp(-0.5 * a.data * a.data) * _INV_SQRT_2PI
        return (g * (phi_cdf + a.data * pdf),)

    return _make(out, (a,), vjp)


def layer_norm(x, gain, bias, eps: float = 1e-6) -> Tensor:
    """Normalize each row of x to zero mean / unit variance, then scale+shift.

    One graph node with a closed-form VJP.  eps > 0 guards zero-variance rows
    (a constant row maps to the bias).  A row variance that overflows raises
    NonFiniteError: it would otherwise normalize the row silently to zero.
    """
    if eps <= 0:
        raise ContractError("layer_norm requires eps > 0")
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    centered = x.data - x.data.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    _check_finite(var, "layer_norm row variance")
    inv = (var + eps) ** -0.5
    xhat = centered * inv
    out = xhat * gain.data + bias.data

    def vjp(g):
        gx = g * gain.data
        dx = inv * (gx - gx.mean(axis=-1, keepdims=True)
                    - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
        return dx, _unbroadcast(g * xhat, gain.shape), _unbroadcast(g, bias.shape)

    return _make(out, (x, gain, bias), vjp)


# -- attention ----------------------------------------------------------------


@dataclass
class AttentionParams:
    """Learned Q/K/V and output projections of one attention layer."""

    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor

    @staticmethod
    def init(dim: int, rng: RngStream) -> "AttentionParams":
        s = 1.0 / math.sqrt(dim)
        mats = {}
        for name in ("wq", "wk", "wv", "wo"):
            mats[name] = Tensor(rng.normal((dim, dim), std=s), requires_grad=True)
            mats["b" + name[1]] = Tensor(np.zeros(dim), requires_grad=True)
        return AttentionParams(**mats)

    def tensors(self) -> dict:
        return {
            "wq": self.wq, "bq": self.bq, "wk": self.wk, "bk": self.bk,
            "wv": self.wv, "bv": self.bv, "wo": self.wo, "bo": self.bo,
        }


def softmax_attention(q, k, v, params: AttentionParams, num_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention with learned projections.

    q, k, v are [L x d] sequences sharing d; heads split d evenly and each
    head applies softmax(Q Kᵀ / sqrt(d_head)) V; concatenated heads go
    through the output projection.  All heads run at once as [H, L, d_head]
    stacks, and the whole layer is one graph node whose VJP returns the
    gradients of q, k, v and the eight projection tensors.  Scores that
    overflow raise NonFiniteError (the softmax would otherwise hide a -inf).
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ShapeError(f"attention expects 2-D sequences, got {q.shape}, {k.shape}, {v.shape}")
    length, d = q.shape
    if k.shape[1] != d or v.shape[1] != d:
        raise ShapeError("q, k, v must share the model dimension")
    if length != k.shape[0] or k.shape[0] != v.shape[0]:
        raise ShapeError("q, k, v must share the sequence length")
    if d % num_heads != 0:
        raise ConfigError(f"model dim {d} not divisible by {num_heads} heads")
    hd = d // num_heads
    inv_sqrt_hd = 1.0 / math.sqrt(hd)
    p = params

    def split(rows):  # [L, d] -> [H, L, hd]
        return rows.reshape(length, num_heads, hd).transpose(1, 0, 2)

    def merge(heads):  # [H, L, hd] -> [L, d]
        return heads.transpose(1, 0, 2).reshape(length, d)

    qh = split(q.data @ p.wq.data + p.bq.data)
    kh = split(k.data @ p.wk.data + p.bk.data)
    vh = split(v.data @ p.wv.data + p.bv.data)
    scores = (qh @ kh.transpose(0, 2, 1)) * inv_sqrt_hd
    _check_finite(scores, "attention scores")
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    merged = merge(attn @ vh)
    out = merged @ p.wo.data + p.bo.data

    def vjp(g):
        d_merged = g @ p.wo.data.T
        d_heads = split(d_merged)
        d_attn = d_heads @ vh.transpose(0, 2, 1)
        d_vp = merge(attn.transpose(0, 2, 1) @ d_heads)
        d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True)) * inv_sqrt_hd
        d_qp = merge(d_scores @ kh)
        d_kp = merge(d_scores.transpose(0, 2, 1) @ qh)
        return (
            d_qp @ p.wq.data.T, d_kp @ p.wk.data.T, d_vp @ p.wv.data.T,
            q.data.T @ d_qp, _unbroadcast(d_qp, p.bq.shape),
            k.data.T @ d_kp, _unbroadcast(d_kp, p.bk.shape),
            v.data.T @ d_vp, _unbroadcast(d_vp, p.bv.shape),
            merged.T @ g, _unbroadcast(g, p.bo.shape),
        )

    parents = (q, k, v, p.wq, p.bq, p.wk, p.bk, p.wv, p.bv, p.wo, p.bo)
    return _make(out, parents, vjp)


def sinusoid_table(num_positions: int, dim: int) -> np.ndarray:
    """Fixed sinusoidal positional encodings: sin on even columns, cos on odd."""
    pos = np.arange(num_positions, dtype=np.float64)[:, None]
    i = np.arange((dim + 1) // 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / dim)
    table = np.zeros((num_positions, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle[:, : dim // 2])
    return table


# -- backward pass ------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Populate .grad on every requires_grad tensor reachable from loss.

    loss must be scalar; calling backward twice on the same loss is
    rejected.  Gradients accumulate across separate losses (used for
    mini-batch accumulation), so callers zero them between steps.
    """
    if loss.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    if loss._consumed:
        raise ContractError("backward called twice on the same loss")
    loss._consumed = True

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            # leaf: fold into the persistent gradient slot (accumulates
            # across losses, e.g. mini-batch accumulation)
            node.grad = g.copy() if node.grad is None else node.grad + g
        else:
            for parent, pg in zip(node._parents, node._vjp(g)):
                if not parent.requires_grad or pg is None:
                    continue
                key = id(parent)
                grads[key] = grads[key] + pg if key in grads else pg


def zero_grad(tensors) -> None:
    for t in tensors:
        t.grad = None

