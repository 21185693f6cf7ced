"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything here is desk-scale: tensors are plain numpy arrays, the autodiff
graph is a throwaway per-sample structure of closures, and all math runs in
64-bit so finite-difference gradient checks are clean.  Tensors are immutable
after construction (training code rebinds parameter data explicitly through
the optimizer, never through graph ops).

Construction rejects NaN/Inf, so a diverging computation raises
NonFiniteError at the op that produced it instead of propagating garbage.
The fused ops (layer_norm, softmax_attention) also check the intermediates
whose overflow their later arithmetic would hide.  Their maths lives in
private forward/backward kernels on plain arrays (_layer_norm_fwd/_bwd,
_attention_fwd/_bwd, _gelu_fwd/_bwd), which larger fused nodes such as the
codec's residual block call directly.  The forward kernels allocate each
intermediate once and update it in place (bias adds, scalings, the GeLU
CDF), with the same operations in the same order as the out-of-place
formulas; they never write their inputs, a parameter, or an array the VJP
reads.

Inside a no_grad() block (process-wide) every op returns a constant tensor,
so forward-only callers run the same ops without building a graph.

The forward kernels and matmul's left operand take leading stack axes
([..., L, d]) and give each item of a stack the same bits as that item
alone.  The VJPs of matmul and of the attention kernel stay 2-D, so there a
stack runs forward only: a stacked matmul (or codec block) that would
record a graph raises ShapeError.
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
        _check_finite(arr)
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
        grad = np.add.reduce(grad, axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = np.add.reduce(grad, axis=axes, keepdims=True)
    return grad.reshape(shape)


def _check_finite(arr: np.ndarray, what: str | None = None) -> None:
    """Reject non-finite values: an op output (what=None, the message of
    Tensor construction) or a fused op's named intermediate."""
    if not np.isfinite(arr).all():
        if what is None:
            raise NonFiniteError("tensor construction rejected non-finite values")
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


def _records(parents) -> bool:
    """Whether an op on these parents records a graph node."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _make(data, parents, vjp) -> Tensor:
    if _records(parents):
        return Tensor(data, requires_grad=True, _parents=tuple(parents), _vjp=vjp)
    return Tensor(data)


def _forward_only(x: Tensor, parents, what: str) -> None:
    """Reject a stacked input ([..., L, d], ndim > 2) of an op whose VJP is
    2-D when the op would record a graph."""
    if x.ndim > 2 and _records(parents):
        raise ShapeError(f"{what}: stacked input {x.shape} runs forward only (use no_grad())")


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
    """a @ b for a 2-D b; a may carry leading stack axes (forward only)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects [..., m, k] @ [k, n], got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    _forward_only(a, (a, b), "matmul")
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
    """Place row i of src at row idx[i] of a zero matrix with num_rows rows,
    in every item of a [..., L, d] stack.

    Duplicate indices are a contract violation (every destination row is
    written at most once).
    """
    src = as_tensor(src)
    idx = np.asarray(idx, dtype=np.intp)
    if src.ndim < 2 or len(idx) != src.shape[-2]:
        raise ContractError(f"scatter_rows: {src.shape} rows vs {len(idx)} indices")
    if len(np.unique(idx)) != len(idx):
        raise ContractError("scatter_rows: duplicate destination indices")
    if len(idx) and (idx.min() < 0 or idx.max() >= num_rows):
        raise ContractError("scatter_rows: destination index out of range")
    out = np.zeros((*src.shape[:-2], num_rows, src.shape[-1]), dtype=np.float64)
    out[..., idx, :] = src.data

    def vjp(g):
        return (g[..., idx, :],)

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


def _gelu_fwd(x: np.ndarray):
    """GeLU kernel: (x * Phi(x), Phi(x)); the CDF is reused by the VJP."""
    from scipy.special import erf  # here, not at module top: only the codec needs scipy

    phi_cdf = x * _INV_SQRT2
    erf(phi_cdf, out=phi_cdf)
    phi_cdf += 1.0
    phi_cdf *= 0.5
    return x * phi_cdf, phi_cdf


def _gelu_bwd(g: np.ndarray, x: np.ndarray, phi_cdf: np.ndarray) -> np.ndarray:
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    return g * (phi_cdf + x * pdf)


def gelu(a) -> Tensor:
    """Gaussian error linear unit, exact erf form: x * Phi(x)."""
    a = as_tensor(a)
    out, phi_cdf = _gelu_fwd(a.data)

    def vjp(g):
        return (_gelu_bwd(g, a.data, phi_cdf),)

    return _make(out, (a,), vjp)


def _row_mean(a: np.ndarray) -> np.ndarray:
    """a.mean(axis=-1, keepdims=True) without numpy's Python-level wrapper
    (the same sum, then the same division by the count)."""
    return np.add.reduce(a, axis=-1, keepdims=True) / a.shape[-1]


def _layer_norm_fwd(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float):
    """Layer-norm kernel: (output, inv, xhat), inv the rows' 1/sqrt(var + eps)
    and xhat the normalized rows.  An overflowing row variance raises."""
    xhat = x - _row_mean(x)  # centered here, normalized below
    out = np.multiply(xhat, xhat)
    var = _row_mean(out)
    _check_finite(var, "layer_norm row variance")
    inv = (var + eps) ** -0.5
    xhat *= inv
    np.multiply(xhat, gain, out=out)
    out += bias
    return out, inv, xhat


def _layer_norm_bwd(g: np.ndarray, gain: np.ndarray, inv: np.ndarray,
                    xhat: np.ndarray) -> np.ndarray:
    """Gradient of the layer-norm input (gain's is g * xhat, bias's is g,
    each summed over the broadcast rows)."""
    gx = g * gain
    return inv * (gx - _row_mean(gx) - xhat * _row_mean(gx * xhat))


def layer_norm(x, gain, bias, eps: float = 1e-6) -> Tensor:
    """Normalize each row of x to zero mean / unit variance, then scale+shift.

    One graph node with a closed-form VJP.  eps > 0 guards zero-variance rows
    (a constant row maps to the bias).  A row variance that overflows raises
    NonFiniteError: it would otherwise normalize the row silently to zero.
    """
    if eps <= 0:
        raise ContractError("layer_norm requires eps > 0")
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    out, inv, xhat = _layer_norm_fwd(x.data, gain.data, bias.data, eps)

    def vjp(g):
        return (_layer_norm_bwd(g, gain.data, inv, xhat),
                _unbroadcast(g * xhat, gain.shape), _unbroadcast(g, bias.shape))

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


def _split_heads(rows: np.ndarray, num_heads: int) -> np.ndarray:
    """[..., L, d] -> [..., H, L, d/H]"""
    *lead, length, d = rows.shape
    return rows.reshape(*lead, length, num_heads, d // num_heads).swapaxes(-3, -2)


def _merge_heads(heads: np.ndarray) -> np.ndarray:
    """[..., H, L, hd] -> [..., L, H * hd]"""
    *lead, num_heads, length, hd = heads.shape
    return heads.swapaxes(-3, -2).reshape(*lead, length, num_heads * hd)


def _affine(rows: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """rows @ weight + bias, the bias added in place."""
    out = rows @ weight
    out += bias
    return out


def _attention_fwd(q: np.ndarray, k: np.ndarray, v: np.ndarray, p: AttentionParams,
                   num_heads: int):
    """Attention kernel on valid [..., L, d] arrays: (output, cache for the
    VJP, which takes [L, d] only).  Overflowing scores raise."""
    qh = _split_heads(_affine(q, p.wq.data, p.bq.data), num_heads)
    kh = _split_heads(_affine(k, p.wk.data, p.bk.data), num_heads)
    vh = _split_heads(_affine(v, p.wv.data, p.bv.data), num_heads)
    scores = qh @ kh.swapaxes(-1, -2)
    scores *= 1.0 / math.sqrt(qh.shape[-1])
    _check_finite(scores, "attention scores")
    # softmax in place: the scores are not needed afterwards
    attn = np.exp(np.subtract(scores, np.maximum.reduce(scores, axis=-1, keepdims=True),
                              out=scores), out=scores)
    attn /= np.add.reduce(attn, axis=-1, keepdims=True)
    merged = _merge_heads(attn @ vh)
    return _affine(merged, p.wo.data, p.bo.data), (qh, kh, vh, attn, merged)


def _attention_bwd(g: np.ndarray, q: np.ndarray, k: np.ndarray, v: np.ndarray,
                   p: AttentionParams, cache) -> tuple:
    """Gradients of q, k, v and of wq, bq, wk, bk, wv, bv, wo, bo (biases
    are length-d vectors)."""
    qh, kh, vh, attn, merged = cache
    d_heads = _split_heads(g @ p.wo.data.T, qh.shape[0])
    d_attn = d_heads @ vh.transpose(0, 2, 1)
    d_vp = _merge_heads(attn.transpose(0, 2, 1) @ d_heads)
    d_scores = (attn * (d_attn - np.add.reduce(d_attn * attn, axis=-1, keepdims=True))
                * (1.0 / math.sqrt(qh.shape[2])))
    d_qp = _merge_heads(d_scores @ kh)
    d_kp = _merge_heads(d_scores.transpose(0, 2, 1) @ qh)
    return (
        d_qp @ p.wq.data.T, d_kp @ p.wk.data.T, d_vp @ p.wv.data.T,
        q.T @ d_qp, np.add.reduce(d_qp, axis=0),
        k.T @ d_kp, np.add.reduce(d_kp, axis=0),
        v.T @ d_vp, np.add.reduce(d_vp, axis=0),
        merged.T @ g, np.add.reduce(g, axis=0),
    )


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
    out, cache = _attention_fwd(q.data, k.data, v.data, params, num_heads)

    def vjp(g):
        return _attention_bwd(g, q.data, k.data, v.data, params, cache)

    p = params
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

    # op nodes in post-order; leaves never enter the walk.  Tensors hash by
    # identity, so they key the sets and dicts directly.
    topo: list[Tensor] = []
    seen: set[Tensor] = set()
    stack = [(loss, False)] if loss._vjp is not None else []
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node._parents:
            if p._vjp is not None and p not in seen:
                stack.append((p, False))

    grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
    # each leaf's contributions, summed in arrival order
    leaf_grads = grads if loss._vjp is None else {}
    for node in reversed(topo):
        g = grads.pop(node, None)
        if g is None:
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if not parent.requires_grad or pg is None:
                continue
            acc = grads if parent._vjp is not None else leaf_grads
            acc[parent] = acc[parent] + pg if parent in acc else pg
    # fold into the persistent gradient slot (accumulates across losses,
    # e.g. mini-batch accumulation)
    for leaf, g in leaf_grads.items():
        leaf.grad = g.copy() if leaf.grad is None else leaf.grad + g


def zero_grad(tensors) -> None:
    for t in tensors:
        t.grad = None

