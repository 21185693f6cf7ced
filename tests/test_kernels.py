"""The forward kernels against a plain-numpy copy of their formulas.

The kernels of semlink.tensor (and the codec block built from them) update
intermediates in place.  These properties check, over 2-D and stacked
inputs, that they never write their inputs or parameters, and that their
outputs, VJP caches and (for the block) VJP outputs equal, bit for bit, the
out-of-place formulas below, which share no code with the kernels.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from semlink.codec import LN_EPS, _block
from semlink.tensor import Tensor, _attention_fwd, _gelu_fwd, _layer_norm_fwd, no_grad

from test_codec import random_block


# -- the reference formulas, out of place -------------------------------------


def ref_row_mean(a):
    return np.add.reduce(a, axis=-1, keepdims=True) / a.shape[-1]


def ref_layer_norm(x, gain, bias, eps):
    centered = x - ref_row_mean(x)
    var = ref_row_mean(centered * centered)
    inv = (var + eps) ** -0.5
    xhat = centered * inv
    return xhat * gain + bias, inv, xhat


def ref_layer_norm_bwd(g, gain, inv, xhat):
    gx = g * gain
    return inv * (gx - ref_row_mean(gx) - xhat * ref_row_mean(gx * xhat))


def ref_gelu(x):
    phi_cdf = 0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0))))
    return x * phi_cdf, phi_cdf


def ref_gelu_bwd(g, x, phi_cdf):
    return g * (phi_cdf + x * (np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))))


def split_heads(rows, num_heads):
    *lead, length, d = rows.shape
    return rows.reshape(*lead, length, num_heads, d // num_heads).swapaxes(-3, -2)


def merge_heads(heads):
    *lead, num_heads, length, hd = heads.shape
    return heads.swapaxes(-3, -2).reshape(*lead, length, num_heads * hd)


def ref_attention(q, k, v, p, num_heads):
    qh = split_heads(q @ p.wq.data + p.bq.data, num_heads)
    kh = split_heads(k @ p.wk.data + p.bk.data, num_heads)
    vh = split_heads(v @ p.wv.data + p.bv.data, num_heads)
    scores = (qh @ kh.swapaxes(-1, -2)) * (1.0 / math.sqrt(qh.shape[-1]))
    e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    attn = e / np.sum(e, axis=-1, keepdims=True)
    merged = merge_heads(attn @ vh)
    return merged @ p.wo.data + p.bo.data, (qh, kh, vh, attn, merged)


def ref_attention_bwd(g, q, k, v, p, cache):
    qh, kh, vh, attn, merged = cache
    d_heads = split_heads(g @ p.wo.data.T, qh.shape[0])
    d_attn = d_heads @ vh.transpose(0, 2, 1)
    d_vp = merge_heads(attn.transpose(0, 2, 1) @ d_heads)
    d_scores = (attn * (d_attn - np.sum(d_attn * attn, axis=-1, keepdims=True))
                * (1.0 / math.sqrt(qh.shape[2])))
    d_qp = merge_heads(d_scores @ kh)
    d_kp = merge_heads(d_scores.transpose(0, 2, 1) @ qh)
    return (d_qp @ p.wq.data.T, d_kp @ p.wk.data.T, d_vp @ p.wv.data.T,
            q.T @ d_qp, np.sum(d_qp, axis=0), k.T @ d_kp, np.sum(d_kp, axis=0),
            v.T @ d_vp, np.sum(d_vp, axis=0), merged.T @ g, np.sum(g, axis=0))


def ref_block(x, blk, num_heads):
    """(output, vjp) of x1 = x + MSA(LN1(x)); out = x1 + GeLU(LN2(x1) W + b)."""
    normed1, inv1, xhat1 = ref_layer_norm(x, blk.ln1_gain.data, blk.ln1_bias.data, LN_EPS)
    attended, cache = ref_attention(normed1, normed1, normed1, blk.attn, num_heads)
    x1 = attended + x
    normed2, inv2, xhat2 = ref_layer_norm(x1, blk.ln2_gain.data, blk.ln2_bias.data, LN_EPS)
    pre = normed2 @ blk.ff_weight.data + blk.ff_bias.data
    act, phi_cdf = ref_gelu(pre)

    def vjp(g):
        d_pre = ref_gelu_bwd(g, pre, phi_cdf)
        d_normed2 = d_pre @ blk.ff_weight.data.T
        d_x1 = g + ref_layer_norm_bwd(d_normed2, blk.ln2_gain.data, inv2, xhat2)
        dq, dk, dv, *d_attn = ref_attention_bwd(d_x1, normed1, normed1, normed1, blk.attn, cache)
        d_normed1 = (dq + dk) + dv
        return (d_x1 + ref_layer_norm_bwd(d_normed1, blk.ln1_gain.data, inv1, xhat1),
                np.sum(d_normed1 * xhat1, axis=0), np.sum(d_normed1, axis=0), *d_attn,
                np.sum(d_normed2 * xhat2, axis=0), np.sum(d_normed2, axis=0),
                normed2.T @ d_pre, np.sum(d_pre, axis=0))

    return act + x1, vjp


# -- properties ----------------------------------------------------------------


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def param_arrays(blk):
    return [t.data for t in blk.tensors("blk").values()]


@st.composite
def kernel_cases(draw, stacks=((), (1,), (3,), (2, 3))):
    """(leading stack axes, rows, heads, model dim, seed): 2-D and stacked."""
    stack = draw(st.sampled_from(stacks))
    heads = draw(st.sampled_from([1, 2, 4]))
    dim = heads * draw(st.sampled_from([1, 3, 4]))
    return stack, draw(st.integers(1, 7)), heads, dim, draw(st.integers(0, 2**32 - 1))


def rows(case, scale=2.0, salt=0):
    stack, length, _, dim, seed = case
    return np.random.default_rng([seed, salt]).normal(size=(*stack, length, dim)) * scale


_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


class TestForwardKernels:
    @_SETTINGS
    @given(kernel_cases())
    def test_layer_norm(self, case):
        x = rows(case)
        rng = np.random.default_rng(case[-1])
        gain, bias = rng.normal(size=(2, case[3]))
        inputs = [x, gain, bias]
        before = [a.copy() for a in inputs]
        assert_same_bits(_layer_norm_fwd(x, gain, bias, LN_EPS),
                         ref_layer_norm(x, gain, bias, LN_EPS))
        assert_same_bits(inputs, before)

    @_SETTINGS
    @given(kernel_cases())
    def test_gelu(self, case):
        x = rows(case, scale=3.0)
        before = x.copy()
        assert_same_bits(_gelu_fwd(x), ref_gelu(x))
        assert_same_bits([x], [before])

    @_SETTINGS
    @given(kernel_cases(), st.booleans())
    def test_attention(self, case, self_attention):
        _, _, heads, dim, seed = case
        params = random_block(dim, seed).attn
        q = rows(case, salt=1)
        k, v = (q, q) if self_attention else (rows(case, salt=2), rows(case, salt=3))
        inputs = [q, k, v, *(t.data for t in params.tensors().values())]
        before = [a.copy() for a in inputs]
        out, cache = _attention_fwd(q, k, v, params, heads)
        want_out, want_cache = ref_attention(q, k, v, params, heads)
        assert_same_bits([out, *cache], [want_out, *want_cache])
        assert_same_bits(inputs, before)


class TestBlockKernel:
    @_SETTINGS
    @given(kernel_cases())
    def test_forward_only(self, case):
        """Without a graph, 2-D and stacked: the output, inputs untouched."""
        _, _, heads, dim, seed = case
        blk = random_block(dim, seed)
        x = rows(case)
        before = [a.copy() for a in [x, *param_arrays(blk)]]
        with no_grad():
            out = _block(Tensor(x), blk, heads)
        assert_same_bits([out.data], [ref_block(x, blk, heads)[0]])
        assert_same_bits([x, *param_arrays(blk)], before)

    @_SETTINGS
    @given(kernel_cases(stacks=((),)))
    def test_with_graph(self, case):
        """With a graph (2-D): the output and the VJP of the block input and
        its 14 tensors; the VJP reads what the forward left, and neither
        writes an input or parameter."""
        _, length, heads, dim, seed = case
        blk = random_block(dim, seed)
        x = Tensor(rows(case), requires_grad=True)
        before = [a.copy() for a in [x.data, *param_arrays(blk)]]
        out = _block(x, blk, heads)
        want_out, want_vjp = ref_block(x.data, blk, heads)
        assert_same_bits([out.data], [want_out])
        g = np.random.default_rng([seed, 9]).normal(size=(length, dim))
        got = out._vjp(g)
        assert len(got) == 15
        assert_same_bits(got, want_vjp(g))
        assert_same_bits([x.data, *param_arrays(blk)], before)
