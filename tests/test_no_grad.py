"""The no_grad() switch: constant outputs, state restore, same values."""

import numpy as np
import pytest

from semlink.channel import ChannelConfig
from semlink.errors import NonFiniteError
from semlink.link import LinkModel, evaluate_link
from semlink.masking import sample_mask
from semlink.rng import RngStream
from semlink.scenes import SceneConfig, generate_scene, locate_any
from semlink.tensor import (
    AttentionParams,
    Tensor,
    add,
    backward,
    div,
    gather_rows,
    gelu,
    layer_norm,
    matmul,
    mul,
    no_grad,
    permute_axes,
    power,
    reshape,
    scatter_rows,
    softmax_attention,
    sub,
    tmean,
    tsum,
)


def _leaf(shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape), requires_grad=True)


def _every_op(a, b):
    """One output of each differentiable op on two [4, 4] leaves."""
    attn = AttentionParams.init(4, RngStream(1))
    return [
        add(a, b), sub(a, b), mul(a, b), div(a, add(mul(b, b), 1.0)),
        power(add(mul(a, a), 1.0), 1.5), matmul(a, b),
        reshape(a, (2, 8)), permute_axes(reshape(a, (2, 2, 4)), (2, 0, 1)),
        gather_rows(a, [2, 0]), scatter_rows(a, [3, 1, 0, 2], 5),
        tsum(a), tmean(a, axis=0), gelu(a),
        layer_norm(a, Tensor(np.ones(4), requires_grad=True), Tensor(np.zeros(4))),
        softmax_attention(a, b, a, attn, num_heads=2),
    ]


class TestConstantOutputs:
    def test_every_op_returns_a_constant(self):
        a, b = _leaf((4, 4), 1), _leaf((4, 4), 2)
        with no_grad():
            outs = _every_op(a, b)
        for out in outs:
            assert out.requires_grad is False
            assert out._parents == () and out._vjp is None

    def test_same_values_as_outside(self):
        a, b = _leaf((4, 4), 3), _leaf((4, 4), 4)
        with no_grad():
            inside = _every_op(a, b)
        outside = _every_op(a, b)
        assert all(o.requires_grad for o in outside)
        for i, o in zip(inside, outside):
            np.testing.assert_array_equal(i.data, o.data)


class TestStateRestore:
    def test_nested_blocks(self):
        a = _leaf((3,))
        with no_grad():
            with no_grad():
                assert not mul(a, a).requires_grad
            assert not mul(a, a).requires_grad  # inner exit keeps the outer state
        assert mul(a, a).requires_grad

    def test_restored_after_exception(self):
        a = _leaf((3,))
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("inside")
        assert mul(a, a).requires_grad

    def test_backward_fills_grad_after_the_block(self):
        a = _leaf((3,), 5)
        with no_grad():
            mul(a, a)
        backward(tsum(mul(a, a)))
        np.testing.assert_allclose(a.grad, 2 * a.data)

    def test_graph_built_before_the_block_still_differentiates(self):
        a = _leaf((3,), 6)
        loss = tsum(mul(a, a))
        with no_grad():
            backward(loss)
        np.testing.assert_allclose(a.grad, 2 * a.data)


class TestFinitenessInside:
    def test_construction_rejects_nan(self):
        with no_grad(), pytest.raises(NonFiniteError):
            Tensor([1.0, np.nan])

    def test_op_overflow_raises(self):
        a = Tensor([1e200], requires_grad=True)
        with no_grad(), np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            mul(a, a)

    def test_fused_intermediate_check_fires(self):
        x = Tensor(np.array([[1e300, -1e300, 0.0]]), requires_grad=True)
        with no_grad(), np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))


def test_evaluate_link_byte_identical_inside_and_outside():
    cfg = SceneConfig(height=16, width=16, channels=1, patch_size=4)
    grid = cfg.grid()
    model = LinkModel.init(grid, RngStream(8), feature_dim=16, enc_layers=2, dec_layers=1,
                           num_heads=2, symbol_dim=4)
    scene = generate_scene(RngStream(9), cfg)
    plan = sample_mask(grid, locate_any(scene, grid), 0.3, RngStream(10))
    chan = ChannelConfig(kind="rayleigh", snr_db=10.0, csi_error_var=0.02)
    outside = evaluate_link(model, scene.image, plan, chan, RngStream(11))
    with no_grad():
        inside = evaluate_link(model, scene.image, plan, chan, RngStream(11))
    assert outside.image.requires_grad and not inside.image.requires_grad
    assert inside.image.data.tobytes() == outside.image.data.tobytes()
    assert inside.z_hat.values.data.tobytes() == outside.z_hat.values.data.tobytes()
