import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gradcheck import check_grads, fd_grad, rel_err
from semlink import training
from semlink.chancodec import ChanCodecParams
from semlink.channel import ChannelConfig, fading_cells
from semlink.errors import ConfigError, ContractError, NonFiniteError, ParseError, ShapeError
from semlink.link import LinkModel
from semlink.metrics import nmse
from semlink.rng import RngStream, _PhiloxKey, complex_normal_stack
from semlink.scenes import SceneConfig, generate_scene
from semlink.sharing import partition, synth_correlated_semantics, transport
from semlink.snapshot import load_tensors, save_tensors, tensor_from_bytes, tensor_to_bytes
from semlink.tensor import (
    AttentionParams,
    Tensor,
    add,
    backward,
    div,
    gelu,
    layer_norm,
    matmul,
    mul,
    permute_axes,
    power,
    reshape,
    scatter_rows,
    sinusoid_table,
    softmax_attention,
    sub,
    tmean,
    tsum,
    zero_grad,
)
from semlink.training import PHASES, TrainConfig


class TestConstruction:
    def test_shape_and_size(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.size == 4
        assert np.prod(t.shape) == t.data.size

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor([1.0, float("nan")])

    def test_inf_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor([[float("inf")]])

    def test_op_producing_nonfinite_raises(self):
        big = Tensor([1e308])
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError):
                mul(big, big)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        out = matmul(Tensor(np.eye(2)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_hand_product(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_zero_matrix(self):
        a = Tensor(np.random.default_rng(0).normal(size=(3, 3)))
        out = matmul(Tensor(np.zeros((3, 3))), a)
        np.testing.assert_array_equal(out.data, np.zeros((3, 3)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


class TestLayerNorm:
    def test_constant_row_maps_to_bias_zero(self):
        out = layer_norm(Tensor([[5.0, 5.0, 5.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, np.zeros((1, 3)), atol=1e-12)

    def test_already_normalized_row(self):
        out = layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12)
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-9)

    def test_zero_gain_broadcasts_bias(self):
        x = Tensor(np.random.default_rng(1).normal(size=(4, 5)))
        bias = np.arange(5, dtype=float)
        out = layer_norm(x, Tensor(np.zeros(5)), Tensor(bias))
        np.testing.assert_array_equal(out.data, np.tile(bias, (4, 1)))

    def test_row_statistics(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(6, 32)) * 3 + 1)
        out = layer_norm(x, Tensor(np.ones(32)), Tensor(np.zeros(32)), eps=1e-10)
        mu = out.data.mean(axis=1)
        var = out.data.var(axis=1)
        assert np.abs(mu).max() < 1e-6
        assert np.abs(var - 1.0).max() < 1e-4

    def test_eps_positive_required(self):
        with pytest.raises(ContractError):
            layer_norm(Tensor([[1.0, 2.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=0.0)

    def test_variance_overflow_raises(self):
        # the centred values are finite but their squares overflow; without a
        # check the row would normalize to zero and return the bias
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError):
                layer_norm(Tensor([[1e200, -1e200, 0.0]]), Tensor(np.ones(3)),
                           Tensor(np.zeros(3)))


class TestGelu:
    def test_zero(self):
        assert float(gelu(Tensor([0.0])).data[0]) == 0.0

    def test_asymptote(self):
        assert abs(float(gelu(Tensor([10.0])).data[0]) - 10.0) < 1e-6

    def test_unit_value(self):
        # 1 * Phi(1) via the erf form
        expected = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        assert abs(float(gelu(Tensor([1.0])).data[0]) - expected) < 1e-12
        assert abs(float(gelu(Tensor([1.0])).data[0]) - 0.8413447460685429) < 1e-12


class TestAttention:
    def _params(self, dim, seed=0):
        return AttentionParams.init(dim, RngStream(seed))

    def test_single_token_is_projected_value(self):
        dim = 6
        params = self._params(dim, 3)
        rng = np.random.default_rng(5)
        q = Tensor(rng.normal(size=(1, dim)))
        out = softmax_attention(q, q, q, params, 2)
        vp = q.data @ params.wv.data + params.bv.data
        expected = vp @ params.wo.data + params.bo.data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_identical_keys_uniform_weights(self):
        dim = 8
        params = self._params(dim, 4)
        rng = np.random.default_rng(6)
        k = Tensor(np.tile(rng.normal(size=(1, dim)), (5, 1)))
        q = Tensor(rng.normal(size=(5, dim)))
        v = Tensor(rng.normal(size=(5, dim)))
        out = softmax_attention(q, k, v, params, 2)
        # uniform weights: every row gets the mean value projection
        vp = v.data @ params.wv.data + params.bv.data
        expected = vp.mean(axis=0) @ params.wo.data + params.bo.data
        np.testing.assert_allclose(out.data, np.tile(expected, (5, 1)), atol=1e-12)

    def test_two_token_hand_oracle(self):
        self._check_hand_oracle(length=2, dim=4, heads=2)

    def test_five_token_three_head_hand_oracle(self):
        self._check_hand_oracle(length=5, dim=6, heads=3)

    def _check_hand_oracle(self, length, dim, heads):
        # independent plain-numpy evaluation of the same attention definition
        params = self._params(dim, 7)
        rng = np.random.default_rng(8)
        q, k, v = (rng.normal(size=(length, dim)) for _ in range(3))
        out = softmax_attention(Tensor(q), Tensor(k), Tensor(v), params, heads)

        qp = q @ params.wq.data + params.bq.data
        kp = k @ params.wk.data + params.bk.data
        vp = v @ params.wv.data + params.bv.data
        hd = dim // heads
        merged = np.zeros((length, dim))
        for h in range(heads):
            sl = slice(h * hd, (h + 1) * hd)
            scores = qp[:, sl] @ kp[:, sl].T / math.sqrt(hd)
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            attn = e / e.sum(axis=1, keepdims=True)
            merged[:, sl] = attn @ vp[:, sl]
        expected = merged @ params.wo.data + params.bo.data
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)

    def test_attention_rows_sum_to_one(self):
        dim = 12
        params = self._params(dim, 9)
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(7, dim)))
        v = Tensor(np.tile(rng.normal(size=(1, dim)), (7, 1)))
        out = softmax_attention(x, x, v, params, 3)
        # identical value rows: each output row is that row's projection
        # exactly when its weights sum to one
        expected = (v.data[0] @ params.wv.data + params.bv.data) @ params.wo.data + params.bo.data
        np.testing.assert_allclose(out.data, np.tile(expected, (7, 1)), atol=1e-6)

    def test_score_overflow_raises(self):
        # one score overflows to -inf while its row maximum stays finite, so
        # the softmax alone would hide it as a zero weight
        params = AttentionParams(
            wq=Tensor(np.eye(2)), bq=Tensor(np.zeros(2)),
            wk=Tensor(np.eye(2)), bk=Tensor(np.zeros(2)),
            wv=Tensor(np.eye(2)), bv=Tensor(np.zeros(2)),
            wo=Tensor(np.eye(2)), bo=Tensor(np.zeros(2)),
        )
        q = Tensor([[1e160, 0.0], [0.0, 0.0]])
        k = Tensor([[-1e160, 0.0], [1.0, 0.0]])
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError):
                softmax_attention(q, k, k, params, 1)

    def test_indivisible_heads_rejected(self):
        params = self._params(6, 1)
        x = Tensor(np.ones((2, 6)))
        with pytest.raises(ConfigError):
            softmax_attention(x, x, x, params, 4)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        backward(tsum(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        backward(tsum(mul(x, x)))
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_non_scalar_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            backward(mul(x, x))

    def test_double_backward_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        loss = tsum(x)
        backward(loss)
        with pytest.raises(ContractError):
            backward(loss)

    def test_grad_accumulates_across_losses(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        backward(tsum(x))
        backward(tsum(mul(x, x)))
        np.testing.assert_allclose(x.grad, [3.0, 5.0])
        zero_grad([x])
        assert x.grad is None

    def test_constant_branch_gets_no_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        c = Tensor([3.0, 4.0])
        backward(tsum(add(x, c)))
        assert c.grad is None

    def test_scalar_leaf_as_loss(self):
        x = Tensor(2.0, requires_grad=True)
        backward(x)
        backward(tsum(mul(x, x)))
        np.testing.assert_array_equal(x.grad, 5.0)


def reference_backward(loss: Tensor) -> None:
    """backward walking every requires_grad tensor, leaves included: each
    leaf takes its place in the post-order and is folded into .grad there."""
    if loss.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    if loss._consumed:
        raise ContractError("backward called twice on the same loss")
    loss._consumed = True
    topo, seen, stack = [], set(), [(loss, False)]
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
    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            node.grad = g.copy() if node.grad is None else node.grad + g
        else:
            for parent, pg in zip(node._parents, node._vjp(g)):
                if not parent.requires_grad or pg is None:
                    continue
                key = id(parent)
                grads[key] = grads[key] + pg if key in grads else pg


_GRAPH_OPS = (add, sub, mul, matmul, lambda a, b: gelu(a),
              lambda a, b: div(a, add(power(b, 2.0), 1.0)))


@st.composite
def random_graphs(draw):
    """Leaf data and an op program over a growing pool of [3, 3] tensors;
    pool[0] and pool[1] are trainable leaves, pool[2] a constant."""
    data = draw(hnp.arrays(np.float64, (3, 3, 3), elements=st.floats(-2, 2)))
    program = draw(st.lists(st.tuples(st.integers(0, len(_GRAPH_OPS) - 1),
                                      st.integers(0, 99), st.integers(0, 99)),
                            min_size=1, max_size=12))
    return data, program


def run_program(walk, data, programs) -> list:
    """Gradients of both leaves after one walk per program, all losses
    accumulating into the same leaves."""
    leaves = [Tensor(data[0], requires_grad=True), Tensor(data[1], requires_grad=True)]
    for program in programs:
        pool = leaves + [Tensor(data[2])]
        for op, i, j in program:
            pool.append(_GRAPH_OPS[op](pool[i % len(pool)], pool[j % len(pool)]))
        # every node reaches the loss, the leaves through several paths
        total = pool[0]
        for node in pool[1:]:
            total = add(total, node)
        walk(tsum(mul(total, total)))
    return [leaf.grad for leaf in leaves]


class TestBackwardMatchesReferenceWalk:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(first=random_graphs(), second=random_graphs())
    def test_random_graphs_across_two_losses(self, first, second):
        data, program = first
        for programs in ([program], [program, second[1]]):
            got = run_program(backward, data, programs)
            want = run_program(reference_backward, data, programs)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)

    def test_leaf_with_several_contributions(self):
        rng = np.random.default_rng(60)
        data = rng.normal(size=(3, 3, 3))
        # leaf 0 feeds a mul (twice), a matmul and a sub, and the final sum
        program = [(2, 0, 0), (3, 0, 1), (1, 4, 0), (4, 5, 1)]
        grads = [run_program(walk, data, [program, program[:2]])
                 for walk in (backward, reference_backward)]
        for g, w in zip(*grads):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("phase", PHASES)
    def test_training_checkpoints_match_the_reference_walk(self, phase, tmp_path, monkeypatch):
        cfg = SceneConfig(channels=1)
        scenes = [generate_scene(RngStream(61, i), cfg) for i in range(4)]
        blobs = []
        for name, walk in (("walk", backward), ("reference", reference_backward)):
            monkeypatch.setattr(training, "backward", walk)
            model = LinkModel.init(cfg.grid(), RngStream(62), feature_dim=16, enc_layers=2,
                                   dec_layers=1, num_heads=4, symbol_dim=4)
            records = training.train_phase(model, scenes, TrainConfig(
                phase=phase, lr=1e-3, epochs=2, batch_size=3, seed=63))
            model.save(tmp_path / f"{name}.ckpt")
            blobs.append(((tmp_path / f"{name}.ckpt").read_bytes(), records))
        assert blobs[0] == blobs[1]


def _rand(rng, shape):
    return rng.normal(size=shape)


class TestFiniteDifferences:
    """Every differentiable primitive against central finite differences."""

    def test_elementwise_and_reductions(self):
        rng = np.random.default_rng(42)
        cases = [
            (lambda ts: tsum(mul(add(ts[0], ts[1]), sub(ts[0], ts[1]))),
             [_rand(rng, (3, 4)), _rand(rng, (3, 4))]),
            (lambda ts: tsum(div(ts[0], add(mul(ts[1], ts[1]), 1.0))),
             [_rand(rng, (2, 5)), _rand(rng, (2, 5))]),
            (lambda ts: tsum(power(add(mul(ts[0], ts[0]), 0.5), 1.5)), [_rand(rng, (4, 3))]),
            (lambda ts: tsum(mul(tmean(ts[0], axis=1, keepdims=True), ts[0])),
             [_rand(rng, (3, 6))]),
            (lambda ts: tmean(mul(tsum(ts[0], axis=0, keepdims=True), ts[0])),
             [_rand(rng, (4, 4))]),
            (lambda ts: tsum(add(ts[0], ts[1])), [_rand(rng, (3, 4)), _rand(rng, (4,))]),
        ]
        for fn, arrays in cases:
            check_grads(fn, arrays)

    def test_structural_ops(self):
        rng = np.random.default_rng(43)
        idx = np.array([2, 0, 3])
        cases = [
            (lambda ts: tsum(mul(matmul(ts[0], ts[1]), matmul(ts[0], ts[1]))),
             [_rand(rng, (3, 4)), _rand(rng, (4, 2))]),
            (lambda ts: tsum(mul(reshape(ts[0], (2, 6)), reshape(ts[0], (2, 6)))),
             [_rand(rng, (3, 4))]),
            (lambda ts: tsum(mul(permute_axes(ts[0], (1, 2, 0)), 2.0)), [_rand(rng, (2, 3, 4))]),
            (lambda ts: tsum(mul(scatter_rows(ts[0], idx, 6), 3.0)), [_rand(rng, (3, 4))]),
        ]
        for fn, arrays in cases:
            check_grads(fn, arrays)

    def test_nonlinearities(self):
        rng = np.random.default_rng(44)
        cases = [
            (lambda ts: tsum(mul(gelu(ts[0]), ts[0])), [_rand(rng, (4, 4))]),
            (lambda ts: tsum(mul(layer_norm(ts[0], ts[1], ts[2]), ts[0])),
             [_rand(rng, (3, 6)), _rand(rng, (6,)), _rand(rng, (6,))]),
        ]
        for fn, arrays in cases:
            check_grads(fn, arrays)

    @pytest.mark.parametrize("shape,eps", [((7, 5), 1e-6), ((2, 4, 6), 0.5)])
    def test_layer_norm_grads(self, shape, eps):
        rng = np.random.default_rng(47)
        upstream = Tensor(rng.normal(size=shape))
        dim = shape[-1]

        def fn(ts):
            return tsum(mul(layer_norm(ts[0], ts[1], ts[2], eps), upstream))

        check_grads(fn, [_rand(rng, shape) * 2 + 1, _rand(rng, (dim,)), _rand(rng, (dim,))])

    @pytest.mark.parametrize("num_heads", [1, 2, 3])
    def test_attention_grads_all_inputs(self, num_heads):
        # distinct q, k, v: gradients of all 11 inputs against finite differences
        rng = np.random.default_rng(48 + num_heads)
        length, dim = 4, 6
        names = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")
        upstream = Tensor(rng.normal(size=(length, dim)))

        def fn(ts):
            p = AttentionParams(**dict(zip(names, ts[3:])))
            return tsum(mul(softmax_attention(ts[0], ts[1], ts[2], p, num_heads), upstream))

        arrays = [_rand(rng, (length, dim)) for _ in range(3)]
        arrays += [_rand(rng, (dim, dim)) * 0.5 if n[0] == "w" else _rand(rng, (dim,))
                   for n in names]
        check_grads(fn, arrays)

    def test_attention_grads(self):
        rng = np.random.default_rng(45)
        dim = 6
        params = AttentionParams.init(dim, RngStream(11))
        mats = params.tensors()
        names = sorted(mats)

        def fn(ts):
            p = AttentionParams(**{n: t for n, t in zip(names, ts)})
            x = Tensor(fn.x)
            return tsum(mul(softmax_attention(x, x, x, p, 2), 1.0))

        fn.x = rng.normal(size=(4, dim))
        arrays = [mats[n].data.copy() for n in names]
        check_grads(fn, arrays)

    def test_random_composites(self):
        # random small tensors, many trials, mixing several primitives
        rng = np.random.default_rng(46)
        for _ in range(40):
            a = _rand(rng, (3, 4))
            b = _rand(rng, (4, 3))

            def fn(ts):
                m = matmul(ts[0], ts[1])
                return tmean(mul(gelu(m), add(m, 0.5)))

            check_grads(fn, [a, b])


_DRAWS = ("stack", "complex_normal", "normal", "uniform", "integers", "choice", "permutation")


class TestRng:
    def test_zero_std_constant(self):
        t = RngStream(1, 2).normal((10,), mean=3.5, std=0.0)
        np.testing.assert_array_equal(t, np.full(10, 3.5))

    def test_clt_mean_bound(self):
        n = 1_000_000
        mean, std = 0.7, 2.0
        t = RngStream(3, 4).normal((n,), mean=mean, std=std)
        assert abs(t.mean() - mean) < 4 * std / math.sqrt(n)

    def test_bit_identical_streams(self):
        a = RngStream(42, 9).normal((1000,))
        b = RngStream(42, 9).normal((1000,))
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ_and_decorrelate(self):
        a = RngStream(42, 1).normal((20000,))
        b = RngStream(42, 2).normal((20000,))
        assert not np.array_equal(a, b)
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) < 0.03

    @pytest.mark.parametrize("sid", [0, 2**63, 2**64 - 1])
    def test_philox_key_is_seed_and_stream_id(self, sid):
        ours = RngStream(42, sid)
        ref = np.random.Generator(np.random.Philox(key=np.array([42, sid], dtype=np.uint64)))
        np.testing.assert_array_equal(ours._gen.bit_generator.state["state"]["key"],
                                      ref.bit_generator.state["state"]["key"])
        np.testing.assert_array_equal(ours.normal((100,)), ref.normal(size=100))

    def test_substream_deterministic(self):
        a = RngStream(5).substream(7, 9).normal((50,))
        b = RngStream(5).substream(7, 9).normal((50,))
        np.testing.assert_array_equal(a, b)

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.one_of(st.integers(0, 6), st.lists(st.integers(0, 4), max_size=3).map(tuple)),
        mean=st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
        var=st.floats(0.0, 1e6),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_complex_normal_matches_two_normal_draws(self, shape, mean, var, seed):
        got_rng, twin = RngStream(seed, 3), RngStream(seed, 3)
        got = got_rng.complex_normal(shape, mean, var)
        s = math.sqrt(var / 2.0)
        re = twin.normal(shape) * s + mean.real
        im = twin.normal(shape) * s + mean.imag
        want = re + 1j * im
        assert np.shape(got) == np.shape(want) and np.asarray(got).dtype == np.complex128
        np.testing.assert_array_equal(np.real(got), np.real(want))
        np.testing.assert_array_equal(np.imag(got), np.imag(want))
        # the stream continues where the twin's two draws left off
        np.testing.assert_array_equal(got_rng.normal((4,)), twin.normal((4,)))

    @settings(max_examples=60, deadline=None)
    @given(
        picks=st.lists(st.integers(0, 2), max_size=5),
        shape=st.one_of(st.integers(0, 6), st.lists(st.integers(0, 4), max_size=3).map(tuple)),
        mean=st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
        var=st.floats(0.0, 1e6),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_complex_normal_stack_matches_per_stream_draws(self, picks, shape, mean, var, seed):
        # picks lists T = 0..5 of three streams, some of them more than once
        streams = [RngStream(seed, i) for i in range(3)]
        twins = [RngStream(seed, i) for i in range(3)]
        got = complex_normal_stack([streams[i] for i in picks], shape, mean, var)
        one_shape = (shape,) if isinstance(shape, int) else shape
        assert got.shape == (len(picks), *one_shape) and got.dtype == np.complex128
        for slice_t, i in zip(got, picks):
            # a stream listed twice gives its two draws in list order
            want = twins[i].complex_normal(shape, mean, var)
            np.testing.assert_array_equal(np.real(slice_t), np.real(want))
            np.testing.assert_array_equal(np.imag(slice_t), np.imag(want))
        for stream, twin in zip(streams, twins):
            np.testing.assert_array_equal(stream.normal((4,)), twin.normal((4,)))

    @given(var=st.floats(max_value=-1e-300, allow_nan=False, allow_infinity=True))
    def test_complex_normal_stack_rejects_negative_var(self, var):
        with pytest.raises(ValueError, match="var must be >= 0"):
            complex_normal_stack([RngStream(1)], (2,), 0.0, var)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        sids=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3, unique=True),
        ops=st.lists(st.tuples(st.sampled_from(_DRAWS),
                               st.lists(st.integers(0, 2), min_size=1, max_size=4),
                               st.integers(0, 4)), max_size=8),
    )
    def test_lazy_streams_match_an_eager_reference(self, seed, sids, ops):
        # each stream against numpy's own generator on its key, built up front:
        # stack rows filled from the shared generator and later draws that
        # replay them must leave every stream where its reference is
        streams = [RngStream(seed, sid) for sid in sids]
        refs = [np.random.Generator(np.random.Philox(
            _PhiloxKey(np.array([seed, sid], dtype=np.uint64)))) for sid in sids]
        mean, var = 0.5 - 1.0j, 3.0
        scale = math.sqrt(var / 2.0)
        for op, picks, n in ops:
            picks = [p % len(sids) for p in picks]  # may list a stream twice
            if op == "stack":
                got = complex_normal_stack([streams[i] for i in picks], (n, 2), mean, var)
                for slice_t, i in zip(got, picks):
                    re, im = refs[i].standard_normal((2, n, 2)) * scale
                    np.testing.assert_array_equal(slice_t.real, re + mean.real)
                    np.testing.assert_array_equal(slice_t.imag, im + mean.imag)
                continue
            stream, ref = streams[picks[0]], refs[picks[0]]
            if op == "complex_normal":
                got = stream.complex_normal((n,), mean, var)
                re, im = ref.standard_normal((2, n)) * scale
                np.testing.assert_array_equal(got.real, re + mean.real)
                np.testing.assert_array_equal(got.imag, im + mean.imag)
            elif op == "normal":
                np.testing.assert_array_equal(stream.normal((n,), 0.3, 2.0),
                                              ref.normal(0.3, 2.0, size=(n,)))
            elif op == "uniform":
                np.testing.assert_array_equal(stream.uniform((n,), -1.0, 2.0),
                                              ref.uniform(-1.0, 2.0, size=(n,)))
            elif op == "integers":
                np.testing.assert_array_equal(stream.integers(0, 10, (n,)),
                                              ref.integers(0, 10, size=(n,)))
            elif op == "choice":
                np.testing.assert_array_equal(stream.choice(5, n), ref.choice(5, size=n, replace=False))
            else:
                np.testing.assert_array_equal(stream.permutation(n + 1), ref.permutation(n + 1))
        for stream, ref in zip(streams, refs):
            np.testing.assert_array_equal(stream.normal((3,)), ref.normal(size=3))


@pytest.fixture
def philox_builds(monkeypatch):
    """Record every numpy Philox constructed while the test runs."""
    built = []

    class CountingPhilox(np.random.Philox):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", CountingPhilox)
    return built


class TestRngCost:
    """Streams that never draw build no generator, and first stack rows come
    from the shared one: a stream builds its own only when it draws again."""

    def test_bench_cell_builds_no_philox(self, philox_builds):
        cfg = ChannelConfig(kind="rician", n_t=2, n_r=3, snr_db=10.0, csi_error_var=0.05)
        streams = [RngStream(5, 6).substream(t) for t in range(8)]
        x = complex_normal_stack(streams, (16, 1), 0.0, 1.0)
        vals = nmse(x, fading_cells(x, [cfg], streams)[0])
        assert vals.shape == (8,)
        assert philox_builds == []

    def test_transport_builds_no_philox(self, philox_builds):
        k = 4
        z = synth_correlated_semantics(RngStream(7), k, 24, 12, 0.5)
        part = partition(z, 0.5)
        assert part.l_pub and part.l_pri
        codecs = [ChanCodecParams.init(12, 8, RngStream(8, u)) for u in range(k + 1)]
        philox_builds.clear()
        transport(part, codecs[:k], codecs[k], ChannelConfig(kind="rayleigh", n_t=2, n_r=2,
                                                             csi_error_var=0.02), RngStream(9))
        assert philox_builds == []

    def test_stream_drawing_after_its_stack_row_builds_one_philox(self, philox_builds):
        stream = RngStream(10, 11)
        complex_normal_stack([stream], (3,))
        assert philox_builds == []
        stream.normal((2,))
        stream.normal((2,))
        assert len(philox_builds) == 1


class TestSinusoidTable:
    def test_closed_form(self):
        table = sinusoid_table(10, 8)
        for pos in range(10):
            for i in range(4):
                angle = pos / 10000 ** (2 * i / 8)
                assert abs(table[pos, 2 * i] - math.sin(angle)) < 1e-12
                assert abs(table[pos, 2 * i + 1] - math.cos(angle)) < 1e-12

    def test_rows_distinct(self):
        table = sinusoid_table(64, 32)
        assert len({tuple(np.round(r, 9)) for r in table}) == 64


class TestSnapshot:
    def test_real_roundtrip(self):
        t = Tensor(np.random.default_rng(0).normal(size=(3, 4, 2)))
        back, _ = tensor_from_bytes(tensor_to_bytes(t))
        np.testing.assert_array_equal(back.data, t.data)

    def test_only_tensors_are_written(self):
        for value in (np.zeros(3), np.zeros(3, dtype=complex), [1.0 + 0j], 1j):
            with pytest.raises(TypeError):
                tensor_to_bytes(value)

    def test_checkpoint_roundtrip_and_stability(self, tmp_path):
        rng = np.random.default_rng(3)
        tensors = {"a": Tensor(rng.normal(size=(4,))), "b": Tensor(rng.normal(size=(2, 2)))}
        p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
        save_tensors(p1, tensors)
        save_tensors(p2, tensors)
        assert p1.read_bytes() == p2.read_bytes()
        loaded = load_tensors(p1)
        assert set(loaded) == {"a", "b"}
        np.testing.assert_array_equal(loaded["a"].data, tensors["a"].data)

    def test_every_truncation_raises_parse_error(self, tmp_path):
        from semlink.errors import ParseError

        rng = np.random.default_rng(4)
        path = tmp_path / "full.ckpt"
        save_tensors(path, {"w": Tensor(rng.normal(size=(2, 3))),
                            "z": Tensor(rng.normal(size=2))})
        buf = path.read_bytes()
        for cut in range(len(buf)):
            path.write_bytes(buf[:cut])
            with pytest.raises(ParseError):
                load_tensors(path)

    def test_bad_magic(self):
        from semlink.errors import ParseError

        with pytest.raises(ParseError):
            tensor_from_bytes(b"JUNKxxxxxxxxxxxx")

    @pytest.mark.parametrize("dims", [(0, 2**64 - 1), (2**63, 0), (0,) * 70])
    def test_dims_no_array_can_hold_raise_parse_error(self, dims):
        block = b"SLNK" + struct.pack(f"<BB{len(dims)}Q", 0, len(dims), *dims)
        with pytest.raises(ParseError):
            tensor_from_bytes(block)

    _SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)

    @given(hnp.arrays(np.float64, _SHAPES, elements=st.floats(allow_nan=False, allow_infinity=False)))
    @settings(max_examples=60, deadline=None)
    def test_real_arrays_roundtrip_bitwise(self, arr):
        back, end = tensor_from_bytes(tensor_to_bytes(Tensor(arr)))
        assert isinstance(back, Tensor)
        assert back.shape == arr.shape and back.data.tobytes() == arr.tobytes()
        assert end == len(tensor_to_bytes(Tensor(arr)))

    @given(st.lists(st.tuples(st.sampled_from(["cut", "flip", "insert"]),
                              st.integers(0, 10**6), st.binary(min_size=1, max_size=9)),
                    min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_corrupted_checkpoint_parses_or_raises_parse_or_non_finite(self, tmp_path, edits):
        path = tmp_path / "fuzz.ckpt"
        save_tensors(path, {"w": Tensor(np.arange(6.0).reshape(2, 3)),
                            "z": Tensor(np.array([1.0, -3.0]))})
        buf = bytearray(path.read_bytes())
        for op, pos, raw in edits:
            pos %= len(buf) + 1
            if op == "cut":
                del buf[pos:]
            elif op == "flip" and pos < len(buf):
                buf[pos] ^= raw[0]
            elif op == "insert":
                buf[pos:pos] = raw
        path.write_bytes(bytes(buf))  # the same file is rewritten for every example
        try:
            out = load_tensors(path)
        except (ParseError, NonFiniteError):
            return
        assert isinstance(out, dict)


@st.composite
def row_selections(draw):
    """(matrix [n, d], distinct row indices in random order)."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 5))
    idx = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    a = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(n, d))
    return a, np.asarray(idx, dtype=np.intp)


class TestGatherScatterBijection:
    @settings(max_examples=100, deadline=None)
    @given(row_selections())
    def test_gather_inverts_scatter(self, case):
        a, idx = case
        src = a[: len(idx)]
        back = scatter_rows(src, idx, a.shape[0]).data[idx]
        np.testing.assert_array_equal(back, src)

    @settings(max_examples=100, deadline=None)
    @given(row_selections())
    def test_scatter_of_gather_keeps_selected_rows_and_zeroes_the_rest(self, case):
        a, idx = case
        out = scatter_rows(a[idx], idx, a.shape[0]).data
        np.testing.assert_array_equal(out[idx], a[idx])
        rest = np.setdiff1d(np.arange(a.shape[0]), idx)
        assert not out[rest].any()
        if len(idx) == a.shape[0]:  # a permutation: the round trip is the identity
            np.testing.assert_array_equal(out, a)

    @settings(max_examples=100, deadline=None)
    @given(row_selections(), st.integers(0, 2**32 - 1))
    def test_gradients_are_adjoint(self, case, seed):
        a, idx = case
        g = np.random.default_rng(seed).normal(size=a.shape)
        src = Tensor(a[: len(idx)], requires_grad=True)
        backward(tsum(mul(scatter_rows(src, idx, a.shape[0]), g)))
        np.testing.assert_array_equal(src.grad, g[idx])
