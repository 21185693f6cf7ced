import numpy as np
import pytest

from gradcheck import check_grads
from semlink.chancodec import (
    ChanCodecParams,
    chan_decode,
    chan_decode_real,
    chan_encode,
    chan_encode_real,
    inverse_params,
)
from semlink.ctensor import complex_to_real_view, real_view_to_complex
from semlink.errors import NonFiniteError, ShapeError
from semlink.rng import RngStream
from semlink.tensor import Tensor, add, matmul, mul, sub, tmean
from semlink.training import Adam


def zero_params(d_s, d_c):
    z = lambda *s: Tensor(np.zeros(s))
    return ChanCodecParams(z(d_s, 2 * d_c), z(2 * d_c), z(2 * d_c, d_s), z(d_s))


class TestEncodeDecode:
    def test_zero_weights_zero_symbols(self):
        params = zero_params(6, 2)
        x = chan_encode(np.random.default_rng(0).normal(size=(4, 6)), params)
        np.testing.assert_array_equal(x, np.zeros((4, 2), dtype=complex))

    def test_interleave_convention(self):
        # identity weights on feature_dim == 2*symbol_dim: row -> re/im pairs
        d_s, d_c = 4, 2
        params = zero_params(d_s, d_c)
        params.enc_weight.data[...] = np.eye(d_s)
        rows = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
        x = chan_encode(rows, params)
        np.testing.assert_array_equal(x, [[1 + 2j, 3 + 4j], [5 + 6j, 7 + 8j]])

    def test_output_shape(self):
        params = ChanCodecParams.init(16, 4, RngStream(1))
        for length in (1, 7, 30):
            x = chan_encode(np.random.default_rng(1).normal(size=(length, 16)), params)
            assert x.shape == (length, 4)

    def test_zero_input_gives_decoder_bias(self):
        params = ChanCodecParams.init(8, 4, RngStream(2))
        params.dec_bias.data[...] = np.arange(8, dtype=float)
        out = chan_decode(np.zeros((3, 4), dtype=complex), params)
        np.testing.assert_array_equal(out, np.tile(np.arange(8.0), (3, 1)))

    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf), -np.inf])
    def test_non_finite_symbols_rejected(self, bad):
        params = ChanCodecParams.init(8, 4, RngStream(2))
        x_hat = np.ones((3, 4), dtype=complex)
        x_hat[1, 2] = bad
        with pytest.raises(NonFiniteError):
            chan_decode(x_hat, params)

    def test_pseudo_inverse_roundtrip(self):
        # exact recovery when 2*symbol_dim >= feature_dim
        d_s, d_c = 12, 8
        params = inverse_params(ChanCodecParams.init(d_s, d_c, RngStream(3)))
        rows = np.random.default_rng(2).normal(size=(6, d_s))
        back = chan_decode(chan_encode(rows, params), params)
        assert np.abs(back - rows).max() < 1e-8

    def test_shape_contracts(self):
        params = ChanCodecParams.init(8, 4, RngStream(4))
        with pytest.raises(ShapeError):
            chan_encode_real(Tensor(np.zeros((3, 9))), params)
        with pytest.raises(ShapeError):
            chan_decode_real(Tensor(np.zeros((3, 9))), params)
        for bad in (np.zeros((3, 9)), np.zeros(8)):
            with pytest.raises(ShapeError):
                chan_encode(bad, params)
        with pytest.raises(ShapeError):
            chan_decode(np.zeros((3, 5), dtype=complex), params)

    @pytest.mark.parametrize("d_s,d_c,length", [(6, 2, 4), (16, 4, 1), (12, 8, 30)])
    def test_forward_maps_equal_real_views(self, d_s, d_c, length):
        # the evaluation maps and the differentiable training maps agree bit for bit
        params = ChanCodecParams.init(d_s, d_c, RngStream(6, d_s))
        rng = np.random.default_rng(length)
        v = rng.normal(size=(length, d_s))
        x = rng.normal(size=(length, d_c)) + 1j * rng.normal(size=(length, d_c))
        np.testing.assert_array_equal(
            chan_encode(v, params), real_view_to_complex(chan_encode_real(Tensor(v), params).data))
        np.testing.assert_array_equal(
            chan_decode(x, params), chan_decode_real(Tensor(complex_to_real_view(x)), params).data)


class TestAffinity:
    def test_affine_identity(self):
        # f(a x + b y) == a f(x) + b f(y) + (1 - a - b) f(0)
        params = ChanCodecParams.init(10, 3, RngStream(5))
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(4, 10)), rng.normal(size=(4, 10))
        a, b = 0.7, -1.3
        for fwd in (
            lambda v: chan_encode_real(Tensor(v), params).data,
            lambda v: chan_decode_real(Tensor(v[:, :6]), params).data,
        ):
            lhs = fwd(a * x + b * y)
            rhs = a * fwd(x) + b * fwd(y) + (1 - a - b) * fwd(np.zeros_like(x))
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestGradients:
    def test_finite_differences_through_both_maps(self):
        d_s, d_c = 6, 2
        rng = np.random.default_rng(4)
        z = rng.normal(size=(3, d_s))

        def fn(ts):
            params = ChanCodecParams(ts[0], ts[1], ts[2], ts[3])
            view = chan_encode_real(Tensor(z), params)
            out = chan_decode_real(view, params)
            return tmean(mul(out, out))

        arrays = [
            rng.normal(size=(d_s, 2 * d_c)),
            rng.normal(size=(2 * d_c,)),
            rng.normal(size=(2 * d_c, d_s)),
            rng.normal(size=(d_s,)),
        ]
        check_grads(fn, arrays)


class TestTrainedCompression:
    def test_trained_pair_on_identity_channel(self):
        # 4x compression (symbol_dim / feature_dim = 1/4) on correlated
        # Gaussian semantics: relative reconstruction error under 5%
        d_s, d_c, rank = 32, 8, 10
        rng = RngStream(77)
        mix = rng.normal((rank, d_s))
        params = ChanCodecParams.init(d_s, d_c, rng.substream(1))
        opt = Adam(params.trainables(), lr=2e-2)

        def batch(stream, n=32):
            lat = stream.normal((n, rank))
            return lat @ mix + 0.01 * stream.normal((n, d_s))

        from semlink.tensor import backward

        for step in range(400):
            z = Tensor(batch(rng.substream(2, step)))
            z_hat = chan_decode_real(chan_encode_real(z, params), params)
            d = sub(z_hat, z)
            loss = tmean(mul(d, d))
            backward(loss)
            opt.step()
            opt.zero()

        held = batch(rng.substream(3), n=200)
        z = Tensor(held)
        z_hat = chan_decode_real(chan_encode_real(z, params), params)
        rel = np.linalg.norm(z_hat.data - held) / np.linalg.norm(held)
        assert rel < 0.05, f"relative reconstruction error {rel:.3f}"
