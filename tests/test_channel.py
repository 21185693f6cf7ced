import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import fd_grad
from semlink.channel import (
    ChannelConfig,
    ChannelFrame,
    calibrate_noise,
    draw_channel,
    fading_cells,
    lmmse_detect,
    normalize_power,
    power_scale,
    surrogate_channel,
    surrogate_gains,
    transmit,
    transmit_detect,
)
from semlink.errors import ConfigError, ContractError, NonFiniteError, NumericError, ShapeError
from semlink.metrics import nmse
from semlink.rng import RngStream
from semlink.tensor import Tensor


class TestNormalizePower:
    def test_analytic_scale(self):
        x = np.array([[2.0 + 0j, 2.0j], [-2.0, 2.0]])
        assert np.mean(np.abs(x) ** 2) == 4.0
        scaled = normalize_power(x[None], 1.0)[0]
        np.testing.assert_allclose(scaled, x * 0.5)
        assert abs(np.mean(np.abs(scaled) ** 2) - 1.0) < 1e-10

    def test_idempotent(self):
        x = (np.random.default_rng(0).normal(size=(3, 4))
             + 1j * np.random.default_rng(1).normal(size=(3, 4)))
        once = normalize_power(x[None], 2.0)
        twice = normalize_power(once, 2.0)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_postcondition_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
            p = float(rng.uniform(0.1, 5.0))
            assert abs(np.mean(np.abs(normalize_power(x[None], p)) ** 2) - p) < 1e-10 * p

    def test_zero_signal_rejected(self):
        with pytest.raises(ContractError):
            normalize_power(np.zeros((1, 2, 2), dtype=complex), 1.0)


class TestDrawChannel:
    def test_rician_zero_factor_matches_rayleigh_moments(self):
        n = 100_000
        cfg = ChannelConfig(kind="rician", rician_r=0.0, n_t=1, n_r=1)
        rng = RngStream(5)
        h = np.array([draw_channel(cfg, [rng]).h[0, 0, 0] for _ in range(2000)])
        # moment test: CN(0,1) has zero mean, unit second moment
        assert abs(h.mean()) < 4 / math.sqrt(2000)
        assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 0.1

    def test_rician_large_factor_is_los(self):
        cfg = ChannelConfig(kind="rician", rician_r=1e9, n_t=2, n_r=2)
        frame = draw_channel(cfg, [RngStream(6)])
        assert np.abs(frame.h - 1.0).max() < 1e-3

    def test_perfect_csi_bitwise(self):
        cfg = ChannelConfig(kind="rayleigh", csi_error_var=0.0)
        frame = draw_channel(cfg, [RngStream(7)])
        assert np.array_equal(frame.h, frame.h_hat)

    def test_csi_error_variance(self):
        cfg = ChannelConfig(kind="rayleigh", csi_error_var=0.05)
        rng = RngStream(8)
        errs = []
        for _ in range(5000):
            frame = draw_channel(cfg, [rng])
            errs.append(abs(frame.h_hat[0, 0, 0] - frame.h[0, 0, 0]) ** 2)
        assert abs(np.mean(errs) - 0.05) < 0.005

    def test_awgn_identity(self):
        frame = draw_channel(ChannelConfig(kind="awgn", n_t=2, n_r=2), [RngStream(9)])
        np.testing.assert_array_equal(frame.h[0], np.eye(2))

    def test_awgn_rectangular_rejected(self):
        with pytest.raises(ConfigError):
            ChannelConfig(kind="awgn", n_t=2, n_r=1)


class TestTransmit:
    def test_identity_noiseless(self):
        frame = ChannelFrame(np.eye(1, dtype=complex)[None], np.eye(1, dtype=complex)[None], 0.0)
        x = (np.random.default_rng(3).normal(size=(4, 3))
             + 1j * np.random.default_rng(4).normal(size=(4, 3)))
        y = transmit(x[None], frame, [RngStream(10)])
        np.testing.assert_array_equal(y.reshape(-1), x.reshape(-1))

    def test_hand_2x2_product(self):
        h = np.array([[1.0 + 1j, 0.5], [0.0, 2.0 - 1j]])
        frame = ChannelFrame(h[None], h[None], 0.0)
        x = np.array([[1.0 + 0j, 2.0, 3.0, 4.0]])  # 4 symbols -> 2 blocks
        y = transmit(x[None], frame, [RngStream(11)])
        blocks = np.array([[1.0, 3.0], [2.0, 4.0]], dtype=complex)  # column-wise fill
        np.testing.assert_allclose(y[0], h @ blocks, atol=1e-14)

    def test_noise_power_matches_variance(self):
        var = 0.37
        frame = ChannelFrame(np.eye(1, dtype=complex)[None], np.eye(1, dtype=complex)[None], var)
        x = np.zeros((1000, 100), dtype=complex)
        y = transmit(x[None], frame, [RngStream(12)])
        measured = np.mean(np.abs(y) ** 2)
        assert abs(measured - var) / var < 0.02

    def test_padding_roundtrip_preserves_shape(self):
        cfg = ChannelConfig(kind="rayleigh", snr_db=30.0, n_t=2, n_r=2)
        frame = draw_channel(cfg, [RngStream(13)])
        x = np.random.default_rng(5).normal(size=(3, 3)).astype(complex)  # 9 % 2 != 0
        x_hat = transmit_detect(x[None], frame, [RngStream(14)])[0]
        assert x_hat.shape == x.shape


class TestLmmse:
    def test_scalar_closed_form(self):
        frame = ChannelFrame(np.eye(1, dtype=complex)[None], np.eye(1, dtype=complex)[None], 1.0)
        out = lmmse_detect(np.array([[[2.0 + 0j]]]), frame, (1, 1))
        assert abs(out[0, 0] - 1.0) < 1e-12

    def test_scalar_closed_form_random(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            h = complex(rng.normal(), rng.normal())
            var = float(rng.uniform(0.01, 2.0))
            y = complex(rng.normal(), rng.normal())
            frame = ChannelFrame(np.array([[[h]]]), np.array([[[h]]]), var)
            got = lmmse_detect(np.array([[[y]]]), frame, (1, 1))[0, 0]
            expected = np.conj(h) * y / (abs(h) ** 2 + var)
            assert abs(got - expected) < 1e-12

    def test_near_zero_forcing_limit(self):
        rng = np.random.default_rng(7)
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        frame = ChannelFrame(h[None], h[None], 1e-12)
        x = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        y = transmit(x[None], frame, [RngStream(15)])
        x_hat = lmmse_detect(y, frame, out_shape=(1, *x.shape))[0]
        rel = np.linalg.norm(x_hat - x) / np.linalg.norm(x)
        assert rel < 1e-4

    def test_error_decays_monotonically_with_noise_floor(self):
        rng = np.random.default_rng(8)
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        x = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        errors = []
        for exp in range(2, 11):  # noise_var 1e-2 ... 1e-10
            frame = ChannelFrame(h[None], h[None], 10.0 ** (-exp))
            y = transmit(x[None], frame, [RngStream(16)])  # noise_var applies in detection too
            # noiseless receive: use zero-noise transmit for the limit study
            frame0 = ChannelFrame(h[None], h[None], 0.0)
            y0 = transmit(x[None], frame0, [RngStream(17)])
            x_hat = lmmse_detect(y0, ChannelFrame(h[None], h[None], 10.0 ** (-exp)),
                                 out_shape=(1, *x.shape))[0]
            errors.append(np.linalg.norm(x_hat - x))
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 1e-8

    def test_scalar_rayleigh_mse_against_integral(self):
        # E|x_hat - x|^2 = E_h[ var / (|h|^2 + var) ] with unit signal power
        from scipy.integrate import quad

        var = 0.5
        trials = 20_000
        rng = RngStream(18)
        cfg = ChannelConfig(kind="rayleigh", snr_db=10.0 * math.log10(1.0 / var))
        total = 0.0
        for _ in range(trials):
            frame = draw_channel(cfg, [rng])
            x = rng.complex_normal((1, 1), 0.0, 1.0)
            y = transmit(x[None], frame, [rng])
            x_hat = lmmse_detect(y, frame, out_shape=(1, 1, 1))[0]
            total += abs(x_hat[0, 0] - x[0, 0]) ** 2
        empirical = total / trials
        analytic = quad(lambda t: var / (t + var) * math.exp(-t), 0.0, np.inf)[0]
        assert abs(empirical - analytic) / analytic < 0.1

    def test_nmse_monotone_in_csi_error(self):
        vals = []
        for csi_var in (0.0, 0.01, 0.05, 0.1):
            cfg = ChannelConfig(kind="rayleigh", snr_db=10.0, csi_error_var=csi_var)
            rng = RngStream(19)
            total = 0.0
            n = 3000
            for _ in range(n):
                frame = draw_channel(cfg, [rng])
                x = normalize_power(rng.complex_normal((8, 1), 0.0, 1.0)[None], 1.0)
                x_hat = transmit_detect(x, frame, [rng])
                total += nmse(x, x_hat)[0]
            vals.append(total / n)
        assert all(b >= a * 0.98 for a, b in zip(vals, vals[1:])), vals
        assert vals[-1] > vals[0]


class TestPowerInvariance:
    """L-MMSE regularizes with noise_var / p_s, so at a fixed SNR the
    detection NMSE does not depend on the power budget."""

    @pytest.mark.parametrize("kind,n,csi_var", [("awgn", 1, 0.0), ("rayleigh", 2, 0.0),
                                                ("rician", 3, 0.05)])
    def test_nmse_same_at_every_p_s(self, kind, n, csi_var):
        x0 = RngStream(40).complex_normal((16, 2), 0.0, 1.0)
        vals = []
        for p_s in (1.0, 4.0, 0.25):
            cfg = ChannelConfig(kind=kind, snr_db=10.0, n_t=n, n_r=n,
                                csi_error_var=csi_var, p_s=p_s)
            x = normalize_power(x0[None], p_s)
            frame = draw_channel(cfg, [RngStream(41)])
            assert frame.p_s == p_s
            vals.append(nmse(x, transmit_detect(x, frame, [RngStream(42)]))[0])
        np.testing.assert_allclose(vals[1:], vals[0], rtol=1e-12, atol=0)

    def test_awgn_nmse_near_lmmse_optimum_at_p_s_4(self):
        # scalar LMMSE over AWGN at SNR 10: E|x_hat - x|^2 / p_s = 1 / (1 + 10)
        cfg = ChannelConfig(kind="awgn", snr_db=10.0, p_s=4.0)
        x = normalize_power(RngStream(43).complex_normal((20_000, 1), 0.0, 1.0)[None], 4.0)
        val = nmse(x, transmit_detect(x, draw_channel(cfg, [RngStream(44)]), [RngStream(45)]))[0]
        assert abs(val - 1.0 / 11.0) < 0.003


def _csi_blind_detect(y, frame, out_shape):
    """The detector that treats the estimated CSI as exact: regularizer
    noise_var / p_s, whatever the CSI error (out_shape without padding)."""
    hh = frame.h_hat
    hh_h = hh.conj().swapaxes(-1, -2)
    reg = max(frame.noise_var / frame.p_s, 1e-12)
    blocks = hh_h @ np.linalg.solve(hh @ hh_h + reg * np.eye(hh.shape[-2]), y)
    return blocks.swapaxes(-1, -2).reshape(out_shape)


def _stacked_cell(cfg, trials, n_sym, seed):
    streams = [RngStream(seed, t) for t in range(trials)]
    x = normalize_power(
        np.stack([r.complex_normal((n_sym, 1), 0.0, 1.0) for r in streams]), cfg.p_s)
    frame = draw_channel(cfg, [r.substream(1) for r in streams])
    return x, frame, transmit(x, frame, [r.substream(2) for r in streams])


class TestCsiAwareDetection:
    """With CSI error E = H_hat - H of variance csi_error_var per entry, the
    detector adds n_t * csi_error_var to its regularizer."""

    def test_frame_carries_csi_error_var(self):
        for var in (0.0, 0.05):
            cfg = ChannelConfig(kind="rayleigh", n_t=2, n_r=2, csi_error_var=var)
            assert draw_channel(cfg, [RngStream(60)]).csi_error_var == var
            assert draw_channel(cfg, [RngStream(60), RngStream(61)]).csi_error_var == var

    @pytest.mark.parametrize("kind,n,p_s", [("awgn", 1, 1.0), ("rayleigh", 4, 4.0),
                                            ("rician", 2, 0.5)])
    def test_perfect_csi_matches_csi_blind_detector_bitwise(self, kind, n, p_s):
        cfg = ChannelConfig(kind=kind, snr_db=10.0, n_t=n, n_r=n, p_s=p_s)
        x, frame, y = _stacked_cell(cfg, 20, 16, 62)
        np.testing.assert_array_equal(lmmse_detect(y, frame, x.shape),
                                      _csi_blind_detect(y, frame, x.shape))

    def test_lower_nmse_than_csi_blind_detector(self):
        cfg = ChannelConfig(kind="rayleigh", snr_db=20.0, n_t=4, n_r=4, csi_error_var=0.05)
        x, frame, y = _stacked_cell(cfg, 200, 64, 63)
        aware = nmse(x, lmmse_detect(y, frame, out_shape=x.shape))
        blind_nmse = nmse(x, _csi_blind_detect(y, frame, x.shape))
        assert aware.mean() < 0.9 * blind_nmse.mean(), (aware.mean(), blind_nmse.mean())


class TestKnownIdentityChannel:
    """The awgn (identity) channel is known exactly: csi_error_var leaves its
    CSI and its detection untouched, and only corrupts the fading kinds."""

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_awgn_csi_is_exact(self, n):
        cfg = ChannelConfig(kind="awgn", n_t=n, n_r=n, csi_error_var=0.05)
        assert cfg.effective_csi_error_var == 0.0
        for frame in (draw_channel(cfg, [RngStream(70)]),
                      draw_channel(cfg, [RngStream(70), RngStream(71)])):
            np.testing.assert_array_equal(frame.h_hat, frame.h)
            np.testing.assert_array_equal(frame.h, np.broadcast_to(np.eye(n), frame.h.shape))
            assert frame.csi_error_var == 0.0

    def test_awgn_detection_same_at_every_csi_error(self):
        x = normalize_power(RngStream(72).complex_normal((4, 16, 2), 0.0, 1.0), 1.0)
        outs = []
        for csi_var in (0.0, 0.01, 0.1):
            cfg = ChannelConfig(kind="awgn", snr_db=5.0, n_t=2, n_r=2, csi_error_var=csi_var)
            frame = draw_channel(cfg, [RngStream(73, t) for t in range(4)])
            outs.append(transmit_detect(x, frame, [RngStream(74, t) for t in range(4)]))
        for out in outs[1:]:
            assert out.tobytes() == outs[0].tobytes()

    @pytest.mark.parametrize("kind", ["rayleigh", "rician"])
    def test_fading_csi_error_drawn_after_the_channel(self, kind):
        cfg = ChannelConfig(kind=kind, n_t=2, n_r=3, rician_r=2.0, csi_error_var=0.05)
        assert cfg.effective_csi_error_var == 0.05
        frame = draw_channel(cfg, [RngStream(75)])
        r = RngStream(75)
        if kind == "rayleigh":
            h = r.complex_normal((3, 2), 0.0, 1.0)
        else:
            h = r.complex_normal((3, 2), math.sqrt(2.0 / 3.0), 1.0 / 3.0)
        e = r.complex_normal((3, 2), 0.0, 0.05)
        assert frame.h[0].tobytes() == h.tobytes()
        assert frame.h_hat[0].tobytes() == (h + e).tobytes()
        assert frame.csi_error_var == 0.05


class TestStackedFrames:
    def test_stack_matches_single_frames(self):
        cfg = ChannelConfig(kind="rician", snr_db=5.0, n_t=2, n_r=3, csi_error_var=0.02, p_s=2.0)
        streams = [RngStream(50, t) for t in range(4)]
        x = RngStream(51).complex_normal((4, 7, 3), 0.0, 1.0)
        stacked = draw_channel(cfg, [s.substream(1) for s in streams])
        assert stacked.h.shape == stacked.h_hat.shape == (4, 3, 2)
        x_hat = transmit_detect(x, stacked, [s.substream(2) for s in streams])
        assert x_hat.shape == x.shape
        for t, s in enumerate(streams):
            frame = draw_channel(cfg, [s.substream(1)])
            np.testing.assert_array_equal(stacked.h_hat[t], frame.h_hat[0])
            single = transmit_detect(x[t][None], frame, [s.substream(2)])[0]
            np.testing.assert_array_equal(x_hat[t], single)

    def test_stacked_power_and_nmse_per_signal(self):
        x = RngStream(52).complex_normal((3, 5, 2), 0.0, 1.0)
        scaled = normalize_power(x, 2.0)
        for t in range(3):
            assert abs(np.mean(np.abs(scaled[t]) ** 2) - 2.0) < 1e-12
        vals = nmse(x, scaled)
        assert vals.shape == (3,)
        for t in range(3):
            assert vals[t] == nmse(x[t][None], scaled[t][None])[0]

    def test_zero_signal_in_stack_rejected(self):
        x = np.ones((2, 3, 1), dtype=complex)
        x[1] = 0.0
        with pytest.raises(ContractError):
            normalize_power(x, 1.0)
        with pytest.raises(ContractError):
            nmse(x, x)

    def test_stack_size_mismatch_rejected(self):
        cfg = ChannelConfig(kind="rayleigh", n_t=2, n_r=2)
        frame = draw_channel(cfg, [RngStream(53, t) for t in range(3)])
        x = np.ones((2, 4, 1), dtype=complex)
        with pytest.raises(ShapeError):
            transmit(x, frame, [RngStream(54, t) for t in range(2)])
        x3 = np.ones((3, 4, 1), dtype=complex)
        with pytest.raises(ShapeError):
            transmit(x3, frame, [RngStream(54, t) for t in range(2)])
        y = transmit(x3, frame, [RngStream(54, t) for t in range(3)])
        with pytest.raises(ShapeError):
            lmmse_detect(y[:2], frame, (2, 4, 1))
        with pytest.raises(ShapeError):
            lmmse_detect(y, frame, out_shape=(2, 4, 1))

    @pytest.mark.parametrize("snr_db,count", [(10.0, 0), (math.inf, 0), (math.inf, 5)])
    def test_stream_count_checked_with_or_without_noise(self, snr_db, count):
        cfg = ChannelConfig(kind="rayleigh", snr_db=snr_db, n_t=2, n_r=2)
        frame = draw_channel(cfg, [RngStream(56, t) for t in range(2)])
        x = np.ones((2, 4, 1), dtype=complex)
        with pytest.raises(ShapeError):
            transmit(x, frame, [RngStream(57, t) for t in range(count)])

    def test_draw_needs_a_stream(self):
        with pytest.raises(ShapeError):
            draw_channel(ChannelConfig(kind="rayleigh"), [])

    def test_non_finite_stack_rejected(self):
        h = np.ones((2, 1, 1), dtype=complex)
        h[1, 0, 0] = np.nan
        y = np.ones((2, 1, 3), dtype=complex)
        with pytest.raises(NonFiniteError):
            lmmse_detect(y, ChannelFrame(np.ones((2, 1, 1), dtype=complex), h, 0.1), (2, 3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    @pytest.mark.parametrize("which", ["h", "h_hat"])
    def test_non_finite_channel_caught_before_decoding(self, bad, which):
        streams = [RngStream(55, t) for t in range(3)]
        x = RngStream(56).complex_normal((3, 4, 2), 0.0, 1.0)
        other = "h_hat" if which == "h" else "h"
        # noisy CSI, then exact CSI (awgn, and rayleigh at csi_error_var 0)
        for cfg in (ChannelConfig(kind="rayleigh", n_t=2, n_r=2, csi_error_var=0.01),
                    ChannelConfig(kind="awgn", n_t=2, n_r=2),
                    ChannelConfig(kind="rayleigh", n_t=2, n_r=2)):
            frame = draw_channel(cfg, [s.substream(1) for s in streams])
            kept = getattr(frame, other).copy()
            getattr(frame, which)[2, 1, 0] = bad
            np.testing.assert_array_equal(getattr(frame, other), kept)
            with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError):
                transmit_detect(x, frame, [s.substream(2) for s in streams])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_signal_rejected_by_transmit(self, bad):
        single = draw_channel(ChannelConfig(kind="rayleigh", n_t=2, n_r=2), [RngStream(57)])
        x = RngStream(58).complex_normal((4, 2), 0.0, 1.0)
        x[3, 1] = bad
        with pytest.raises(NonFiniteError):
            transmit(x[None], single, [RngStream(59)])
        stacked = draw_channel(ChannelConfig(kind="awgn"), [RngStream(57, t) for t in range(2)])
        xs = np.ones((2, 4, 1), dtype=complex)
        xs[1, 0, 0] = bad
        with pytest.raises(NonFiniteError):
            transmit(xs, stacked, [RngStream(59, t) for t in range(2)])

    def test_singular_frame_in_stack_raises_numeric_error(self):
        h = np.ones((2, 2, 2), dtype=complex)
        h[0] = np.eye(2)
        h[1] *= 1e10  # rank one; the 1e-12 regularizer vanishes beside 2e20
        frame = ChannelFrame(h, h, 0.0)
        y = np.ones((2, 2, 3), dtype=complex)
        with pytest.raises(NumericError):
            lmmse_detect(y, frame, (2, 6))


@st.composite
def stack_cases(draw):
    """(channel config, stack shape [T, L, S], seed); awgn is square only."""
    kind = draw(st.sampled_from(["awgn", "rayleigh", "rician"]))
    n_t = draw(st.integers(1, 4))
    n_r = n_t if kind == "awgn" else draw(st.integers(1, 4))
    cfg = ChannelConfig(kind=kind, snr_db=10.0, n_t=n_t, n_r=n_r,
                        csi_error_var=draw(st.sampled_from([0.0, 0.02])),
                        p_s=draw(st.floats(0.25, 4.0)))
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 6)), draw(st.integers(1, 4)))
    return cfg, shape, draw(st.integers(0, 2**32 - 1))


class TestStackConvention:
    """One frame is the stack T = 1: each signal of a stack comes out of
    a one-cell fading_cells pass exactly as when sent alone with its own stream."""

    @given(stack_cases())
    @settings(max_examples=60, deadline=None)
    def test_stack_equals_each_slice_sent_alone(self, case):
        cfg, shape, seed = case
        x = RngStream(seed).complex_normal(shape, 0.0, 1.0)
        streams = [RngStream(seed, 1 + t) for t in range(shape[0])]
        out = fading_cells(x, [cfg], streams)[0]
        assert out.shape == x.shape
        for t in range(shape[0]):
            alone = fading_cells(x[t:t + 1], [cfg], [streams[t]])[0]
            assert alone.tobytes() == out[t:t + 1].tobytes()


def per_cell(x, cfg, rng, frame=None):
    """One cell sent on its own through the public one-frame functions: power
    scale, the channel of rng.substream(1) unless given, transmit_detect with
    noise from rng.substream(2), and the scale undone."""
    s = power_scale(x, cfg.p_s)
    if frame is None:
        frame = draw_channel(cfg, [rng.substream(1)])
    return transmit_detect(x * s, frame, [rng.substream(2)]) * (1.0 / s)


@st.composite
def kind_cells(draw):
    """(the cells of one kind and geometry, T, symbol count, given frame?, seed)."""
    kind = draw(st.sampled_from(["awgn", "rayleigh", "rician"]))
    n_t = draw(st.integers(1, 4))
    n_r = n_t if kind == "awgn" else draw(st.integers(1, 4))
    p_s, rician_r = draw(st.floats(0.25, 4.0)), draw(st.sampled_from([0.0, 0.5, 3.0]))
    snrs = draw(st.lists(st.sampled_from([-5.0, 0.0, 7.5, 30.0, math.inf]), min_size=1,
                         max_size=4, unique=True))
    given_frame = draw(st.booleans())
    # a given frame carries one CSI error, as in eval; drawn frames take 0 and up to two more
    csis = ([draw(st.sampled_from([0.0, 0.01, 0.3]))] if given_frame else
            [0.0, *draw(st.lists(st.sampled_from([0.01, 0.3]), max_size=2, unique=True))])
    cells = [ChannelConfig(kind=kind, snr_db=snr, n_t=n_t, n_r=n_r, rician_r=rician_r,
                           csi_error_var=csi, p_s=p_s) for snr in snrs for csi in csis]
    # padding: the count is never a multiple of n_t > 1
    count = n_t * draw(st.integers(0, 4)) + draw(st.integers(1, max(n_t - 1, 1)))
    return cells, draw(st.integers(1, 4)), count, given_frame, draw(st.integers(0, 2**32 - 1))


class TestFadingCells:
    """The cells of one kind cross the channel as one stack: item (c, t)
    equals signal t sent alone over cell c on the per-cell path."""

    @given(kind_cells())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_item_equals_the_per_cell_path(self, case):
        cells, t, count, given_frame, seed = case
        x = RngStream(seed).complex_normal((t, count), 0.0, 1.0)
        rngs = [RngStream(seed, 1 + i) for i in range(t)]
        # fresh frame streams per draw, as eval draws each kind's frame
        frame = draw_channel(cells[0], [RngStream(seed, 100 + i) for i in range(t)])
        out = fading_cells(x, cells, rngs, frame if given_frame else None)
        assert out.shape == (len(cells), t, count)
        for c, cfg in enumerate(cells):
            for i in range(t):
                cell_frame = draw_channel(cfg, [RngStream(seed, 100 + i)]) if given_frame else None
                assert per_cell(x[i:i + 1], cfg, rngs[i], cell_frame).tobytes() == \
                    out[c, i:i + 1].tobytes()

    @pytest.mark.parametrize("n_t,n_r", [(2, 2), (2, 1)])
    def test_frame_that_does_not_fit_the_cells_rejected(self, n_t, n_r):
        """A 1x1 frame over 2x2 cells (numpy's matmul error before the check)
        and over 1x2 cells (accepted silently before it) raise ShapeError."""
        frame = draw_channel(ChannelConfig(kind="rayleigh"), [RngStream(61)])
        cells = [ChannelConfig(kind="rayleigh", n_t=n_t, n_r=n_r)]
        with pytest.raises(ShapeError, match="do not fit"):
            fading_cells(np.ones((1, 4), dtype=complex), cells, [RngStream(62)], frame)

    def test_cells_of_two_geometries_rejected(self):
        cells = [ChannelConfig(kind="rayleigh"), ChannelConfig(kind="rician")]
        with pytest.raises(ContractError):
            fading_cells(np.ones((1, 4), dtype=complex), cells, [RngStream(60)])


class TestCalibration:
    def test_awgn_definition(self):
        assert calibrate_noise(ChannelConfig(kind="awgn", snr_db=0.0, p_s=1.0)) == 1.0

    def test_snr_ratio_exact(self):
        a = calibrate_noise(ChannelConfig(kind="rayleigh", snr_db=0.0))
        b = calibrate_noise(ChannelConfig(kind="rayleigh", snr_db=10.0))
        assert abs(a / b - 10.0) < 1e-12

    def test_rayleigh_2x2_validation(self):
        cfg = ChannelConfig(kind="rayleigh", snr_db=7.0, n_t=2, n_r=2)
        noise_var = calibrate_noise(cfg)
        rng = RngStream(20)
        sig_power = 0.0
        n = 4000
        for _ in range(n):
            frame = draw_channel(cfg, [rng])
            x = normalize_power(rng.complex_normal((10, 2), 0.0, 1.0)[None], cfg.p_s)
            y = transmit(x, ChannelFrame(frame.h, frame.h_hat, 0.0), [rng])
            sig_power += np.mean(np.abs(y) ** 2)
        snr = (sig_power / n) / noise_var
        target = 10.0 ** 0.7
        assert abs(snr - target) / target < 0.03

    @pytest.mark.parametrize("n_t,n_r", [(1, 1), (2, 3), (4, 4)])
    def test_fading_gain_closed_form(self, n_t, n_r):
        for kind in ("rayleigh", "rician"):
            for r in (0.0, 0.5, 1.0, 7.0):
                cfg = ChannelConfig(kind=kind, rician_r=r, snr_db=7.0, n_t=n_t, n_r=n_r, p_s=2.5)
                assert calibrate_noise(cfg) == 2.5 * n_t / 10.0 ** (7.0 / 10.0)

    def test_awgn_gain_is_one_for_any_square_size(self):
        for n in (1, 2, 4):
            assert calibrate_noise(ChannelConfig(kind="awgn", n_t=n, n_r=n, snr_db=3.0)) == \
                1.0 / 10.0 ** 0.3

    def test_scaling_with_p_s(self):
        a = calibrate_noise(ChannelConfig(kind="rician", rician_r=2.0, snr_db=5.0, p_s=1.0))
        b = calibrate_noise(ChannelConfig(kind="rician", rician_r=2.0, snr_db=5.0, p_s=4.0))
        assert abs(b / a - 4.0) < 1e-12


class TestSurrogate:
    def test_identity_when_clean(self):
        cfg = ChannelConfig(kind="awgn", snr_db=math.inf)
        x = Tensor(np.random.default_rng(9).normal(size=(3, 8)))
        y = surrogate_channel(x, cfg, RngStream(21))
        w = surrogate_gains(cfg, x.shape, RngStream(21))
        np.testing.assert_array_equal(y.data, x.data)
        np.testing.assert_array_equal(w, np.ones((3, 8)))

    def test_jacobian_equals_gains(self):
        cfg = ChannelConfig(kind="rayleigh", snr_db=10.0)
        x0 = np.random.default_rng(10).normal(size=(2, 6))
        y = surrogate_channel(Tensor(x0), cfg, RngStream(22))
        w = surrogate_gains(cfg, x0.shape, RngStream(22))  # the call's first draw
        b = y.data - w * x0  # recover the noise constant

        def value(arrs):
            return float(np.sum(arrs[0] * w + b))

        numeric = fd_grad(value, [x0], 0)
        np.testing.assert_allclose(numeric, w, atol=1e-6)

        # and through autodiff: gradient of sum(y) w.r.t. x equals w
        from semlink.tensor import backward, tsum

        xt = Tensor(x0, requires_grad=True)
        out = surrogate_channel(xt, cfg, RngStream(22))
        backward(tsum(out))
        np.testing.assert_allclose(xt.grad, w, atol=1e-12)

    def test_gain_marginals_match_fading_components(self):
        shape = (200, 100)
        w_ray = surrogate_gains(ChannelConfig(kind="rayleigh"), shape, RngStream(23))
        assert abs(w_ray.mean()) < 0.01
        assert abs(w_ray.var() - 0.5) < 0.01

        r = 3.0
        w_ric = surrogate_gains(ChannelConfig(kind="rician", rician_r=r), shape, RngStream(24))
        mu = math.sqrt(r / (r + 1.0))
        half_var = 0.5 / (r + 1.0)
        assert abs(w_ric[:, 0::2].mean() - mu) < 0.01  # re slots carry the LOS mean
        assert abs(w_ric[:, 1::2].mean()) < 0.01
        assert abs(w_ric[:, 0::2].var() - half_var) < 0.01

    def test_noise_variance_calibrated(self):
        cfg = ChannelConfig(kind="awgn", snr_db=0.0)  # noise_var 1.0 -> 0.5 per slot
        x = Tensor(np.zeros((300, 100)))
        y = surrogate_channel(x, cfg, RngStream(25))
        assert abs(y.data.var() - 0.5) < 0.01
