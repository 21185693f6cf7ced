"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The heavyweight end-to-end training (criterion 7) runs once in a module
fixture and is shared with the evaluation checks.
"""

import functools
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from gradcheck import check_grads, sampled_param_check
from semlink.chancodec import ChanCodecParams, chan_decode_real, chan_encode_real, inverse_params
from semlink.channel import (
    ChannelConfig,
    ChannelFrame,
    draw_channel,
    lmmse_detect,
    normalize_power,
    surrogate_gains,
    transmit,
    transmit_detect,
)
from semlink.codec import CodecConfig, CodecParams, decode, encode, zero_fill
from semlink.link import LinkModel, evaluate_link
from semlink.masking import PatchGrid, patchify, random_mask, sample_mask
from semlink.metrics import PSNR_CAP_DB, nmse, psnr, region_metric, ssim
from semlink.rng import RngStream
from semlink.scenes import SceneConfig, generate_scene, locate_any
from semlink.sharing import (
    MultiUserSemantics,
    bandwidth_savings,
    partition,
    synth_correlated_semantics,
    transport,
)
from semlink.tensor import (
    Tensor,
    add,
    div,
    gelu,
    layer_norm,
    matmul,
    mul,
    permute_axes,
    power,
    reshape,
    scatter_rows,
    sub,
    tmean,
    tsum,
)
from semlink.training import TrainConfig, dataset_loss, mean_epoch_loss, sample_nonempty_mask, train_phase

from test_metrics import direct_ssim_oracle
from test_sharing import brute_force_partition


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"[criterion {num}] FAIL: {title} ({exc})")
                raise
            print(f"[criterion {num}] PASS: {title}" + (f" ({detail})" if detail else ""))

        return wrapper

    return deco


# ---------------------------------------------------------------------------
# criterion 1: gradient integrity
# ---------------------------------------------------------------------------


@criterion(1, "gradient integrity: per-op and composite finite differences < 1e-4")
def test_criterion_1_gradient_integrity():
    start = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0

    # every differentiable primitive on random small tensors
    idx = np.array([3, 0, 5, 2])
    op_cases = [
        lambda ts: tsum(mul(add(ts[0], ts[1]), sub(ts[0], ts[1]))),
        lambda ts: tsum(div(ts[0], add(mul(ts[1], ts[1]), 1.0))),
        lambda ts: tmean(mul(matmul(ts[0], permute_axes(ts[1], (1, 0))), 2.0)),
        lambda ts: tsum(power(add(mul(ts[0], ts[0]), 0.3), 1.7)),
        lambda ts: tsum(mul(reshape(ts[0], (8, 2)), reshape(ts[1], (8, 2)))),
        lambda ts: tsum(mul(scatter_rows(ts[0], idx, 6), scatter_rows(ts[1], idx, 6))),
        lambda ts: tsum(
            mul(scatter_rows(mul(ts[0], ts[1]), idx, 6), scatter_rows(ts[0], idx[::-1], 6))
        ),
        lambda ts: tsum(mul(gelu(ts[0]), ts[1])),
        lambda ts: tsum(mul(layer_norm(ts[0], Tensor(np.ones(4)), Tensor(np.zeros(4))), ts[1])),
        lambda ts: tsum(mul(permute_axes(reshape(ts[0], (2, 2, 4)), (2, 0, 1)), 0.7)),
        lambda ts: tmean(mul(tsum(ts[0], axis=0, keepdims=True), ts[1])),
        lambda ts: tsum(mul(tmean(ts[0], axis=1, keepdims=True), ts[1])),
    ]
    for trial in range(100):
        fn = op_cases[trial % len(op_cases)]
        arrays = [rng.normal(size=(4, 4)), rng.normal(size=(4, 4))]
        worst = max(worst, check_grads(fn, arrays, tol=1e-4))

    # full semantic-codec + channel-codec composite (frozen surrogate draws)
    cfg = CodecConfig(feature_dim=16, enc_layers=2, dec_layers=1, num_heads=2,
                      patch_dim=8, num_patches=12)
    codec = CodecParams.init(cfg, RngStream(2))
    chan = ChanCodecParams.init(cfg.feature_dim, 4, RngStream(3))
    keep = np.array([0, 2, 5, 6, 9, 11])
    patches = rng.normal(size=(len(keep), cfg.patch_dim))
    target = rng.normal(size=(cfg.num_patches, cfg.patch_dim))
    gains = surrogate_gains(ChannelConfig(kind="rayleigh"), (len(keep), 8), RngStream(4))
    noise = RngStream(5).normal((len(keep), 8), std=0.1)

    def loss_fn():
        z = encode(Tensor(patches), keep, codec, cfg)
        view = chan_encode_real(z.values, chan)
        sent = add(mul(view, Tensor(gains)), Tensor(noise))
        z_hat = z.with_values(chan_decode_real(sent, chan))
        q = decode(zero_fill(z_hat), codec, cfg)
        dq = sub(q, Tensor(target))
        dz = sub(z_hat.values, z.values)
        return add(tmean(mul(dq, dq)), tmean(mul(dz, dz)))

    params = dict(codec.tensors())
    params.update(chan.tensors())
    worst = max(worst, sampled_param_check(loss_fn, params, RngStream(6), coords_per_tensor=5))

    elapsed = time.time() - start
    assert elapsed < 120.0, f"gradient checks took {elapsed:.0f}s"
    return f"worst rel err {worst:.2e}, {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# criterion 2: mask law
# ---------------------------------------------------------------------------


@criterion(2, "mask law: empirical per-patch rates within 0.01 at p=0.3, 1e5 plans")
def test_criterion_2_mask_law():
    grid = PatchGrid.for_image((1, 32, 32), 4)  # 64 patches
    obj = np.arange(16, dtype=np.intp)  # |R| = 16
    n = 100_000
    hits = np.zeros(64)
    root = RngStream(20)
    for t in range(n):
        plan = sample_mask(grid, obj, 0.3, root.substream(t))
        hits += plan.masked
    rates = hits / n
    obj_dev = np.abs(rates[:16] - 0.3).max()
    bg_dev = np.abs(rates[16:] - 0.7).max()
    assert obj_dev < 0.01, f"object-patch mask rate off by {obj_dev:.4f}"
    assert bg_dev < 0.01, f"background mask rate off by {bg_dev:.4f}"
    return f"max deviations: object {obj_dev:.4f}, background {bg_dev:.4f}"


# ---------------------------------------------------------------------------
# criterion 3: L-MMSE analytics
# ---------------------------------------------------------------------------


@criterion(3, "L-MMSE: scalar closed form, Rayleigh MSE vs integral, monotone NMSE")
def test_criterion_3_lmmse_analytics():
    # scalar closed form x_hat = conj(h) y / (|h|^2 + var) to 1e-12
    rng_np = np.random.default_rng(30)
    for _ in range(500):
        h = complex(rng_np.normal(), rng_np.normal())
        var = float(rng_np.uniform(0.01, 3.0))
        y = complex(rng_np.normal(), rng_np.normal())
        frame = ChannelFrame(np.array([[[h]]]), np.array([[[h]]]), var)
        got = lmmse_detect(np.array([[[y]]]), frame, (1, 1))[0, 0]
        expected = np.conj(h) * y / (abs(h) ** 2 + var)
        assert abs(got - expected) < 1e-12

    # scalar-Rayleigh detection MSE vs numerically integrated expectation
    var = 10.0 ** (-1.0)  # 10 dB
    cfg = ChannelConfig(kind="rayleigh", snr_db=10.0)
    stream = RngStream(31)
    total = 0.0
    trials = 100_000
    for _ in range(trials):
        frame = draw_channel(cfg, [stream])
        x = stream.complex_normal((1, 1), 0.0, 1.0)
        y = transmit(x[None], frame, [stream])
        x_hat = lmmse_detect(y, frame, out_shape=(1, 1, 1))[0]
        total += abs(x_hat[0, 0] - x[0, 0]) ** 2
    empirical = total / trials
    analytic = quad(lambda t: var / (t + var) * math.exp(-t), 0.0, np.inf)[0]
    mse_err = abs(empirical - analytic) / analytic
    assert mse_err < 0.05, f"MSE {empirical:.5f} vs analytic {analytic:.5f}"

    # NMSE monotone decreasing in SNR
    def mc_nmse(snr_db, csi_var, trials=10_000):
        c = ChannelConfig(kind="rayleigh", snr_db=snr_db, csi_error_var=csi_var)
        r = RngStream(32, int(snr_db * 100) + int(csi_var * 10_000))
        tot = 0.0
        for _ in range(trials):
            frame = draw_channel(c, [r])
            x = normalize_power(r.complex_normal((8, 1), 0.0, 1.0)[None], 1.0)
            tot += nmse(x, transmit_detect(x, frame, [r]))[0]
        return tot / trials

    by_snr = [mc_nmse(s, 0.0) for s in (0.0, 10.0, 20.0)]
    assert by_snr[0] > by_snr[1] > by_snr[2], f"NMSE vs SNR not decreasing: {by_snr}"

    by_csi = [mc_nmse(10.0, v) for v in (0.0, 0.01, 0.05, 0.1)]
    assert all(b >= a * 0.98 for a, b in zip(by_csi, by_csi[1:])), f"NMSE vs csi: {by_csi}"
    assert by_csi[-1] > by_csi[0]
    return f"MSE within {mse_err * 100:.1f}% of integral; snr trend {by_snr[0]:.3f}>{by_snr[1]:.3f}>{by_snr[2]:.3f}"


# ---------------------------------------------------------------------------
# criterion 4: comparator oracle
# ---------------------------------------------------------------------------


@criterion(4, "comparator matches brute force on 1000 random instances")
def test_criterion_4_comparator_oracle():
    root = RngStream(40)
    for trial in range(1000):
        t = root.substream(trial)
        k = int(t.integers(2, 6))  # K <= 5
        length = int(t.integers(2, 9))  # L_s <= 8
        dim = int(t.integers(2, 7))  # d_s <= 6
        values = t.normal((k, length, dim)) * t.uniform((k, length, 1), 0.2, 2.0)
        eps = float(t.uniform((), 0.0, 1.0))
        part = partition(MultiUserSemantics(values), eps)
        shared, private, z_pub, _ = brute_force_partition(values, eps)
        assert list(part.shared_idx) == shared, f"trial {trial}: shared set differs"
        assert list(part.private_idx) == private
        assert np.abs(part.z_pub - z_pub).max() <= 1e-12 if len(shared) else True
    return "1000/1000 exact (shared sets identical, Z_pub within 1e-12)"


# ---------------------------------------------------------------------------
# criterion 5: lossless-path identity
# ---------------------------------------------------------------------------


@criterion(5, "lossless transport identity for K=3 and exact symbol accounting")
def test_criterion_5_lossless_identity():
    d_s, d_c, k, length = 12, 8, 3, 10
    rng = RngStream(50)
    base = rng.normal((length, d_s))
    shared_pos = (0, 3, 4, 8)
    values = np.empty((k, length, d_s))
    for u in range(k):
        values[u] = base * (1.0 + 1.5 * u)  # well-separated private variances
    for i in shared_pos:
        values[:, i, :] = base[i]  # bit-identical shared rows
    z = MultiUserSemantics(values)
    part = partition(z, 0.5)
    assert list(part.shared_idx) == list(shared_pos)

    codec = inverse_params(ChanCodecParams.init(d_s, d_c, rng.substream(1)))
    clean = ChannelConfig(kind="awgn", snr_db=240.0)
    res = transport(part, [codec] * k, codec, clean, rng.substream(2))
    worst = max(np.abs(res.z_hat[u] - values[u]).max() for u in range(k))
    assert worst < 1e-8, f"max deviation {worst:.2e}"
    assert res.rows_sent == part.l_pub + k * part.l_pri
    assert res.symbols_sent == (part.l_pub + k * part.l_pri) * d_c
    return f"max |Z_hat - Z| = {worst:.1e}; rows {res.rows_sent}, symbols {res.symbols_sent}"


# ---------------------------------------------------------------------------
# criterion 6: bandwidth-savings trend shape
# ---------------------------------------------------------------------------


@criterion(6, "savings vs K: eps dominance and rise / interior peak / decline")
def test_criterion_6_savings_trend():
    start = time.time()
    n_trials = 1000
    length, dim, jitter = 32, 48, 0.4
    base, decay = 0.9, 0.93

    def sweep(eps):
        means = []
        for k in range(2, 11):
            frac = min(1.0, base * decay ** (k - 2))
            total = 0.0
            for t in range(n_trials):
                # paired seeds: the per-(K, trial) stream is shared across eps
                stream = RngStream(60, (k << 20) + t)
                z = synth_correlated_semantics(stream, k, length, dim, frac, jitter)
                total += bandwidth_savings(partition(z, eps))
            means.append(total / n_trials)
        return means

    lo = sweep(0.05)
    hi = sweep(0.20)
    assert all(h > l for h, l in zip(hi, lo)), "eps=0.2 not pointwise above eps=0.05"
    for name, series in (("0.05", lo), ("0.20", hi)):
        peak = int(np.argmax(series))
        assert 0 < peak < len(series) - 1, f"eps={name}: peak not interior: {series}"
        assert series[peak] > series[0] and series[-1] < series[peak], f"eps={name}: {series}"
    elapsed = time.time() - start
    assert elapsed < 300.0, f"trend sweep took {elapsed:.0f}s"
    peak_k = 2 + int(np.argmax(hi))
    return f"peak at K={peak_k}, eps dominance pointwise, {elapsed:.0f}s at N={n_trials}"


# ---------------------------------------------------------------------------
# criteria 7 and 8: trained end-to-end behavior
# ---------------------------------------------------------------------------

SCENE_CFG = SceneConfig(channels=1)
GRID = SCENE_CFG.grid()


@pytest.fixture(scope="module")
def trained_model():
    root = RngStream(2024)
    scenes = [generate_scene(root.substream(1, i), SCENE_CFG) for i in range(512)]
    model = LinkModel.init(GRID, RngStream(99))
    start = time.time()
    train_phase(model, scenes, TrainConfig(phase="codec", lr=1e-3, epochs=6, batch_size=8, seed=5))
    train_phase(model, scenes, TrainConfig(phase="channel", lr=1e-3, epochs=3, batch_size=8, seed=5))
    train_phase(model, scenes, TrainConfig(phase="whole", lr=5e-4, epochs=4, batch_size=8, seed=5))
    elapsed = time.time() - start
    assert elapsed < 1800.0, f"3-phase training took {elapsed:.0f}s (budget 30 min)"
    return model, elapsed


def one_sided_sign_p(wins, n):
    return sum(math.comb(n, i) for i in range(wins, n + 1)) / 2.0**n


@criterion(7, "adaptive beats random masking on object-region PSNR (sign test p < 0.01)")
def test_criterion_7_masking_advantage(trained_model):
    model, train_seconds = trained_model
    root = RngStream(2024)
    held_out = [generate_scene(root.substream(2, i), SCENE_CFG) for i in range(100)]

    details = []
    for kind in ("awgn", "rayleigh"):
        chan = ChannelConfig(kind=kind, snr_db=10.0)
        wins = ties = 0
        margins = []
        for i, scene in enumerate(held_out):
            r = RngStream(777, i)
            loc = locate_any(scene, GRID)
            plan_adaptive = sample_nonempty_mask(GRID, loc, 0.3, r.substream(1))
            plan_random = random_mask(GRID, plan_adaptive.keep_count, r.substream(2))
            frame = draw_channel(chan, [r.substream(3)])  # paired realization
            res_a = evaluate_link(model, scene.image, plan_adaptive, chan, r.substream(4), frame=frame)
            res_r = evaluate_link(model, scene.image, plan_random, chan, r.substream(5), frame=frame)
            pa = region_metric(scene.image, res_a.image, loc, GRID, "psnr")
            pr = region_metric(scene.image, res_r.image, loc, GRID, "psnr")
            margins.append(pa - pr)
            if pa > pr:
                wins += 1
            elif pa == pr:
                ties += 1
        n = len(held_out) - ties
        p = one_sided_sign_p(wins, n)
        mean_a = float(np.mean([m for m in margins]))
        assert p < 0.01, f"{kind}: wins {wins}/{n}, p = {p:.3g}"
        assert mean_a > 0.0
        details.append(f"{kind} wins {wins}/{n} p={p:.1e}")
    return f"train {train_seconds:.0f}s; " + "; ".join(details)


@criterion(8, "training sanity: 10x loss drop, phase-3 improvement, lr=0, determinism")
def test_criterion_8_training_sanity(trained_model):
    root = RngStream(4321)
    toy = [generate_scene(root.substream(1, i), SCENE_CFG) for i in range(64)]

    def small_model(seed=7):
        return LinkModel.init(GRID, RngStream(seed), feature_dim=32, enc_layers=2,
                              dec_layers=1, num_heads=4, symbol_dim=4)

    # phase-1 epoch-mean loss decreases >= 10x from the untrained baseline
    model = small_model()
    cfg1 = TrainConfig(phase="codec", lr=1e-3, epochs=10, batch_size=4, seed=11)
    baseline = dataset_loss(model, toy, cfg1)
    records = train_phase(model, toy, cfg1)
    final = mean_epoch_loss(records, cfg1.epochs - 1)
    assert final * 10.0 <= baseline, f"loss {baseline:.4f} -> {final:.4f} is below 10x"

    # epoch means essentially non-increasing over the first five epochs
    means = [mean_epoch_loss(records, e) for e in range(5)]
    violations = [
        (a, b) for a, b in zip(means, means[1:]) if b > a * 1.05
    ]
    assert len(violations) == 0, f"epoch means rose: {means}"
    soft_violations = [(a, b) for a, b in zip(means, means[1:]) if b > a]
    assert len(soft_violations) <= 1, f"more than one non-monotone step: {means}"

    # phase 3 after phases 1-2: end loss <= start loss
    train_phase(model, toy, TrainConfig(phase="channel", lr=1e-3, epochs=3, batch_size=4, seed=11))
    rec3 = train_phase(model, toy, TrainConfig(phase="whole", lr=5e-4, epochs=3, batch_size=4, seed=11))
    start3 = mean_epoch_loss(rec3, 0)
    end3 = mean_epoch_loss(rec3, 2)
    assert end3 <= start3, f"phase-3 loss went {start3:.4f} -> {end3:.4f}"

    # lr = 0 leaves every parameter bit-identical
    frozen = small_model(13)
    before = {k: t.data.tobytes() for k, t in frozen.all_tensors().items()}
    train_phase(frozen, toy[:8], TrainConfig(phase="whole", lr=0.0, epochs=2, batch_size=4, seed=3))
    assert all(frozen.all_tensors()[k].data.tobytes() == v for k, v in before.items())

    # full determinism: two fresh runs agree bit for bit
    digests = []
    for _ in range(2):
        m = small_model(17)
        train_phase(m, toy[:16], TrainConfig(phase="codec", lr=1e-3, epochs=2, batch_size=4, seed=19))
        digests.append({k: t.data.tobytes() for k, t in m.all_tensors().items()})
    assert digests[0] == digests[1]

    return f"baseline {baseline:.4f} -> {final:.4f} ({baseline / final:.0f}x)"


# ---------------------------------------------------------------------------
# criterion 9: metric correctness
# ---------------------------------------------------------------------------


@criterion(9, "PSNR/SSIM match direct-formula oracles; region == global on full grid")
def test_criterion_9_metric_oracles():
    rng = np.random.default_rng(90)
    worst_ssim = 0.0
    for _ in range(50):
        a = rng.uniform(size=(1, 16, 16))
        b = rng.uniform(size=(1, 16, 16))
        mse = float(np.mean((a - b) ** 2))
        expected_psnr = 10.0 * math.log10(1.0 / mse)
        assert abs(psnr(a, b) - expected_psnr) < 1e-10
        worst_ssim = max(worst_ssim, abs(ssim(a, b) - direct_ssim_oracle(a, b)))
    assert worst_ssim < 1e-10, f"ssim oracle deviation {worst_ssim:.2e}"

    grid = PatchGrid.for_image((1, 32, 32), 4)
    full = np.arange(grid.num_patches, dtype=np.intp)
    for _ in range(10):
        a = rng.uniform(size=(1, 32, 32))
        b = rng.uniform(size=(1, 32, 32))
        assert abs(region_metric(a, b, full, grid, "psnr") - psnr(a, b)) < 1e-12
        assert abs(region_metric(a, b, full, grid, "ssim") - ssim(a, b)) < 1e-12

    a = rng.uniform(size=(1, 16, 16))
    assert psnr(a, a.copy()) == PSNR_CAP_DB
    assert ssim(a, a.copy()) == 1.0
    return f"worst ssim oracle deviation {worst_ssim:.1e}"
