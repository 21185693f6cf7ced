import hashlib

import numpy as np
import pytest

from semlink.errors import ConfigError, ContractError, TrainingDiverged
from semlink.link import LinkModel
from semlink.rng import RngStream
from semlink.scenes import SceneConfig, generate_scene
from semlink.tensor import Tensor, backward
from semlink.training import (
    Adam,
    LossRecord,
    TrainConfig,
    dataset_loss,
    loss_channel,
    loss_codec,
    loss_whole,
    mean_epoch_loss,
    train_phase,
)


def toy_scenes(n, seed=7):
    cfg = SceneConfig(channels=1)
    rng = RngStream(seed)
    return [generate_scene(rng.substream(100, i), cfg) for i in range(n)], cfg.grid()


def tensor_hash(tensors: dict) -> str:
    digest = hashlib.sha256()
    for name in sorted(tensors):
        digest.update(name.encode())
        digest.update(tensors[name].data.tobytes())
    return digest.hexdigest()


class TestLosses:
    def test_codec_zero_when_equal(self):
        p = Tensor(np.random.default_rng(0).uniform(size=(1, 8, 8)))
        assert float(loss_codec(p, Tensor(p.data.copy())).data) == 0.0

    def test_codec_unit_shift(self):
        p = Tensor(np.random.default_rng(1).uniform(size=(1, 4, 4)))
        q = Tensor(p.data + 1.0)
        assert abs(float(loss_codec(p, q).data) - 1.0) < 1e-12

    def test_codec_matches_elementwise_oracle(self):
        rng = np.random.default_rng(2)
        p, q = rng.normal(size=(3, 8, 8)), rng.normal(size=(3, 8, 8))
        manual = sum((a - b) ** 2 for a, b in zip(p.reshape(-1), q.reshape(-1))) / p.size
        assert abs(float(loss_codec(Tensor(p), Tensor(q)).data) - manual) < 1e-12

    def test_channel_perturbation(self):
        z = Tensor(np.random.default_rng(3).normal(size=(5, 6)))
        delta = 0.37
        z_hat = Tensor(z.data + delta)
        assert abs(float(loss_channel(z, z_hat).data) - delta**2) < 1e-12

    def test_whole_is_exact_sum(self):
        rng = np.random.default_rng(4)
        p, q = Tensor(rng.uniform(size=(1, 4, 4))), Tensor(rng.uniform(size=(1, 4, 4)))
        z, z_hat = Tensor(rng.normal(size=(3, 6))), Tensor(rng.normal(size=(3, 6)))
        total = float(loss_whole(p, q, z, z_hat).data)
        parts = float(loss_codec(p, q).data) + float(loss_channel(z, z_hat).data)
        assert abs(total - parts) < 1e-12

    def test_whole_gradient_reaches_both_parameter_blocks(self):
        scenes, grid = toy_scenes(1)
        model = LinkModel.init(grid, RngStream(1), feature_dim=16, enc_layers=1,
                               dec_layers=1, num_heads=2, symbol_dim=4)
        from semlink.channel import ChannelConfig
        from semlink.link import surrogate_link
        from semlink.training import sample_nonempty_mask
        from semlink.scenes import locate_any

        loc = locate_any(scenes[0], grid)
        plan = sample_nonempty_mask(grid, loc, 0.3, RngStream(2))
        res = surrogate_link(model, scenes[0].image, plan,
                             ChannelConfig(kind="awgn", snr_db=10.0), RngStream(3))
        loss = loss_whole(scenes[0].image, res.image, res.z.values, res.z_hat.values)
        backward(loss)
        assert any(t.grad is not None and np.abs(t.grad).max() > 0
                   for t in model.codec.trainables())
        assert any(t.grad is not None and np.abs(t.grad).max() > 0
                   for t in model.chan.trainables())

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            loss_codec(Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros((1, 8, 8))))

    def test_negative_loss_record_rejected(self):
        with pytest.raises(ContractError):
            LossRecord("codec", 0, 0, -0.1)


class TestAdam:
    def test_zero_lr_bitwise_identity(self):
        p = Tensor(np.array([0.5, -0.0, 2.0]), requires_grad=True)
        before = p.data.tobytes()
        p.grad = np.array([1.0, -2.0, 3.0])
        opt = Adam([p], lr=0.0)
        opt.step()
        assert p.data.tobytes() == before

    def test_step_moves_against_gradient(self):
        p = Tensor(np.array([1.0, 1.0]), requires_grad=True)
        p.grad = np.array([1.0, -1.0])
        Adam([p], lr=0.1).step()
        assert p.data[0] < 1.0 < p.data[1]

    def test_none_grad_skipped(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        Adam([p], lr=0.1).step()
        assert p.data[0] == 1.0


class TestTrainPhase:
    def test_zero_lr_leaves_params_bitwise(self):
        scenes, grid = toy_scenes(6)
        model = LinkModel.init(grid, RngStream(4), feature_dim=16, enc_layers=1,
                               dec_layers=1, num_heads=2, symbol_dim=4)
        before = tensor_hash(model.all_tensors())
        train_phase(model, scenes, TrainConfig(phase="codec", lr=0.0, epochs=2,
                                               batch_size=3, seed=1))
        assert tensor_hash(model.all_tensors()) == before

    def test_zero_lr_constant_per_sample_losses(self):
        # deterministic mask (p=0) and batch_size 1: the loss multiset is
        # identical across epochs
        scenes, grid = toy_scenes(5)
        model = LinkModel.init(grid, RngStream(5), feature_dim=16, enc_layers=1,
                               dec_layers=1, num_heads=2, symbol_dim=4)
        records = train_phase(model, scenes, TrainConfig(phase="codec", lr=0.0,
                                                         epochs=3, batch_size=1,
                                                         seed=2, mask_prob=0.0))
        per_epoch = [sorted(r.loss for r in records if r.epoch == e) for e in range(3)]
        assert per_epoch[0] == per_epoch[1] == per_epoch[2]

    def test_codec_phase_decreases_loss(self):
        scenes, grid = toy_scenes(16)
        model = LinkModel.init(grid, RngStream(6))
        cfg = TrainConfig(phase="codec", lr=1e-3, epochs=3, batch_size=4, seed=3)
        base = dataset_loss(model, scenes, cfg)
        records = train_phase(model, scenes, cfg)
        assert mean_epoch_loss(records, 2) < mean_epoch_loss(records, 0)
        assert dataset_loss(model, scenes, cfg) < base

    def test_phase_isolation(self):
        scenes, grid = toy_scenes(6)
        model = LinkModel.init(grid, RngStream(7), feature_dim=16, enc_layers=1,
                               dec_layers=1, num_heads=2, symbol_dim=4)
        codec_before = tensor_hash(model.codec.tensors())
        chan_before = tensor_hash(model.chan.tensors())

        train_phase(model, scenes, TrainConfig(phase="channel", lr=1e-3, epochs=1,
                                               batch_size=3, seed=4))
        assert tensor_hash(model.codec.tensors()) == codec_before  # codec untouched
        assert tensor_hash(model.chan.tensors()) != chan_before

        chan_mid = tensor_hash(model.chan.tensors())
        train_phase(model, scenes, TrainConfig(phase="codec", lr=1e-3, epochs=1,
                                               batch_size=3, seed=5))
        assert tensor_hash(model.chan.tensors()) == chan_mid  # channel untouched
        assert tensor_hash(model.codec.tensors()) != codec_before

    def test_whole_phase_end_not_worse(self):
        scenes, grid = toy_scenes(12)
        model = LinkModel.init(grid, RngStream(8), feature_dim=16, enc_layers=1,
                               dec_layers=1, num_heads=2, symbol_dim=4)
        train_phase(model, scenes, TrainConfig(phase="codec", lr=1e-3, epochs=2,
                                               batch_size=4, seed=6))
        train_phase(model, scenes, TrainConfig(phase="channel", lr=1e-3, epochs=2,
                                               batch_size=4, seed=6))
        records = train_phase(model, scenes, TrainConfig(phase="whole", lr=5e-4,
                                                         epochs=3, batch_size=4, seed=6))
        assert mean_epoch_loss(records, 2) <= mean_epoch_loss(records, 0) * 1.05

    def test_deterministic_checkpoints(self, tmp_path):
        scenes, grid = toy_scenes(6)
        cfg = TrainConfig(phase="codec", lr=1e-3, epochs=2, batch_size=3, seed=9)
        hashes = []
        for run in range(2):
            model = LinkModel.init(grid, RngStream(10), feature_dim=16, enc_layers=1,
                                   dec_layers=1, num_heads=2, symbol_dim=4)
            train_phase(model, scenes, cfg)
            path = tmp_path / f"run{run}.ckpt"
            model.save(path)
            hashes.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert hashes[0] == hashes[1]

    def test_divergence_guard(self):
        scenes, grid = toy_scenes(4)
        model = LinkModel.init(grid, RngStream(11), feature_dim=16, enc_layers=1,
                               dec_layers=1, num_heads=2, symbol_dim=4)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged):
                train_phase(model, scenes, TrainConfig(phase="channel", lr=1e150,
                                                       epochs=3, batch_size=2, seed=12))

    @pytest.mark.parametrize("names", [("embed.w",), ("enc0.attn.wq", "enc0.attn.wk"),
                                       ("enc0.attn.wo",), ("enc0.ln2_gain",),
                                       ("enc0.ff_weight",)])
    def test_fused_op_overflow_surfaces_as_divergence(self, names):
        # embed.w overflows the first layer norm's row variance; wq and wk
        # overflow the first attention scores; wo overflows the block's
        # second layer norm's row variance.  All happen inside a fused op.
        # A huge ln2 gain or FF weight makes a huge FF pre-activation, whose
        # row variance overflows in the encoder's final layer norm.
        scenes, grid = toy_scenes(2)
        model = LinkModel.init(grid, RngStream(13), feature_dim=16, enc_layers=1,
                               dec_layers=1, num_heads=2, symbol_dim=4)
        params = model.codec.tensors()
        for name in names:
            params[name].data[...] *= 1e160
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged, match="overflowed"):
                train_phase(model, scenes, TrainConfig(phase="codec", lr=1e-3, epochs=1,
                                                       batch_size=2, seed=14))

    def test_ff_pre_activation_overflow_surfaces_as_divergence(self):
        scenes, grid = toy_scenes(2)
        model = LinkModel.init(grid, RngStream(13), feature_dim=16, enc_layers=1,
                               dec_layers=1, num_heads=2, symbol_dim=4)
        params = model.codec.tensors()
        for name in ("enc0.ln2_gain", "enc0.ff_weight"):
            params[name].data[...] *= 1e160
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged, match="non-finite"):
                train_phase(model, scenes, TrainConfig(phase="codec", lr=1e-3, epochs=1,
                                                       batch_size=2, seed=14))

    def test_epoch_checkpoints_written(self, tmp_path):
        scenes, grid = toy_scenes(4)
        model = LinkModel.init(grid, RngStream(12), feature_dim=16, enc_layers=1,
                               dec_layers=1, num_heads=2, symbol_dim=4)
        train_phase(model, scenes, TrainConfig(phase="codec", lr=1e-3, epochs=2,
                                               batch_size=2, seed=13),
                    checkpoint_dir=tmp_path)
        assert (tmp_path / "codec-epoch000.ckpt").exists()
        assert (tmp_path / "codec-epoch001.ckpt").exists()

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(phase="bogus")
        with pytest.raises(ConfigError):
            TrainConfig(lr=-1.0)
        with pytest.raises(ConfigError):
            TrainConfig(mask_prob=1.5)
        with pytest.raises(ConfigError):
            TrainConfig(snr_lo_db=10, snr_hi_db=0)

    def test_checkpoint_roundtrip_restores_model(self, tmp_path):
        scenes, grid = toy_scenes(4)
        model = LinkModel.init(grid, RngStream(13), feature_dim=16, enc_layers=1,
                               dec_layers=1, num_heads=2, symbol_dim=4)
        train_phase(model, scenes, TrainConfig(phase="codec", lr=1e-3, epochs=1,
                                               batch_size=2, seed=14))
        path = tmp_path / "m.ckpt"
        model.save(path)
        loaded = LinkModel.load(path)
        assert tensor_hash(loaded.all_tensors()) == tensor_hash(model.all_tensors())
        assert loaded.codec_cfg == model.codec_cfg

    def test_checkpoint_load_draws_nothing(self, tmp_path, monkeypatch):
        grid = toy_scenes(1)[1]
        model = LinkModel.init(grid, RngStream(15), feature_dim=16, enc_layers=1,
                               dec_layers=1, num_heads=2, symbol_dim=4)
        path = tmp_path / "m.ckpt"
        model.save(path)

        def no_draw(*args, **kwargs):
            raise AssertionError("load drew a random model")

        monkeypatch.setattr(RngStream, "normal", no_draw)
        loaded = LinkModel.load(path)
        assert tensor_hash(loaded.all_tensors()) == tensor_hash(model.all_tensors())
