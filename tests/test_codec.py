import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import sampled_param_check
from semlink import codec
from semlink.codec import (
    LN_EPS,
    BlockParams,
    CodecConfig,
    CodecParams,
    SemanticTensor,
    _block,
    decode,
    embed,
    encode,
    zero_fill,
)
from semlink.errors import ConfigError, ContractError, NonFiniteError, ShapeError
from semlink.chancodec import ChanCodecParams
from semlink.link import LinkModel, codec_only_pass
from semlink.masking import PatchGrid, patchify, sample_mask, unpatchify
from semlink.rng import RngStream
from semlink.scenes import SceneConfig, generate_scene, locate_any
from semlink.tensor import (
    Tensor,
    add,
    backward,
    gelu,
    layer_norm,
    matmul,
    mul,
    no_grad,
    sinusoid_table,
    softmax_attention,
    sub,
    tmean,
    tsum,
    zero_grad,
)
from semlink.training import PHASES, TrainConfig, _sample_loss, train_phase


def small_cfg(num_patches=16, patch_dim=8):
    return CodecConfig(feature_dim=16, enc_layers=2, dec_layers=1, num_heads=2,
                       patch_dim=patch_dim, num_patches=num_patches)


def zero_block_weights(params: CodecParams):
    """Zero every attention/FF weight and bias; keep LN affines at identity."""
    for blk in params.enc_blocks + params.dec_blocks:
        for t in blk.attn.tensors().values():
            t.data[...] = 0.0
        blk.ff_weight.data[...] = 0.0
        blk.ff_bias.data[...] = 0.0


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            CodecConfig(feature_dim=10, num_heads=4)

    def test_layer_minimum(self):
        with pytest.raises(ConfigError):
            CodecConfig(enc_layers=0)

    def test_dict_roundtrip(self):
        cfg = small_cfg()
        assert CodecConfig.from_dict(cfg.to_dict()) == cfg


class TestEmbed:
    def test_zero_weights_give_pure_position_codes(self):
        cfg = small_cfg()
        params = CodecParams.init(cfg, RngStream(1))
        params.patch_embed_w.data[...] = 0.0
        params.patch_embed_b.data[...] = 0.0
        idx = [0, 3, 9]
        patches = Tensor(np.random.default_rng(0).normal(size=(3, cfg.patch_dim)))
        out = embed(patches, idx, params, cfg)
        np.testing.assert_array_equal(out.data, params.pos_table[idx])

    def test_positional_injectivity(self):
        cfg = small_cfg()
        params = CodecParams.init(cfg, RngStream(2))
        row = np.random.default_rng(1).normal(size=(1, cfg.patch_dim))
        patches = Tensor(np.vstack([row, row]))
        out = embed(patches, [2, 7], params, cfg)
        assert not np.allclose(out.data[0], out.data[1])

    def test_sinusoid_table_oracle(self):
        cfg = small_cfg()
        params = CodecParams.init(cfg, RngStream(3))
        table = sinusoid_table(cfg.num_patches, cfg.feature_dim)
        for pos in (0, 5, 15):
            for i in range(cfg.feature_dim // 2):
                angle = pos / 10000 ** (2 * i / cfg.feature_dim)
                assert abs(params.pos_table[pos, 2 * i] - np.sin(angle)) < 1e-12
                assert abs(params.pos_table[pos, 2 * i + 1] - np.cos(angle)) < 1e-12
        np.testing.assert_array_equal(params.pos_table, table)


class TestEncode:
    def test_output_shapes(self):
        cfg = small_cfg()
        params = CodecParams.init(cfg, RngStream(4))
        rng = np.random.default_rng(2)
        for length in (1, 6, 16):
            idx = np.arange(length)
            z = encode(Tensor(rng.normal(size=(length, cfg.patch_dim))), idx, params, cfg)
            assert z.values.shape == (length, cfg.feature_dim)
            assert z.length == length

    def test_empty_keep_rejected(self):
        cfg = small_cfg()
        params = CodecParams.init(cfg, RngStream(5))
        with pytest.raises(ContractError):
            encode(Tensor(np.zeros((0, cfg.patch_dim))), [], params, cfg)

    def test_block_permutation_equivariance(self):
        # position codes travel with indices, so the residual blocks must be
        # permutation-equivariant over rows
        cfg = small_cfg()
        params = CodecParams.init(cfg, RngStream(6))
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(7, cfg.feature_dim)))
        perm = rng.permutation(7)
        out = x
        out_p = Tensor(x.data[perm])
        for blk in params.enc_blocks:
            out = _block(out, blk, cfg.num_heads)
            out_p = _block(out_p, blk, cfg.num_heads)
        np.testing.assert_allclose(out_p.data, out.data[perm], atol=1e-10)

    def test_zero_weights_reduce_to_layernormed_embedding(self):
        cfg = small_cfg()
        params = CodecParams.init(cfg, RngStream(7))
        zero_block_weights(params)
        rng = np.random.default_rng(4)
        idx = np.array([1, 4, 11])
        patches = Tensor(rng.normal(size=(3, cfg.patch_dim)))
        z = encode(patches, idx, params, cfg)
        embedded = embed(patches, idx, params, cfg)
        expected = layer_norm(embedded, params.enc_final_gain, params.enc_final_bias, 1e-6)
        np.testing.assert_allclose(z.values.data, expected.data, atol=1e-12)

    def test_residual_blocks_are_identity_with_zero_weights(self):
        cfg = small_cfg()
        params = CodecParams.init(cfg, RngStream(8))
        zero_block_weights(params)
        x = Tensor(np.random.default_rng(5).normal(size=(4, cfg.feature_dim)))
        out = x
        for blk in params.enc_blocks:
            out = _block(out, blk, cfg.num_heads)
        np.testing.assert_allclose(out.data, x.data, atol=1e-12)


class TestZeroFill:
    def test_all_kept_identity(self):
        cfg = small_cfg(num_patches=4)
        vals = np.random.default_rng(6).normal(size=(4, cfg.feature_dim))
        sem = SemanticTensor(Tensor(vals), np.arange(4), 4)
        np.testing.assert_array_equal(zero_fill(sem).data, vals)

    def test_masked_slots_zero(self):
        vals = np.random.default_rng(7).normal(size=(2, 5))
        sem = SemanticTensor(Tensor(vals), [0, 2], 4)
        full = zero_fill(sem).data
        np.testing.assert_array_equal(full[[1, 3]], np.zeros((2, 5)))
        np.testing.assert_array_equal(full[[0, 2]], vals)

    def test_nonzero_rows_equal_keep_set(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(4, 20))
            keep = np.sort(rng.choice(n, int(rng.integers(1, n + 1)), replace=False))
            vals = rng.normal(size=(len(keep), 6)) + 0.1  # rows never all-zero
            sem = SemanticTensor(Tensor(vals), keep, n)
            full = zero_fill(sem).data
            nonzero = {i for i in range(n) if np.any(full[i] != 0)}
            assert nonzero == set(int(i) for i in keep)

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ContractError):
            SemanticTensor(Tensor(np.ones((2, 3))), [1, 1], 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractError):
            SemanticTensor(Tensor(np.ones((2, 3))), [0, 9], 4)


class TestDecode:
    def test_output_shape(self):
        cfg = small_cfg()
        params = CodecParams.init(cfg, RngStream(9))
        z = Tensor(np.random.default_rng(9).normal(size=(cfg.num_patches, cfg.feature_dim)))
        out = decode(z, params, cfg)
        assert out.shape == (cfg.num_patches, cfg.patch_dim)

    def test_zero_projection_gives_constant_rows(self):
        cfg = small_cfg()
        params = CodecParams.init(cfg, RngStream(10))
        params.out_w.data[...] = 0.0
        params.out_b.data[...] = 0.25
        z = Tensor(np.random.default_rng(10).normal(size=(cfg.num_patches, cfg.feature_dim)))
        out = decode(z, params, cfg)
        np.testing.assert_array_equal(out.data, np.full((cfg.num_patches, cfg.patch_dim), 0.25))

    def test_fuzz_random_inputs_finite(self):
        cfg = small_cfg()
        params = CodecParams.init(cfg, RngStream(11))
        rng = np.random.default_rng(11)
        for _ in range(100):
            z = Tensor(rng.normal(size=(cfg.num_patches, cfg.feature_dim)) * 3)
            out = decode(z, params, cfg)
            assert np.all(np.isfinite(out.data))


def codec_model(grid, ccfg, params) -> LinkModel:
    """LinkModel around given codec parameters (its channel codec is unused
    by the noiseless pass)."""
    return LinkModel(grid, ccfg, params, ChanCodecParams.init(ccfg.feature_dim, 8, RngStream(0)))


class TestReconstruct:
    """Noiseless mask, encode, zero-fill, decode through link.codec_only_pass."""

    def test_all_masked_surfaces_contract_error(self):
        cfg = SceneConfig()
        grid = cfg.grid()
        scene = generate_scene(RngStream(1, 50), cfg)
        ccfg = CodecConfig.for_grid(grid, feature_dim=16, enc_layers=1, dec_layers=1, num_heads=2)
        params = CodecParams.init(ccfg, RngStream(12))
        loc = np.arange(grid.num_patches, dtype=np.intp)
        with pytest.raises(ContractError):
            plan = sample_mask(grid, loc, 1.0, RngStream(13))
            codec_only_pass(codec_model(grid, ccfg, params), scene.image, plan)

    def test_deterministic(self):
        cfg = SceneConfig()
        grid = cfg.grid()
        scene = generate_scene(RngStream(2, 51), cfg)
        ccfg = CodecConfig.for_grid(grid, feature_dim=16, enc_layers=1, dec_layers=1, num_heads=2)
        model = codec_model(grid, ccfg, CodecParams.init(ccfg, RngStream(14)))
        loc = locate_any(scene, grid)
        plan1 = sample_mask(grid, loc, 0.3, RngStream(15))
        q1, z1 = codec_only_pass(model, scene.image, plan1)
        plan2 = sample_mask(grid, loc, 0.3, RngStream(15))
        q2, z2 = codec_only_pass(model, scene.image, plan2)
        np.testing.assert_array_equal(q1.data, q2.data)
        np.testing.assert_array_equal(plan1.masked, plan2.masked)

    def test_shapes(self):
        cfg = SceneConfig()
        grid = cfg.grid()
        scene = generate_scene(RngStream(3, 52), cfg)
        ccfg = CodecConfig.for_grid(grid, feature_dim=16, enc_layers=1, dec_layers=1, num_heads=2)
        model = codec_model(grid, ccfg, CodecParams.init(ccfg, RngStream(16)))
        loc = locate_any(scene, grid)
        plan = sample_mask(grid, loc, 0.3, RngStream(17))
        q, z = codec_only_pass(model, scene.image, plan)
        assert q.shape == scene.image.shape
        assert z.values.shape == (plan.keep_count, ccfg.feature_dim)


class TestCodecGradients:
    def test_reconstruction_loss_matches_finite_differences(self):
        # 2-layer, feature_dim 16 model per the module contract
        cfg = CodecConfig(feature_dim=16, enc_layers=2, dec_layers=2, num_heads=2,
                          patch_dim=8, num_patches=8)
        params = CodecParams.init(cfg, RngStream(18))
        rng_np = np.random.default_rng(12)
        patches = Tensor(rng_np.normal(size=(8, cfg.patch_dim)))
        keep = np.array([0, 2, 3, 6])
        target = Tensor(rng_np.normal(size=(cfg.num_patches, cfg.patch_dim)))

        def loss_fn():
            z = encode(Tensor(patches.data[keep]), keep, params, cfg)
            q = decode(zero_fill(z), params, cfg)
            d = sub(q, target)
            return tmean(mul(d, d))

        worst = sampled_param_check(loss_fn, params.tensors(), RngStream(19),
                                    coords_per_tensor=4)
        assert worst < 1e-4


def count_op_nodes(out: Tensor) -> int:
    """Non-leaf graph nodes reachable from out (each shared node once)."""
    seen, stack, count = set(), [out], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        count += node._vjp is not None
        stack.extend(node._parents)
    return count


class TestGraphSize:
    """A residual block and layer norm are single graph nodes; un-fusing them
    multiplies the per-sample graph (and the interpreter cost with it)."""

    def test_block_is_one_node(self):
        cfg = CodecConfig(feature_dim=16, enc_layers=1, dec_layers=1, num_heads=4,
                          patch_dim=8, num_patches=16)
        params = CodecParams.init(cfg, RngStream(20))
        x = Tensor(np.random.default_rng(21).normal(size=(10, cfg.feature_dim)))
        assert count_op_nodes(_block(x, params.enc_blocks[0], cfg.num_heads)) == 1

    def test_codec_phase_loss_at_most_twenty_five_nodes(self):
        cfg = SceneConfig()
        model = LinkModel.init(cfg.grid(), RngStream(22))
        scene = generate_scene(RngStream(23), cfg)
        loss = _sample_loss(model, scene, "codec", TrainConfig(), None, RngStream(24))
        assert count_op_nodes(loss) <= 25


def reference_block(x, blk: BlockParams, num_heads: int) -> Tensor:
    """The residual block composed of the public ops, one graph node each."""
    normed = layer_norm(x, blk.ln1_gain, blk.ln1_bias, LN_EPS)
    x = add(softmax_attention(normed, normed, normed, blk.attn, num_heads), x)
    normed = layer_norm(x, blk.ln2_gain, blk.ln2_bias, LN_EPS)
    return add(gelu(add(matmul(normed, blk.ff_weight), blk.ff_bias)), x)


def random_block(dim: int, seed: int) -> BlockParams:
    """A block whose every tensor, layer-norm affines and biases included,
    holds random values."""
    blk = BlockParams.init(dim, RngStream(seed))
    rng = np.random.default_rng(seed)
    for t in blk.tensors("blk").values():
        t.data[...] = rng.normal(size=t.shape) * (0.6 if t.ndim == 2 else 1.0)
    return blk


def block_outputs(fn, x_data, blk, num_heads, upstream):
    """fn's output, input gradient and the block's 14 gradients for the loss
    sum(out * upstream)."""
    params = list(blk.tensors("blk").values())
    zero_grad(params)
    x = Tensor(x_data, requires_grad=True)
    out = fn(x, blk, num_heads)
    backward(tsum(mul(out, Tensor(upstream))))
    return [out.data, x.grad] + [t.grad for t in params]


class TestFusedBlock:
    """The fused block is the composition of the public ops, bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(length=st.integers(1, 9), num_heads=st.sampled_from([1, 2, 4]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_public_op_composition_bitwise(self, length, num_heads, seed):
        dim = 8
        blk = random_block(dim, seed)
        rng = np.random.default_rng(seed + 1)
        x_data = rng.normal(size=(length, dim)) * 2.0
        upstream = rng.normal(size=(length, dim))
        fused = block_outputs(_block, x_data, blk, num_heads, upstream)
        reference = block_outputs(reference_block, x_data, blk, num_heads, upstream)
        assert len(fused) == 16
        for got, want in zip(fused, reference):
            np.testing.assert_array_equal(got, want)
        with no_grad():
            np.testing.assert_array_equal(_block(Tensor(x_data), blk, num_heads).data, fused[0])

    @pytest.mark.parametrize("phase", PHASES)
    def test_training_checkpoints_match_the_reference_block(self, phase, tmp_path,
                                                            monkeypatch):
        cfg = SceneConfig(channels=1)
        scenes = [generate_scene(RngStream(50, i), cfg) for i in range(4)]
        blobs = []
        for name, fn in (("fused", _block), ("reference", reference_block)):
            monkeypatch.setattr(codec, "_block", fn)
            model = LinkModel.init(cfg.grid(), RngStream(51), feature_dim=16, enc_layers=2,
                                   dec_layers=1, num_heads=4, symbol_dim=4)
            train_phase(model, scenes, TrainConfig(phase=phase, lr=1e-3, epochs=2,
                                                   batch_size=3, seed=52))
            model.save(tmp_path / f"{name}.ckpt")
            blobs.append((tmp_path / f"{name}.ckpt").read_bytes())
        assert blobs[0] == blobs[1]

    def test_finite_differences(self):
        blk = random_block(8, 53)
        rng = np.random.default_rng(54)
        x = Tensor(rng.normal(size=(5, 8)), requires_grad=True)
        upstream = Tensor(rng.normal(size=(5, 8)))
        params = {"x": x, **blk.tensors("blk")}
        worst = sampled_param_check(lambda: tsum(mul(_block(x, blk, 2), upstream)), params,
                                    RngStream(55), coords_per_tensor=4)
        assert worst < 1e-4

    @pytest.mark.parametrize("shape, error", [((5, 8), ShapeError), ((5,), ShapeError),
                                              ((0, 16), ContractError)],
                             ids=["narrow", "rank-1", "no-rows"])
    def test_bad_input_rejected(self, shape, error):
        blk = BlockParams.init(16, RngStream(56))
        with pytest.raises(error):
            _block(Tensor(np.ones(shape)), blk, 2)

    @pytest.mark.parametrize("scaled, message", [
        ({"ln1_gain": 1e308}, "tensor construction rejected"),  # LN1 output
        ({"attn.wq": 1e160, "attn.wk": 1e160}, "attention scores overflowed"),
        ({"attn.wo": 1e160}, "layer_norm row variance overflowed"),  # LN2
        ({"ln2_gain": 1e160, "ff_weight": 1e160}, "tensor construction rejected"),  # FF
    ], ids=["ln1-output", "scores", "ln2-variance", "ff-pre-activation"])
    @pytest.mark.parametrize("graph", [True, False], ids=["graph", "no_grad"])
    def test_overflow_raises_like_the_reference(self, scaled, message, graph):
        blk = random_block(8, 57)
        tensors = blk.tensors("blk")
        for name, factor in scaled.items():
            tensors[f"blk.{name}"].data[...] *= factor
        x = Tensor(np.random.default_rng(58).normal(size=(4, 8)), requires_grad=graph)
        for fn in (_block, reference_block):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NonFiniteError, match=message):
                    if graph:
                        fn(x, blk, 2)
                    else:
                        with no_grad():
                            fn(x, blk, 2)
