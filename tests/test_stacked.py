"""Stacked forward passes: a [..., L, d] stack gives each item the bits it
gets alone, runs forward only, and keeps the per-op finiteness checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semlink.channel import ChannelConfig, draw_channel
from semlink.codec import CodecConfig, CodecParams, _block, decode, zero_fill
from semlink.errors import NonFiniteError, ShapeError
from semlink.link import LinkModel, evaluate_link, link_encode, link_receive
from semlink.masking import PatchGrid, sample_mask, unpatchify
from semlink.metrics import ReferenceImage
from semlink.rng import RngStream
from semlink.scenes import SceneConfig, generate_scene, locate_any
from semlink.tensor import Tensor, matmul, no_grad


def check_stack_matches_items(grid, loc, stack, feature_dim, num_heads, dec_layers, seed):
    """decode, unpatchify and ReferenceImage.reports of a stack against the
    same calls item by item; returns the reference for its edge cases."""
    cfg = CodecConfig.for_grid(grid, feature_dim=feature_dim, num_heads=num_heads,
                               enc_layers=1, dec_layers=dec_layers)
    params = CodecParams.init(cfg, RngStream(seed))
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(stack, cfg.num_patches, feature_dim))
    z[:, rng.uniform(size=cfg.num_patches) < 0.5] = 0.0  # masked slots
    reference = ReferenceImage.of(rng.uniform(size=(grid.channels, grid.grid_h * grid.patch_size,
                                                    grid.grid_w * grid.patch_size)), loc, grid)
    with no_grad():
        rows = decode(Tensor(z), params, cfg)
        images = unpatchify(rows, grid)
        items = [decode(Tensor(z[i]), params, cfg) for i in range(stack)]
        for i, item in enumerate(items):
            np.testing.assert_array_equal(rows.data[i], item.data)
            np.testing.assert_array_equal(images.data[i], unpatchify(item, grid).data)
    assert reference.reports(images) == [reference.report(image) for image in images.data]
    return reference


@settings(max_examples=40, deadline=None, derandomize=True)
@given(stack=st.integers(1, 8), num_heads=st.sampled_from([1, 2, 4]),
       head_dim=st.sampled_from([1, 3, 4]), dec_layers=st.integers(1, 3),
       channels=st.sampled_from([1, 3]), patch=st.sampled_from([2, 4]),
       grid_h=st.integers(1, 4), grid_w=st.integers(1, 4), data=st.data())
def test_stacked_forward_equals_per_item_forward(stack, num_heads, head_dim, dec_layers,
                                                 channels, patch, grid_h, grid_w, data):
    grid = PatchGrid(patch, grid_h, grid_w, channels)
    loc = sorted(data.draw(st.sets(st.integers(0, grid.num_patches - 1), min_size=1)))
    check_stack_matches_items(grid, np.asarray(loc, dtype=np.intp), stack,
                              num_heads * head_dim, num_heads, dec_layers,
                              data.draw(st.integers(0, 2**32 - 1)))


@pytest.mark.parametrize("grid,loc,edge", [
    (PatchGrid(2, 3, 3, 3), [0, 4], "x_means"),  # 6 x 6 image: no SSIM window fits
    (PatchGrid(4, 4, 4, 1), [0, 2, 9, 15], "inside"),  # no window fully inside the region
], ids=["below-window", "no-interior-window"])
def test_stacked_reports_at_the_ssim_fallbacks(grid, loc, edge):
    reference = check_stack_matches_items(grid, np.asarray(loc, dtype=np.intp), 5, 8, 2, 2, 3)
    assert getattr(reference, edge) is None


def test_non_finite_item_raises_the_per_item_message():
    grid = PatchGrid(2, 4, 4, 1)
    cfg = CodecConfig.for_grid(grid, feature_dim=8, num_heads=2, enc_layers=1, dec_layers=1)
    params = CodecParams.init(cfg, RngStream(4))
    z = np.random.default_rng(4).normal(size=(3, cfg.num_patches, 8))
    z[1, 5, 0] = 1e300  # its row variance overflows
    with no_grad(), np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError) as alone:
            decode(Tensor(z[1]), params, cfg)
        with pytest.raises(NonFiniteError) as stacked:
            decode(Tensor(z), params, cfg)
    assert str(stacked.value) == str(alone.value) == "layer_norm row variance overflowed"


class TestForwardOnly:
    @staticmethod
    def parts():
        grid = PatchGrid(2, 2, 2, 1)
        cfg = CodecConfig.for_grid(grid, feature_dim=4, num_heads=2, enc_layers=1, dec_layers=1)
        params = CodecParams.init(cfg, RngStream(5))
        return cfg, params, Tensor(np.random.default_rng(5).normal(size=(2, 4, 4)))

    def test_stacked_decode_recording_a_graph_raises(self):
        cfg, params, z = self.parts()
        with pytest.raises(ShapeError, match="forward only"):
            decode(z, params, cfg)
        with pytest.raises(ShapeError, match="forward only"):
            _block(z, params.dec_blocks[0], cfg.num_heads)
        with no_grad():
            assert decode(z, params, cfg).shape == (2, 4, 4)

    def test_stacked_matmul_recording_a_graph_raises(self):
        _, params, z = self.parts()
        with pytest.raises(ShapeError, match="forward only"):
            matmul(z, params.out_w)
        # constants record nothing, so their stack needs no switch
        np.testing.assert_array_equal(matmul(z, Tensor(params.out_w.data)).data,
                                      z.data @ params.out_w.data)

    def test_unstacked_decode_still_records(self):
        cfg, params, z = self.parts()
        assert decode(Tensor(z.data[0]), params, cfg).requires_grad


def test_link_receive_equals_evaluate_link_per_cell():
    """One stacked receive over four groups (three single cells and two SNRs
    of one kind sharing a stream and a frame) gives each cell's image and
    received semantics bit for bit as evaluate_link over that cell alone."""
    scene_cfg = SceneConfig(height=16, width=16, channels=3, patch_size=4)
    grid = scene_cfg.grid()
    model = LinkModel.init(grid, RngStream(21), feature_dim=8, enc_layers=1, dec_layers=2,
                           num_heads=2, symbol_dim=4)
    scene = generate_scene(RngStream(22), scene_cfg)
    plan = sample_mask(grid, locate_any(scene, grid), 0.3, RngStream(23))
    groups = []
    for i, (kind, snrs) in enumerate([("awgn", [0.0]), ("rayleigh", [10.0]), ("rician", [20.0]),
                                      ("rayleigh", [-3.0, 7.0])]):
        chan_cfgs = [ChannelConfig(kind=kind, snr_db=snr_db, n_t=2, n_r=2, csi_error_var=0.02)
                     for snr_db in snrs]
        frame = None if i == 0 else draw_channel(chan_cfgs[0], [RngStream(24, i)])
        groups.append((chan_cfgs, RngStream(25, i), frame))
    cells = [(chan_cfg, rng, frame) for chan_cfgs, rng, frame in groups for chan_cfg in chan_cfgs]
    with no_grad():
        stacked = link_receive(model, *link_encode(model, scene.image, plan), groups)
        alone = [evaluate_link(model, scene.image, plan, *cell) for cell in cells]
    assert stacked.image.shape == (len(cells), *scene.image.shape) and len(cells) == 5
    for c, res in enumerate(alone):
        np.testing.assert_array_equal(stacked.image.data[c], res.image.data)
        np.testing.assert_array_equal(stacked.z_hat.values.data[c], res.z_hat.values.data)
    np.testing.assert_array_equal(zero_fill(stacked.z_hat).data[2],
                                  zero_fill(alone[2].z_hat).data)
