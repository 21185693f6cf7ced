import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semlink.errors import ContractError, ShapeError
from semlink.masking import (
    PatchGrid,
    patchify,
    random_mask,
    sample_mask,
    unpatchify,
)
from semlink.rng import RngStream
from semlink.scenes import Loc
from semlink.tensor import Tensor, backward, mul, tsum


def grid_for(c, h, w, p):
    return PatchGrid.for_image((c, h, w), p)


@st.composite
def grids(draw):
    return PatchGrid(draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 6)),
                     draw(st.sampled_from([1, 3])))


def _image(grid, seed):
    p = grid.patch_size
    shape = (grid.channels, grid.grid_h * p, grid.grid_w * p)
    return np.random.default_rng(seed).normal(size=shape)


class TestPatchifyBijection:
    @settings(max_examples=100, deadline=None)
    @given(grids(), st.integers(0, 2**32 - 1))
    def test_unpatchify_inverts_patchify(self, grid, seed):
        img = _image(grid, seed)
        np.testing.assert_array_equal(unpatchify(patchify(img, grid), grid).data, img)

    @settings(max_examples=100, deadline=None)
    @given(grids(), st.integers(0, 2**32 - 1))
    def test_patchify_inverts_unpatchify(self, grid, seed):
        rows = np.random.default_rng(seed).normal(size=(grid.num_patches, grid.patch_dim))
        np.testing.assert_array_equal(patchify(unpatchify(rows, grid).data, grid), rows)

    @settings(max_examples=50, deadline=None)
    @given(grids(), st.integers(0, 2**32 - 1), st.data())
    def test_row_is_channel_first_patch_crop(self, grid, seed, data):
        img = _image(grid, seed)
        i = data.draw(st.integers(0, grid.num_patches - 1))
        x, y, w, h = grid.patch_bbox(i)
        np.testing.assert_array_equal(patchify(img, grid)[i],
                                      img[:, y : y + h, x : x + w].reshape(-1))


class TestPatchify:
    def test_single_patch_is_flattened_image(self):
        img = np.arange(16, dtype=float).reshape(1, 4, 4)
        grid = grid_for(1, 4, 4, 4)
        rows = patchify(img, grid)
        assert rows.shape == (1, 16)
        np.testing.assert_array_equal(rows[0], img.reshape(-1))

    def test_row_one_is_top_right_block(self):
        img = np.arange(64, dtype=float).reshape(1, 8, 8)
        grid = grid_for(1, 8, 8, 4)
        rows = patchify(img, grid)
        # index arithmetic oracle: row 1 = (row 0, col 1) of the grid
        expected = img[0, 0:4, 4:8].reshape(-1)
        np.testing.assert_array_equal(rows[1], expected)

    def test_inverse_pair_over_shapes(self):
        rng = np.random.default_rng(0)
        for c, h, w, p in [(1, 4, 4, 4), (1, 8, 8, 2), (3, 8, 12, 4), (3, 16, 16, 8), (1, 12, 8, 4)]:
            img = rng.uniform(size=(c, h, w))
            grid = grid_for(c, h, w, p)
            back = unpatchify(patchify(img, grid), grid)
            np.testing.assert_array_equal(back.data, img)

    def test_shape_mismatch(self):
        grid = grid_for(1, 8, 8, 4)
        with pytest.raises(ShapeError):
            patchify(np.zeros((1, 4, 4)), grid)
        with pytest.raises(ShapeError):
            unpatchify(Tensor(np.zeros((3, 16))), grid)

    def test_gradients_flow_through_roundtrip(self):
        # patchify is a plain array map; the graph runs through unpatchify
        grid = grid_for(1, 8, 8, 4)
        img = np.random.default_rng(1).normal(size=(1, 8, 8))
        x = Tensor(patchify(img, grid), requires_grad=True)
        out = unpatchify(x, grid)
        backward(tsum(mul(out, out)))
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_patch_bbox(self):
        grid = grid_for(1, 8, 12, 4)
        assert grid.patch_bbox(0) == (0, 0, 4, 4)
        assert grid.patch_bbox(2) == (8, 0, 4, 4)
        assert grid.patch_bbox(3) == (0, 4, 4, 4)


class TestSampleMask:
    def setup_method(self):
        self.grid = grid_for(1, 32, 32, 4)  # 64 patches
        self.loc = Loc(frozenset(range(16)))

    def test_degenerate_zero(self):
        plan = sample_mask(self.grid, self.loc, 0.0, RngStream(1))
        kept = set(int(i) for i in plan.keep_indices)
        assert kept == set(range(16))  # objects kept, background masked

    def test_degenerate_one_all_objects(self):
        loc_all = Loc(frozenset(range(64)))
        plan = sample_mask(self.grid, loc_all, 1.0, RngStream(2))
        assert plan.keep_count == 0

    def test_partition_exact(self):
        for seed in range(50):
            plan = sample_mask(self.grid, self.loc, 0.35, RngStream(seed))
            kept = set(int(i) for i in plan.keep_indices)
            masked = {i for i in range(64) if plan.masked[i]}
            assert kept | masked == set(range(64))
            assert kept & masked == set()

    def test_empirical_rates(self):
        n = 30_000
        hits = np.zeros(64)
        root = RngStream(7)
        for t in range(n):
            plan = sample_mask(self.grid, self.loc, 0.3, root.substream(t))
            hits += plan.masked
        rates = hits / n
        assert np.abs(rates[:16] - 0.3).max() < 0.015
        assert np.abs(rates[16:] - 0.7).max() < 0.015

    def test_determinism(self):
        a = sample_mask(self.grid, self.loc, 0.3, RngStream(5, 5))
        b = sample_mask(self.grid, self.loc, 0.3, RngStream(5, 5))
        np.testing.assert_array_equal(a.masked, b.masked)

    def test_bad_probability(self):
        with pytest.raises(ContractError):
            sample_mask(self.grid, self.loc, 1.5, RngStream(0))


class TestRandomMask:
    def test_keep_all(self):
        grid = grid_for(1, 32, 32, 4)
        plan = random_mask(grid, 64, RngStream(3))
        assert not plan.masked.any()
        assert plan.object_indices == frozenset()

    def test_empirical_uniform_rate(self):
        grid = grid_for(1, 16, 16, 4)  # 16 patches
        n, keep = 20_000, 4
        hits = np.zeros(16)
        root = RngStream(13)
        for t in range(n):
            plan = random_mask(grid, keep, root.substream(t))
            hits[plan.keep_indices] += 1
        rate = hits / n
        expected = keep / 16
        sigma = np.sqrt(expected * (1 - expected) / n)
        assert np.abs(rate - expected).max() < 3.5 * sigma

    def test_determinism(self):
        grid = grid_for(1, 32, 32, 4)
        a = random_mask(grid, 20, RngStream(8, 1))
        b = random_mask(grid, 20, RngStream(8, 1))
        np.testing.assert_array_equal(a.masked, b.masked)
