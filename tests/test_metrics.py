import math

import numpy as np
import pytest

from semlink.errors import ContractError, ShapeError
from semlink.masking import PatchGrid
from semlink.metrics import PSNR_CAP_DB, SSIM_WINDOW, nmse, psnr, region_metric, ssim
from semlink.rng import RngStream
from semlink.tensor import Tensor


def direct_ssim_oracle(x, y, max_val=1.0, win=SSIM_WINDOW):
    """Independent nested-loop SSIM over all window placements."""
    c1 = (0.01 * max_val) ** 2
    c2 = (0.03 * max_val) ** 2
    vals = []
    for ch in range(x.shape[0]):
        a, b = x[ch], y[ch]
        h, w = a.shape
        if h < win or w < win:
            wins = [(a, b)]
        else:
            wins = [
                (a[r : r + win, c : c + win], b[r : r + win, c : c + win])
                for r in range(h - win + 1)
                for c in range(w - win + 1)
            ]
        total = 0.0
        for xa, ya in wins:
            mx, my = xa.mean(), ya.mean()
            vx = ((xa - mx) ** 2).mean()
            vy = ((ya - my) ** 2).mean()
            cov = ((xa - mx) * (ya - my)).mean()
            total += ((2 * mx * my + c1) * (2 * cov + c2)) / (
                (mx**2 + my**2 + c1) * (vx + vy + c2)
            )
        vals.append(total / len(wins))
    return float(np.mean(vals))


class TestPsnr:
    def test_identical_hits_cap(self):
        a = np.random.default_rng(0).uniform(size=(1, 16, 16))
        assert psnr(a, a.copy()) == PSNR_CAP_DB

    def test_unit_mse_255(self):
        a = np.zeros((1, 16, 16))
        b = np.ones((1, 16, 16))
        got = psnr(a, b, max_val=255.0)
        assert abs(got - 20 * math.log10(255.0)) < 1e-10
        assert abs(got - 48.130803608679344) < 1e-6

    def test_zero_db_at_full_scale_error(self):
        a = np.zeros((1, 8, 8))
        b = np.full((1, 8, 8), 0.7)
        assert abs(psnr(a, b, max_val=0.7)) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = rng.uniform(size=(3, 12, 12)), rng.uniform(size=(3, 12, 12))
        assert psnr(a, b) == psnr(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            psnr(np.zeros((1, 4, 4)), np.zeros((1, 8, 8)))

    def test_accepts_tensors(self):
        a = Tensor(np.random.default_rng(2).uniform(size=(1, 8, 8)))
        assert psnr(a, a) == PSNR_CAP_DB


class TestSsim:
    def test_identical_is_one(self):
        a = np.random.default_rng(3).uniform(size=(1, 16, 16))
        assert ssim(a, a.copy()) == 1.0

    def test_constant_images_closed_form(self):
        c1v, c2v = 0.3, 0.8
        a = np.full((1, 16, 16), c1v)
        b = np.full((1, 16, 16), c2v)
        c1 = 0.01**2
        expected = (2 * c1v * c2v + c1) / (c1v**2 + c2v**2 + c1)
        assert abs(ssim(a, b) - expected) < 1e-12

    def test_matches_direct_formula_oracle(self):
        rng = np.random.default_rng(4)
        for shape in [(1, 12, 12), (3, 16, 16), (1, 9, 14)]:
            a, b = rng.uniform(size=shape), rng.uniform(size=shape)
            assert abs(ssim(a, b) - direct_ssim_oracle(a, b)) < 1e-10

    def test_small_image_global_fallback(self):
        rng = np.random.default_rng(5)
        a, b = rng.uniform(size=(1, 5, 5)), rng.uniform(size=(1, 5, 5))
        assert abs(ssim(a, b) - direct_ssim_oracle(a, b)) < 1e-12

    def test_bounded_above_by_one(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            a = rng.uniform(size=(1, 10, 10))
            b = rng.uniform(size=(1, 10, 10))
            assert ssim(a, b) <= 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        a, b = rng.uniform(size=(1, 16, 16)), rng.uniform(size=(1, 16, 16))
        assert ssim(a, b) == ssim(b, a)


class TestRegionMetric:
    def setup_method(self):
        self.grid = PatchGrid.for_image((1, 32, 32), 4)
        self.rng = np.random.default_rng(8)

    def test_full_grid_equals_global(self):
        a = self.rng.uniform(size=(1, 32, 32))
        b = self.rng.uniform(size=(1, 32, 32))
        loc = np.arange(64, dtype=np.intp)
        assert abs(region_metric(a, b, loc, self.grid, "psnr") - psnr(a, b)) < 1e-12
        assert abs(region_metric(a, b, loc, self.grid, "ssim") - ssim(a, b)) < 1e-12

    def test_equal_on_region_hits_cap(self):
        a = self.rng.uniform(size=(1, 32, 32))
        b = a.copy()
        b[:, 16:, :] += 0.3  # corrupt pixels outside the region
        loc = np.array([0, 1, 8, 9], dtype=np.intp)  # top-left 8x8 block
        assert region_metric(a, np.clip(b, 0, 2), loc, self.grid, "psnr") == PSNR_CAP_DB

    def test_single_patch_equals_crop_oracle(self):
        a = self.rng.uniform(size=(1, 32, 32))
        b = self.rng.uniform(size=(1, 32, 32))
        idx = 18
        x, y, w, h = self.grid.patch_bbox(idx)
        loc = np.array([idx], dtype=np.intp)
        crop_a, crop_b = a[:, y : y + h, x : x + w], b[:, y : y + h, x : x + w]
        assert abs(region_metric(a, b, loc, self.grid, "psnr") - psnr(crop_a, crop_b)) < 1e-12
        # 4x4 patch is below the 8x8 window: both sides use global stats on it
        assert abs(region_metric(a, b, loc, self.grid, "ssim") - ssim(crop_a, crop_b)) < 1e-12

    def test_contiguous_region_ssim_restricted_windows(self):
        a = self.rng.uniform(size=(1, 32, 32))
        b = self.rng.uniform(size=(1, 32, 32))
        loc = np.array([0, 1, 8, 9], dtype=np.intp)  # 8x8 pixel block: exactly 1 window
        got = region_metric(a, b, loc, self.grid, "ssim")
        expected = direct_ssim_oracle(a[:, :8, :8], b[:, :8, :8])
        assert abs(got - expected) < 1e-10

    def test_empty_loc_rejected(self):
        a = np.zeros((1, 32, 32))
        with pytest.raises(ContractError):
            region_metric(a, a, np.array([], dtype=np.intp), self.grid, "psnr")

    def test_unknown_metric_rejected(self):
        a = np.zeros((1, 32, 32))
        with pytest.raises(ContractError):
            region_metric(a, a, np.array([0], dtype=np.intp), self.grid, "mse")


class TestNmse:
    def test_zero_for_equal(self):
        x = np.random.default_rng(9).normal(size=(4, 4)).astype(complex)
        assert nmse(x[None], x.copy()[None])[0] == 0.0

    def test_one_for_zero_estimate(self):
        x = (np.random.default_rng(10).normal(size=(3, 3)) + 1j).astype(complex)
        assert abs(nmse(x[None], np.zeros((1, 3, 3), dtype=complex))[0] - 1.0) < 1e-12

    def test_double_estimate(self):
        x = (np.random.default_rng(11).normal(size=(5,)) + 0.5j).astype(complex)
        assert abs(nmse(x[None], x[None] * 2.0)[0] - 1.0) < 1e-12

    def test_zero_reference_rejected(self):
        z = np.zeros((1, 2, 2), dtype=complex)
        with pytest.raises(ContractError):
            nmse(z, z)
