"""Property tests of the one-pass metrics (image_report and its views)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from semlink.masking import PatchGrid
from semlink.metrics import (SSIM_WINDOW, MetricReport, ReferenceImage, image_report, psnr,
                             region_metric, ssim)
from semlink.metrics import _psnr_db, _ssim_stats, _ssim_value, _window_sums

from test_metrics import direct_ssim_oracle


def direct_region_ssim_oracle(x, y, mask, max_val=1.0, win=SSIM_WINDOW):
    """Nested-loop region SSIM: windows lying fully inside mask, else the
    global statistics of the masked pixels."""
    c1 = (0.01 * max_val) ** 2
    c2 = (0.03 * max_val) ** 2

    def value(xa, ya):
        mx, my = xa.mean(), ya.mean()
        vx, vy = ((xa - mx) ** 2).mean(), ((ya - my) ** 2).mean()
        cov = ((xa - mx) * (ya - my)).mean()
        return ((2 * mx * my + c1) * (2 * cov + c2)) / ((mx**2 + my**2 + c1) * (vx + vy + c2))

    h, w = mask.shape
    corners = [(r, c) for r in range(h - win + 1) for c in range(w - win + 1)
               if mask[r : r + win, c : c + win].all()]
    vals = []
    for ch in range(x.shape[0]):
        if corners:
            vals.append(np.mean([value(x[ch, r : r + win, c : c + win],
                                       y[ch, r : r + win, c : c + win]) for r, c in corners]))
        else:
            vals.append(value(x[ch][mask], y[ch][mask]))
    return float(np.mean(vals))


@st.composite
def scored_pairs(draw):
    """(original, reconstruction, grid, loc, pixel mask) with C in {1, 3},
    H and W in 5..40 and a random non-empty patch set, sparse or dense."""
    p = draw(st.integers(1, 5))
    gh = draw(st.integers(-(-5 // p), 40 // p))
    gw = draw(st.integers(-(-5 // p), 40 // p))
    c = draw(st.sampled_from([1, 3]))
    grid = PatchGrid(p, gh, gw, c)
    ids = st.integers(0, gh * gw - 1)
    if draw(st.booleans()):  # sparse: often no window fits inside
        patches = draw(st.sets(ids, min_size=1, max_size=gh * gw))
    else:  # dense: windows next to a few holes
        patches = (set(range(gh * gw)) - draw(st.sets(ids, max_size=3))) or {0}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(size=(c, gh * p, gw * p))
    y = np.clip(x + rng.normal(0.0, draw(st.sampled_from([0.0, 0.05, 0.5])), size=x.shape), 0, 1)
    mask = np.zeros((gh * p, gw * p), dtype=bool)
    for i in patches:
        px, py, w, h = grid.patch_bbox(i)
        mask[py : py + h, px : px + w] = True
    return x, y, grid, np.array(sorted(patches), dtype=np.intp), mask


@settings(max_examples=150, deadline=None)
@given(scored_pairs())
def test_report_equals_single_metric_views(case):
    x, y, grid, loc, _ = case
    rep = image_report(x, y, loc, grid)
    assert abs(rep.psnr_db - psnr(x, y)) <= 1e-12
    assert abs(rep.ssim - ssim(x, y)) <= 1e-12
    assert abs(rep.region_psnr_db - region_metric(x, y, loc, grid, "psnr")) <= 1e-12
    assert abs(rep.region_ssim - region_metric(x, y, loc, grid, "ssim")) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(scored_pairs())
def test_report_matches_direct_oracles(case):
    x, y, grid, loc, mask = case
    rep = image_report(x, y, loc, grid)
    assert abs(rep.ssim - direct_ssim_oracle(x, y)) <= 1e-10
    assert abs(rep.region_ssim - direct_region_ssim_oracle(x, y, mask)) <= 1e-10


def one_shot_report(x, y, mask, max_val=1.0):
    """image_report computed from scratch for one reconstruction, the five
    window means (x, y, x², y², xy) from one stack: the reference the shared
    ReferenceImage must reproduce bit for bit."""
    err2 = (x - y) ** 2
    smap = None
    if min(x.shape[-2:]) >= SSIM_WINDOW:
        mx, my, exx, eyy, exy = (_window_sums(np.stack([x, y, x * x, y * y, x * y]))
                                 / SSIM_WINDOW ** 2)
        smap = _ssim_value(mx, my, exx - mx * mx, eyy - my * my, exy - mx * my, max_val)

    def ssim_mean(region):
        inside = None
        if smap is not None and region is not None:
            inside = _window_sums(region.astype(np.int64)) == SSIM_WINDOW ** 2
        vals = []
        for ch in range(x.shape[0]):
            if smap is None or (inside is not None and not inside.any()):
                xs, ys = (x[ch], y[ch]) if region is None else (x[ch][region], y[ch][region])
                vals.append(_ssim_value(*_ssim_stats(xs, ys), max_val))
            else:
                vals.append(np.mean(smap[ch] if inside is None else smap[ch][inside]))
        return float(np.mean(vals))

    return MetricReport(_psnr_db(float(np.mean(err2)), max_val), ssim_mean(None),
                        _psnr_db(float(err2[:, mask].mean()), max_val), ssim_mean(mask))


@settings(max_examples=100, deadline=None)
@given(scored_pairs(), st.integers(0, 2**32 - 1))
def test_shared_reference_reports_bit_identical(case, seed):
    """One ReferenceImage scores several reconstructions of its original
    exactly as one image_report per reconstruction, and as the one-shot
    computation, also below the SSIM window and where no window fits; so
    does one reports call over the stack of them."""
    x, y, grid, loc, mask = case
    rng = np.random.default_rng(seed)
    recons = [y, x.copy(), rng.uniform(size=x.shape), np.clip(y + 0.1, 0, 1)]
    reference = ReferenceImage.of(x, loc, grid)
    for recon in recons:
        shared = reference.report(recon)
        assert shared == image_report(x, recon, loc, grid)
        assert shared == one_shot_report(x, recon, mask)
    assert reference.reports(np.stack(recons)) == [one_shot_report(x, r, mask) for r in recons]


@settings(max_examples=100, deadline=None)
@given(scored_pairs())
def test_ssim_identity_and_symmetry_exact(case):
    x, y, _, _, _ = case
    assert ssim(x, x.copy()) == 1.0
    assert ssim(x, y) == ssim(y, x)


def test_region_without_a_fitting_window_uses_region_statistics():
    grid = PatchGrid(4, 8, 8, 1)
    rng = np.random.default_rng(12)
    x, y = rng.uniform(size=(2, 1, 32, 32))
    loc = np.array([0, 2, 9, 27], dtype=np.intp)  # no two patches form an 8x8 block
    mask = np.zeros((32, 32), dtype=bool)
    for i in loc.tolist():
        px, py, w, h = grid.patch_bbox(i)
        mask[py : py + h, px : px + w] = True
    got = image_report(x, y, loc, grid).region_ssim
    assert abs(got - direct_region_ssim_oracle(x, y, mask)) <= 1e-12
