import json

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semlink.errors import ConfigError, NonFiniteError, ParseError, VocabularyError
from semlink.masking import PatchGrid, patchify
from semlink.rng import RngStream
from semlink.scenes import (
    CorrelatedConfig,
    Loc,
    Scene,
    SceneConfig,
    generate_correlated_batch,
    generate_scene,
    load_annotated,
    locate,
    locate_any,
    save_scene,
)
from semlink.tensor import Tensor


def brute_force_locate(scene, label, grid):
    """Per-pixel overlap oracle: a patch is hit when any of its pixels lies
    inside any bbox carrying the label."""
    hits = set()
    for idx in range(grid.num_patches):
        px, py, pw, ph = grid.patch_bbox(idx)
        found = False
        for obj_label, (x, y, w, h) in scene.objects:
            if obj_label != label:
                continue
            for yy in range(py, py + ph):
                for xx in range(px, px + pw):
                    if x <= xx < x + w and y <= yy < y + h:
                        found = True
                        break
                if found:
                    break
            if found:
                break
        if found:
            hits.add(idx)
    return hits


class TestGenerateScene:
    def test_zero_objects_pure_background(self):
        cfg = SceneConfig(min_objects=0, max_objects=0)
        scene = generate_scene(RngStream(1), cfg)
        assert scene.objects == []
        assert scene.image.max() <= 0.56  # background band only

    def test_rect_bbox_exactly_covers_painted_pixels(self):
        cfg = SceneConfig(min_objects=1, max_objects=1, min_obj_size=8, max_obj_size=8)
        found = 0
        for seed in range(40):
            scene = generate_scene(RngStream(seed, 77), cfg)
            label, (x, y, w, h) = scene.objects[0]
            if label != "rect":
                continue
            found += 1
            bright = scene.image[0] >= 0.6
            box = np.zeros_like(bright)
            box[y : y + h, x : x + w] = True
            np.testing.assert_array_equal(bright, box)
        assert found > 3

    def test_object_pixels_stay_inside_bbox(self):
        cfg = SceneConfig(min_objects=1, max_objects=1)
        for seed in range(30):
            scene = generate_scene(RngStream(seed, 78), cfg)
            _, (x, y, w, h) = scene.objects[0]
            bright = scene.image.max(axis=0) >= 0.6
            outside = bright.copy()
            outside[y : y + h, x : x + w] = False
            assert not outside.any()

    def test_deterministic(self):
        cfg = SceneConfig()
        a = generate_scene(RngStream(9, 1), cfg)
        b = generate_scene(RngStream(9, 1), cfg)
        np.testing.assert_array_equal(a.image, b.image)
        assert a.objects == b.objects and a.id == b.id

    def test_impossible_placement_rejected(self):
        with pytest.raises(ConfigError):
            SceneConfig(max_obj_size=33).validate()

    def test_indivisible_patch_rejected(self):
        with pytest.raises(ConfigError):
            SceneConfig(height=30).validate()

    def test_invariants_hold_over_many_scenes(self):
        cfg = SceneConfig(channels=3, max_objects=3, min_objects=0)
        for seed in range(50):
            scene = generate_scene(RngStream(seed, 79), cfg)
            c, h, w = scene.image.shape
            assert (c, h, w) == (3, 32, 32)
            assert 0.0 <= scene.image.min() and scene.image.max() <= 1.0
            for label, (x, y, bw, bh) in scene.objects:
                assert label in ("rect", "ellipse", "cross")
                assert 0 <= x and 0 <= y and x + bw <= w and y + bh <= h


class TestSceneImage:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixels_rejected(self, bad):
        img = np.zeros((1, 4, 4))
        img[0, 1, 2] = bad
        with pytest.raises(NonFiniteError, match="scene s"):
            Scene(img, [], "s")

    def test_array_likes_stored_as_float64(self):
        scene = Scene([[[0, 1], [1, 0]]], [("rect", (0, 0, 1, 1))], "s")
        assert isinstance(scene.image, np.ndarray) and scene.image.dtype == np.float64
        np.testing.assert_array_equal(scene.image, [[[0.0, 1.0], [1.0, 0.0]]])
        half = Scene(np.full((1, 2, 2), 0.5, dtype=np.float32), [], "h")
        assert half.image.dtype == np.float64

    def test_input_side_builds_no_tensor(self, monkeypatch, tmp_path):
        # scenes and patch rows are data: no autodiff wrapper is constructed
        built = []
        init = Tensor.__init__

        def counting_init(t, *args, **kwargs):
            built.append(t)
            init(t, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        cfg = SceneConfig(channels=3)
        scene = generate_scene(RngStream(12), cfg)
        batch = generate_correlated_batch(RngStream(13), 3, CorrelatedConfig(scene=cfg))
        save_scene(scene, tmp_path)
        loaded = load_annotated(tmp_path)
        rows = [patchify(s.image, cfg.grid()) for s in [scene, *batch, *loaded]]
        assert built == []
        assert all(isinstance(r, np.ndarray) for r in rows)


class TestLocate:
    def test_aligned_box_hits_one_patch(self):
        img = np.zeros((1, 32, 32))
        scene = Scene(img, [("rect", (8, 8, 8, 8))], "s")
        grid = PatchGrid.for_image((1, 32, 32), 8)
        loc = locate(scene, "rect", grid)
        assert loc.sorted_indices == [1 * 4 + 1]

    def test_no_match_empty(self):
        img = np.zeros((1, 32, 32))
        scene = Scene(img, [("rect", (0, 0, 4, 4))], "s")
        grid = PatchGrid.for_image((1, 32, 32), 8)
        assert len(locate(scene, "cross", grid)) == 0

    def test_straddling_box_hits_four_patches(self):
        img = np.zeros((1, 16, 16))
        scene = Scene(img, [("ellipse", (2, 2, 4, 4))], "s")
        grid = PatchGrid.for_image((1, 16, 16), 4)
        loc = locate(scene, "ellipse", grid)
        assert loc.sorted_indices == [0, 1, 4, 5]
        assert loc.patch_indices == brute_force_locate(scene, "ellipse", grid)

    def test_unknown_label_rejected(self):
        img = np.zeros((1, 16, 16))
        scene = Scene(img, [], "s")
        grid = PatchGrid.for_image((1, 16, 16), 4)
        with pytest.raises(VocabularyError):
            locate(scene, "triangle", grid)

    def test_matches_brute_force_on_random_scenes(self):
        cfg = SceneConfig(min_objects=0, max_objects=3, min_obj_size=3, max_obj_size=20)
        grid = cfg.grid()
        root = RngStream(123)
        for t in range(1000):
            scene = generate_scene(root.substream(t), cfg)
            for label in ("rect", "ellipse", "cross"):
                assert locate(scene, label, grid).patch_indices == brute_force_locate(
                    scene, label, grid
                ), f"trial {t} label {label}"

    def test_locate_any_is_union(self):
        cfg = SceneConfig(min_objects=2, max_objects=3)
        grid = cfg.grid()
        scene = generate_scene(RngStream(5, 40), cfg)
        union = set()
        for label in ("rect", "ellipse", "cross"):
            union |= locate(scene, label, grid).patch_indices
        assert locate_any(scene, grid).patch_indices == union


class TestSceneIO:
    def test_roundtrip_gray(self, tmp_path):
        scene = generate_scene(RngStream(3, 3), SceneConfig(channels=1))
        save_scene(scene, tmp_path)
        back = load_annotated(tmp_path)
        assert len(back) == 1
        np.testing.assert_array_equal(back[0].image, scene.image)
        assert back[0].objects == scene.objects

    def test_roundtrip_color(self, tmp_path):
        scene = generate_scene(RngStream(4, 4), SceneConfig(channels=3))
        save_scene(scene, tmp_path)
        back = load_annotated(tmp_path)
        np.testing.assert_array_equal(back[0].image, scene.image)

    def test_malformed_sidecar_named_in_error(self, tmp_path):
        scene = generate_scene(RngStream(5, 5), SceneConfig())
        save_scene(scene, tmp_path)
        sidecar = tmp_path / f"{scene.id}.json"
        sidecar.write_text("{ not json")
        with pytest.raises(ParseError, match=scene.id):
            load_annotated(tmp_path)

    def test_out_of_bounds_bbox_rejected(self, tmp_path):
        scene = generate_scene(RngStream(6, 6), SceneConfig())
        save_scene(scene, tmp_path)
        sidecar = tmp_path / f"{scene.id}.json"
        sidecar.write_text(json.dumps({"objects": [{"label": "rect", "bbox": [30, 30, 8, 8]}]}))
        with pytest.raises(ParseError, match="outside"):
            load_annotated(tmp_path)

    @pytest.mark.parametrize("bbox", ["[1, 2, 3]", "[1, 2, 3, 4, 5]", "[1e400, 2, 3, 4]"],
                             ids=["three-entries", "five-entries", "overflowing-coordinate"])
    def test_malformed_bbox_rejected(self, tmp_path, bbox):
        scene = generate_scene(RngStream(6, 6), SceneConfig())
        save_scene(scene, tmp_path)
        sidecar = tmp_path / f"{scene.id}.json"
        sidecar.write_text('{"objects": [{"label": "rect", "bbox": %s}]}' % bbox)
        with pytest.raises(ParseError, match=scene.id):
            load_annotated(tmp_path)

    def test_unknown_label_rejected(self, tmp_path):
        scene = generate_scene(RngStream(7, 7), SceneConfig())
        save_scene(scene, tmp_path)
        sidecar = tmp_path / f"{scene.id}.json"
        sidecar.write_text(json.dumps({"objects": [{"label": "blob", "bbox": [1, 1, 4, 4]}]}))
        with pytest.raises(ParseError):
            load_annotated(tmp_path)

    @pytest.mark.parametrize("header", [
        b"P5\nxx 8\n255\n",  # non-numeric width
        b"P5\n8 8.5\n255\n",  # non-integer height
        b"P5\n0 8\n255\n",  # zero width
        b"P5\n8 -1\n255\n",  # negative height
        b"P5\n8 8\n0\n",  # zero maxval
        b"P5\n8 8\nff\n",  # non-numeric maxval
    ])
    def test_bad_pnm_header_named_in_error(self, tmp_path, header):
        scene = generate_scene(RngStream(9, 9), SceneConfig(channels=1))
        save_scene(scene, tmp_path)
        (tmp_path / f"{scene.id}.pgm").write_bytes(header + bytes(64))
        with pytest.raises(ParseError, match=scene.id):
            load_annotated(tmp_path)

    @pytest.mark.parametrize("raw", [
        b"P5\n8 8\n255\n" + bytes(63),  # one pixel short
        b"P5\n2 2\n255",  # header ends right after maxval
        b"P5\n99999999999 99999999999\n255\n",  # no array has this size
    ], ids=["one-pixel-short", "no-pixel-data", "huge-size"])
    def test_short_pixel_data_named_in_error(self, tmp_path, raw):
        scene = generate_scene(RngStream(9, 9), SceneConfig(channels=1))
        save_scene(scene, tmp_path)
        (tmp_path / f"{scene.id}.pgm").write_bytes(raw)
        with pytest.raises(ParseError, match=f"{scene.id}.pgm: truncated pixel data"):
            load_annotated(tmp_path)

    @settings(max_examples=200, deadline=None)
    @given(
        channels=st.sampled_from([1, 3]),
        edits=st.lists(st.tuples(
            st.sampled_from(["cut", "flip", "insert"]),
            st.integers(0, 1 << 16),
            st.one_of(st.binary(min_size=1, max_size=4),
                      st.sampled_from([b" ", b"\n", b"#", b"-", b"0", b"9", b"99999999999 "])),
        ), min_size=1, max_size=3),
    )
    def test_fuzzed_pnm_gives_scenes_or_parse_error(self, channels, edits):
        """Cuts, byte flips and insertions of a valid PGM or PPM."""
        with tempfile.TemporaryDirectory() as d:
            scene = generate_scene(RngStream(10, channels), _SMALL_SCENE[channels])
            path = save_scene(scene, d)
            raw = path.read_bytes()
            for op, at, data in edits:
                at %= len(raw) + 1
                if op == "cut":
                    raw = raw[:at]
                elif op == "flip" and at < len(raw):
                    raw = raw[:at] + bytes([raw[at] ^ (data[0] or 1)]) + raw[at + 1 :]
                elif op == "insert":
                    raw = raw[:at] + data + raw[at:]
            Path(path).write_bytes(raw)
            try:
                assert isinstance(load_annotated(d), list)
            except ParseError:
                pass

    def test_missing_sidecar(self, tmp_path):
        scene = generate_scene(RngStream(8, 8), SceneConfig())
        save_scene(scene, tmp_path)
        (tmp_path / f"{scene.id}.json").unlink()
        with pytest.raises(ParseError, match="sidecar"):
            load_annotated(tmp_path)


_SMALL_SCENE = {c: SceneConfig(height=8, width=8, channels=c, max_objects=1, min_obj_size=3,
                                max_obj_size=6) for c in (1, 3)}


def _patch_equal_count(scenes, grid):
    count = 0
    for i in range(grid.num_patches):
        x, y, w, h = grid.patch_bbox(i)
        blocks = [s.image[:, y : y + h, x : x + w] for s in scenes]
        if all(np.array_equal(blocks[0], b) for b in blocks[1:]):
            count += 1
    return count


class TestCorrelatedBatch:
    def test_jitter_zero_shared_patches_bitwise_equal(self):
        cfg = CorrelatedConfig(scene=SceneConfig(), share_base=0.7, share_decay=1.0, jitter=0.0)
        grid = cfg.scene.grid()
        batch = generate_correlated_batch(RngStream(3), 3, cfg)
        covered = set()
        for s in batch:
            covered |= locate_any(s, grid).patch_indices
        zone = max(grid.num_patches - round(0.7 * grid.num_patches), len(covered))
        assert _patch_equal_count(batch, grid) == grid.num_patches - zone

    def test_constant_zero_share_is_fully_private(self):
        cfg = CorrelatedConfig(scene=SceneConfig(), share_base=0.0, share_decay=1.0, jitter=0.0)
        grid = cfg.scene.grid()
        batch = generate_correlated_batch(RngStream(4), 2, cfg)
        assert _patch_equal_count(batch, grid) == 0

    def test_full_background_sharing_pixel_diff_oracle(self):
        cfg = CorrelatedConfig(scene=SceneConfig(), share_base=1.0, share_decay=1.0, jitter=0.0)
        grid = cfg.scene.grid()
        batch = generate_correlated_batch(RngStream(5), 2, cfg)
        private = set()
        for s in batch:
            private |= locate_any(s, grid).patch_indices
        a, b = batch[0].image, batch[1].image
        for i in range(grid.num_patches):
            if i in private:
                continue
            x, y, w, h = grid.patch_bbox(i)
            np.testing.assert_array_equal(a[:, y : y + h, x : x + w], b[:, y : y + h, x : x + w])

    def test_each_scene_has_private_object(self):
        cfg = CorrelatedConfig(scene=SceneConfig(), share_base=0.85, jitter=0.0)
        batch = generate_correlated_batch(RngStream(6), 4, cfg)
        for s in batch:
            assert len(s.objects) == 1

    def test_shared_fraction_decays(self):
        cfg = CorrelatedConfig(share_base=0.9, share_decay=0.9)
        fractions = [cfg.shared_fraction(k) for k in range(2, 11)]
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))

    def test_k_below_two_rejected(self):
        with pytest.raises(ConfigError):
            generate_correlated_batch(RngStream(0), 1, CorrelatedConfig())

    def test_deterministic(self):
        cfg = CorrelatedConfig(scene=SceneConfig(), share_base=0.85, jitter=0.1)
        a = generate_correlated_batch(RngStream(11), 3, cfg)
        b = generate_correlated_batch(RngStream(11), 3, cfg)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.image, sb.image)
