"""Synthetic annotated scenes and the ground-truth object locator.

Scenes carry pixel data plus exact object annotations (label + bounding
box), so locating the patches of a labelled object is a geometric lookup
rather than a vision problem.  Pixels are a plain float64 ndarray, since
nothing differentiates them.  Generated pixel values are quantized to the
8-bit grid at construction time, which makes the PGM/PPM round-trip exact.

Backgrounds stay below OBJECT_MIN intensity and object fills stay above it,
so object pixels are always distinguishable from background texture.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, NonFiniteError, ParseError, VocabularyError
from .masking import PatchGrid
from .rng import RngStream

__all__ = [
    "VOCABULARY",
    "Scene",
    "Loc",
    "SceneConfig",
    "CorrelatedConfig",
    "generate_scene",
    "generate_correlated_batch",
    "locate",
    "locate_any",
    "save_scene",
    "load_annotated",
]

VOCABULARY = ("rect", "ellipse", "cross")
BACKGROUND_FAMILIES = ("flat", "hgrad", "vgrad", "noise", "stripes")

_BG_MAX = 0.55  # backgrounds stay at or below this intensity
_OBJECT_MIN = 0.65  # object fills start here


@dataclass
class Scene:
    """One annotated image: C x H x W float64 pixels in [0, 1] (NaN or Inf
    raises NonFiniteError) plus object boxes."""

    image: np.ndarray
    objects: list  # of (label, (x, y, w, h))
    id: str

    def __post_init__(self):
        self.image = np.asarray(self.image, dtype=np.float64)
        c, h, w = self.image.shape
        if not np.isfinite(self.image).all():
            raise NonFiniteError(f"scene {self.id}: non-finite pixel values")
        if self.image.min() < 0.0 or self.image.max() > 1.0:
            raise ConfigError(f"scene {self.id}: pixel values outside [0, 1]")
        for label, (x, y, bw, bh) in self.objects:
            if label not in VOCABULARY:
                raise VocabularyError(f"scene {self.id}: unknown label {label!r}")
            if bw < 1 or bh < 1 or x < 0 or y < 0 or x + bw > w or y + bh > h:
                raise ConfigError(f"scene {self.id}: bbox {(x, y, bw, bh)} outside {w}x{h}")


@dataclass(frozen=True)
class Loc:
    """Patch indices of located semantic objects."""

    patch_indices: frozenset

    def __post_init__(self):
        object.__setattr__(self, "patch_indices", frozenset(int(i) for i in self.patch_indices))

    @property
    def sorted_indices(self) -> list:
        return sorted(self.patch_indices)

    def __len__(self):
        return len(self.patch_indices)


@dataclass(frozen=True)
class SceneConfig:
    height: int = 32
    width: int = 32
    channels: int = 1
    patch_size: int = 4
    min_objects: int = 1
    max_objects: int = 2
    min_obj_size: int = 6
    max_obj_size: int = 12
    background: str = "mixed"  # family name or "mixed" for a per-scene draw

    def validate(self):
        if min(self.height, self.width, self.patch_size) < 1:
            raise ConfigError("height, width and patch_size must be >= 1")
        if self.height % self.patch_size or self.width % self.patch_size:
            raise ConfigError(
                f"image {self.height}x{self.width} not divisible by patch {self.patch_size}"
            )
        if self.channels not in (1, 3):
            raise ConfigError("channels must be 1 (PGM) or 3 (PPM)")
        if self.max_obj_size > min(self.height, self.width):
            raise ConfigError("object larger than image")
        if not 0 <= self.min_objects <= self.max_objects:
            raise ConfigError("bad object count range")
        if self.min_obj_size < 3 or self.min_obj_size > self.max_obj_size:
            raise ConfigError("bad object size range")
        if self.background != "mixed" and self.background not in BACKGROUND_FAMILIES:
            raise ConfigError(f"unknown background family {self.background!r}")

    def grid(self) -> PatchGrid:
        return PatchGrid.for_image((self.channels, self.height, self.width), self.patch_size)


def _quantize(img: np.ndarray) -> np.ndarray:
    return np.round(np.clip(img, 0.0, 1.0) * 255.0) / 255.0


def _draw_background(rng: RngStream, cfg: SceneConfig) -> np.ndarray:
    family = cfg.background
    if family == "mixed":
        family = BACKGROUND_FAMILIES[int(rng.integers(0, len(BACKGROUND_FAMILIES)))]
    c, h, w = cfg.channels, cfg.height, cfg.width
    img = np.zeros((c, h, w))
    if family == "flat":
        img += rng.uniform((c, 1, 1), 0.05, _BG_MAX)
    elif family in ("hgrad", "vgrad"):
        a = rng.uniform((c, 1, 1), 0.0, _BG_MAX)
        b = rng.uniform((c, 1, 1), 0.0, _BG_MAX)
        ramp = np.linspace(0.0, 1.0, w if family == "hgrad" else h)
        ramp = ramp[None, None, :] if family == "hgrad" else ramp[None, :, None]
        img += a + (b - a) * ramp
    elif family == "noise":
        base = rng.uniform((c, 1, 1), 0.1, 0.4)
        amp = float(rng.uniform((), 0.03, 0.12))
        img += base + amp * rng.uniform((c, h, w), -1.0, 1.0)
    elif family == "stripes":
        period = int(rng.integers(3, 9))
        c1 = rng.uniform((c, 1, 1), 0.0, _BG_MAX)
        c2 = rng.uniform((c, 1, 1), 0.0, _BG_MAX)
        cols = (np.arange(w) // period) % 2
        img += np.where(cols[None, None, :] == 0, c1, c2)
    return np.clip(img, 0.0, _BG_MAX)


def _paint_object(img: np.ndarray, label: str, bbox, color: np.ndarray) -> None:
    x, y, w, h = bbox
    region = img[:, y : y + h, x : x + w]
    if label == "rect":
        region[:] = color[:, None, None]
        return
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    if label == "ellipse":
        cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
        inside = ((xx - cx) / (w / 2.0)) ** 2 + ((yy - cy) / (h / 2.0)) ** 2 <= 1.0
    else:  # cross: full-extent horizontal and vertical bars through the center
        tx = max(1, w // 3)
        ty = max(1, h // 3)
        x0 = (w - tx) // 2
        y0 = (h - ty) // 2
        inside = ((xx >= x0) & (xx < x0 + tx)) | ((yy >= y0) & (yy < y0 + ty))
    region[:, inside] = color[:, None] if color.ndim else color


def _draw_object_spec(rng: RngStream, cfg: SceneConfig):
    label = VOCABULARY[int(rng.integers(0, len(VOCABULARY)))]
    w = int(rng.integers(cfg.min_obj_size, cfg.max_obj_size + 1))
    h = int(rng.integers(cfg.min_obj_size, cfg.max_obj_size + 1))
    if w > cfg.width or h > cfg.height:
        raise ConfigError("object larger than image")
    x = int(rng.integers(0, cfg.width - w + 1))
    y = int(rng.integers(0, cfg.height - h + 1))
    color = rng.uniform((cfg.channels,), _OBJECT_MIN, 1.0)
    return label, (x, y, w, h), color


def generate_scene(rng: RngStream, cfg: SceneConfig) -> Scene:
    """One synthetic scene, deterministic in (rng state, cfg)."""
    cfg.validate()
    tag = int(rng.integers(0, 1 << 48))
    img = _draw_background(rng, cfg)
    n_obj = int(rng.integers(cfg.min_objects, cfg.max_objects + 1))
    objects = []
    for _ in range(n_obj):
        label, bbox, color = _draw_object_spec(rng, cfg)
        _paint_object(img, label, bbox, color)
        objects.append((label, bbox))
    return Scene(_quantize(img), objects, f"scene-{tag:012x}")


@dataclass(frozen=True)
class CorrelatedConfig:
    """Settings for a batch of K scenes with a controlled shared fraction.

    The shared-content fraction for a batch of K users is
    clip(share_base * share_decay**(K - 2), 0, 1).  jitter is the amplitude
    of per-user noise added to the shared region.
    """

    scene: SceneConfig = field(default_factory=SceneConfig)
    share_base: float = 0.9
    share_decay: float = 0.93
    jitter: float = 0.4

    def validate(self):
        if self.jitter < 0:
            raise ConfigError("jitter must be >= 0")

    def shared_fraction(self, k: int) -> float:
        f = self.share_base * self.share_decay ** (k - 2)
        return float(min(1.0, max(0.0, f)))


def generate_correlated_batch(rng: RngStream, k: int, cfg: CorrelatedConfig) -> list:
    """K scenes sharing one background realization.

    A private patch zone (identical index set for all users, content drawn
    per user) is sized so the shared fraction of patches follows
    cfg.shared_fraction(k).  Each user gets one private labelled object
    inside its own image; the zone is grown to cover at least every user's
    object patches.
    """
    if k < 2:
        raise ConfigError("correlated batch needs K >= 2")
    scfg = cfg.scene
    scfg.validate()
    grid = scfg.grid()
    tag = int(rng.integers(0, 1 << 48))

    shared_bg = _draw_background(rng.substream(1), scfg)

    # one private object per user, drawn up front so the zone can cover them
    specs = [_draw_object_spec(rng.substream(2, u), scfg) for u in range(k)]
    covered = set()
    for _, bbox, _ in specs:
        covered.update(_patches_overlapping_bbox(bbox, grid))

    target_private = max(
        grid.num_patches - round(cfg.shared_fraction(k) * grid.num_patches), len(covered)
    )
    free = np.asarray(sorted(set(range(grid.num_patches)) - covered), dtype=np.intp)
    extra_n = min(target_private - len(covered), len(free))
    zone = set(covered)
    if extra_n > 0:
        picks = rng.substream(3).choice(len(free), extra_n)
        zone.update(int(free[i]) for i in picks)
    zone_idx = np.asarray(sorted(zone), dtype=np.intp)

    scenes = []
    for u in range(k):
        img = shared_bg.copy()
        if cfg.jitter > 0:
            jit = rng.substream(4, u).uniform(img.shape, -cfg.jitter, cfg.jitter)
            img = np.clip(img + jit, 0.0, _BG_MAX)
        # private zone: per-user noise fill with a per-user amplitude, so the
        # content (and its variance) differs across users
        priv = rng.substream(5, u)
        amp = float(priv.uniform((), 0.25, 0.75))
        for idx in zone_idx:
            x, y, w, h = grid.patch_bbox(int(idx))
            base = priv.uniform((scfg.channels, 1, 1), 0.05, _BG_MAX - 0.1)
            tex = base + amp * 0.5 * priv.uniform((scfg.channels, h, w), -1.0, 1.0)
            img[:, y : y + h, x : x + w] = np.clip(tex, 0.0, _BG_MAX)
        label, bbox, color = specs[u]
        _paint_object(img, label, bbox, color)
        scenes.append(Scene(_quantize(img), [(label, bbox)], f"batch-{tag:012x}-u{u}"))
    return scenes


def _patches_overlapping_bbox(bbox, grid: PatchGrid) -> set:
    """Indices of grid patches sharing at least one pixel with bbox."""
    x, y, w, h = bbox
    p = grid.patch_size
    c0, c1 = x // p, (x + w - 1) // p
    r0, r1 = y // p, (y + h - 1) // p
    return {
        r * grid.grid_w + c
        for r in range(r0, r1 + 1)
        for c in range(c0, c1 + 1)
    }


def _union_loc(bboxes, grid: PatchGrid) -> Loc:
    """Patches overlapping any of the boxes."""
    hits = set()
    for bbox in bboxes:
        hits.update(_patches_overlapping_bbox(bbox, grid))
    return Loc(frozenset(hits))


def locate(scene: Scene, label: str, grid: PatchGrid) -> Loc:
    """All patch indices whose rectangle overlaps any bbox with this label.

    The overlap rule is inclusive: one shared pixel is enough, which keeps
    every object pixel inside the located region.
    """
    if label not in VOCABULARY:
        raise VocabularyError(f"unknown label {label!r}; vocabulary is {VOCABULARY}")
    return _union_loc((bbox for obj_label, bbox in scene.objects if obj_label == label), grid)


def locate_any(scene: Scene, grid: PatchGrid) -> Loc:
    """Union of located patches over every label present in the scene."""
    return _union_loc((bbox for _, bbox in scene.objects), grid)


# -- on-disk format -----------------------------------------------------------


def _write_pnm(path: Path, img: np.ndarray) -> None:
    c, h, w = img.shape
    u8 = np.round(img * 255.0).astype(np.uint8)
    if c == 1:
        header = f"P5\n{w} {h}\n255\n".encode()
        body = u8[0].tobytes()
    else:
        header = f"P6\n{w} {h}\n255\n".encode()
        body = u8.transpose(1, 2, 0).tobytes()  # interleave RGB
    path.write_bytes(header + body)


def _read_pnm(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    # header: magic, width, height, maxval as whitespace-separated tokens,
    # '#' comments allowed, then a single whitespace byte before pixel data
    tokens = []
    pos = 0
    while len(tokens) < 4:
        if pos >= len(raw):
            raise ParseError(f"{path.name}: truncated header")
        ch = raw[pos : pos + 1]
        if ch == b"#":
            pos = raw.find(b"\n", pos)
            if pos < 0:
                raise ParseError(f"{path.name}: unterminated comment")
            continue
        if ch.isspace():
            pos += 1
            continue
        end = pos
        while end < len(raw) and not raw[end : end + 1].isspace():
            end += 1
        tokens.append(raw[pos:end])
        pos = end
    pos += 1  # single whitespace after maxval
    magic = tokens[0]
    if magic not in (b"P5", b"P6"):
        raise ParseError(f"{path.name}: unsupported magic {magic!r}")
    try:
        w, h, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise ParseError(f"{path.name}: non-integer size or maxval {tokens[1:]!r}") from None
    if min(w, h, maxval) < 1:
        raise ParseError(f"{path.name}: size and maxval must be positive, got {w}x{h} {maxval}")
    if maxval != 255:
        raise ParseError(f"{path.name}: only 8-bit images supported")
    c = 1 if magic == b"P5" else 3
    # slice before converting: a short slice is truncated data, whatever the
    # header claims, and a size no array can have never reaches numpy
    data = raw[pos : pos + c * h * w]
    if len(data) != c * h * w:
        raise ParseError(f"{path.name}: truncated pixel data")
    body = np.frombuffer(data, dtype=np.uint8)
    if c == 1:
        img = body.reshape(1, h, w)
    else:
        img = body.reshape(h, w, 3).transpose(2, 0, 1)
    return img.astype(np.float64) / 255.0


def save_scene(scene: Scene, directory) -> Path:
    """Write <id>.pgm/.ppm plus the <id>.json annotation sidecar."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    c = scene.image.shape[0]
    img_path = directory / f"{scene.id}.{'pgm' if c == 1 else 'ppm'}"
    _write_pnm(img_path, scene.image)
    sidecar = {
        "objects": [
            {"label": label, "bbox": [int(v) for v in bbox]}
            for label, bbox in scene.objects
        ]
    }
    (directory / f"{scene.id}.json").write_text(json.dumps(sidecar, indent=1))
    return img_path


def load_annotated(directory) -> list:
    """Load every PGM/PPM image with a same-stem JSON sidecar from a directory."""
    directory = Path(directory)
    scenes = []
    for img_path in sorted(directory.glob("*.p[gp]m")):
        sidecar = img_path.with_suffix(".json")
        if not sidecar.exists():
            raise ParseError(f"{img_path.name}: missing sidecar {sidecar.name}")
        img = _read_pnm(img_path)
        try:
            meta = json.loads(sidecar.read_text())
            objects = [(o["label"], tuple(int(v) for v in o["bbox"])) for o in meta["objects"]]
            scenes.append(Scene(img, objects, img_path.stem))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:  # Scene raises ValueErrors
            raise ParseError(f"{sidecar.name}: malformed sidecar ({exc})") from exc
    return scenes
