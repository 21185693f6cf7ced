"""Run configuration: flat dotted keys from a text file plus flag overrides.

Format: one `key = value` per line, `#` starts a comment.  Every key must be
in the schema; values are coerced to the declared type and validated before
any computation starts, by building the typed sections (which check their
own fields when constructed).  Lists are comma-separated and hold at least
one entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .channel import ChannelConfig
from .codec import CodecConfig
from .errors import ConfigError
from .scenes import VOCABULARY, CorrelatedConfig, SceneConfig
from .training import TrainConfig

__all__ = ["SCHEMA", "RunConfig"]

# The section classes own their settings: each field not listed in _SUPPLIED
# is the key "<section>.<field>", typed by its default and defaulting to it.
_SECTIONS = {SceneConfig: "scene", CodecConfig: "codec", ChannelConfig: "channel",
             TrainConfig: "train", CorrelatedConfig: "users"}
# fields another key supplies: the command's phase, the run seed, the scene
# section, the grid the scene implies, each command's kind list and channel.rician_r
_SUPPLIED = {"phase", "seed", "scene", "patch_dim", "num_patches", "kind", "surrogate_rician_r"}
_TAGS = {bool: "bool", int: "int", float: "float", str: "str"}


def _section_fields(cls) -> list:
    return [f for f in fields(cls) if f.name not in _SUPPLIED]


def _section_keys(cls) -> dict:
    return {f"{_SECTIONS[cls]}.{f.name}": (_TAGS[type(f.default)], f.default)
            for f in _section_fields(cls)}


# key -> (type tag, default).  Type tags: int, float, str, bool,
# floats/strs (comma lists).
SCHEMA = {
    "seed": ("int", 0),
    **_section_keys(SceneConfig),
    "scene.target_label": ("str", "any"),
    **_section_keys(CodecConfig),
    "codec.symbol_dim": ("int", 8),
    **_section_keys(ChannelConfig),
    **_section_keys(TrainConfig),
    "train.scenes": ("int", 128),
    "eval.trials": ("int", 200),
    "eval.snr_db_list": ("floats", (0.0, 10.0, 20.0)),
    "eval.kinds": ("strs", ("awgn", "rayleigh")),
    "eval.mask_prob": ("float", 0.3),
    "eval.dump_images": ("bool", False),
    "sweep.trials": ("int", 1000),
    "sweep.pr_list": ("floats", (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)),
    "sweep.kinds": ("strs", ("awgn", "rayleigh")),
    "sweep.train_per_pr": ("bool", False),
    "users.k_lo": ("int", 2),
    "users.k_hi": ("int", 10),
    "users.eps_list": ("floats", (0.05, 0.1, 0.2)),
    "users.trials": ("int", 1000),
    "users.source": ("str", "synthetic"),  # synthetic | scenes
    "users.length": ("int", 32),
    "users.dim": ("int", 48),
    **_section_keys(CorrelatedConfig),
    "users.all_pairs": ("bool", False),
    "users.count_side_info": ("bool", False),
    "bench.kinds": ("strs", ("awgn", "rayleigh", "rician")),
    "bench.snr_db_list": ("floats", (0.0, 10.0, 20.0)),
    "bench.csi_var_list": ("floats", (0.0, 0.01, 0.05)),
    "bench.trials": ("int", 2000),
    "bench.symbols": ("int", 64),
    "gen.count": ("int", 8),
}


# the channel-kind list each command draws statistical channels from, and its SNR(s)
_COMMAND_KINDS = {"eval": ("eval.kinds", "eval.snr_db_list"),
                  "sweep-pr": ("sweep.kinds", "channel.snr_db"),
                  "channel-bench": ("bench.kinds", "bench.snr_db_list")}


def eval_cell_name(kind: str, snr_db: float) -> str:
    """Name of an eval cell's image dump directories (one per masking arm)."""
    return f"{kind}_{snr_db:g}dB"


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _coerce(key: str, raw, tag: str):
    if not isinstance(raw, str):
        return raw
    text = raw.strip()
    try:
        if tag == "int":
            return int(text)
        if tag == "float":
            return _finite_float(text)
        if tag == "bool":
            if text.lower() in ("true", "1", "yes", "on"):
                return True
            if text.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(text)
        if tag == "str":
            return text
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not parts:
            raise ValueError(text)
        if tag == "floats":
            return tuple(_finite_float(p) for p in parts)
        if tag == "strs":
            return tuple(parts)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {tag}") from exc
    raise ConfigError(f"{key}: unknown type tag {tag}")


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    @staticmethod
    def load(config_path=None, overrides=None, command: str | None = None) -> "RunConfig":
        values = {k: default for k, (_, default) in SCHEMA.items()}
        if config_path is not None:
            path = Path(config_path)
            try:
                text = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
                raise ConfigError(f"config file {path}: {exc}") from None
            for lineno, line in enumerate(text.splitlines(), 1):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, raw = (s.strip() for s in stripped.split("=", 1))
                if key not in SCHEMA:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = _coerce(key, raw, SCHEMA[key][0])
        for key, raw in (overrides or {}).items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = _coerce(key, raw, SCHEMA[key][0])
        cfg = RunConfig(values)
        cfg.validate(command)
        return cfg

    def __getitem__(self, key: str):
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        return self.values[key]

    def validate(self, command: str | None = None) -> None:
        """Check every value by building each section.  command, when given,
        limits the check that a channel kind fits the antenna counts to the
        kinds that command draws (one it does not draw is built with n_r =
        n_t), and each command's own checks to that command; None checks all."""
        v = self.values
        CodecConfig.for_grid(self.scene_config().grid(), **self.section(CodecConfig))
        self.channel_config("rayleigh", snr_db=math.inf)
        for cmd, (key, snr_key) in _COMMAND_KINDS.items():
            drawn = {} if command in (None, cmd) else {"n_r": v["channel.n_t"]}
            # channel-bench draws every cell at each of its CSI error variances
            csi = ([{"csi_error_var": c} for c in v["bench.csi_var_list"]]
                   if cmd == "channel-bench" and not drawn else [{}])
            for kind in v[key]:
                for snr_db in np.atleast_1d(v[snr_key]):
                    for given in csi:
                        self.channel_config(kind, snr_db=float(snr_db), **drawn, **given)
        self.train_config("codec")
        users = self.correlated_config()
        if not 0.0 <= v["eval.mask_prob"] <= 1.0:
            raise ConfigError("eval.mask_prob outside [0, 1]")
        if any(not 0.0 <= p <= 1.0 for p in v["sweep.pr_list"]):
            raise ConfigError("sweep.pr_list entries must lie in [0, 1]")
        if any(e < 0 for e in v["users.eps_list"]):
            raise ConfigError("users.eps_list entries must be >= 0")
        if v["users.k_lo"] < 2 or v["users.k_hi"] < v["users.k_lo"]:
            raise ConfigError("user counts need 2 <= k_lo <= k_hi")
        if v["users.source"] not in ("synthetic", "scenes"):
            raise ConfigError("users.source must be synthetic or scenes")
        if command in (None, "eval") and v["eval.dump_images"]:
            names = [eval_cell_name(k, s) for k in v["eval.kinds"] for s in v["eval.snr_db_list"]]
            shared = sorted({n for n in names if names.count(n) > 1})
            if shared:
                raise ConfigError(f"eval.dump_images: cells {', '.join(shared)} would share one "
                                  "dump directory (repeated kind or SNR equal under :g)")
        if command in (None, "sweep-users"):
            try:
                users.shared_fraction(v["users.k_hi"])
            except OverflowError:
                raise ConfigError("users.share_decay ** (users.k_hi - 2) overflows") from None
            if v["users.source"] == "scenes" and not math.isfinite(2.0 * users.jitter):
                raise ConfigError("users.jitter: the width of the scene jitter range overflows")
        # sharing compares per-row feature variances, which need two features
        if v["users.dim"] < 2:
            raise ConfigError("users.dim must be >= 2")
        if v["users.source"] == "scenes" and self.scene_config().grid().patch_dim < 2:
            raise ConfigError("users.source scenes needs scene.channels * scene.patch_size**2 >= 2")
        if v["scene.target_label"] != "any" and v["scene.target_label"] not in VOCABULARY:
            raise ConfigError(f"scene.target_label must be 'any' or one of {VOCABULARY}")
        for key in ("codec.symbol_dim", "eval.trials", "sweep.trials", "users.trials",
                    "users.length", "bench.trials", "bench.symbols", "gen.count",
                    "train.scenes"):
            if v[key] < 1:
                raise ConfigError(f"{key} must be >= 1")

    # -- typed sub-configs -------------------------------------------------

    def section(self, cls) -> dict:
        """The values of the keys generated from cls's fields, by field name."""
        return {f.name: self.values[f"{_SECTIONS[cls]}.{f.name}"] for f in _section_fields(cls)}

    def scene_config(self) -> SceneConfig:
        return SceneConfig(**self.section(SceneConfig))

    def correlated_config(self) -> CorrelatedConfig:
        return CorrelatedConfig(self.scene_config(), **self.section(CorrelatedConfig))

    def channel_config(self, kind: str = "awgn", **given) -> ChannelConfig:
        """The channel section for one kind; given overrides named fields."""
        return ChannelConfig(kind, **{**self.section(ChannelConfig), **given})

    def train_config(self, phase: str) -> TrainConfig:
        return TrainConfig(phase, seed=self.values["seed"], **self.section(TrainConfig),
                           surrogate_rician_r=self.values["channel.rician_r"])

    def to_dict(self) -> dict:
        return {k: (list(v) if isinstance(v, tuple) else v) for k, v in sorted(self.values.items())}
