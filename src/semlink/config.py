"""Run configuration: flat dotted keys from a text file plus flag overrides.

Format: one `key = value` per line, `#` starts a comment.  Every key must be
in the schema; values are coerced to the declared type and validated before
any computation starts.  Lists are comma-separated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .channel import ChannelConfig
from .errors import ConfigError
from .scenes import VOCABULARY, CorrelatedConfig, SceneConfig
from .training import TrainConfig

__all__ = ["SCHEMA", "RunConfig"]

# key -> (type tag, default).  Type tags: int, float, str, bool,
# ints/floats/strs (comma lists).
SCHEMA = {
    "seed": ("int", 0),
    "scene.height": ("int", 32),
    "scene.width": ("int", 32),
    "scene.channels": ("int", 1),
    "scene.patch_size": ("int", 4),
    "scene.min_objects": ("int", 1),
    "scene.max_objects": ("int", 2),
    "scene.min_obj_size": ("int", 6),
    "scene.max_obj_size": ("int", 12),
    "scene.background": ("str", "mixed"),
    "scene.target_label": ("str", "any"),
    "codec.feature_dim": ("int", 64),
    "codec.enc_layers": ("int", 4),
    "codec.dec_layers": ("int", 2),
    "codec.num_heads": ("int", 4),
    "codec.symbol_dim": ("int", 8),
    "channel.kind": ("str", "awgn"),
    "channel.snr_db": ("float", 10.0),
    "channel.n_t": ("int", 1),
    "channel.n_r": ("int", 1),
    "channel.rician_r": ("float", 1.0),
    "channel.csi_error_var": ("float", 0.0),
    "channel.p_s": ("float", 1.0),
    "train.lr": ("float", 2e-4),
    "train.epochs": ("int", 10),
    "train.batch_size": ("int", 8),
    "train.scenes": ("int", 128),
    "train.mask_prob": ("float", 0.3),
    "train.snr_lo_db": ("float", 0.0),
    "train.snr_hi_db": ("float", 20.0),
    "train.surrogate_kind": ("str", "awgn"),
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
    "users.jitter": ("float", 0.4),
    "users.share_base": ("float", 0.9),
    "users.share_decay": ("float", 0.93),
    "users.all_pairs": ("bool", False),
    "users.count_side_info": ("bool", False),
    "bench.kinds": ("strs", ("awgn", "rayleigh", "rician")),
    "bench.snr_db_list": ("floats", (0.0, 10.0, 20.0)),
    "bench.csi_var_list": ("floats", (0.0, 0.01, 0.05)),
    "bench.trials": ("int", 2000),
    "bench.symbols": ("int", 64),
    "gen.count": ("int", 8),
}


# the channel-kind list each command draws statistical channels from
_COMMAND_KINDS = {"eval": "eval.kinds", "sweep-pr": "sweep.kinds", "channel-bench": "bench.kinds"}


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
        if tag == "ints":
            return tuple(int(p) for p in parts)
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
            if not path.exists():
                raise ConfigError(f"config file {path} not found")
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
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
        """Check every value.  command, when given, limits the check that a
        channel kind fits the antenna counts to the kinds that command draws;
        None checks every kind key and channel.kind."""
        v = self.values
        self.scene_config().validate()
        chan = self.channel_config()
        chan.validate(geometry=command is None)
        for key in _COMMAND_KINDS.values():
            geometry = command is None or _COMMAND_KINDS.get(command) == key
            for kind in v[key]:
                replace(chan, kind=kind).validate(geometry)
        self.train_config("codec").validate()
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
        if v["scene.target_label"] != "any" and v["scene.target_label"] not in VOCABULARY:
            raise ConfigError(f"scene.target_label must be 'any' or one of {VOCABULARY}")
        if v["codec.feature_dim"] % v["codec.num_heads"]:
            raise ConfigError("codec.feature_dim must be divisible by codec.num_heads")
        for key in ("eval.trials", "sweep.trials", "users.trials", "bench.trials",
                    "bench.symbols", "gen.count", "train.scenes"):
            if v[key] < 1:
                raise ConfigError(f"{key} must be >= 1")

    # -- typed sub-configs -------------------------------------------------

    def scene_config(self) -> SceneConfig:
        v = self.values
        return SceneConfig(
            height=v["scene.height"],
            width=v["scene.width"],
            channels=v["scene.channels"],
            patch_size=v["scene.patch_size"],
            min_objects=v["scene.min_objects"],
            max_objects=v["scene.max_objects"],
            min_obj_size=v["scene.min_obj_size"],
            max_obj_size=v["scene.max_obj_size"],
            background=v["scene.background"],
        )

    def correlated_config(self) -> CorrelatedConfig:
        v = self.values
        return CorrelatedConfig(
            scene=self.scene_config(),
            share_base=v["users.share_base"],
            share_decay=v["users.share_decay"],
            jitter=v["users.jitter"],
        )

    def channel_config(self, kind=None, snr_db=None, csi_error_var=None) -> ChannelConfig:
        v = self.values
        return ChannelConfig(
            kind=v["channel.kind"] if kind is None else kind,
            snr_db=v["channel.snr_db"] if snr_db is None else snr_db,
            n_t=v["channel.n_t"],
            n_r=v["channel.n_r"],
            rician_r=v["channel.rician_r"],
            csi_error_var=v["channel.csi_error_var"] if csi_error_var is None else csi_error_var,
            p_s=v["channel.p_s"],
        )

    def train_config(self, phase: str) -> TrainConfig:
        v = self.values
        return TrainConfig(
            phase=phase,
            lr=v["train.lr"],
            epochs=v["train.epochs"],
            batch_size=v["train.batch_size"],
            seed=v["seed"],
            mask_prob=v["train.mask_prob"],
            snr_lo_db=v["train.snr_lo_db"],
            snr_hi_db=v["train.snr_hi_db"],
            surrogate_kind=v["train.surrogate_kind"],
        )

    def to_dict(self) -> dict:
        return {k: (list(v) if isinstance(v, tuple) else v) for k, v in sorted(self.values.items())}
