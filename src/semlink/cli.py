"""Command-line front end and experiment orchestration.

Commands: gen-scenes, train, eval, sweep-pr, sweep-users, channel-bench.
Every command takes --config FILE plus arbitrary `--section.key value`
overrides, honors --seed deterministically (reruns produce byte-identical
outputs), writes CSV results with a trailing .meta.json sidecar carrying the
fully resolved configuration, and exits 0 on success, 2 on configuration
errors, 3 on runtime errors.  A loaded checkpoint's grid must match scene.*.

eval and sweep-pr loop over trials outside and channel cells inside.  Trial
t draws its scene and plans from a stream keyed by t alone (every sweep-pr
plan from one uniform draw), encodes each arm once, and receives the
encoding over every cell as one stack per arm: one decoder pass and one
metrics pass.  Each kind draws its channel frame and noise from a stream
keyed by (kind, t), so the SNRs of a kind share H and the standardized
noise; channel-bench likewise draws each (kind, t) once for all its SNR and
CSI cells.  sweep-users draws the semantics of each (K, trial) once, from a
stream keyed by (K, trial), and partitions that one draw at every
users.eps_list entry.  No stream is keyed by a swept value.
Every command but gen-scenes creates --out before its first trial or
training step, so an unusable path fails at once.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .channel import draw_channel
from .codec import CodecConfig
from .config import RunConfig, eval_cell_name
from .errors import ConfigError, SemlinkError
from .link import LinkModel, fading_stage, link_encode, link_receive
from .masking import patchify, random_mask
from .metrics import ReferenceImage, nmse
from .rng import RngStream, complex_normal_stack
from .snapshot import save_tensors
from .scenes import generate_correlated_batch, generate_scene, locate, locate_any, save_scene
from .sharing import MultiUserSemantics, bandwidth_savings, partition, synth_correlated_semantics
from .tensor import Tensor, no_grad
from .training import sample_nonempty_mask, train_phase

# stream-id salts for the independent random domains of a run
_S_TRAIN_DATA = 0x1D
_S_EVAL = 0x2E
_S_SWEEP = 0x3F
_S_USERS = 0x4A
_S_BENCH = 0x5B
_S_GEN = 0x6C
_S_MODEL = 0x7D


def run_trials(n: int, fn):
    """Run fn(0..n-1) in order; results in trial order."""
    return [fn(i) for i in range(n)]


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_csv(path: Path, header: list, rows: list, cfg: RunConfig, command: str,
               extra: dict | None = None) -> None:
    """The CSV and its .meta.json sidecar (in an existing directory):
    command, resolved config and extra."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    meta = {"command": command, "config": cfg.to_dict(), **(extra or {})}
    Path(str(path) + ".meta.json").write_text(json.dumps(meta, indent=1, sort_keys=True))


def _mean_std(reports: list, fields: tuple) -> list:
    """Mean and std over the trials of each report field, interleaved."""
    vals = np.asarray([[getattr(r, f) for f in fields] for r in reports])
    return [v for pair in zip(vals.mean(axis=0), vals.std(axis=0)) for v in pair]


def _load_model(cfg: RunConfig, path) -> LinkModel:
    """Checkpoint whose grid must be the one the scene.* keys describe."""
    model, grid = LinkModel.load(path), cfg.scene_config().grid()
    if model.grid != grid:
        raise ConfigError(f"checkpoint {path} has grid {model.grid}, but scene.* gives {grid}")
    return model


_SCENE_TRIES = 50


def _fresh_scene_with_loc(cfg: RunConfig, rng, grid):
    """Scene whose located region is non-empty (matters for label targeting)."""
    scene_cfg = cfg.scene_config()
    label = cfg["scene.target_label"]
    for _ in range(_SCENE_TRIES):
        scene = generate_scene(rng.substream(1), scene_cfg)
        loc = locate_any(scene, grid) if label == "any" else locate(scene, label, grid)
        if len(loc):
            return scene, loc
        rng = rng.substream(2)
    raise SemlinkError(f"no scene with label {label!r} in {_SCENE_TRIES} draws")


# -- commands -----------------------------------------------------------------


def cmd_gen_scenes(cfg: RunConfig, out_dir: Path) -> int:
    rng = RngStream(cfg["seed"], _S_GEN)
    scene_cfg = cfg.scene_config()
    for i in range(cfg["gen.count"]):
        save_scene(generate_scene(rng.substream(i), scene_cfg), out_dir)
    print(f"wrote {cfg['gen.count']} scenes to {out_dir}")
    return 0


def _training_scenes(cfg: RunConfig):
    rng = RngStream(cfg["seed"], _S_TRAIN_DATA)
    scene_cfg = cfg.scene_config()
    return [generate_scene(rng.substream(i), scene_cfg) for i in range(cfg["train.scenes"])]


def _new_model(cfg: RunConfig) -> LinkModel:
    """Freshly initialized model for the run's grid, codec settings and seed."""
    return LinkModel.init(cfg.scene_config().grid(), RngStream(cfg["seed"], _S_MODEL),
                          symbol_dim=cfg["codec.symbol_dim"], **cfg.section(CodecConfig))


def cmd_train(cfg: RunConfig, out_dir: Path, phase: str, checkpoint: str | None) -> int:
    if phase not in ("codec", "channel", "whole", "all"):
        raise ConfigError(f"unknown phase {phase!r}")
    out_dir.mkdir(parents=True, exist_ok=True)

    if checkpoint is not None:
        model = _load_model(cfg, checkpoint)
    elif phase in ("codec", "all"):
        model = _new_model(cfg)
    else:
        prev = "codec" if phase == "channel" else "channel"
        prior = out_dir / f"{prev}.ckpt"
        if not prior.exists():
            raise ConfigError(
                f"phase {phase!r} needs the {prev!r} checkpoint; run that phase first "
                f"or pass --checkpoint (missing: {prior})"
            )
        model = _load_model(cfg, prior)

    scenes = _training_scenes(cfg)
    phases = ("codec", "channel", "whole") if phase == "all" else (phase,)
    all_records = []
    epoch_dir = out_dir / "epochs"
    epoch_dir.mkdir(exist_ok=True)
    for ph in phases:
        records = train_phase(model, scenes, cfg.train_config(ph), checkpoint_dir=epoch_dir)
        all_records.extend(records)
        model.save(out_dir / f"{ph}.ckpt")
        print(f"phase {ph}: final batch loss {records[-1].loss:.6f}")

    loss_csv = out_dir / "loss.csv"
    _write_csv(loss_csv, ["phase", "epoch", "batch", "loss"],
               [(r.phase, r.epoch, r.batch, r.loss) for r in all_records],
               cfg, f"train --phase {phase}")
    return 0


_MASKINGS = ("adaptive", "random")
_EVAL_FIELDS = ("psnr_db", "ssim", "region_psnr_db", "region_ssim")


def _score_trial(cfg: RunConfig, base: RngStream, trial: int, arms_for, chan_cfgs: list,
                 dump_dirs: list | None = None) -> list:
    """Reports [cell][arm] of one trial, drawn and encoded once for every cell.

    The scene and location come from trial_rng = base.substream(trial) at (1);
    arms_for(grid, loc, trial_rng) gives the arms' (model, plan) pairs, each
    encoded once.  Cell c is chan_cfgs[c] with the frame and noise stream of
    trial_rng.substream(hash_key(kind)) at (4) and (5), so every SNR of a
    kind sees the same H and the same standardized noise.  Each arm is
    received over all cells as one stack (link_receive) and scored against
    the original's half of the metrics, computed once.  With dump_dirs, arm
    a of cell c is dumped to dump_dirs[c][a].
    """
    trial_rng = base.substream(trial)
    grid = cfg.scene_config().grid()
    scene, loc = _fresh_scene_with_loc(cfg, trial_rng.substream(1), grid)
    arms = arms_for(grid, loc, trial_rng)
    reference = ReferenceImage.of(scene.image, loc, grid)
    cells = []
    for chan_cfg in chan_cfgs:
        kind_rng = trial_rng.substream(hash_key(chan_cfg.kind))
        cells.append((chan_cfg, kind_rng.substream(5),
                      draw_channel(chan_cfg, [kind_rng.substream(4)])))
    per_arm = []
    with no_grad():
        for a, (model, plan) in enumerate(arms):
            images = link_receive(model, *link_encode(model, scene.image, plan), cells).image
            if dump_dirs is not None:
                for c, image in enumerate(images.data):
                    _dump_arm(dump_dirs[c][a], trial, scene, loc, grid, plan, Tensor(image))
            per_arm.append(reference.reports(images))
    return [list(cell) for cell in zip(*per_arm)]


def _dump_arm(arm_dir: Path, trial: int, scene, loc, grid, plan, image) -> None:
    """The original and reconstructed images, and the location and plan."""
    arm_dir.mkdir(parents=True, exist_ok=True)
    save_tensors(arm_dir / f"trial{trial:04d}.slnk",
                 {"original": Tensor(scene.image), "reconstructed": image})
    (arm_dir / f"trial{trial:04d}.json").write_text(
        json.dumps({"loc": loc.tolist(), "patch_size": grid.patch_size,
                    "plan": json.loads(plan.to_json())})
    )


def cmd_eval(cfg: RunConfig, out_dir: Path, checkpoint: str) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    model = _load_model(cfg, checkpoint)
    trials, mask_prob = cfg["eval.trials"], cfg["eval.mask_prob"]
    chan_cfgs = [cfg.channel_config(kind=kind, snr_db=snr_db)
                 for kind in cfg["eval.kinds"] for snr_db in cfg["eval.snr_db_list"]]
    dump_dirs = None
    if cfg["eval.dump_images"]:
        dump_dirs = [[out_dir / "images" / f"{eval_cell_name(c.kind, c.snr_db)}_{masking}"
                      for masking in _MASKINGS] for c in chan_cfgs]

    def arms_for(grid, loc, trial_rng):
        adaptive = sample_nonempty_mask(grid, loc, mask_prob, trial_rng.substream(2))
        return [(model, adaptive),
                (model, random_mask(grid, adaptive.keep_count, trial_rng.substream(3)))]

    base = RngStream(cfg["seed"], _S_EVAL)
    per_trial = run_trials(trials, lambda t: _score_trial(cfg, base, t, arms_for, chan_cfgs,
                                                          dump_dirs))
    rows = []
    for c, chan_cfg in enumerate(chan_cfgs):
        for a, masking in enumerate(_MASKINGS):
            rows.append((chan_cfg.kind, chan_cfg.snr_db, masking, trials,
                         *_mean_std([r[c][a] for r in per_trial], _EVAL_FIELDS)))
    out = out_dir / "eval.csv"
    _write_csv(out, ["kind", "snr_db", "masking", "trials",
                     "psnr_mean", "psnr_std", "ssim_mean", "ssim_std",
                     "region_psnr_mean", "region_psnr_std",
                     "region_ssim_mean", "region_ssim_std"], rows,
               cfg, "eval", {"checkpoint": str(checkpoint)})
    print(f"wrote {out} ({len(rows)} cells x {trials} trials)")
    return 0


def hash_key(text: str) -> int:
    """Stable small hash for strings (never Python's randomized hash)."""
    h = 2166136261
    for ch in text.encode():
        h = ((h ^ ch) * 16777619) & 0xFFFFFFFF
    return h


def cmd_sweep_pr(cfg: RunConfig, out_dir: Path, checkpoint: str | None) -> int:
    if (checkpoint is not None) == cfg["sweep.train_per_pr"]:
        raise ConfigError("sweep-pr takes exactly one of --checkpoint and sweep.train_per_pr true")
    out_dir.mkdir(parents=True, exist_ok=True)
    trials = cfg["sweep.trials"]
    # a model trained per p_r does not depend on the kind: train each once
    if checkpoint is not None:
        models = dict.fromkeys(cfg["sweep.pr_list"], _load_model(cfg, checkpoint))
    else:
        scenes = _training_scenes(cfg)
        models = {p_r: _train_for_pr(cfg, p_r, scenes) for p_r in cfg["sweep.pr_list"]}

    pr_list, kinds = cfg["sweep.pr_list"], cfg["sweep.kinds"]

    def arms_for(grid, loc, trial_rng):
        return [(models[p_r], sample_nonempty_mask(grid, loc, p_r, trial_rng.substream(2)))
                for p_r in pr_list]

    base = RngStream(cfg["seed"], _S_SWEEP)
    chan_cfgs = [cfg.channel_config(kind=kind) for kind in kinds]
    per_trial = run_trials(trials, lambda t: _score_trial(cfg, base, t, arms_for, chan_cfgs))
    rows = []
    for c, kind in enumerate(kinds):
        for a, p_r in enumerate(pr_list):
            rows.append((kind, p_r, trials, *_mean_std([r[c][a] for r in per_trial],
                                                       ("region_psnr_db", "region_ssim"))))

    out = out_dir / "sweep_pr.csv"
    _write_csv(out, ["kind", "p_r", "trials",
                     "region_psnr_mean", "region_psnr_std",
                     "region_ssim_mean", "region_ssim_std"], rows,
               cfg, "sweep-pr", {"checkpoint": str(checkpoint)})
    best = {}
    for kind in cfg["sweep.kinds"]:
        kind_rows = [r for r in rows if r[0] == kind]
        top = max(kind_rows, key=lambda r: r[3])
        best[kind] = {"p_r": top[1], "region_psnr_mean": top[3]}
    summary = out_dir / "sweep_pr_summary.json"
    summary.write_text(json.dumps(best, indent=1, sort_keys=True))
    print(f"wrote {out} and {summary}")
    return 0


def _train_for_pr(cfg: RunConfig, p_r: float, scenes: list) -> LinkModel:
    model = _new_model(cfg)
    for ph in ("codec", "channel", "whole"):
        train_phase(model, scenes, replace(cfg.train_config(ph), mask_prob=p_r))
    return model


def _users_semantics(cfg: RunConfig, ccfg, grid, k: int, rng) -> MultiUserSemantics:
    if cfg["users.source"] == "synthetic":
        return synth_correlated_semantics(
            rng, k, cfg["users.length"], cfg["users.dim"], ccfg.shared_fraction(k), ccfg.jitter,
        )
    rows = np.stack([patchify(s.image, grid) for s in generate_correlated_batch(rng, k, ccfg)])
    # standardize so variance-difference thresholds live on a unit scale
    mu, sd = rows.mean(), rows.std()
    return MultiUserSemantics((rows - mu) / max(sd, 1e-9))


def cmd_sweep_users(cfg: RunConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    trials = cfg["users.trials"]
    sym_dim = cfg["codec.symbol_dim"]
    eps_list = cfg["users.eps_list"]
    ks = range(cfg["users.k_lo"], cfg["users.k_hi"] + 1)
    ccfg, grid = cfg.correlated_config(), cfg.scene_config().grid()
    base = RngStream(cfg["seed"], _S_USERS)
    # one draw per (K, trial), partitioned at every eps: vals[e, i, t] = (saving, L_pub)
    vals = np.empty((len(eps_list), len(ks), trials, 2))
    for i, k in enumerate(ks):
        for t in range(trials):
            z = _users_semantics(cfg, ccfg, grid, k, base.substream(k, t))
            for e, eps in enumerate(eps_list):
                part = partition(z, eps, all_pairs=cfg["users.all_pairs"])
                side = part.l_pub if cfg["users.count_side_info"] else 0
                saving = bandwidth_savings(part) - side / (k * part.length * sym_dim)
                vals[e, i, t] = saving, part.l_pub
    rows, log_lines = [], []
    for e, eps in enumerate(eps_list):
        for i, k in enumerate(ks):
            savings, l_pub = vals[e, i].T
            log_lines += [json.dumps({"trial": t, "K": k, "eps": eps, "L_pub": int(l_pub[t]),
                                      "savings": float(savings[t])}) for t in range(trials)]
            rows.append((k, eps, trials, savings.mean(), savings.std(), l_pub.mean()))

    out = out_dir / "sweep_users.csv"
    _write_csv(out, ["k", "epsilon", "trials", "savings_mean", "savings_std", "l_pub_mean"], rows,
               cfg, "sweep-users")
    (out_dir / "sweep_users.jsonl").write_text("\n".join(log_lines) + "\n")
    print(f"wrote {out} ({len(rows)} cells x {trials} trials)")
    return 0


def _bench_cell(chan_cfg, x: np.ndarray, streams: list) -> np.ndarray:
    """Detection NMSE of every trial of one cell, all trials as one stack.

    fading_stage sends trial t's symbols x[t] at power p_s over the channel
    of streams[t].substream(1) with noise from .substream(2), so each value
    equals that of the trial alone, and every cell given the same streams
    sees the same H and the same standardized noise.
    The NMSE compares symbols at their drawn power, never squaring p_s-size ones.
    """
    return nmse(x, fading_stage(x, chan_cfg, streams))


def cmd_channel_bench(cfg: RunConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    trials = cfg["bench.trials"]
    base = RngStream(cfg["seed"], _S_BENCH)
    rows = []
    for kind in cfg["bench.kinds"]:
        # trial t of every cell of a kind sends the same CN(0, 1) symbols
        streams = [base.substream(hash_key(kind), t) for t in range(trials)]
        x = complex_normal_stack(streams, (cfg["bench.symbols"], 1), 0.0, 1.0)
        for snr_db in cfg["bench.snr_db_list"]:
            for csi_var in cfg["bench.csi_var_list"]:
                chan_cfg = cfg.channel_config(kind=kind, snr_db=snr_db, csi_error_var=csi_var)
                vals = _bench_cell(chan_cfg, x, streams)
                rows.append((kind, snr_db, csi_var, vals.mean(), vals.std()))

    out = out_dir / "channel_bench.csv"
    _write_csv(out, ["kind", "snr_db", "csi_var", "nmse_mean", "nmse_std"], rows,
               cfg, "channel-bench")
    print(f"wrote {out} ({len(rows)} cells x {trials} trials)")
    return 0


# -- argument plumbing -----------------------------------------------------------


def _parse_overrides(extras: list) -> dict:
    overrides = {}
    i = 0
    while i < len(extras):
        key = extras[i]
        if not key.startswith("--") or "." not in key:
            raise ConfigError(f"unrecognized argument {key!r} (expected --section.key value)")
        if i + 1 >= len(extras):
            raise ConfigError(f"override {key!r} is missing a value")
        overrides[key[2:]] = extras[i + 1]
        i += 2
    return overrides


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semlink",
        description="Desk-scale multi-user image semantic communication simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False):
        p.add_argument("--config", default=None, help="key = value configuration file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default="results", help="output directory")
        if checkpoint:
            p.add_argument("--checkpoint", default=None, help="model checkpoint path")

    common(sub.add_parser("gen-scenes", help="write annotated synthetic scenes"))
    p_train = sub.add_parser("train", help="run training phases")
    common(p_train, checkpoint=True)
    p_train.add_argument("--phase", default="all", help="codec | channel | whole | all")
    common(sub.add_parser("eval", help="PSNR/SSIM grid over channels and masking"), checkpoint=True)
    common(sub.add_parser("sweep-pr", help="region metrics vs object mask probability"), checkpoint=True)
    common(sub.add_parser("sweep-users", help="bandwidth savings vs user count"))
    common(sub.add_parser("channel-bench", help="detection NMSE grid"))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
        overrides = _parse_overrides(extras)
        if args.seed is not None:
            overrides["seed"] = str(args.seed)
        cfg = RunConfig.load(args.config, overrides, command=args.command)
        out_dir = Path(args.out)

        if args.command == "gen-scenes":
            return cmd_gen_scenes(cfg, out_dir)
        if args.command == "train":
            return cmd_train(cfg, out_dir, args.phase, args.checkpoint)
        if args.command == "eval":
            if args.checkpoint is None:
                raise ConfigError("eval needs --checkpoint")
            return cmd_eval(cfg, out_dir, args.checkpoint)
        if args.command == "sweep-pr":
            return cmd_sweep_pr(cfg, out_dir, args.checkpoint)
        if args.command == "sweep-users":
            return cmd_sweep_users(cfg, out_dir)
        if args.command == "channel-bench":
            return cmd_channel_bench(cfg, out_dir)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SemlinkError, OSError) as exc:  # OSError: an unusable --out or --checkpoint path
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
