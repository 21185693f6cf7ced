"""Command-line front end and experiment orchestration.

Commands: gen-scenes, train, eval, sweep-pr, sweep-users, channel-bench.
Every command takes --config FILE plus arbitrary `--section.key value`
overrides, honors --seed deterministically (reruns produce byte-identical
outputs), writes CSV results with a trailing .meta.json sidecar carrying the
fully resolved configuration, and exits 0 on success, 2 on configuration
errors, 3 on runtime errors.  A loaded checkpoint's grid must match scene.*.
Every command but gen-scenes creates --out before its first trial or
training step, so an unusable path fails at once.

The grid commands (eval, sweep-pr, channel-bench, sweep-users) each fill one
per-trial array [cells, arms, trials, fields] over the distinct entries of
their lists, and _summary turns it into one mean/std row per position of the
product of the lists.  No stream is keyed by a swept value, so each row is a
function of the seed and its own cell, and a repeated list entry is computed
once and written at each of its positions.  eval and sweep-pr draw trial t's
scene and plans from a stream keyed by t alone, encode each arm once, and
receive it over the kind groups of RunConfig.channel_cells as one stack; a
group's frame and noise come from a stream keyed by (kind, t), so the SNRs of
a kind share H and the standardized noise.  channel-bench likewise draws each
(kind, t) once for all its SNR and CSI cells, _BENCH_SLICE trials at a time.
sweep-users draws each (K, trial) once, and all the users.eps_list rows of a
draw threshold its one divergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np

from .channel import draw_channel, fading_cells
from .codec import CodecConfig
from .config import RunConfig, eval_cell_name
from .errors import ConfigError, SemlinkError
from .link import LinkModel, link_encode, link_receive
from .masking import random_mask
from .metrics import ReferenceImage, nmse
from .rng import RngStream, complex_normal_stack
from .snapshot import save_tensors
from .scenes import generate_scene, locate, locate_any, save_scene
from .sharing import share_divergence, shared_positions, synth_correlated_semantics
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
    return repr(float(value)) if isinstance(value, (float, np.floating)) else str(value)


def _write_csv(path: Path, header: list, rows: list, cfg: RunConfig, command: str,
               extra: dict | None = None) -> None:
    """The CSV and its .meta.json sidecar (command, resolved config and extra)."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *([_fmt(v) for v in row] for row in rows)])
    meta = {"command": command, "config": cfg.to_dict(), **(extra or {})}
    Path(str(path) + ".meta.json").write_text(json.dumps(meta, indent=1, sort_keys=True))


def _distinct(cfg: RunConfig) -> RunConfig:
    """cfg with every list cut to its distinct entries, in first-occurrence order."""
    return RunConfig({k: tuple(dict.fromkeys(v)) if isinstance(v, tuple) else v
                      for k, v in cfg.values.items()})


def _summary(lists: list, vals: np.ndarray) -> list:
    """(entries, columns) for each position of the product of lists, in order.

    vals [cells, arms, trials, fields] holds per-trial values over the product
    of the distinct entries of lists; columns interleave the mean and std
    over trials of each field at the entries' cell.  The trials axis reduces
    as each command's rows always have, and a one-field slice as a 1-D row."""
    distinct = [list(dict.fromkeys(entries)) for entries in lists]
    stats = np.stack([vals.mean(axis=-2), vals.std(axis=-2)], axis=-1)
    stats = stats.reshape(*map(len, distinct), -1)
    return [(entries, stats[tuple(map(list.index, distinct, entries))])
            for entries in product(*lists)]


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

    _write_csv(out_dir / "loss.csv", ["phase", "epoch", "batch", "loss"],
               [(r.phase, r.epoch, r.batch, r.loss) for r in all_records],
               cfg, f"train --phase {phase}")
    return 0


_MASKINGS = ("adaptive", "random")
_EVAL_FIELDS = ("psnr_db", "ssim", "region_psnr_db", "region_ssim")


def _score_trial(cfg: RunConfig, base: RngStream, trial: int, arms_for, cells: list,
                 fields: tuple, dump_dirs: list | None = None) -> np.ndarray:
    """Report fields [cell, arm, field] of one trial, drawn and encoded once.

    The scene and location come from trial_rng = base.substream(trial) at (1);
    arms_for(grid, loc, trial_rng) gives the arms' (model, plan) pairs.  Each
    kind group of cells crosses the frame and noise stream of
    trial_rng.substream(hash_key(kind)) at (4) and (5).  Each arm is received
    over all cells, c counting them in group order, as one stack (link_receive);
    all arms' images are scored in one call against the original's half of
    the metrics, computed once.
    With dump_dirs, arm a of cell c is dumped to dump_dirs[c][a].
    """
    trial_rng = base.substream(trial)
    grid = cfg.scene_config().grid()
    scene, loc = _fresh_scene_with_loc(cfg, trial_rng.substream(1), grid)
    arms = arms_for(grid, loc, trial_rng)
    reference = ReferenceImage.of(scene.image, loc, grid)
    groups = []
    for chan_cfgs in cells:
        kind_rng = trial_rng.substream(hash_key(chan_cfgs[0].kind))
        groups.append((chan_cfgs, kind_rng.substream(5),
                       draw_channel(chan_cfgs[0], [kind_rng.substream(4)])))
    per_arm = []
    with no_grad():
        for a, (model, plan) in enumerate(arms):
            images = link_receive(model, *link_encode(model, scene.image, plan), groups).image.data
            if dump_dirs is not None:
                for c, image in enumerate(images):
                    _dump_arm(dump_dirs[c][a], trial, scene, loc, grid, plan, Tensor(image))
            per_arm.append(images)
    reports = reference.reports(np.concatenate(per_arm))
    vals = np.array([[getattr(r, f) for f in fields] for r in reports])
    return vals.reshape(len(arms), -1, len(fields)).swapaxes(0, 1)


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
    cells = _distinct(cfg).channel_cells("eval")
    dump_dirs = None
    if cfg["eval.dump_images"]:
        dump_dirs = [[out_dir / "images" / f"{eval_cell_name(c.kind, c.snr_db)}_{masking}"
                      for masking in _MASKINGS] for c in sum(cells, [])]

    def arms_for(grid, loc, trial_rng):
        adaptive = sample_nonempty_mask(grid, loc, mask_prob, trial_rng.substream(2))
        return [(model, adaptive),
                (model, random_mask(grid, adaptive.keep_count, trial_rng.substream(3)))]

    base = RngStream(cfg["seed"], _S_EVAL)
    vals = np.stack(run_trials(trials, lambda t: _score_trial(cfg, base, t, arms_for, cells,
                                                              _EVAL_FIELDS, dump_dirs)), axis=2)
    rows = [(kind, snr_db, masking, trials, *columns) for (kind, snr_db, masking), columns
            in _summary([cfg["eval.kinds"], cfg["eval.snr_db_list"], _MASKINGS], vals)]
    out = out_dir / "eval.csv"
    _write_csv(out, ["kind", "snr_db", "masking", "trials", "psnr_mean", "psnr_std", "ssim_mean",
                     "ssim_std", "region_psnr_mean", "region_psnr_std", "region_ssim_mean",
                     "region_ssim_std"], rows, cfg, "eval", {"checkpoint": str(checkpoint)})
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
    trials, pr_list = cfg["sweep.trials"], _distinct(cfg)["sweep.pr_list"]
    # a model trained per p_r does not depend on the kind: train each once
    if checkpoint is not None:
        models = [_load_model(cfg, checkpoint)] * len(pr_list)
    else:
        scenes = _training_scenes(cfg)
        models = [_train_for_pr(cfg, p_r, scenes) for p_r in pr_list]

    def arms_for(grid, loc, trial_rng):
        return [(model, sample_nonempty_mask(grid, loc, p_r, trial_rng.substream(2)))
                for model, p_r in zip(models, pr_list)]

    base = RngStream(cfg["seed"], _S_SWEEP)
    cells = _distinct(cfg).channel_cells("sweep-pr")  # one cell per kind
    vals = np.stack(run_trials(trials, lambda t: _score_trial(
        cfg, base, t, arms_for, cells, ("region_psnr_db", "region_ssim"))), axis=2)
    rows = [(kind, p_r, trials, *columns) for (kind, p_r), columns
            in _summary([cfg["sweep.kinds"], cfg["sweep.pr_list"]], vals)]

    out = out_dir / "sweep_pr.csv"
    _write_csv(out, ["kind", "p_r", "trials", "region_psnr_mean", "region_psnr_std",
                     "region_ssim_mean", "region_ssim_std"], rows,
               cfg, "sweep-pr", {"checkpoint": str(checkpoint)})
    best = {}
    for kind, p_r, _, psnr_mean, *_ in rows:  # a kind's first row of the highest mean
        if kind not in best or psnr_mean > best[kind]["region_psnr_mean"]:
            best[kind] = {"p_r": p_r, "region_psnr_mean": psnr_mean}
    summary = out_dir / "sweep_pr_summary.json"
    summary.write_text(json.dumps(best, indent=1, sort_keys=True))
    print(f"wrote {out} and {summary}")
    return 0


def _train_for_pr(cfg: RunConfig, p_r: float, scenes: list) -> LinkModel:
    model = _new_model(cfg)
    for ph in ("codec", "channel", "whole"):
        train_phase(model, scenes, replace(cfg.train_config(ph), mask_prob=p_r))
    return model


def cmd_sweep_users(cfg: RunConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    trials, sym_dim = cfg["users.trials"], cfg["codec.symbol_dim"]
    eps_list, eps = cfg["users.eps_list"], _distinct(cfg)["users.eps_list"]
    ks = range(cfg["users.k_lo"], cfg["users.k_hi"] + 1)
    ccfg = cfg.correlated_config()
    base = RngStream(cfg["seed"], _S_USERS)
    # vals[e, i, t] = (saving, L_pub): one draw and divergence per (K, t), each eps once
    vals = np.empty((len(eps), len(ks), trials, 2))
    for i, k in enumerate(ks):
        for t in range(trials):
            z = synth_correlated_semantics(base.substream(k, t), k, cfg["users.length"],
                                           cfg["users.dim"], ccfg.shared_fraction(k), ccfg.jitter)
            d = share_divergence(z, all_pairs=cfg["users.all_pairs"])
            for e, epsilon in enumerate(eps):
                l_pub = len(shared_positions(d, epsilon))
                side = l_pub if cfg["users.count_side_info"] else 0
                # bandwidth_savings' expression, so the saving keeps its bits
                saving = (k - 1) * l_pub / (k * z.length) - side / (k * z.length * sym_dim)
                vals[e, i, t] = saving, l_pub
    log_lines = [json.dumps({"trial": t, "K": k, "eps": epsilon, "L_pub": int(vals[e, i, t, 1]),
                             "savings": float(vals[e, i, t, 0])})
                 for epsilon in eps_list for e in [eps.index(epsilon)] for i, k in enumerate(ks)
                 for t in range(trials)]
    # each field reduces as its own one-field slice, as its 1-D row would
    savings, l_pub = (_summary([eps_list, ks], vals[..., f:f + 1]) for f in (0, 1))
    rows = [(k, epsilon, trials, *columns, l_pub_columns[0])
            for ((epsilon, k), columns), (_, l_pub_columns) in zip(savings, l_pub)]

    out = out_dir / "sweep_users.csv"
    _write_csv(out, ["k", "epsilon", "trials", "savings_mean", "savings_std", "l_pub_mean"], rows,
               cfg, "sweep-users")
    (out_dir / "sweep_users.jsonl").write_text("\n".join(log_lines) + "\n")
    print(f"wrote {out} ({len(rows)} cells x {trials} trials)")
    return 0


_BENCH_SLICE = 512  # trials of a kind per fading_cells pass: bounds channel-bench's memory


def cmd_channel_bench(cfg: RunConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    trials = cfg["bench.trials"]
    base = RngStream(cfg["seed"], _S_BENCH)
    groups = _distinct(cfg).channel_cells("channel-bench")
    vals = np.empty((len(groups), len(groups[0]), trials, 1))  # [kind, (SNR, CSI), trial, NMSE]
    for chan_cfgs, kind_vals in zip(groups, vals):
        key = hash_key(chan_cfgs[0].kind)
        for lo in range(0, trials, _BENCH_SLICE):
            # trial t of every cell of a kind sends the same CN(0, 1) symbols
            streams = [base.substream(key, t) for t in range(lo, min(lo + _BENCH_SLICE, trials))]
            x = complex_normal_stack(streams, (cfg["bench.symbols"], 1), 0.0, 1.0)
            # the NMSE compares symbols at their drawn power, never squaring p_s-size ones
            for v, x_hat in zip(kind_vals, fading_cells(x, chan_cfgs, streams)):
                v[lo:lo + len(streams), 0] = nmse(x, x_hat)
    lists = [cfg["bench.kinds"], cfg["bench.snr_db_list"], cfg["bench.csi_var_list"]]
    rows = [(*cell, *columns) for cell, columns in _summary(lists, vals)]

    out = out_dir / "channel_bench.csv"
    _write_csv(out, ["kind", "snr_db", "csi_var", "nmse_mean", "nmse_std"], rows,
               cfg, "channel-bench")
    print(f"wrote {out} ({len(rows)} cells x {trials} trials)")
    return 0


# -- argument plumbing -----------------------------------------------------------


def _parse_overrides(extras: list) -> dict:
    keys = extras[::2]
    for key in keys:
        if not key.startswith("--") or "." not in key:
            raise ConfigError(f"unrecognized argument {key!r} (expected --section.key value)")
    if len(extras) % 2:
        raise ConfigError(f"override {keys[-1]!r} is missing a value")
    return {key[2:]: value for key, value in zip(keys, extras[1::2])}


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

        if args.command == "eval" and args.checkpoint is None:
            raise ConfigError("eval needs --checkpoint")
        return {"gen-scenes": lambda: cmd_gen_scenes(cfg, out_dir),
                "train": lambda: cmd_train(cfg, out_dir, args.phase, args.checkpoint),
                "eval": lambda: cmd_eval(cfg, out_dir, args.checkpoint),
                "sweep-pr": lambda: cmd_sweep_pr(cfg, out_dir, args.checkpoint),
                "sweep-users": lambda: cmd_sweep_users(cfg, out_dir),
                "channel-bench": lambda: cmd_channel_bench(cfg, out_dir)}[args.command]()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SemlinkError, OSError) as exc:  # OSError: an unusable --out or --checkpoint path
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
