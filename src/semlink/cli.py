"""Command-line front end and experiment orchestration.

Commands: gen-scenes, train, eval, sweep-pr, sweep-users, channel-bench.
Every command takes --config FILE plus arbitrary `--section.key value`
overrides, honors --seed deterministically (reruns produce byte-identical
outputs), writes CSV results with a trailing .meta.json sidecar carrying the
fully resolved configuration, and exits 0 on success, 2 on configuration
errors, 3 on runtime errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .channel import draw_channel, normalize_power, transmit_detect
from .codec import CodecConfig
from .config import RunConfig
from .errors import ConfigError, SemlinkError
from .link import LinkModel, evaluate_link
from .masking import patchify, random_mask
from .metrics import MetricReport, image_report, nmse
from .rng import RngStream
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


def _write_csv(path: Path, header: list, rows: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_sidecar(target: Path, cfg: RunConfig, command: str, extra: dict | None = None) -> None:
    meta = {"command": command, "config": cfg.to_dict()}
    if extra:
        meta.update(extra)
    Path(str(target) + ".meta.json").write_text(json.dumps(meta, indent=1, sort_keys=True))


def _scene_loc(cfg: RunConfig, scene, grid):
    label = cfg["scene.target_label"]
    return locate_any(scene, grid) if label == "any" else locate(scene, label, grid)


_SCENE_TRIES = 50


def _fresh_scene_with_loc(cfg: RunConfig, rng, grid):
    """Scene whose located region is non-empty (matters for label targeting)."""
    scene_cfg = cfg.scene_config()
    for _ in range(_SCENE_TRIES):
        scene = generate_scene(rng.substream(1), scene_cfg)
        loc = _scene_loc(cfg, scene, grid)
        if len(loc):
            return scene, loc
        rng = rng.substream(2)
    raise SemlinkError(f"no scene with label {cfg['scene.target_label']!r} in {_SCENE_TRIES} draws")


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
        model = LinkModel.load(checkpoint)
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
        model = LinkModel.load(prior)

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
               [(r.phase, r.epoch, r.batch, r.loss) for r in all_records])
    _write_sidecar(loss_csv, cfg, f"train --phase {phase}")
    return 0


def _eval_trial(cfg: RunConfig, model: LinkModel, chan_cfg, masking: str, mask_prob: float,
                cell_rng, dump_dir: Path | None = None, trial: int | None = None) -> MetricReport:
    grid = model.grid
    scene, loc = _fresh_scene_with_loc(cfg, cell_rng.substream(1), grid)
    plan = sample_nonempty_mask(grid, loc, mask_prob, cell_rng.substream(2))
    if masking == "random":
        plan = random_mask(grid, plan.keep_count, cell_rng.substream(3))
    frame = draw_channel(chan_cfg, [cell_rng.substream(4)])
    with no_grad():
        res = evaluate_link(model, scene.image, plan, chan_cfg, cell_rng.substream(5), frame=frame)
    if dump_dir is not None:
        dump_dir.mkdir(parents=True, exist_ok=True)
        save_tensors(dump_dir / f"trial{trial:04d}.slnk",
                     {"original": Tensor(scene.image), "reconstructed": res.image})
        (dump_dir / f"trial{trial:04d}.json").write_text(
            json.dumps({"loc": loc.sorted_indices, "patch_size": grid.patch_size,
                        "plan": json.loads(plan.to_json())})
        )
    return image_report(scene.image, res.image, loc, grid)


def cmd_eval(cfg: RunConfig, out_dir: Path, checkpoint: str) -> int:
    model = LinkModel.load(checkpoint)
    trials = cfg["eval.trials"]
    dump = cfg["eval.dump_images"]
    rows = []
    for kind in cfg["eval.kinds"]:
        for snr_db in cfg["eval.snr_db_list"]:
            chan_cfg = cfg.channel_config(kind=kind, snr_db=snr_db)
            for masking in ("adaptive", "random"):
                base = RngStream(cfg["seed"], _S_EVAL).substream(
                    hash_key(kind), int(snr_db * 1000) & 0xFFFFFFFF
                )
                dump_dir = (
                    out_dir / "images" / f"{kind}_{snr_db:g}dB_{masking}" if dump else None
                )
                reports = run_trials(
                    trials,
                    lambda t: _eval_trial(cfg, model, chan_cfg, masking, cfg["eval.mask_prob"],
                                          base.substream(t), dump_dir, t),
                )
                vals = np.asarray(
                    [[r.psnr_db, r.ssim, r.region_psnr_db, r.region_ssim] for r in reports]
                )
                mean, std = vals.mean(axis=0), vals.std(axis=0)
                rows.append((kind, snr_db, masking, trials,
                             mean[0], std[0], mean[1], std[1],
                             mean[2], std[2], mean[3], std[3]))
    out = out_dir / "eval.csv"
    _write_csv(out, ["kind", "snr_db", "masking", "trials",
                     "psnr_mean", "psnr_std", "ssim_mean", "ssim_std",
                     "region_psnr_mean", "region_psnr_std",
                     "region_ssim_mean", "region_ssim_std"], rows)
    _write_sidecar(out, cfg, "eval", {"checkpoint": str(checkpoint)})
    print(f"wrote {out} ({len(rows)} cells x {trials} trials)")
    return 0


def hash_key(text: str) -> int:
    """Stable small hash for strings (never Python's randomized hash)."""
    h = 2166136261
    for ch in text.encode():
        h = ((h ^ ch) * 16777619) & 0xFFFFFFFF
    return h


def cmd_sweep_pr(cfg: RunConfig, out_dir: Path, checkpoint: str | None) -> int:
    trials = cfg["sweep.trials"]
    shared_model = None
    if checkpoint is not None:
        shared_model = LinkModel.load(checkpoint)
    elif not cfg["sweep.train_per_pr"]:
        raise ConfigError("sweep-pr needs --checkpoint unless sweep.train_per_pr is set")

    rows = []
    for kind in cfg["sweep.kinds"]:
        chan_cfg = cfg.channel_config(kind=kind)
        for p_r in cfg["sweep.pr_list"]:
            if shared_model is not None:
                model = shared_model
            else:
                model = _train_for_pr(cfg, p_r)
            base = RngStream(cfg["seed"], _S_SWEEP).substream(
                hash_key(kind), int(round(p_r * 1000))
            )
            reports = run_trials(
                trials,
                lambda t: _eval_trial(cfg, model, chan_cfg, "adaptive", p_r, base.substream(t)),
            )
            vals = np.asarray([[r.region_psnr_db, r.region_ssim] for r in reports])
            mean, std = vals.mean(axis=0), vals.std(axis=0)
            rows.append((kind, p_r, trials, mean[0], std[0], mean[1], std[1]))

    out = out_dir / "sweep_pr.csv"
    _write_csv(out, ["kind", "p_r", "trials",
                     "region_psnr_mean", "region_psnr_std",
                     "region_ssim_mean", "region_ssim_std"], rows)
    best = {}
    for kind in cfg["sweep.kinds"]:
        kind_rows = [r for r in rows if r[0] == kind]
        top = max(kind_rows, key=lambda r: r[3])
        best[kind] = {"p_r": top[1], "region_psnr_mean": top[3]}
    summary = out_dir / "sweep_pr_summary.json"
    summary.write_text(json.dumps(best, indent=1, sort_keys=True))
    _write_sidecar(out, cfg, "sweep-pr", {"checkpoint": str(checkpoint)})
    print(f"wrote {out} and {summary}")
    return 0


def _train_for_pr(cfg: RunConfig, p_r: float) -> LinkModel:
    model = _new_model(cfg)
    scenes = _training_scenes(cfg)
    for ph in ("codec", "channel", "whole"):
        train_phase(model, scenes, replace(cfg.train_config(ph), mask_prob=p_r))
    return model


def _users_semantics(cfg: RunConfig, k: int, rng) -> MultiUserSemantics:
    if cfg["users.source"] == "synthetic":
        ccfg = cfg.correlated_config()
        return synth_correlated_semantics(
            rng, k, cfg["users.length"], cfg["users.dim"], ccfg.shared_fraction(k), ccfg.jitter,
        )
    batch = generate_correlated_batch(rng, k, cfg.correlated_config())
    grid = cfg.scene_config().grid()
    rows = np.stack([patchify(s.image, grid) for s in batch])
    # standardize so variance-difference thresholds live on a unit scale
    mu, sd = rows.mean(), rows.std()
    return MultiUserSemantics((rows - mu) / max(sd, 1e-9))


def cmd_sweep_users(cfg: RunConfig, out_dir: Path) -> int:
    trials = cfg["users.trials"]
    sym_dim = cfg["codec.symbol_dim"]
    rows = []
    log_lines = []
    for eps in cfg["users.eps_list"]:
        for k in range(cfg["users.k_lo"], cfg["users.k_hi"] + 1):
            base = RngStream(cfg["seed"], _S_USERS).substream(int(round(eps * 10000)), k)

            def one(t):
                z = _users_semantics(cfg, k, base.substream(t))
                part = partition(z, eps, all_pairs=cfg["users.all_pairs"])
                side = part.l_pub if cfg["users.count_side_info"] else 0
                saving = bandwidth_savings(part) - side / (k * part.length * sym_dim)
                return saving, part.l_pub

            vals = np.asarray(run_trials(trials, one))
            for t in range(trials):
                log_lines.append(json.dumps({
                    "trial": t, "K": k, "eps": eps,
                    "L_pub": int(vals[t, 1]), "savings": float(vals[t, 0]),
                }))
            rows.append((k, eps, trials, vals[:, 0].mean(), vals[:, 0].std(), vals[:, 1].mean()))

    out = out_dir / "sweep_users.csv"
    _write_csv(out, ["k", "epsilon", "trials", "savings_mean", "savings_std", "l_pub_mean"], rows)
    (out_dir / "sweep_users.jsonl").write_text("\n".join(log_lines) + "\n")
    _write_sidecar(out, cfg, "sweep-users")
    print(f"wrote {out} ({len(rows)} cells x {trials} trials)")
    return 0


def _bench_cell(chan_cfg, base: RngStream, trials: int, n_sym: int) -> np.ndarray:
    """Detection NMSE of every trial of one cell, all trials as one stack.

    Trial t draws its symbols from base.substream(t), its channel from
    .substream(1) of that and its noise from .substream(2), so each value
    equals that of the trial run alone.
    """
    streams = [base.substream(t) for t in range(trials)]
    x = normalize_power(
        np.stack([r.complex_normal((n_sym, 1), 0.0, 1.0) for r in streams]), chan_cfg.p_s)
    frame = draw_channel(chan_cfg, [r.substream(1) for r in streams])
    x_hat = transmit_detect(x, frame, [r.substream(2) for r in streams])
    return nmse(x, x_hat)


def cmd_channel_bench(cfg: RunConfig, out_dir: Path) -> int:
    trials = cfg["bench.trials"]
    n_sym = cfg["bench.symbols"]
    rows = []
    for kind in cfg["bench.kinds"]:
        for snr_db in cfg["bench.snr_db_list"]:
            for csi_var in cfg["bench.csi_var_list"]:
                chan_cfg = cfg.channel_config(kind=kind, snr_db=snr_db, csi_error_var=csi_var)
                # keyed by the CSI error the channel has, so the awgn cells at
                # every csi_var are one experiment with one set of draws
                base = RngStream(cfg["seed"], _S_BENCH).substream(
                    hash_key(kind), int(snr_db * 1000) & 0xFFFFFFFF,
                    int(chan_cfg.effective_csi_error_var * 1e6),
                )

                vals = _bench_cell(chan_cfg, base, trials, n_sym)
                rows.append((kind, snr_db, csi_var, vals.mean(), vals.std()))

    out = out_dir / "channel_bench.csv"
    _write_csv(out, ["kind", "snr_db", "csi_var", "nmse_mean", "nmse_std"], rows)
    _write_sidecar(out, cfg, "channel-bench")
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
    except SemlinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
