"""The four benchmark workloads: train, eval, detect and share.

Each workload is measured in rounds.  A round is a fixed amount of work on
inputs derived from the workload seed and the round index, timed as one or
more operations and followed by output checks outside the timed region.
Throughput is the median over rounds; the quality figure is the mean over
the first ``Sizes.quality_rounds`` rounds, which always run, so it is
deterministic for a given seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import semlink.chancodec as chancodec
import semlink.channel as channel
import semlink.cli as cli
import semlink.config as config
import semlink.link as link
import semlink.rng as rng
import semlink.sharing as sharing

PHASES = ("codec", "channel", "whole")
# The models are part of the workload definition, not of its inputs: they come
# from this fixed seed so that a run's quality figure varies with the input
# seed only through the scenes, masks and channel draws.
MODEL_SEED = 7


@dataclass(frozen=True)
class Sizes:
    """Work per round and per set-up; the smoke test shrinks all of it."""

    train_scenes: int = 16
    train_epochs: int = 2
    train_batch: int = 8
    ckpt_scenes: int = 16  # the eval checkpoint set-up trains on these
    ckpt_epochs: int = 2
    ckpt_lr: float = 1e-3
    eval_trials: int = 8  # per cell; 12 cells
    detect_trials: int = 20  # per cell; 27 cells per antenna setup
    share_trials: int = 12  # per user count K = 2..10
    quality_rounds: int = 3


TINY = Sizes(train_scenes=2, train_epochs=1, ckpt_scenes=2, ckpt_epochs=1, eval_trials=1,
             detect_trials=1, share_trials=1, quality_rounds=1)


@dataclass
class Round:
    units: int = 0  # samples (train) or trials (others)
    seconds: float = 0.0  # timed operations only
    rates: dict = field(default_factory=dict)  # name -> (count, seconds)
    quality: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def add(self, other: "Round") -> None:
        """Fold another round's attempts and failures into this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def round_seed(seed: int, r: int) -> int:
    return (seed * 100_003 + r) % (1 << 31)


def plain_timer(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def run_cli(argv: list) -> int:
    """semlink's CLI in this process; any escaping exception is a failure."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([str(a) for a in argv])
    except Exception:  # a crash is a failed invocation, not a dead benchmark
        traceback.print_exc(file=sys.stderr)
        return -1


def _read_csv(path: Path) -> list:
    try:
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))
    except OSError:
        return []


def _floats(rows: list, column: str) -> np.ndarray:
    try:
        return np.asarray([float(r[column]) for r in rows])
    except (KeyError, ValueError):
        return np.asarray([np.nan])


class Workload:
    name = ""
    unit = ""

    def __init__(self, workdir: Path, seed: int, sizes: Sizes):
        self.workdir = Path(workdir)
        self.seed = seed
        self.sizes = sizes

    def setup(self, setup_dir: Path) -> bool:
        """Data and model set-up; returns False if it failed."""
        return True

    def adopt(self, setup_dir: Path) -> bool:
        """Reuse artifacts of a set-up another process made in setup_dir."""
        return self.setup(setup_dir)

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_round(self, r: int, timer=plain_timer) -> Round:
        raise NotImplementedError

    def details(self, rounds: list) -> dict:
        """The workload's own named figures (medians and quality means)."""
        out = {}
        for key in rounds[0].rates:
            out[key] = float(np.median([cnt / sec for cnt, sec in
                                        (rd.rates[key] for rd in rounds)]))
        first = rounds[: self.sizes.quality_rounds]
        for key in first[0].quality:
            out[key] = float(np.mean([rd.quality[key] for rd in first]))
        return out

    def output_mse(self, details: dict) -> float:
        raise NotImplementedError


class Train(Workload):
    """`semlink train` codec -> channel -> whole on one out dir per round.

    Every round starts the codec phase from the same initial model, which
    set-up writes; the rounds differ in their scenes, masks and noise.  The
    surrogate SNR is pinned at 10 dB: with the default 0-20 dB range the final
    loss hinges on the two SNR draws of the last epoch.
    """

    name, unit = "train", "sample"

    def setup(self, setup_dir: Path) -> bool:
        run_cfg = config.RunConfig.load()
        model = link.LinkModel.init(
            run_cfg.scene_config().grid(), rng.RngStream(MODEL_SEED),
            feature_dim=run_cfg["codec.feature_dim"], enc_layers=run_cfg["codec.enc_layers"],
            dec_layers=run_cfg["codec.dec_layers"], num_heads=run_cfg["codec.num_heads"],
            symbol_dim=run_cfg["codec.symbol_dim"])
        model.save(Path(setup_dir) / "init.ckpt")
        return self.adopt(setup_dir)

    def adopt(self, setup_dir: Path) -> bool:
        self.init_ckpt = Path(setup_dir) / "init.ckpt"
        return self.init_ckpt.exists()

    def _phase(self, phase: str, out: Path, seed: int, scenes: int, epochs: int, timer):
        start = ["--checkpoint", self.init_ckpt] if phase == "codec" else []
        return timer(run_cli, ["train", "--phase", phase, "--out", out, "--seed", seed,
                               "--train.scenes", scenes, "--train.epochs", epochs,
                               "--train.batch_size", self.sizes.train_batch,
                               "--train.snr_lo_db", 10, "--train.snr_hi_db", 10, *start])

    def warm_up(self) -> None:
        out = self.workdir / "warm-train"
        for phase in PHASES:
            self._phase(phase, out, round_seed(self.seed, 10**6), 2, 1, plain_timer)
        shutil.rmtree(out, ignore_errors=True)

    def run_round(self, r: int, timer=plain_timer) -> Round:
        s = self.sizes
        out = self.workdir / f"train-{r}"
        rd = Round()
        batches = math.ceil(s.train_scenes / s.train_batch) * s.train_epochs
        for phase in PHASES:
            rc, sec = self._phase(phase, out, round_seed(self.seed, r), s.train_scenes,
                                  s.train_epochs, timer)
            rd.rates[f"{phase}_samples_per_s"] = (s.train_scenes * s.train_epochs, sec)
            rd.check(rc == 0, f"train --phase {phase} exited {rc}")
            # each invocation rewrites loss.csv with its own phase's batches
            rows = _read_csv(out / "loss.csv")
            rd.check(len(rows) == batches and all(x.get("phase") == phase for x in rows),
                     f"{phase}: loss.csv has {len(rows)} rows, expected {batches}")
            losses = _floats(rows, "loss")
            rd.check(bool(np.all(np.isfinite(losses)) and np.all(losses >= 0)),
                     f"{phase}: loss.csv holds a non-finite or negative loss")
        rd.units = len(PHASES) * s.train_scenes * s.train_epochs
        rd.seconds = sum(sec for _, sec in rd.rates.values())
        try:
            link.LinkModel.load(out / "whole.ckpt")
            loaded = True
        except Exception as exc:  # any failure to load is a failed check
            loaded = False
            rd.problems.append(f"whole.ckpt: {exc!r}")
        rd.check(loaded, "whole.ckpt does not load")
        last = [x for x in rows if x.get("epoch") == str(s.train_epochs - 1)]
        rd.quality["final_loss"] = float(np.mean(_floats(last, "loss"))) if last else math.nan
        shutil.rmtree(out, ignore_errors=True)
        return rd

    def output_mse(self, details: dict) -> float:
        return details["final_loss"]


class Eval(Workload):
    """`semlink eval` over 2 kinds x 3 SNRs x 2 maskings with a briefly trained model."""

    name, unit = "eval", "trial"
    CELLS = 12

    def setup(self, setup_dir: Path) -> bool:
        s = self.sizes
        rc = run_cli(["train", "--phase", "all", "--out", setup_dir, "--seed", MODEL_SEED,
                      "--train.scenes", s.ckpt_scenes, "--train.epochs", s.ckpt_epochs,
                      "--train.lr", s.ckpt_lr])
        return self.adopt(setup_dir) and rc == 0

    def adopt(self, setup_dir: Path) -> bool:
        self.checkpoint = Path(setup_dir) / "whole.ckpt"
        return self.checkpoint.exists()

    def _eval(self, out: Path, seed: int, trials: int, timer):
        return timer(run_cli, ["eval", "--checkpoint", self.checkpoint, "--out", out,
                               "--seed", seed, "--eval.trials", trials])

    def warm_up(self) -> None:
        out = self.workdir / "warm-eval"
        self._eval(out, round_seed(self.seed, 10**6), 1, plain_timer)
        shutil.rmtree(out, ignore_errors=True)

    def run_round(self, r: int, timer=plain_timer) -> Round:
        trials = self.sizes.eval_trials
        out = self.workdir / f"eval-{r}"
        rd = Round()
        rc, sec = self._eval(out, round_seed(self.seed, r), trials, timer)
        rd.units, rd.seconds = self.CELLS * trials, sec
        rd.rates["trials_per_s"] = (rd.units, sec)
        rd.check(rc == 0, f"eval exited {rc}")

        rows = _read_csv(out / "eval.csv")
        rd.check(len(rows) == self.CELLS, f"eval.csv has {len(rows)} rows")
        psnr, region = _floats(rows, "psnr_mean"), _floats(rows, "region_psnr_mean")
        ssim = np.concatenate([_floats(rows, "ssim_mean"), _floats(rows, "region_ssim_mean")])
        rd.check(bool(np.all((psnr > 0) & (psnr <= 100))), "PSNR outside (0, 100]")
        rd.check(bool(np.all(np.isfinite(region))), "region PSNR not finite")
        rd.check(bool(np.all((ssim >= -1) & (ssim <= 1))), "SSIM outside [-1, 1]")
        rd.quality["psnr_db"] = float(np.mean(psnr))
        rd.quality["region_psnr_db"] = float(np.mean(region))
        shutil.rmtree(out, ignore_errors=True)
        return rd

    def output_mse(self, details: dict) -> float:
        return 10.0 ** (-details["psnr_db"] / 10.0)


class Detect(Workload):
    """`semlink channel-bench` in a 1x1 and a 4x4 (p_s = 4) antenna setup."""

    name, unit = "detect", "trial"
    CELLS = 27  # 3 kinds x 3 SNRs x 3 CSI error levels
    SETUPS = (("1x1", ()),
              ("4x4", ("--channel.n_t", 4, "--channel.n_r", 4, "--channel.p_s", 4)))

    def _bench(self, out: Path, seed: int, trials: int, timer):
        results = []
        for label, extra in self.SETUPS:
            results.append(timer(run_cli, ["channel-bench", "--out", out / label, "--seed", seed,
                                           "--bench.trials", trials, *extra]))
        return results

    def warm_up(self) -> None:
        out = self.workdir / "warm-detect"
        self._bench(out, round_seed(self.seed, 10**6), 1, plain_timer)
        shutil.rmtree(out, ignore_errors=True)

    def run_round(self, r: int, timer=plain_timer) -> Round:
        trials = self.sizes.detect_trials
        out = self.workdir / f"detect-{r}"
        rd = Round()
        results = self._bench(out, round_seed(self.seed, r), trials, timer)
        rd.units = len(self.SETUPS) * self.CELLS * trials
        rd.seconds = sum(sec for _, sec in results)
        rd.rates["trials_per_s"] = (rd.units, rd.seconds)
        values = []
        for (label, _), (rc, _) in zip(self.SETUPS, results):
            rd.check(rc == 0, f"channel-bench {label} exited {rc}")
            rows = _read_csv(out / label / "channel_bench.csv")
            rd.check(len(rows) == self.CELLS, f"{label}: channel_bench.csv has {len(rows)} rows")
            nmse = _floats(rows, "nmse_mean")
            rd.check(bool(np.all(np.isfinite(nmse)) and np.all(nmse >= 0)),
                     f"{label}: NMSE not finite or negative")
            values.append(nmse)
        rd.quality["nmse"] = float(np.mean(np.concatenate(values)))
        shutil.rmtree(out, ignore_errors=True)
        return rd

    def output_mse(self, details: dict) -> float:
        return details["nmse"]


class Share(Workload):
    """Library loop: correlated semantics -> partition -> transport, K = 2..10."""

    name, unit = "share", "trial"
    USERS = range(2, 11)
    LENGTH, DIM, SYMBOL_DIM = 32, 48, 32  # 2 * SYMBOL_DIM > DIM: the codec inverts exactly
    EPSILON = 0.1
    STREAM = 0x5EA7

    def setup(self, setup_dir: Path) -> bool:
        run_cfg = config.RunConfig.load()
        self.jitter = run_cfg["users.jitter"]
        self.fractions = {k: run_cfg.correlated_config().shared_fraction(k) for k in self.USERS}
        params = chancodec.ChanCodecParams.init(self.DIM, self.SYMBOL_DIM,
                                                rng.RngStream(MODEL_SEED, self.STREAM))
        self.codec = chancodec.inverse_params(params)
        self.chan_cfg = channel.ChannelConfig(kind="rayleigh", snr_db=10.0, n_t=2, n_r=2)
        return True

    def _trials(self, r: int, trials: int) -> list:
        out = []
        root = rng.RngStream(round_seed(self.seed, r), self.STREAM)
        for k in self.USERS:
            for t in range(trials):
                stream = root.substream(k, t)
                try:
                    z = sharing.synth_correlated_semantics(
                        stream.substream(1), k, self.LENGTH, self.DIM, self.fractions[k],
                        self.jitter)
                    part = sharing.partition(z, self.EPSILON)
                    res = sharing.transport(part, [self.codec] * k, self.codec, self.chan_cfg,
                                            stream.substream(2))
                    out.append((k, z, part, res, sharing.bandwidth_savings(part)))
                except Exception:  # a failed trial is counted, the loop goes on
                    traceback.print_exc(file=sys.stderr)
                    out.append((k, None, None, None, None))
        return out

    def warm_up(self) -> None:
        self._trials(10**6, 1)

    def run_round(self, r: int, timer=plain_timer) -> Round:
        rd = Round()
        results, rd.seconds = timer(self._trials, r, self.sizes.share_trials)
        rd.units = len(results)
        rd.rates["trials_per_s"] = (rd.units, rd.seconds)
        savings, mse = [], []
        for k, z, part, res, saving in results:
            rd.check(res is not None, f"K={k}: trial raised")
            if res is None:
                continue
            rd.check(res.rows_sent == part.l_pub + k * part.l_pri,
                     f"K={k}: rows_sent {res.rows_sent} != L_pub + K*L_pri")
            rd.check(res.symbols_sent == res.rows_sent * self.SYMBOL_DIM,
                     f"K={k}: symbols_sent {res.symbols_sent} != rows_sent * symbol_dim")
            expected = (k - 1) * part.l_pub / (k * self.LENGTH)
            rd.check(abs(saving - expected) <= 1e-12, f"K={k}: savings {saving} != {expected}")
            z_hat = np.stack(res.z_hat)
            err = float(np.sum((z.values - z_hat) ** 2) / np.sum(z.values ** 2))
            rd.check(math.isfinite(err), f"K={k}: semantic MSE not finite")
            savings.append(saving)
            mse.append(err)
        rd.quality["savings"] = float(np.mean(savings)) if savings else math.nan
        rd.quality["semantic_mse"] = float(np.mean(mse)) if mse else math.nan
        return rd

    def output_mse(self, details: dict) -> float:
        return details["semantic_mse"]


WORKLOADS = {w.name: w for w in (Train, Eval, Detect, Share)}
