import csv
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semlink.channel import ChannelConfig, draw_channel, normalize_power, transmit_detect
from semlink.cli import _bench_cell, main
from semlink.codec import CodecConfig
from semlink.config import SCHEMA, RunConfig
from semlink.errors import ConfigError
from semlink.metrics import nmse
from semlink.rng import RngStream
from semlink.scenes import load_annotated
from semlink.training import PHASES

FAST_TRAIN = [
    "--train.scenes", "8", "--train.epochs", "1", "--train.lr", "0.001",
    "--codec.feature_dim", "16", "--codec.enc_layers", "1", "--codec.dec_layers", "1",
    "--codec.num_heads", "2", "--codec.symbol_dim", "4",
]


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestConfig:
    def test_defaults_load(self):
        cfg = RunConfig.load()
        assert cfg["seed"] == 0
        assert cfg["train.lr"] == 2e-4

    def test_shipped_reference_config_matches_defaults(self):
        ref = Path(__file__).resolve().parent.parent / "configs" / "default.cfg"
        cfg = RunConfig.load(ref)
        assert cfg.values == RunConfig.load().values

    def test_file_with_comments_and_overrides(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text(
            "# a comment\n"
            "eval.kinds = rayleigh\n"
            "train.epochs = 3   # inline comment\n"
            "users.eps_list = 0.1, 0.2\n"
        )
        cfg = RunConfig.load(f, {"train.epochs": "5"})
        assert cfg["eval.kinds"] == ("rayleigh",)
        assert cfg["train.epochs"] == 5
        assert cfg["users.eps_list"] == (0.1, 0.2)

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "bad.cfg"
        f.write_text("nonsense.key = 1\n")
        with pytest.raises(ConfigError):
            RunConfig.load(f)

    def test_mask_prob_range_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.load(None, {"train.mask_prob": "1.5"})

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.load(None, {"users.eps_list": "0.1,-0.2"})

    def test_low_user_count_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.load(None, {"users.k_lo": "1"})

    def test_bad_channel_kind_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.load(None, {"eval.kinds": "awgn, freespace"})

    def test_type_coercion_failure(self):
        with pytest.raises(ConfigError):
            RunConfig.load(None, {"train.epochs": "many"})

    @settings(max_examples=200, deadline=None)
    @given(
        overrides=st.dictionaries(
            st.sampled_from(sorted(SCHEMA)),
            st.one_of(
                st.integers(-10**6, 10**6).map(str),
                st.floats().map(repr),
                st.sampled_from(["0", "-1", "nan", "inf", "-inf", "", " ", ",", "1,", "0, nan",
                                 "0.5,-2", "true", "awgn", "rician, rayleigh", "1e999"]),
                st.text(max_size=10),
            ),
            max_size=3,
        ),
        command=st.sampled_from([None, "gen-scenes", "train", "eval", "sweep-pr",
                                 "sweep-users", "channel-bench"]),
    )
    def test_fuzzed_values_load_or_config_error(self, overrides, command):
        try:
            cfg = RunConfig.load(None, overrides, command)
        except ConfigError:
            return
        # every section class builds from what load accepted
        grid = cfg.scene_config().grid()
        CodecConfig.for_grid(grid, **cfg.section(CodecConfig))
        for key in ("eval.kinds", "sweep.kinds", "bench.kinds"):
            for kind in cfg[key]:
                cfg.channel_config(kind).validate(geometry=False)
        for phase in PHASES:
            cfg.train_config(phase).validate()
        cfg.correlated_config().validate()


class TestExitCodes:
    def test_unknown_override_exits_2(self, tmp_path, capsys):
        assert main(["gen-scenes", "--out", str(tmp_path), "--bogus.key", "1"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_checkpoint_exits_3(self, tmp_path, capsys):
        code = main(["eval", "--checkpoint", str(tmp_path / "nope.ckpt"), "--out", str(tmp_path)])
        assert code == 3

    def test_eval_without_checkpoint_exits_2(self, tmp_path):
        assert main(["eval", "--out", str(tmp_path)]) == 2

    def test_dangling_override_exits_2(self, tmp_path):
        assert main(["gen-scenes", "--out", str(tmp_path), "--gen.count"]) == 2

    @pytest.mark.parametrize("command,key,value", [
        *[(command, key, "0") for key in ("codec.num_heads", "scene.patch_size")
          for command in ("gen-scenes", "train", "eval", "sweep-pr", "sweep-users",
                          "channel-bench")],
        ("train", "codec.feature_dim", "0"),
        ("train", "codec.feature_dim", "-4"),
        ("train", "codec.num_heads", "-1"),
        ("train", "scene.patch_size", "-4"),
        ("sweep-users", "codec.symbol_dim", "0"),
        ("sweep-users", "users.jitter", "-1"),
        ("sweep-users", "users.length", "-1"),
    ])
    def test_bad_size_exits_2(self, tmp_path, capsys, command, key, value):
        assert main([command, "--out", str(tmp_path), f"--{key}", value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("key,value", [("--channel.p_s", "nan"),
                                           ("--bench.snr_db_list", "0,inf")])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, key, value):
        assert main(["channel-bench", "--out", str(tmp_path), key, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("args", [
        ["channel-bench", "--bench.snr_db_list", "4000"],
        ["channel-bench", "--bench.snr_db_list", "-4000"],
        ["eval", "--eval.snr_db_list", "4000"],
        ["sweep-pr", "--channel.snr_db", "4000"],
        ["train", "--phase", "channel", "--train.snr_lo_db", "3500", "--train.snr_hi_db", "4000"],
    ], ids=["bench-4000", "bench-minus-4000", "eval-4000", "sweep-pr-4000", "train-3500-4000"])
    def test_snr_outside_float_range_exits_2(self, tmp_path, capsys, trained_checkpoint, args):
        # 10**(snr_db/10) overflows or its inverse underflows to a zero division
        if args[0] != "channel-bench":
            args = [*args, "--checkpoint", trained_checkpoint]
        assert main([*args, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err

    @pytest.mark.parametrize("args", [
        *[pytest.param([f"--{key}", raw], id=f"{key}={raw!r}")
          for key, (tag, _) in SCHEMA.items() if tag in ("floats", "strs") for raw in (",", "")],
        # sharing needs two features a row to compare variances
        pytest.param(["--users.dim", "1"], id="users.dim=1"),
        pytest.param(["--users.source", "scenes", "--scene.patch_size", "1",
                      "--scene.channels", "1"], id="scenes-patch_dim=1"),
    ])
    def test_empty_list_or_single_feature_exits_2(self, tmp_path, capsys, args):
        run = ["sweep-users", "--out", str(tmp_path), "--users.trials", "1", "--users.k_hi", "2"]
        assert main([*run, *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err


class TestGenScenes:
    def test_roundtrip_via_loader(self, tmp_path):
        out = tmp_path / "scenes"
        assert main(["gen-scenes", "--out", str(out), "--seed", "3", "--gen.count", "4"]) == 0
        scenes = load_annotated(out)
        assert len(scenes) == 4
        for s in scenes:
            assert s.image.shape == (1, 32, 32)

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gen-scenes", "--out", str(a), "--seed", "5", "--gen.count", "2"])
        main(["gen-scenes", "--out", str(b), "--seed", "5", "--gen.count", "2"])
        fa = sorted(p.name for p in a.iterdir())
        fb = sorted(p.name for p in b.iterdir())
        assert fa == fb
        for name in fa:
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestTrain:
    def test_all_phases_write_checkpoints_and_loss_csv(self, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--phase", "all", "--out", str(out), "--seed", "7",
                     "--train.batch_size", "4", *FAST_TRAIN])
        assert code == 0
        for ph in ("codec", "channel", "whole"):
            assert (out / f"{ph}.ckpt").exists()
            assert (out / f"{ph}.ckpt.json").exists()
        header, rows = read_csv(out / "loss.csv")
        assert header == ["phase", "epoch", "batch", "loss"]
        # 3 phases x 1 epoch x ceil(8/4) batches
        assert len(rows) == 3 * 1 * 2
        assert (out / "loss.csv.meta.json").exists()

    def test_rerun_identical_outputs(self, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            main(["train", "--phase", "codec", "--out", str(out), "--seed", "7", *FAST_TRAIN])
            outs.append(out)
        assert (outs[0] / "codec.ckpt").read_bytes() == (outs[1] / "codec.ckpt").read_bytes()
        assert (outs[0] / "loss.csv").read_bytes() == (outs[1] / "loss.csv").read_bytes()

    def test_later_phase_without_prerequisite_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--phase", "whole", "--out", str(out), *FAST_TRAIN])
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_later_phase_after_prior_phase(self, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--phase", "codec", "--out", str(out), "--seed", "1", *FAST_TRAIN]) == 0
        assert main(["train", "--phase", "channel", "--out", str(out), "--seed", "1", *FAST_TRAIN]) == 0
        assert (out / "channel.ckpt").exists()


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    code = main(["train", "--phase", "all", "--out", str(out), "--seed", "11",
                 "--train.epochs", "2", "--train.scenes", "12", "--train.lr", "0.001",
                 "--codec.feature_dim", "16", "--codec.enc_layers", "1",
                 "--codec.dec_layers", "1", "--codec.num_heads", "2",
                 "--codec.symbol_dim", "4"])
    assert code == 0
    return str(out / "whole.ckpt")


class TestEval:
    def test_grid_schema_and_determinism(self, tmp_path, trained_checkpoint):
        args = ["eval", "--checkpoint", trained_checkpoint, "--seed", "3",
                "--eval.trials", "4", "--eval.snr_db_list", "10",
                "--eval.kinds", "awgn,rayleigh"]
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        assert main([*args, "--out", str(out1)]) == 0
        assert main([*args, "--out", str(out2)]) == 0
        header, rows = read_csv(out1 / "eval.csv")
        assert header[:4] == ["kind", "snr_db", "masking", "trials"]
        assert len(rows) == 4  # 2 kinds x 1 snr x 2 maskings
        maskings = {r[2] for r in rows}
        assert maskings == {"adaptive", "random"}
        assert (out1 / "eval.csv").read_bytes() == (out2 / "eval.csv").read_bytes()
        meta = json.loads((out1 / "eval.csv.meta.json").read_text())
        assert meta["config"]["eval.trials"] == 4

    def test_region_psnr_recomputable_from_dumped_images(self, tmp_path, trained_checkpoint):
        from semlink.masking import PatchGrid
        from semlink.metrics import region_metric
        from semlink.scenes import Loc
        from semlink.snapshot import load_tensors

        out = tmp_path / "dump"
        assert main(["eval", "--checkpoint", trained_checkpoint, "--seed", "8",
                     "--eval.trials", "4", "--eval.snr_db_list", "10",
                     "--eval.kinds", "awgn", "--eval.dump_images", "true",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out / "eval.csv")
        col = header.index("region_psnr_mean")
        for row in rows:
            cell_dir = out / "images" / f"awgn_10dB_{row[2]}"
            vals = []
            for t in range(4):
                pair = load_tensors(cell_dir / f"trial{t:04d}.slnk")
                meta = json.loads((cell_dir / f"trial{t:04d}.json").read_text())
                grid = PatchGrid.for_image(pair["original"].shape, meta["patch_size"])
                loc = Loc(frozenset(meta["loc"]))
                vals.append(region_metric(pair["original"], pair["reconstructed"],
                                          loc, grid, "psnr"))
            assert abs(float(row[col]) - float(np.mean(vals))) < 1e-9


class TestTruncatedCheckpoint:
    def test_eval_exits_3_when_cut_short(self, tmp_path, trained_checkpoint, capsys):
        src = Path(trained_checkpoint)
        buf = src.read_bytes()
        manifest = Path(trained_checkpoint + ".json").read_bytes()
        for cut in (0, 7, 11, 13, 20, 30, 200, len(buf) // 2, len(buf) - 1):
            ckpt = tmp_path / f"cut{cut}.ckpt"
            ckpt.write_bytes(buf[:cut])
            Path(str(ckpt) + ".json").write_bytes(manifest)
            assert main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path)]) == 3, cut
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1, err

    def test_eval_exits_3_on_complex_parameter(self, tmp_path, trained_checkpoint, capsys):
        from semlink.snapshot import load_tensors, tensor_to_bytes

        # a complex128 block (dtype tag 1), written by hand: snapshots hold Tensors only
        tensors = load_tensors(trained_checkpoint)
        parts = [b"SLNKCKPT", struct.pack("<I", len(tensors))]
        for name in sorted(tensors):
            parts += [struct.pack("<H", len(name)), name.encode()]
            if name == "chan.enc_bias":
                z = np.zeros(tensors[name].shape) + 1j
                parts += [b"SLNK", struct.pack(f"<BB{z.ndim}Q", 1, z.ndim, *z.shape),
                          z.astype("<c16").tobytes()]
            else:
                parts.append(tensor_to_bytes(tensors[name]))
        ckpt = tmp_path / "complex.ckpt"
        ckpt.write_bytes(b"".join(parts))
        Path(str(ckpt) + ".json").write_bytes(Path(trained_checkpoint + ".json").read_bytes())
        assert main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "chan.enc_bias" in err

    @pytest.mark.parametrize("section,key,value", [
        ("grid", "patch_size", "4"), ("grid", "patch_size", 4.0),
        (None, "symbol_dim", 0), ("grid", "grid_h", -8),
        ("codec", "num_patches", 100), ("codec", "patch_dim", 3),
    ])
    def test_eval_exits_3_on_malformed_manifest(self, tmp_path, trained_checkpoint, capsys,
                                                section, key, value):
        manifest = json.loads(Path(trained_checkpoint + ".json").read_text())
        (manifest[section] if section else manifest)[key] = value
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(Path(trained_checkpoint).read_bytes())
        Path(str(ckpt) + ".json").write_text(json.dumps(manifest))
        assert main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err


class TestSweepPr:
    def test_grid_coverage_and_summary(self, tmp_path, trained_checkpoint):
        out = tmp_path / "pr"
        code = main(["sweep-pr", "--checkpoint", trained_checkpoint, "--out", str(out),
                     "--seed", "2", "--sweep.trials", "3",
                     "--sweep.pr_list", "0.1,0.3,0.5", "--sweep.kinds", "awgn,rayleigh"])
        assert code == 0
        header, rows = read_csv(out / "sweep_pr.csv")
        assert header[:2] == ["kind", "p_r"]
        assert len(rows) == 6  # 3 p_r x 2 kinds
        for kind in ("awgn", "rayleigh"):
            prs = [float(r[1]) for r in rows if r[0] == kind]
            assert prs == sorted(prs) and len(set(prs)) == len(prs)
        summary = json.loads((out / "sweep_pr_summary.json").read_text())
        assert set(summary) == {"awgn", "rayleigh"}
        for kind in summary:
            assert summary[kind]["p_r"] in (0.1, 0.3, 0.5)

    def test_requires_checkpoint_or_flag(self, tmp_path):
        assert main(["sweep-pr", "--out", str(tmp_path / "x")]) == 2


class TestSweepUsers:
    def test_eps_zero_gives_zero_savings(self, tmp_path):
        out = tmp_path / "u"
        code = main(["sweep-users", "--out", str(out), "--seed", "4",
                     "--users.trials", "5", "--users.eps_list", "0",
                     "--users.k_hi", "4"])
        assert code == 0
        header, rows = read_csv(out / "sweep_users.csv")
        assert header == ["k", "epsilon", "trials", "savings_mean", "savings_std", "l_pub_mean"]
        assert all(float(r[3]) == 0.0 for r in rows)
        # per-trial partition log: one JSON line per (eps, K, trial)
        lines = [json.loads(l) for l in (out / "sweep_users.jsonl").read_text().splitlines()]
        assert len(lines) == 3 * 5
        assert {"trial", "K", "eps", "L_pub", "savings"} <= set(lines[0])
        assert all(l["savings"] == 0.0 and l["L_pub"] == 0 for l in lines)

    def test_k_axis_covers_2_to_10(self, tmp_path):
        out = tmp_path / "u10"
        code = main(["sweep-users", "--out", str(out), "--seed", "4",
                     "--users.trials", "2", "--users.eps_list", "0.1"])
        assert code == 0
        _, rows = read_csv(out / "sweep_users.csv")
        assert [int(r[0]) for r in rows] == list(range(2, 11))

    def test_larger_epsilon_never_saves_less(self, tmp_path):
        out = tmp_path / "ue"
        code = main(["sweep-users", "--out", str(out), "--seed", "4",
                     "--users.trials", "10", "--users.eps_list", "0.05,0.2",
                     "--users.k_hi", "6"])
        assert code == 0
        _, rows = read_csv(out / "sweep_users.csv")
        lo = {int(r[0]): float(r[3]) for r in rows if float(r[1]) == 0.05}
        hi = {int(r[0]): float(r[3]) for r in rows if float(r[1]) == 0.2}
        for k in lo:
            assert hi[k] >= lo[k]

    def test_scene_source_mode(self, tmp_path):
        out = tmp_path / "us"
        code = main(["sweep-users", "--out", str(out), "--seed", "4",
                     "--users.trials", "2", "--users.eps_list", "0.1",
                     "--users.k_hi", "3", "--users.source", "scenes"])
        assert code == 0
        _, rows = read_csv(out / "sweep_users.csv")
        assert len(rows) == 2


class TestChannelBench:
    def test_schema_and_near_noiseless_limit(self, tmp_path):
        out = tmp_path / "cb"
        code = main(["channel-bench", "--out", str(out), "--seed", "6",
                     "--bench.trials", "60", "--bench.kinds", "awgn",
                     "--bench.snr_db_list", "0,20,40", "--bench.csi_var_list", "0"])
        assert code == 0
        header, rows = read_csv(out / "channel_bench.csv")
        assert header == ["kind", "snr_db", "csi_var", "nmse_mean", "nmse_std"]
        nmse_by_snr = {float(r[1]): float(r[3]) for r in rows}
        assert nmse_by_snr[40.0] < 1e-3
        assert nmse_by_snr[0.0] > nmse_by_snr[20.0] > nmse_by_snr[40.0]

    @pytest.mark.parametrize("kind,n_t,n_r,p_s,csi_var,n_sym", [
        ("awgn", 1, 1, 1.0, 0.0, 64),
        ("rayleigh", 4, 4, 4.0, 0.05, 64),
        ("rician", 2, 3, 1.0, 0.01, 63),  # 63 symbols over 2 antennas: one padding slot
    ])
    def test_batched_cell_matches_per_trial_loop(self, kind, n_t, n_r, p_s, csi_var, n_sym):
        chan_cfg = ChannelConfig(kind=kind, snr_db=10.0, n_t=n_t, n_r=n_r,
                                 csi_error_var=csi_var, p_s=p_s)
        base = RngStream(6, 0x5B).substream(11)
        batched = _bench_cell(chan_cfg, base, 25, n_sym)
        looped = []
        for t in range(25):
            rng = base.substream(t)
            x = normalize_power(rng.complex_normal((n_sym, 1), 0.0, 1.0)[None], p_s)
            frame = draw_channel(chan_cfg, [rng.substream(1)])
            looped.append(nmse(x, transmit_detect(x, frame, [rng.substream(2)]))[0])
        np.testing.assert_array_equal(batched, np.asarray(looped))

    def test_awgn_rows_equal_at_every_csi_error(self, tmp_path):
        assert main(["channel-bench", "--out", str(tmp_path), "--seed", "5",
                     "--bench.trials", "20", "--bench.kinds", "awgn,rayleigh",
                     "--bench.snr_db_list", "0,20", "--bench.csi_var_list", "0,0.05"]) == 0
        _, rows = read_csv(tmp_path / "channel_bench.csv")
        cells = {(r[0], r[1], r[2]): r[3:] for r in rows}
        for snr in ("0.0", "20.0"):
            assert cells[("awgn", snr, "0.05")] == cells[("awgn", snr, "0.0")]
            assert cells[("rayleigh", snr, "0.05")] != cells[("rayleigh", snr, "0.0")]

    def test_non_square_mimo_runs_without_awgn(self, tmp_path):
        args = ["channel-bench", "--out", str(tmp_path), "--bench.trials", "3",
                "--bench.snr_db_list", "10", "--bench.csi_var_list", "0",
                "--channel.n_t", "2", "--channel.n_r", "3"]
        assert main([*args, "--bench.kinds", "rayleigh,rician"]) == 0
        _, rows = read_csv(tmp_path / "channel_bench.csv")
        assert [r[0] for r in rows] == ["rayleigh", "rician"]

    def test_non_square_awgn_exits_2(self, tmp_path, capsys):
        args = ["channel-bench", "--out", str(tmp_path), "--bench.kinds", "awgn",
                "--channel.n_t", "2", "--channel.n_r", "3"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "n_t == n_r" in err
