import csv
import json
import struct
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from semlink import cli
from semlink.channel import ChannelConfig, draw_channel
from semlink.cli import (_S_BENCH, _S_EVAL, _S_SWEEP, _bench_cell, _fresh_scene_with_loc,
                         hash_key, main)
from semlink.codec import CodecConfig
from semlink.config import SCHEMA, RunConfig
from semlink.errors import ConfigError
from semlink.link import LinkModel, evaluate_link, fading_stage
from semlink.masking import random_mask
from semlink.metrics import image_report, nmse
from semlink.rng import RngStream, complex_normal_stack
from semlink.scenes import CorrelatedConfig, SceneConfig, load_annotated
from semlink.tensor import no_grad
from semlink.training import PHASES, TrainConfig, sample_nonempty_mask

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
            for kind in cfg[key]:  # a kind the command does not draw need not fit the antennas
                cfg.channel_config(kind, n_r=cfg["channel.n_t"])
        for phase in PHASES:
            cfg.train_config(phase)
        cfg.correlated_config()

    @pytest.mark.parametrize("cls,invalid", [
        (SceneConfig, {"height": 30}),
        (CorrelatedConfig, {"jitter": -1.0}),
        (CodecConfig, {"feature_dim": 10, "num_heads": 4}),
        (ChannelConfig, {"kind": "awgn", "n_t": 2, "n_r": 1}),
        (TrainConfig, {"mask_prob": 1.5}),
    ], ids=lambda p: p.__name__ if isinstance(p, type) else None)
    def test_section_class_valid_by_construction(self, cls, invalid):
        with pytest.raises(ConfigError):
            cls(**invalid)
        with pytest.raises(ConfigError):  # replace re-checks through __init__
            replace(cls(), **invalid)
        valid = cls()
        name, value = next(iter(invalid.items()))
        with pytest.raises(FrozenInstanceError):
            setattr(valid, name, value)


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

    @pytest.mark.parametrize("command", [None, "channel-bench"])
    def test_negative_csi_var_rejected_at_load(self, command):
        with pytest.raises(ConfigError, match="csi_error_var"):
            RunConfig.load(None, {"bench.csi_var_list": "0,-1"}, command=command)

    def test_negative_csi_var_exits_2_before_any_cell(self, tmp_path, capsys):
        assert main(["channel-bench", "--out", str(tmp_path), "--bench.csi_var_list", "0,-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert not (tmp_path / "channel_bench.csv").exists()

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

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("# caf\xe9\nseed = 1\n".encode("latin-1"))
        assert main(["gen-scenes", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err

    def test_config_directory_exits_2(self, tmp_path, capsys):
        assert main(["gen-scenes", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err

    def test_checkpoint_directory_next_to_manifest_exits_3(self, tmp_path, capsys,
                                                           trained_checkpoint):
        ckpt = tmp_path / "model.ckpt"
        ckpt.mkdir()
        Path(str(ckpt) + ".json").write_bytes(Path(trained_checkpoint + ".json").read_bytes())
        assert main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "o"),
                     "--eval.trials", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err

    @pytest.mark.parametrize("args", [
        ["train", "--phase", "codec", *FAST_TRAIN],
        ["channel-bench", "--bench.trials", "2"],
        ["sweep-users", "--users.trials", "1", "--users.k_hi", "2"],
        ["gen-scenes", "--gen.count", "1"],
        ["eval", "--eval.trials", "2"],
        ["sweep-pr", "--sweep.trials", "2", "--sweep.pr_list", "0.2,0.6"],
    ], ids=lambda args: args[0])
    def test_out_path_is_a_file_exits_3(self, tmp_path, capsys, monkeypatch, request, args):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran before --out was checked")

        monkeypatch.setattr(cli, "run_trials", no_trial)
        monkeypatch.setattr(cli, "_bench_cell", no_trial)
        monkeypatch.setattr(cli, "complex_normal_stack", no_trial)
        if args[0] in ("eval", "sweep-pr"):
            args = [*args, "--checkpoint", request.getfixturevalue("trained_checkpoint")]
        out = tmp_path / "taken"
        out.write_text("")
        assert main([*args, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err

    @pytest.mark.parametrize("args", [
        ["--eval.kinds", "awgn,rayleigh,awgn"],
        ["--eval.snr_db_list", "10,10.000001"],
    ], ids=["kind-twice", "snr-equal-under-g"])
    def test_eval_dumps_sharing_a_directory_exit_2(self, tmp_path, capsys, args):
        code = main(["eval", "--checkpoint", str(tmp_path / "missing.ckpt"), "--out",
                     str(tmp_path), "--eval.dump_images", "true", *args])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert not (tmp_path / "images").exists()

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

    @pytest.mark.parametrize("args,code", [
        # at seed 4 a drawn 1x1 CSI error overflows detection to NaN
        (["channel-bench", "--seed", "4", "--bench.csi_var_list", "1.7e308"], 3),
        (["sweep-users", "--users.k_hi", "4", "--users.share_decay", "1e308"], 2),
        (["sweep-users", "--users.source", "scenes", "--users.jitter", "1e308"], 2),
        (["sweep-users", "--users.jitter", "1e200"], 3),
    ], ids=["csi-overflow", "share-decay-power", "scenes-jitter", "synthetic-jitter"])
    def test_numeric_setting_outside_float_range_exits_with_one_line(self, tmp_path, capsys,
                                                                     args, code):
        run = [*args, "--out", str(tmp_path), "--bench.trials", "2", "--users.trials", "2"]
        assert main(run) == code
        err = capsys.readouterr().err
        assert err.startswith(("config error:", "error:")) and err.count("\n") == 1, err

    @pytest.mark.parametrize("command", ["eval", "sweep-pr", "channel-bench"])
    def test_csi_error_overflowing_detection_exits_3_with_one_line(self, tmp_path, capsys,
                                                                   trained_checkpoint, command):
        # n_t * csi_error_var is inf, so the L-MMSE system of every fading trial is NaN
        mimo = ["--channel.n_t", "4", "--channel.n_r", "4"]
        run = {
            "eval": ["eval", "--checkpoint", trained_checkpoint, "--eval.kinds", "rayleigh",
                     "--eval.trials", "2", "--channel.csi_error_var", "1.7e308"],
            "sweep-pr": ["sweep-pr", "--checkpoint", trained_checkpoint, "--sweep.kinds",
                         "rayleigh", "--sweep.trials", "2", "--channel.csi_error_var", "1.7e308"],
            "channel-bench": ["channel-bench", "--bench.trials", "2",
                              "--bench.csi_var_list", "1.7e308"],
        }[command]
        assert main([*run, *mimo, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err


_FLOAT_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["0", "-1", "1e-300", "5e-324", "1e300", "1e308", "-1e308", "1.7e308",
                     "1e154", "1e200", "8.99e307", "nan", "inf"]),
)
_KIND_LIST = st.lists(st.sampled_from(["awgn", "rayleigh", "rician"]), min_size=1,
                      max_size=3).map(",".join)
_LIST_OF_FLOATS = st.lists(_FLOAT_TEXT, min_size=1, max_size=3).map(",".join)
# every float and list key; count keys stay at the tiny sizes below
_VALUE_KEYS = sorted(k for k, (tag, _) in SCHEMA.items() if tag in ("float", "floats", "strs"))
_TINY_RUNS = {
    "channel-bench": ["channel-bench", "--bench.trials", "2", "--bench.symbols", "3"],
    "sweep-users": ["sweep-users", "--users.trials", "1", "--users.k_hi", "3",
                    "--users.length", "4", "--users.dim", "3"],
    "sweep-users-scenes": ["sweep-users", "--users.trials", "1", "--users.k_hi", "3",
                           "--users.source", "scenes"],
}

# the commands that load a model, run with the trained_checkpoint fixture
_CHECKPOINT_RUNS = {
    "eval": ["eval", "--eval.trials", "1"],
    "sweep-pr": ["sweep-pr", "--sweep.trials", "2"],
}


@st.composite
def _overrides(draw):
    keys = draw(st.lists(st.sampled_from(_VALUE_KEYS), min_size=1, max_size=3, unique=True))
    out = []
    for key in keys:
        tag = SCHEMA[key][0]
        value = draw(_FLOAT_TEXT if tag == "float" else
                     _LIST_OF_FLOATS if tag == "floats" else _KIND_LIST)
        out += [f"--{key}", value]
    return out


class TestExitCodeProperty:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(run=st.sampled_from(sorted(_TINY_RUNS)), overrides=_overrides())
    def test_float_and_list_values_exit_0_2_or_3(self, tmp_path, run, overrides):
        # RuntimeWarning is an error under the test settings, so an overflow
        # that a run lets pass silently fails here too
        assert main([*_TINY_RUNS[run], *overrides, "--out", str(tmp_path)]) in (0, 2, 3)

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(run=st.sampled_from(sorted(_CHECKPOINT_RUNS)), overrides=_overrides())
    def test_checkpoint_commands_exit_0_2_or_3(self, tmp_path, trained_checkpoint, run,
                                               overrides):
        assert main([*_CHECKPOINT_RUNS[run], *overrides, "--checkpoint", trained_checkpoint,
                     "--out", str(tmp_path)]) in (0, 2, 3)


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

    def test_rician_surrogate_follows_channel_rician_r(self, tmp_path):
        def loss_csv(*args):
            out = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
            assert main(["train", "--phase", "all", "--out", str(out), "--seed", "7",
                         *FAST_TRAIN, *args]) == 0
            return (out / "loss.csv").read_bytes()

        rician = ["--train.surrogate_kind", "rician"]
        assert (loss_csv(*rician, "--channel.rician_r", "1")
                != loss_csv(*rician, "--channel.rician_r", "5"))
        # the awgn surrogate has no Rician factor
        assert loss_csv("--channel.rician_r", "1") == loss_csv("--channel.rician_r", "5")

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
                loc = np.array(sorted(meta["loc"]), dtype=np.intp)
                vals.append(region_metric(pair["original"], pair["reconstructed"],
                                          loc, grid, "psnr"))
            assert abs(float(row[col]) - float(np.mean(vals))) < 1e-9


def reference_eval_trial(cfg, model, chan_cfg, masking, mask_prob, trial_rng):
    """One arm of one eval trial in one cell, drawn and encoded on its own:
    scene and plans from trial_rng, frame and noise from its kind's substream."""
    grid = model.grid
    scene, loc = _fresh_scene_with_loc(cfg, trial_rng.substream(1), grid)
    plan = sample_nonempty_mask(grid, loc, mask_prob, trial_rng.substream(2))
    if masking == "random":
        plan = random_mask(grid, plan.keep_count, trial_rng.substream(3))
    kind_rng = trial_rng.substream(hash_key(chan_cfg.kind))
    frame = draw_channel(chan_cfg, [kind_rng.substream(4)])
    with no_grad():
        res = evaluate_link(model, scene.image, plan, chan_cfg, kind_rng.substream(5), frame=frame)
    return image_report(scene.image, res.image, loc, grid)


_MIMO_EVAL = ["--eval.trials", "3", "--eval.snr_db_list", "0,10",
              "--eval.kinds", "awgn,rayleigh,rician", "--channel.n_t", "2", "--channel.n_r", "2",
              "--channel.p_s", "4", "--channel.csi_error_var", "0.02"]


class TestEvalPairedArms:
    def test_rows_match_per_arm_reference(self, tmp_path, trained_checkpoint):
        assert main(["eval", "--checkpoint", trained_checkpoint, "--seed", "5", *_MIMO_EVAL,
                     "--out", str(tmp_path)]) == 0
        cfg = RunConfig.load(None, {"seed": "5", **{k[2:]: v for k, v in
                                                    zip(_MIMO_EVAL[::2], _MIMO_EVAL[1::2])}},
                             command="eval")
        model = LinkModel.load(trained_checkpoint)
        expected = []
        for kind in ("awgn", "rayleigh", "rician"):
            for snr_db in (0.0, 10.0):
                chan_cfg = cfg.channel_config(kind=kind, snr_db=snr_db)
                base = RngStream(5, _S_EVAL)
                for masking in ("adaptive", "random"):
                    vals = np.asarray([
                        [r.psnr_db, r.ssim, r.region_psnr_db, r.region_ssim]
                        for r in (reference_eval_trial(cfg, model, chan_cfg, masking,
                                                       cfg["eval.mask_prob"], base.substream(t))
                                  for t in range(3))])
                    stats = [v for pair in zip(vals.mean(axis=0), vals.std(axis=0)) for v in pair]
                    expected.append([kind, repr(snr_db), masking, "3",
                                     *(repr(float(v)) for v in stats)])
        _, rows = read_csv(tmp_path / "eval.csv")
        assert rows == expected

    def test_dumped_arms_share_the_scene_and_the_patch_budget(self, tmp_path, trained_checkpoint):
        from semlink.snapshot import load_tensors

        assert main(["eval", "--checkpoint", trained_checkpoint, "--seed", "6", *_MIMO_EVAL,
                     "--eval.dump_images", "true", "--out", str(tmp_path)]) == 0
        cells = sorted(d.name[:-len("_adaptive")] for d in (tmp_path / "images").iterdir()
                       if d.name.endswith("_adaptive"))
        assert len(cells) == 6
        for cell in cells:
            adaptive, rand = (tmp_path / "images" / f"{cell}_{m}" for m in ("adaptive", "random"))
            for t in range(3):
                a, r = (load_tensors(d / f"trial{t:04d}.slnk") for d in (adaptive, rand))
                np.testing.assert_array_equal(a["original"].data, r["original"].data)
                assert not np.array_equal(a["reconstructed"].data, r["reconstructed"].data)
                plan_a, plan_r = (json.loads((d / f"trial{t:04d}.json").read_text())["plan"]
                                  for d in (adaptive, rand))
                assert len(plan_a["keep"]) == len(plan_r["keep"]) > 0
                assert plan_r["object"] == []

    def test_trial_original_and_plans_identical_in_every_cell(self, tmp_path,
                                                               trained_checkpoint):
        from semlink.snapshot import load_tensors

        assert main(["eval", "--checkpoint", trained_checkpoint, "--seed", "6", *_MIMO_EVAL,
                     "--eval.dump_images", "true", "--out", str(tmp_path)]) == 0
        dirs = sorted((tmp_path / "images").iterdir())
        assert len(dirs) == 12  # 3 kinds x 2 SNRs x 2 maskings
        for t in range(3):
            originals = [load_tensors(d / f"trial{t:04d}.slnk")["original"].data for d in dirs]
            for original in originals[1:]:
                np.testing.assert_array_equal(original, originals[0])
            for masking in ("adaptive", "random"):
                metas = {(d / f"trial{t:04d}.json").read_text()
                         for d in dirs if d.name.endswith(f"_{masking}")}
                assert len(metas) == 1, masking


class TestEncodeOncePerTrial:
    """A trial draws its scene and encodes each arm once for all its cells."""

    @staticmethod
    def count_calls(monkeypatch, args):
        from semlink import link

        counts = {"scene": 0, "encode": 0}

        def counted(name, fn):
            def wrapper(*a, **k):
                counts[name] += 1
                return fn(*a, **k)
            return wrapper

        monkeypatch.setattr(cli, "generate_scene", counted("scene", cli.generate_scene))
        monkeypatch.setattr(link, "encode", counted("encode", link.encode))
        assert main(args) == 0
        return counts

    @pytest.mark.parametrize("trials", [1, 3])
    def test_eval_draws_and_encodes_each_trial_once(self, tmp_path, monkeypatch,
                                                     trained_checkpoint, trials):
        counts = self.count_calls(monkeypatch, [
            "eval", "--checkpoint", trained_checkpoint, "--seed", "4", "--out", str(tmp_path),
            "--eval.trials", str(trials), "--eval.snr_db_list", "0,10",
            "--eval.kinds", "awgn,rayleigh,rician"])
        assert counts == {"scene": trials, "encode": 2 * trials}

    def test_sweep_pr_draws_each_trial_once_and_encodes_once_per_p_r(
            self, tmp_path, monkeypatch, trained_checkpoint):
        counts = self.count_calls(monkeypatch, [
            "sweep-pr", "--checkpoint", trained_checkpoint, "--seed", "4", "--out", str(tmp_path),
            "--sweep.trials", "2", "--sweep.pr_list", "0.1,0.3,0.5",
            "--sweep.kinds", "awgn,rayleigh"])
        assert counts == {"scene": 2, "encode": 6}


class TestCheckpointGrid:
    @pytest.mark.parametrize("args", [
        ["eval", "--scene.height", "16"],
        ["sweep-pr", "--scene.channels", "3"],
        ["train", "--phase", "codec", "--scene.patch_size", "8", *FAST_TRAIN],
    ], ids=["eval-height", "sweep-pr-channels", "train-patch-size"])
    def test_checkpoint_grid_other_than_scene_exits_2(self, tmp_path, capsys,
                                                       trained_checkpoint, args):
        code = main([*args, "--checkpoint", trained_checkpoint, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert err.count("PatchGrid(") == 2, err
        assert not list(tmp_path.glob("*.csv"))

    def test_prior_phase_grid_other_than_scene_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--phase", "codec", "--out", str(out), *FAST_TRAIN]) == 0
        capsys.readouterr()
        assert main(["train", "--phase", "channel", "--out", str(out), *FAST_TRAIN,
                     "--scene.patch_size", "8"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert not (out / "channel.ckpt").exists()


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
        ("grid", "channels", True), (None, "symbol_dim", 4.5), ("codec", "feature_dim", 16.5),
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


def reference_sweep_pr(cfg, models, trials):
    """sweep_pr.csv rows and the summary rebuilt one (kind, p_r) cell at a
    time: each trial drawn on its own and sent alone through evaluate_link."""
    grid = cfg.scene_config().grid()
    base = RngStream(cfg["seed"], _S_SWEEP)
    rows, best = [], {}
    for kind in cfg["sweep.kinds"]:
        chan_cfg = cfg.channel_config(kind=kind)
        for p_r in cfg["sweep.pr_list"]:
            vals = []
            for t in range(trials):
                trial_rng = base.substream(t)
                scene, loc = _fresh_scene_with_loc(cfg, trial_rng.substream(1), grid)
                plan = sample_nonempty_mask(grid, loc, p_r, trial_rng.substream(2))
                kind_rng = trial_rng.substream(hash_key(kind))
                frame = draw_channel(chan_cfg, [kind_rng.substream(4)])
                with no_grad():
                    res = evaluate_link(models[p_r], scene.image, plan, chan_cfg,
                                        kind_rng.substream(5), frame=frame)
                rep = image_report(scene.image, res.image, loc, grid)
                vals.append([rep.region_psnr_db, rep.region_ssim])
            vals = np.asarray(vals)
            stats = [float(v) for pair in zip(vals.mean(axis=0), vals.std(axis=0)) for v in pair]
            rows.append([kind, repr(p_r), str(trials), *map(repr, stats)])
            if kind not in best or stats[0] > best[kind]["region_psnr_mean"]:
                best[kind] = {"p_r": p_r, "region_psnr_mean": stats[0]}
    return rows, best


class TestSweepPr:
    def test_rows_match_per_cell_reference_with_checkpoint(self, tmp_path, trained_checkpoint):
        args = {"seed": "8", "sweep.trials": "3", "sweep.pr_list": "0.1,0.3,0.5",
                "sweep.kinds": "awgn,rayleigh,rician", "channel.n_t": "2", "channel.n_r": "2",
                "channel.csi_error_var": "0.02"}
        assert main(["sweep-pr", "--checkpoint", trained_checkpoint, "--out", str(tmp_path),
                     *[a for k, v in args.items() for a in (f"--{k}", v)]]) == 0
        cfg = RunConfig.load(None, args, command="sweep-pr")
        model = LinkModel.load(trained_checkpoint)
        rows, best = reference_sweep_pr(cfg, dict.fromkeys(cfg["sweep.pr_list"], model), 3)
        assert read_csv(tmp_path / "sweep_pr.csv")[1] == rows
        assert json.loads((tmp_path / "sweep_pr_summary.json").read_text()) == best

    def test_rows_match_per_cell_reference_with_a_model_per_p_r(self, tmp_path, monkeypatch):
        models = {}
        train_for_pr = cli._train_for_pr
        monkeypatch.setattr(cli, "_train_for_pr", lambda cfg, p_r, scenes: models.setdefault(
            p_r, train_for_pr(cfg, p_r, scenes)))
        args = {"seed": "9", "sweep.train_per_pr": "true", "sweep.trials": "2",
                "sweep.pr_list": "0.2,0.6", "sweep.kinds": "awgn,rayleigh",
                **{k[2:]: v for k, v in zip(FAST_TRAIN[::2], FAST_TRAIN[1::2])}}
        assert main(["sweep-pr", "--out", str(tmp_path),
                     *[a for k, v in args.items() for a in (f"--{k}", v)]]) == 0
        cfg = RunConfig.load(None, args, command="sweep-pr")
        assert models[0.2] is not models[0.6]
        rows, best = reference_sweep_pr(cfg, models, 2)
        assert read_csv(tmp_path / "sweep_pr.csv")[1] == rows
        assert json.loads((tmp_path / "sweep_pr_summary.json").read_text()) == best

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

    def test_checkpoint_with_train_per_pr_exits_2(self, tmp_path, capsys, trained_checkpoint):
        assert main(["sweep-pr", "--checkpoint", trained_checkpoint, "--out", str(tmp_path),
                     "--sweep.train_per_pr", "true", "--sweep.trials", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert not (tmp_path / "sweep_pr.csv").exists()

    def test_train_per_pr_without_checkpoint(self, tmp_path):
        code = main(["sweep-pr", "--out", str(tmp_path), "--seed", "2", "--sweep.train_per_pr",
                     "true", "--sweep.trials", "2", "--sweep.pr_list", "0.2,0.6",
                     "--sweep.kinds", "awgn,rayleigh", *FAST_TRAIN])
        assert code == 0
        _, rows = read_csv(tmp_path / "sweep_pr.csv")
        assert [(r[0], float(r[1])) for r in rows] == [
            (kind, p_r) for kind in ("awgn", "rayleigh") for p_r in (0.2, 0.6)]

    def test_train_per_pr_trains_each_p_r_once(self, tmp_path, monkeypatch):
        calls = []
        train_for_pr = cli._train_for_pr
        monkeypatch.setattr(cli, "_train_for_pr",
                            lambda cfg, p_r, scenes:
                            calls.append(p_r) or train_for_pr(cfg, p_r, scenes))
        code = main(["sweep-pr", "--out", str(tmp_path), "--seed", "2", "--sweep.train_per_pr",
                     "true", "--sweep.trials", "1", "--sweep.pr_list", "0.2,0.6",
                     "--sweep.kinds", "awgn,rayleigh", *FAST_TRAIN])
        assert code == 0
        assert calls == [0.2, 0.6]

    def test_train_per_pr_builds_training_scenes_once(self, tmp_path, monkeypatch):
        calls = []
        training_scenes = cli._training_scenes
        monkeypatch.setattr(cli, "_training_scenes",
                            lambda cfg: calls.append(cfg) or training_scenes(cfg))
        code = main(["sweep-pr", "--out", str(tmp_path), "--seed", "2", "--sweep.train_per_pr",
                     "true", "--sweep.trials", "1", "--sweep.pr_list", "0.2,0.6",
                     "--sweep.kinds", "awgn", *FAST_TRAIN])
        assert code == 0
        assert len(calls) == 1


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

    @pytest.mark.parametrize("source", ["synthetic", "scenes"])
    def test_every_epsilon_partitions_the_same_draw(self, tmp_path, source):
        run = ["sweep-users", "--seed", "4", "--users.trials", "50", "--users.k_hi", "4",
               "--users.source", source]
        assert main([*run, "--users.eps_list", "0.05,0.1,0.2", "--out", str(tmp_path / "all")]) == 0
        assert main([*run, "--users.eps_list", "0.1", "--out", str(tmp_path / "one")]) == 0
        text = (tmp_path / "all" / "sweep_users.jsonl").read_text().splitlines()
        lines = [json.loads(l) for l in text]
        per_draw = {}
        for l in lines:
            per_draw.setdefault((l["K"], l["trial"]), []).append(l)
        assert len(per_draw) == 3 * 50
        for seq in per_draw.values():
            assert [l["eps"] for l in seq] == [0.05, 0.1, 0.2]
            for lo, hi in zip(seq, seq[1:]):
                assert hi["L_pub"] >= lo["L_pub"] and hi["savings"] >= lo["savings"], seq
        # a run at one eps reproduces that eps's lines of the three-eps run bit for bit
        alone = (tmp_path / "one" / "sweep_users.jsonl").read_text().splitlines()
        assert alone == [t for t, l in zip(text, lines) if l["eps"] == 0.1]

    def test_epsilon_above_every_divergence_shares_every_position(self, tmp_path):
        out = tmp_path / "uall"
        assert main(["sweep-users", "--out", str(out), "--seed", "4", "--users.trials", "3",
                     "--users.k_hi", "5", "--users.eps_list", "1e308"]) == 0
        lines = [json.loads(l) for l in (out / "sweep_users.jsonl").read_text().splitlines()]
        assert len(lines) == 4 * 3
        for l in lines:
            assert l["L_pub"] == 32 and l["savings"] == (l["K"] - 1) / l["K"], l

    def test_side_info_count_subtracts_public_rows(self, tmp_path):
        run = ["sweep-users", "--seed", "4", "--users.trials", "5", "--users.k_hi", "5",
               "--users.eps_list", "0.05,0.2", "--codec.symbol_dim", "6"]
        assert main([*run, "--out", str(tmp_path / "plain")]) == 0
        assert main([*run, "--out", str(tmp_path / "side"), "--users.count_side_info", "true"]) == 0
        plain, side = ([json.loads(l) for l in (tmp_path / d / "sweep_users.jsonl").read_text()
                        .splitlines()] for d in ("plain", "side"))
        assert len(plain) == len(side) == 2 * 4 * 5
        assert any(p["L_pub"] for p in plain)
        for p, s in zip(plain, side):
            assert (s["trial"], s["K"], s["eps"], s["L_pub"]) == (p["trial"], p["K"], p["eps"],
                                                                  p["L_pub"])
            expected = p["savings"] - p["L_pub"] / (p["K"] * 32 * 6)
            assert s["savings"] == pytest.approx(expected, rel=0, abs=1e-12)


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
        streams = [base.substream(t) for t in range(25)]
        batched = _bench_cell(chan_cfg, complex_normal_stack(streams, (n_sym, 1), 0.0, 1.0),
                              streams)
        looped = []
        for t in range(25):
            rng = base.substream(t)
            x = rng.complex_normal((n_sym, 1), 0.0, 1.0)[None]
            looped.append(nmse(x, fading_stage(x, chan_cfg, [rng]))[0])
        np.testing.assert_array_equal(batched, np.asarray(looped))

    def test_rows_match_bench_cell_over_per_kind_trial_streams(self, tmp_path):
        args = {"seed": "7", "bench.trials": "5", "bench.symbols": "9",
                "bench.kinds": "awgn,rayleigh,rician", "bench.snr_db_list": "0,10,10.0004",
                "bench.csi_var_list": "0,4e-7,0.05", "channel.n_t": "2", "channel.n_r": "2"}
        assert main(["channel-bench", "--out", str(tmp_path),
                     *[a for k, v in args.items() for a in (f"--{k}", v)]]) == 0
        cfg = RunConfig.load(None, args, command="channel-bench")
        rows = []
        for kind in cfg["bench.kinds"]:
            for snr_db in cfg["bench.snr_db_list"]:
                for csi_var in cfg["bench.csi_var_list"]:
                    # fresh streams per cell: no cell may depend on the cells before it
                    streams = [RngStream(7, _S_BENCH).substream(hash_key(kind), t)
                               for t in range(5)]
                    x = complex_normal_stack(streams, (9, 1), 0.0, 1.0)
                    vals = _bench_cell(cfg.channel_config(kind=kind, snr_db=snr_db,
                                                          csi_error_var=csi_var), x, streams)
                    rows.append([kind, repr(snr_db), repr(csi_var),
                                 repr(float(vals.mean())), repr(float(vals.std()))])
        assert read_csv(tmp_path / "channel_bench.csv")[1] == rows

    def test_huge_symbol_power_gives_the_unit_power_nmse(self, tmp_path):
        run = ["channel-bench", "--seed", "3", "--bench.trials", "40"]
        assert main([*run, "--out", str(tmp_path / "unit")]) == 0
        assert main([*run, "--out", str(tmp_path / "huge"), "--channel.p_s", "1e308"]) == 0
        _, unit = read_csv(tmp_path / "unit" / "channel_bench.csv")
        _, huge = read_csv(tmp_path / "huge" / "channel_bench.csv")
        assert [r[:3] for r in huge] == [r[:3] for r in unit] and len(unit) == 27
        np.testing.assert_allclose([float(r[3]) for r in huge], [float(r[3]) for r in unit],
                                   rtol=1e-9)

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
