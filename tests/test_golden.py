"""Golden digest: the sha256 of every output of a tiny run of every command.

The run: gen-scenes (2 scenes); train --phase all (8 scenes, one epoch);
eval (4 trials over awgn, rayleigh and rician at CSI 0.02, with dumped
images) and sweep-pr (4 trials at p_r 0.1, 0.5 and 0.9) on that checkpoint;
sweep-users (20 trials); channel-bench (100 trials at 1x1, and at 4x4 with
p_s 4).  In the .meta.json sidecars the --checkpoint path is reduced to its
file name, so the digest does not depend on the run directory.  One more
entry hashes sharing.transport's outputs for K = 2..10 over three kinds.

The digest, in tests/golden.json, was made with the numpy, BLAS and Python
versions it records; elsewhere the test fails and names the difference
rather than comparing bits across libraries.  A change that alters the bits
of an output rewrites the digest with

    PYTHONPATH=src python tests/test_golden.py --write

and declares the numerics change.
"""

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from semlink import chancodec, sharing
from semlink.channel import ChannelConfig
from semlink.cli import main
from semlink.rng import RngStream

GOLDEN = Path(__file__).with_name("golden.json")

_RUNS = [
    ("gen", ["gen-scenes", "--seed", "3", "--gen.count", "2"]),
    ("train", ["train", "--phase", "all", "--seed", "7", "--train.scenes", "8",
               "--train.epochs", "1"]),
    ("eval", ["eval", "--seed", "5", "--eval.trials", "4", "--eval.kinds", "awgn,rayleigh,rician",
              "--channel.csi_error_var", "0.02", "--eval.dump_images", "true"]),
    ("sweep_pr", ["sweep-pr", "--seed", "6", "--sweep.trials", "4",
                  "--sweep.pr_list", "0.1,0.5,0.9"]),
    ("sweep_users", ["sweep-users", "--seed", "8", "--users.trials", "20"]),
    ("bench_1x1", ["channel-bench", "--seed", "9", "--bench.trials", "100"]),
    ("bench_4x4", ["channel-bench", "--seed", "9", "--bench.trials", "100",
                   "--channel.n_t", "4", "--channel.n_r", "4", "--channel.p_s", "4"]),
]
_CHECKPOINT_RUNS = ("eval", "sweep_pr")  # run on train's whole.ckpt


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "python": platform.python_version()}


def _transport_digest() -> str:
    """sha256 over z_hat, rows_sent and symbols_sent of transport, K = 2..10,
    two draws each, over awgn 1x1, rayleigh 2x2 and rician 2x2 at p_s 4, CSI 0.02."""
    codec = chancodec.inverse_params(chancodec.ChanCodecParams.init(16, 12, RngStream(1, 2)))
    cfgs = [ChannelConfig("awgn", 10.0),
            ChannelConfig("rayleigh", 5.0, n_t=2, n_r=2),
            ChannelConfig("rician", 15.0, n_t=2, n_r=2, p_s=4.0, csi_error_var=0.02)]
    h = hashlib.sha256()
    root = RngStream(11, 0x601D)
    for c, cfg in enumerate(cfgs):
        for k in range(2, 11):
            for t in range(2):
                stream = root.substream(c, k, t)
                z = sharing.synth_correlated_semantics(stream.substream(1), k, 12, 16, 0.5)
                res = sharing.transport(sharing.partition(z, 0.1), [codec] * k, codec, cfg,
                                        stream.substream(2))
                h.update(np.stack(res.z_hat).tobytes())
                h.update(f"{res.rows_sent},{res.symbols_sent};".encode())
    return h.hexdigest()


def digest(root: Path) -> dict:
    """Run every command under root and hash its outputs: {run/relative path: sha256}."""
    ckpt = root / "train" / "whole.ckpt"
    for name, args in _RUNS:
        extra = ["--checkpoint", str(ckpt)] if name in _CHECKPOINT_RUNS else []
        assert main([*args, *extra, "--out", str(root / name)]) == 0, name
    # the sidecars' checkpoint path, as json.dumps writes it, reduced to the file name
    full, short = (json.dumps(s)[1:-1].encode() for s in (str(ckpt), ckpt.name))
    files = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name.endswith(".meta.json"):
            data = data.replace(full, short)
        files[path.relative_to(root).as_posix()] = hashlib.sha256(data).hexdigest()
    files["transport"] = _transport_digest()
    return files


def test_outputs_match_golden_digest(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    env = environment()
    env_diff = {k: (golden["environment"].get(k), v) for k, v in env.items()
                if golden["environment"].get(k) != v}
    assert not env_diff, (f"digest made with other library versions (recorded, here): {env_diff}; "
                          "rewrite it with `PYTHONPATH=src python tests/test_golden.py --write`")
    got, want = digest(tmp_path), golden["files"]
    differ = sorted(name for name in want.keys() & got.keys() if want[name] != got[name])
    missing, extra = sorted(want.keys() - got.keys()), sorted(got.keys() - want.keys())
    assert not (differ or missing or extra), (
        f"{len(differ)} outputs differ: {differ}; missing: {missing}; unexpected: {extra}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as out:
        files = digest(Path(out))
    GOLDEN.write_text(json.dumps({"environment": environment(), "files": files},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(files)} digests)")
