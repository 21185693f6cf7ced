"""scipy is loaded only by the codec's GELU.

The channel, detection and sharing commands are plain linear algebra, so a
process that never builds a codec graph must not pay for importing
scipy.special.  GELU loads it on first use, with scipy's erf as before.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import semlink
from semlink.tensor import Tensor, gelu

_SRC = Path(semlink.__file__).resolve().parents[1]

_NO_CODEC_RUN = """
import sys
from semlink.chancodec import ChanCodecParams, inverse_params
from semlink.channel import ChannelConfig
from semlink.cli import main
from semlink.rng import RngStream
from semlink.sharing import partition, synth_correlated_semantics, transport

out = sys.argv[1]
assert main(["channel-bench", "--out", out, "--bench.trials", "2",
             "--bench.snr_db_list", "10", "--bench.csi_var_list", "0,0.05"]) == 0
codec = inverse_params(ChanCodecParams.init(8, 6, RngStream(1)))
part = partition(synth_correlated_semantics(RngStream(2), 3, 10, 8, 0.5), 0.1)
assert part.l_pub and part.l_pri
res = transport(part, [codec] * 3, codec, ChannelConfig(kind="rayleigh", n_t=2, n_r=2),
                RngStream(3))
assert len(res.z_hat) == 3
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_channel_bench_and_transport_never_import_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", _NO_CODEC_RUN, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": str(_SRC)}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_gelu_bitwise_equals_scipy_erf_form():
    from scipy.special import erf

    x = np.concatenate([np.linspace(-40.0, 40.0, 4001),
                        np.random.default_rng(0).standard_normal(1000) * 3.0])
    expected = x * (0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0)))))
    np.testing.assert_array_equal(gelu(Tensor(x)).data, expected)
