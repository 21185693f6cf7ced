"""semlink: desk-scale multi-user image semantic communication simulator.

Pipeline: synthetic annotated scenes -> location-informed patch masking ->
masked-autoencoder semantic codec -> linear channel codec -> MIMO fading
channel with L-MMSE detection -> variance-based multi-user semantic sharing.
"""

from .chancodec import ChanCodecParams, chan_decode, chan_encode
from .channel import (
    ChannelConfig,
    calibrate_noise,
    draw_channel,
    lmmse_detect,
    normalize_power,
    surrogate_channel,
    transmit,
)
from .codec import (
    CodecConfig,
    CodecParams,
    SemanticTensor,
    decode,
    embed,
    encode,
    zero_fill,
)
from .config import RunConfig
from .link import LinkModel, evaluate_link, surrogate_link
from .masking import (
    MaskPlan,
    PatchGrid,
    patchify,
    random_mask,
    sample_mask,
    unpatchify,
)
from .metrics import MetricReport, nmse, psnr, region_metric, ssim
from .rng import RngStream
from .scenes import (
    Loc,
    Scene,
    SceneConfig,
    generate_correlated_batch,
    generate_scene,
    load_annotated,
    locate,
)
from .sharing import (
    MultiUserSemantics,
    SharePartition,
    bandwidth_savings,
    divergence,
    partition,
    transport,
    variance_profile,
)
from .tensor import Tensor, backward, gelu, layer_norm, matmul, softmax_attention
from .training import Adam, LossRecord, TrainConfig, loss_channel, loss_codec, loss_whole, train_phase

__version__ = "0.1.0"
