import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semlink import sharing
from semlink.chancodec import ChanCodecParams, chan_decode, chan_encode, inverse_params
from semlink.channel import ChannelConfig, fading_cells
from semlink.errors import ConfigError, ContractError
from semlink.rng import RngStream
from semlink.sharing import (
    MultiUserSemantics,
    bandwidth_savings,
    divergence,
    partition,
    share_divergence,
    shared_positions,
    synth_correlated_semantics,
    transport,
    variance_profile,
)
from semlink.tensor import Tensor


def brute_force_partition(values, epsilon, all_pairs=False):
    """Independent re-derivation with plain loops: population variances,
    |consecutive| (or all-pairs) differences, mean, threshold, user-mean."""
    k, length, dim = values.shape
    var = np.empty((k, length))
    for u in range(k):
        for i in range(length):
            row = values[u, i]
            m = sum(row) / dim
            var[u, i] = sum((x - m) ** 2 for x in row) / dim
    d = np.empty(length)
    for i in range(length):
        if all_pairs:
            diffs = [abs(var[a, i] - var[b, i]) for a in range(k) for b in range(a + 1, k)]
        else:
            diffs = [abs(var[j, i] - var[j + 1, i]) for j in range(k - 1)]
        d[i] = sum(diffs) / len(diffs)
    shared = [i for i in range(length) if d[i] < epsilon]
    private = [i for i in range(length) if d[i] >= epsilon]
    z_pub = np.array([[sum(values[u, i, j] for u in range(k)) / k for j in range(dim)]
                      for i in shared]).reshape(len(shared), dim)
    z_pri = values[:, private, :]
    return shared, private, z_pub, z_pri


class TestVarianceProfile:
    def test_constant_row_zero(self):
        z = MultiUserSemantics(np.full((2, 3, 5), 4.2))
        np.testing.assert_array_equal(variance_profile(z), np.zeros((2, 3)))

    def test_hand_value(self):
        values = np.zeros((2, 1, 2))
        values[0, 0] = [1.0, 3.0]
        z = MultiUserSemantics(values)
        assert variance_profile(z)[0, 0] == 1.0  # population convention

    def test_translation_invariance(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=(3, 4, 8))
        a = variance_profile(MultiUserSemantics(base))
        b = variance_profile(MultiUserSemantics(base + 7.5))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_single_feature_rejected(self):
        with pytest.raises(ContractError):
            variance_profile(MultiUserSemantics(np.zeros((2, 3, 1))))


class TestDivergence:
    def test_identical_users_zero(self):
        sig = np.tile(np.random.default_rng(1).uniform(size=(1, 6)), (4, 1))
        np.testing.assert_array_equal(divergence(sig), np.zeros(6))

    def test_two_users_single_difference(self):
        sig = np.array([[0.0], [9.0]])
        assert divergence(sig)[0] == 9.0

    def test_three_users_hand_value(self):
        sig = np.array([[1.0], [2.0], [3.0]])
        assert divergence(sig)[0] == 1.0  # (|-1| + |-1|) / 2

    def test_absolute_values_protect_anti_ordered(self):
        sig = np.array([[3.0], [1.0], [3.0]])  # signed mean would be 0
        assert divergence(sig)[0] == 2.0

    def test_all_pairs_mode(self):
        sig = np.array([[1.0], [2.0], [4.0]])
        # pairs: |1-2|, |1-4|, |2-4| -> mean 2
        assert divergence(sig, all_pairs=True)[0] == 2.0

    @given(st.integers(2, 11), st.integers(1, 39), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_all_pairs_matches_pair_loop_bitwise(self, k, length, seed):
        sig = np.random.default_rng(seed).uniform(0.0, 3.0, size=(k, length))
        assert divergence(sig, all_pairs=True).tobytes() == _all_pairs_loop(sig).tobytes()


def _all_pairs_loop(sigma2):
    """Oracle: accumulate |sigma2[a] - sigma2[b]| one unordered pair at a time."""
    k = sigma2.shape[0]
    total = np.zeros(sigma2.shape[1])
    count = 0
    for a in range(k):
        for b in range(a + 1, k):
            total += np.abs(sigma2[a] - sigma2[b])
            count += 1
    return total / count


class TestPartition:
    def test_identical_users_fully_shared(self):
        base = np.random.default_rng(2).normal(size=(1, 5, 6))
        z = MultiUserSemantics(np.tile(base, (3, 1, 1)))
        part = partition(z, 1e-9)
        assert part.l_pub == 5 and part.l_pri == 0
        np.testing.assert_allclose(part.z_pub, z.values[0], atol=1e-14)

    def test_epsilon_zero_nothing_shared(self):
        z = synth_correlated_semantics(RngStream(3), 3, 8, 6, 0.5, jitter=0.0)
        part = partition(z, 0.0)
        assert part.l_pub == 0 and part.l_pri == 8

    def test_negative_epsilon_rejected(self):
        z = synth_correlated_semantics(RngStream(4), 2, 4, 4, 0.5)
        with pytest.raises(ContractError):
            partition(z, -0.1)

    def test_nan_epsilon_rejected(self):
        # NaN compares false both ways, so it would put no position on either side
        z = synth_correlated_semantics(RngStream(4), 2, 10, 4, 0.5)
        with pytest.raises(ContractError):
            partition(z, math.nan)
        with pytest.raises(ContractError):
            shared_positions(share_divergence(z), math.nan)

    def test_infinite_epsilon_shares_everything(self):
        z = synth_correlated_semantics(RngStream(4), 3, 10, 4, 0.0)
        part = partition(z, math.inf)
        assert part.l_pub == 10 and part.l_pri == 0

    def test_matches_brute_force_oracle(self):
        rng = RngStream(5)
        sizes = rng  # reuse
        for trial in range(300):
            t = rng.substream(trial)
            k = int(t.integers(2, 6))
            length = int(t.integers(2, 9))
            dim = int(t.integers(2, 7))
            values = t.normal((k, length, dim)) * t.uniform((k, length, 1), 0.2, 2.0)
            eps = float(t.uniform((), 0.0, 1.0))
            all_pairs = bool(t.integers(0, 2))
            part = partition(MultiUserSemantics(values), eps, all_pairs=all_pairs)
            shared, private, z_pub, z_pri = brute_force_partition(values, eps, all_pairs)
            assert list(part.shared_idx) == shared, f"trial {trial}"
            assert list(part.private_idx) == private
            np.testing.assert_allclose(part.z_pub, z_pub, atol=1e-12)
            np.testing.assert_allclose(part.z_pri, z_pri, atol=0)

    def test_indices_partition_sequence(self):
        for trial in range(50):
            t = RngStream(6).substream(trial)
            z = synth_correlated_semantics(t, 3, 12, 8, 0.4)
            part = partition(z, float(t.uniform((), 0.0, 0.5)))
            merged = sorted(list(part.shared_idx) + list(part.private_idx))
            assert merged == list(range(12))


def _separated_semantics(rng, k=3, length=10, dim=12, shared=(0, 3, 4, 8)):
    base = rng.normal((length, dim))
    z = np.empty((k, length, dim))
    for u in range(k):
        z[u] = base * (1.0 + 1.5 * u)
    for i in shared:
        z[:, i, :] = base[i]
    return MultiUserSemantics(z)


def per_user_transport(part, user_codecs, pub_codec, cfg, rng):
    """transport one user at a time: the public rows over rng.substream(0),
    user u's private rows alone over rng.substream(100 + u), every stream
    decoded by the receiving user's codec."""
    pub = None
    if part.l_pub:
        pub = fading_cells(chan_encode(part.z_pub, pub_codec)[None], [cfg], [rng.substream(0)])[0, 0]
    z_hat = []
    for u, codec in enumerate(user_codecs):
        out = np.zeros((part.length, part.z_pri.shape[2]))
        if pub is not None:
            out[part.shared_idx] = chan_decode(pub, codec)
        if part.l_pri:
            x = chan_encode(part.z_pri[u], codec)[None]
            out[part.private_idx] = chan_decode(
                fading_cells(x, [cfg], [rng.substream(100 + u)])[0, 0], codec)
        z_hat.append(out)
    return z_hat


@st.composite
def transport_cases(draw):
    """(partition, user codecs, public codec, channel, seed): K = 2..6 users on
    one codec object, on distinct ones or on a mix of two, the public codec one
    of theirs or its own; nothing, part or all of the sequence shared."""
    k, length = draw(st.integers(2, 6)), draw(st.integers(1, 8))
    # widths of 16 and more with an output width of 1, 2 or 3 mod 8 put the rows
    # of a matrix taller than one user's into OpenBLAS kernels that round them
    # differently: the users' rows must be multiplied one user at a time
    dim, symbol_dim = draw(st.sampled_from([2, 5, 17, 19])), draw(st.sampled_from([1, 2, 5, 9]))
    seed = draw(st.integers(0, 2**32 - 1))
    z = synth_correlated_semantics(RngStream(seed, 37), k, length, dim,
                                   draw(st.floats(0.0, 1.0)), jitter=0.5)
    d = share_divergence(z)
    epsilon = {"none": 0.0, "all": math.inf,
               "some": float(np.median(d))}[draw(st.sampled_from(["none", "all", "some"]))]
    pool = [ChanCodecParams.init(dim, symbol_dim, RngStream(seed, 38).substream(i)) for i in range(k + 1)]
    pattern = draw(st.sampled_from(["one", "distinct", "mixed"]))
    if pattern == "one":
        codecs = [pool[0]] * k
    elif pattern == "distinct":
        codecs = pool[:k]
    else:
        codecs = [pool[i] for i in draw(st.permutations([u % 2 for u in range(k)]))]
    pub = pool[k] if draw(st.booleans()) else codecs[draw(st.integers(0, k - 1))]
    kind = draw(st.sampled_from(["awgn", "rayleigh", "rician"]))
    n_t = draw(st.integers(1, 2))
    n_r = n_t if kind == "awgn" else draw(st.integers(1, 2))
    cfg = ChannelConfig(kind=kind, snr_db=draw(st.sampled_from([0.0, 10.0, math.inf])),
                        n_t=n_t, n_r=n_r, csi_error_var=draw(st.sampled_from([0.0, 0.02])))
    return partition(z, epsilon), codecs, pub, cfg, seed


class TestTransport:
    def setup_method(self):
        self.d_s, self.d_c = 12, 8
        self.codec = inverse_params(ChanCodecParams.init(self.d_s, self.d_c, RngStream(9)))
        self.clean = ChannelConfig(kind="awgn", snr_db=240.0)

    def test_lossless_identity(self):
        z = _separated_semantics(RngStream(10))
        part = partition(z, 0.5)
        res = transport(part, [self.codec] * 3, self.codec, self.clean, RngStream(11))
        for u in range(3):
            assert np.abs(res.z_hat[u] - z.values[u]).max() < 1e-8

    def test_symbol_count_instrumentation(self):
        z = _separated_semantics(RngStream(12))
        part = partition(z, 0.5)
        res = transport(part, [self.codec] * 3, self.codec, self.clean, RngStream(13))
        assert res.rows_sent == part.l_pub + 3 * part.l_pri
        assert res.symbols_sent == res.rows_sent * self.d_c

    def test_no_shared_reduces_to_point_to_point(self):
        z = _separated_semantics(RngStream(14), shared=())
        part = partition(z, 0.0)  # nothing shared
        assert part.l_pub == 0
        root = RngStream(15)
        res = transport(part, [self.codec] * 3, self.codec, self.clean, root)
        assert res.rows_sent == 3 * 10
        # identical to sending each user's full sequence over its own stream
        for u in range(3):
            direct = chan_decode(
                fading_cells(chan_encode(z.values[u], self.codec)[None], [self.clean],
                             [RngStream(15).substream(100 + u)])[0, 0],
                self.codec,
            )
            np.testing.assert_array_equal(res.z_hat[u], direct)

    def test_stacked_private_streams_match_per_user_stages(self):
        # the K private streams cross the channel as one stack; each user's
        # rows must come out as if sent alone through its own substream
        z = _separated_semantics(RngStream(23))
        part = partition(z, 0.5)
        assert part.l_pub and part.l_pri
        codecs = [ChanCodecParams.init(self.d_s, self.d_c, RngStream(24, u)) for u in range(3)]
        noisy = ChannelConfig(kind="rician", snr_db=5.0, n_t=2, n_r=3, csi_error_var=0.02, p_s=2.0)
        res = transport(part, codecs, self.codec, noisy, RngStream(25))
        for u in range(3):
            direct = chan_decode(
                fading_cells(chan_encode(part.z_pri[u], codecs[u])[None], [noisy],
                             [RngStream(25).substream(100 + u)])[0, 0],
                codecs[u],
            )
            np.testing.assert_array_equal(res.z_hat[u][part.private_idx], direct)

    @pytest.mark.parametrize("kind,n", [("awgn", 1), ("rician", 2)])
    def test_builds_no_tensor(self, monkeypatch, kind, n):
        # transport is forward only on plain arrays: no autodiff wrapper is constructed
        z = _separated_semantics(RngStream(26))
        part = partition(z, 0.5)
        assert part.l_pub and part.l_pri
        built = []
        init = Tensor.__init__

        def counting_init(t, *args, **kwargs):
            built.append(t)
            init(t, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        transport(part, [self.codec] * 3, self.codec, ChannelConfig(kind=kind, n_t=n, n_r=n),
                  RngStream(27))
        assert built == []

    def test_row_scatter_bijection(self):
        z = _separated_semantics(RngStream(16))
        part = partition(z, 0.5)
        res = transport(part, [self.codec] * 3, self.codec, self.clean, RngStream(17))
        # every output row matches exactly one input row (clean channel)
        for u in range(3):
            for i in range(10):
                diffs = np.abs(z.values[u] - res.z_hat[u][i]).max(axis=1)
                assert (diffs < 1e-6).sum() >= 1

    def test_codec_count_mismatch_rejected(self):
        z = _separated_semantics(RngStream(18))
        part = partition(z, 0.5)
        with pytest.raises(ConfigError):
            transport(part, [self.codec] * 2, self.codec, self.clean, RngStream(19))

    @pytest.mark.parametrize("wide", ["pub", "first", "last"])
    def test_codec_of_another_width_rejected(self, wide):
        # an all-shared partition: only the public codec encodes, every user decodes
        base = np.random.default_rng(3).normal(size=(1, 5, 6))
        part = partition(MultiUserSemantics(np.tile(base, (3, 1, 1))), 1e-9)
        assert part.l_pri == 0
        narrow = ChanCodecParams.init(6, 4, RngStream(30))
        codecs, pub = [narrow] * 3, narrow
        other = ChanCodecParams.init(9, 4, RngStream(31))
        if wide == "pub":
            pub = other
        else:
            codecs = [other, narrow, narrow] if wide == "first" else [narrow, narrow, other]
        with pytest.raises(ConfigError, match="feature_dim"):
            transport(part, codecs, pub, self.clean, RngStream(32))

    @pytest.mark.parametrize("pattern,distinct", [("one", 1), ("mixed", 2), ("distinct", 5)])
    def test_codec_calls_once_per_distinct_codec(self, monkeypatch, pattern, distinct):
        z = _separated_semantics(RngStream(33), k=5)
        part = partition(z, 0.5)
        assert part.l_pub and part.l_pri
        pool = [ChanCodecParams.init(self.d_s, self.d_c, RngStream(34, i)) for i in range(5)]
        codecs = {"one": [pool[0]] * 5, "mixed": [pool[u % 2] for u in range(5)],
                  "distinct": pool}[pattern]
        calls = {"encode": 0, "decode": 0}

        def counted(name, fn):
            def wrapper(*a, **k):
                calls[name] += 1
                return fn(*a, **k)
            return wrapper

        monkeypatch.setattr(sharing, "chan_encode", counted("encode", sharing.chan_encode))
        monkeypatch.setattr(sharing, "chan_decode", counted("decode", sharing.chan_decode))
        transport(part, codecs, self.codec, self.clean, RngStream(35))
        # the public rows once, then each distinct codec: one encode, two decodes
        assert calls == {"encode": 1 + distinct, "decode": 2 * distinct}

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(case=transport_cases())
    def test_equals_the_per_user_path(self, case):
        part, codecs, pub, cfg, seed = case
        res = transport(part, codecs, pub, cfg, RngStream(seed, 36))
        want = per_user_transport(part, codecs, pub, cfg, RngStream(seed, 36))
        assert len(res.z_hat) == len(want)
        for got, ref in zip(res.z_hat, want):
            assert got.tobytes() == ref.tobytes()
        assert res.rows_sent == part.l_pub + part.num_users * part.l_pri
        assert res.symbols_sent == res.rows_sent * pub.symbol_dim

    def test_broadcast_shared_identically(self):
        # one public realization: all users see the same detected public rows
        z = _separated_semantics(RngStream(20))
        part = partition(z, 0.5)
        noisy = ChannelConfig(kind="rayleigh", snr_db=10.0)
        res = transport(part, [self.codec] * 3, self.codec, noisy, RngStream(21))
        pub0 = res.z_hat[0][part.shared_idx]
        for u in (1, 2):
            np.testing.assert_array_equal(res.z_hat[u][part.shared_idx], pub0)


class TestSavings:
    def test_zero_when_nothing_shared(self):
        z = _separated_semantics(RngStream(22), shared=())
        part = partition(z, 0.0)
        assert bandwidth_savings(part) == 0.0

    def test_hand_counts(self):
        # K=2, L_s=10, L_pub=4: baseline 20 rows, actual 16 -> 0.2
        z = _separated_semantics(RngStream(23), k=2, shared=(0, 1, 2, 3))
        part = partition(z, 0.5)
        assert part.l_pub == 4
        assert abs(bandwidth_savings(part) - 0.2) < 1e-12

    def test_everything_shared_two_users(self):
        base = np.random.default_rng(7).normal(size=(1, 10, 6))
        z = MultiUserSemantics(np.tile(base, (2, 1, 1)))
        part = partition(z, 1e-6)
        assert part.l_pub == 10
        assert abs(bandwidth_savings(part) - 0.5) < 1e-12

    def test_monotone_in_epsilon(self):
        for trial in range(30):
            t = RngStream(24).substream(trial)
            z = synth_correlated_semantics(t, 4, 16, 24, 0.5, jitter=0.5)
            epsilons = (0.0, 0.02, 0.05, 0.1, 0.2, 0.5)
            savings = [bandwidth_savings(partition(z, e)) for e in epsilons]
            assert all(a <= b for a, b in zip(savings, savings[1:]))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(k=st.integers(2, 6), length=st.integers(1, 9), dim=st.integers(2, 6),
           fraction=st.floats(0.0, 1.0), all_pairs=st.booleans(),
           eps=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)).map(sorted),
           symbol_dim=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_shared_set_and_savings_nested_in_epsilon(self, k, length, dim, fraction, all_pairs,
                                                      eps, symbol_dim, seed):
        z = synth_correlated_semantics(RngStream(seed, 29), k, length, dim, fraction, jitter=0.5)
        lo, hi = (partition(z, e, all_pairs=all_pairs) for e in eps)
        # the shared set is {i : d_i < eps}
        assert set(lo.shared_idx) <= set(hi.shared_idx)
        assert bandwidth_savings(lo) <= bandwidth_savings(hi)
        # with side information the saving is L_pub * (K - 1 - 1/symbol_dim) / (K * L), K >= 2
        side_lo, side_hi = (bandwidth_savings(p) - p.l_pub / (k * length * symbol_dim)
                            for p in (lo, hi))
        assert side_lo <= side_hi

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(k=st.integers(2, 6), length=st.integers(1, 9), dim=st.integers(2, 6),
           fraction=st.floats(0.0, 1.0), all_pairs=st.booleans(),
           eps=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4).flatmap(
               lambda es: st.integers(0, len(es)).map(lambda i: [*es[:i], es[0], *es[i:]])),
           seed=st.integers(0, 2**32 - 1))
    def test_one_divergence_thresholded_at_each_epsilon_is_partition(
            self, k, length, dim, fraction, all_pairs, eps, seed):
        z = synth_correlated_semantics(RngStream(seed, 31), k, length, dim, fraction, jitter=0.5)
        d = share_divergence(z, all_pairs=all_pairs)
        for e in eps:  # the list holds a repeated entry
            part, shared = partition(z, e, all_pairs=all_pairs), shared_positions(d, e)
            np.testing.assert_array_equal(shared, part.shared_idx)
            assert len(shared) == part.l_pub

    def test_trend_shape_over_users(self):
        # decaying share profile: savings rise from K=2, peak, then decline
        base, decay, n = 0.9, 0.93, 150
        means = []
        for k in range(2, 11):
            f = min(1.0, base * decay ** (k - 2))
            total = 0.0
            for t in range(n):
                z = synth_correlated_semantics(RngStream(25, (k << 16) + t), k, 32, 48, f, 0.4)
                total += bandwidth_savings(partition(z, 0.1))
            means.append(total / n)
        peak = int(np.argmax(means))
        assert 0 < peak < 8, means
        assert means[peak] > means[0]
        assert means[-1] < means[peak]


class TestSynthSemantics:
    def test_shapes_and_shared_rows(self):
        z = synth_correlated_semantics(RngStream(26), 4, 20, 8, 0.5, jitter=0.0)
        assert z.values.shape == (4, 20, 8)
        identical = sum(
            1 for i in range(20)
            if all(np.array_equal(z.values[0, i], z.values[u, i]) for u in range(1, 4))
        )
        assert identical == 10  # round(0.5 * 20) rows copied verbatim

    def test_fraction_bounds(self):
        with pytest.raises(ContractError):
            synth_correlated_semantics(RngStream(27), 2, 8, 4, 1.2)

    @settings(max_examples=80, deadline=None)
    @given(k=st.integers(2, 6), length=st.integers(0, 9), dim=st.integers(1, 6),
           fraction=st.floats(0.0, 1.0), jitter=st.floats(0.0, 5.0),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_per_user_jitter_loop(self, k, length, dim, fraction, jitter, seed):
        got_rng, twin = RngStream(seed, 28), RngStream(seed, 28)
        got = synth_correlated_semantics(got_rng, k, length, dim, fraction, jitter)
        want = reference_synth(twin, k, length, dim, fraction, jitter)
        np.testing.assert_array_equal(got.values, want)
        # the stream continues where the loop's last draw left off
        np.testing.assert_array_equal(got_rng.normal((4,)), twin.normal((4,)))


def reference_synth(rng, k, length, dim, shared_fraction, jitter):
    """synth_correlated_semantics with one jitter draw per user, in user order."""
    n_shared = int(round(shared_fraction * length))
    shared_pos = np.sort(rng.permutation(length)[:n_shared])
    z = np.empty((k, length, dim))
    amps = rng.uniform((k, length), 0.5, 1.5)
    z[:] = rng.normal((k, length, dim)) * amps[:, :, None]
    if n_shared:
        base = rng.normal((n_shared, dim))
        row_jitter = rng.uniform((n_shared,), 0.0, jitter)
        for u in range(k):
            z[u, shared_pos, :] = base + row_jitter[:, None] * rng.normal((n_shared, dim))
    return z
