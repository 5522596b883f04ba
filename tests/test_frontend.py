"""Tests for filtering, pooling, compression, and the mel baseline."""

import math
import tracemalloc

import numpy as np
import pytest

from leafaudio import tape
from leafaudio.errors import BadRate, NonFiniteFeatures, ShapeMismatch, ZeroFilter
from leafaudio.frontend import (
    FeatureMap,
    FrontendConfig,
    frontend_forward,
    gabor_kernel_graph,
    log_graph,
    mel_power_features,
    pcen_graph,
    pool_kernel_graph,
    pooled_graph,
    renormalize_conv,
    stft_power,
    variant_config,
)
from leafaudio.gabor import gabor_impulse_response, mel_matrix
from leafaudio.params import class_counts, frontend_param_values, init_multitask_params, init_params, param_count
from leafaudio.signal import Waveform, synth_tones
from leafaudio.tasks import make_task, sample_batch
from leafaudio.training import multitask_loss_and_grad

CFG = FrontendConfig()
MEL = variant_config("mel")


def tone(freq, duration=1.0, amp=1.0, phase=0.0, rate=16000):
    return synth_tones((freq,), (amp,), (phase,), duration, rate)


def squared_modulus(samples, kernels):
    """(T, N) squared-modulus filterbank output of one clip (identity pooling)."""
    n = np.shape(kernels)[0] // 2
    return tape.filter_pool(np.asarray(samples)[None, :], kernels, np.ones((n, 1)), 1).value[0].T


def gabor_kernels(eta, sigma, filter_len):
    return gabor_kernel_graph(np.array(eta), np.array(sigma), filter_len).value


def lowpass_kernel(width, pool_len=401):
    return pool_kernel_graph(np.array([float(width)]), pool_len).value[0]


def pool(f, widths, cfg=CFG):
    """Depthwise Gaussian lowpass + decimation of a (T, N) matrix to (M, N).

    The width-1 kernel pair (1, 0) applied to sqrt(f) leaves energy f, one
    channel per call; pooling is linear, so signed f pools as f+ - f-.
    """
    kernels = pool_kernel_graph(np.asarray(widths, dtype=np.float64), cfg.pool_len).value
    unit = np.array([[1.0], [0.0]])

    def nonnegative(part):
        return np.stack([tape.filter_pool(np.sqrt(part[:, c])[None], unit, kernels[c: c + 1],
                                          cfg.pool_stride).value[0, 0]
                         for c in range(f.shape[1])], axis=1)

    return nonnegative(np.maximum(f, 0.0)) - nonnegative(np.maximum(-f, 0.0))


def pcen(values, alpha, delta, root, smooth):
    """PCEN of a (M, N) feature matrix."""
    return pcen_graph(np.ascontiguousarray(values.T)[None], alpha, delta, root, smooth).value[0].T


def init_pcen(n):
    """(alpha, delta, root, smooth) at the frontend's initialization."""
    values = frontend_param_values(variant_config("mel-pcen", n_filters=n))
    return tuple(values[k] for k in ("pcen_alpha", "pcen_delta", "pcen_root", "pcen_smooth"))


def traced_peak(fn):
    """fn()'s result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def leaf_pooled(x: Waveform, cfg=CFG):
    """(M, N) pre-compression energies of the initialized Gabor frontend."""
    return pooled_graph(x.samples[None, :], frontend_param_values(cfg), cfg).value[0].T


class TestFilterSquaredModulus:
    def test_impulse_traces_squared_envelope(self):
        # the output of a centered impulse is the squared Gaussian envelope,
        # independent of the filter's center frequency
        n = 2001
        center = 1000
        x = np.zeros(n)
        x[center] = 1.0
        out = squared_modulus(x, gabor_kernels([0.05, 0.25, 0.45], [30.0, 30.0, 50.0], 401))
        t = np.arange(n) - center
        support = np.abs(t) <= 200  # kernel reaches +-(W-1)/2 around the impulse
        for ch, sigma in enumerate([30.0, 30.0, 50.0]):
            expected = np.exp(-(t ** 2) / sigma ** 2) / (2.0 * np.pi * sigma ** 2)
            expected[~support] = 0.0
            np.testing.assert_allclose(out[:, ch], expected, atol=1e-12)
        # identical sigma, different eta: identical envelope
        np.testing.assert_allclose(out[:, 0], out[:, 1], atol=1e-12)

    def test_zero_input(self):
        out = squared_modulus(np.zeros(500), gabor_kernels([0.1], [20.0], 101))
        np.testing.assert_allclose(out, 0.0, atol=1e-20)

    def test_tone_envelope_matches_complex_dot_oracle(self):
        # interior response to a matched tone is flat and equals the direct
        # complex correlation evaluated independently per time step
        x = tone(0.25 * 16000, duration=0.25)
        out = squared_modulus(x.samples, gabor_kernels([0.25], [40.0], 401))[:, 0]
        phi = gabor_impulse_response(0.25, 40.0, 401)
        half = 200
        interior = slice(401, len(x.samples) - 401)
        for t in (500, 1234, 2000, 3210):
            window = x.samples[t - half: t + half + 1]
            oracle = np.abs(np.dot(window, phi)) ** 2
            np.testing.assert_allclose(out[t], oracle, rtol=1e-10)
        ripple = out[interior].max() / out[interior].min() - 1.0
        assert ripple < 0.02

    def test_conv_bank_pairs_adjacent_kernels(self):
        # channel n of a free-kernel bank's output is corr(x, k_2n)^2 + corr(x, k_2n+1)^2
        rng = np.random.default_rng(11)
        x = rng.standard_normal(50)
        kernels = rng.standard_normal((4, 9))
        kernels /= np.linalg.norm(kernels, axis=1, keepdims=True)
        out = squared_modulus(x, kernels)

        def correlate_same(sig, k):
            h = (len(k) - 1) // 2
            res = np.zeros(len(sig))
            for t in range(len(sig)):
                for j in range(len(k)):
                    u = t + j - h
                    if 0 <= u < len(sig):
                        res[t] += sig[u] * k[j]
            return res

        for n in range(2):
            oracle = correlate_same(x, kernels[2 * n]) ** 2 + correlate_same(x, kernels[2 * n + 1]) ** 2
            np.testing.assert_allclose(out[:, n], oracle, atol=1e-12)

    def test_bad_rate(self):
        with pytest.raises(BadRate):
            frontend_forward(Waveform(np.zeros(100), 8000), init_params(CFG, 2), CFG)


class TestGaussianLowpassKernel:
    def test_even_and_positive(self):
        k = lowpass_kernel(0.2, 401)
        assert np.all(k > 0)
        np.testing.assert_allclose(k, k[::-1], rtol=1e-15)

    def test_center_value_at_default_width(self):
        k = lowpass_kernel(0.4, 401)
        np.testing.assert_allclose(k[200], 1.0 / (math.sqrt(2 * math.pi) * 80.0), rtol=1e-12)
        np.testing.assert_allclose(k[200], 4.9867785e-3, rtol=1e-6)

    def test_sums_match_direct_summation_oracle(self):
        # truncation at +-(P-1)/2 keeps the sum within 1e-3 of 1 up to
        # w ~ 0.3; at the 0.4 init width the deficit is ~1.2e-2
        for w, expected in [(0.05, 1.0), (0.1, 1.0), (0.2, 0.999999463), (0.3, 0.999167346)]:
            assert abs(lowpass_kernel(w, 401).sum() - expected) < 1e-6
        assert abs(lowpass_kernel(0.4, 401).sum() - 0.987798632) < 1e-6


class TestPoolDecimate:
    def test_constant_column_passes_kernel_sum(self):
        f = np.full((4000, 2), 3.0)
        interior = pool(f, [0.4, 0.1])[5:-5]
        for ch, w in enumerate([0.4, 0.1]):
            ksum = lowpass_kernel(w, 401).sum()
            np.testing.assert_allclose(interior[:, ch], 3.0 * ksum, rtol=1e-10)
        # near-unit kernel sum keeps constants within ~1.3% at w = 0.4
        assert np.all(np.abs(interior / 3.0 - 1.0) < 0.02)

    def test_frame_count_and_rate(self):
        f = np.zeros((16000, 3))
        assert pool(f, np.full(3, 0.4)).shape == (100, 3)
        assert CFG.frame_rate == 100.0

    def test_matches_naive_convolution_oracle(self):
        rng = np.random.default_rng(3)
        t, p, stride = 700, 401, 160
        f = np.linspace(0.0, 1.0, t)[:, None] + 0.1 * rng.standard_normal((t, 1))
        pooled = pool(f, [0.23])
        k = lowpass_kernel(0.23, p)
        h = (p - 1) // 2
        m = -(-t // stride)
        oracle = np.zeros(m)
        for idx, center in enumerate(range(0, m * stride, stride)):
            for j in range(p):
                u = center + j - h
                if 0 <= u < t:
                    oracle[idx] += f[u, 0] * k[j]
        np.testing.assert_allclose(pooled[:, 0], oracle, atol=1e-10)


class TestLogCompress:
    def test_values(self):
        out = log_graph(np.array([[0.0, 1.0 - 1e-6]])).value
        np.testing.assert_allclose(out[0, 0], math.log(1e-6), rtol=1e-12)
        assert abs(out[0, 1]) < 1e-9

    def test_monotone(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0, 10, 50)
        b = a + rng.uniform(1e-6, 1.0, 50)
        fa = log_graph(a[None]).value
        fb = log_graph(b[None]).value
        assert np.all(fb > fa)


class TestPcenForward:
    def test_identity_parameters(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(0.0, 4.0, (30, 5))
        out = pcen(values, np.zeros(5), np.zeros(5), np.ones(5), np.full(5, 0.3))
        np.testing.assert_array_equal(out, values)

    def test_zero_input_zero_output(self):
        out = pcen(np.zeros((20, 4)), *init_pcen(4))
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_constant_input_closed_form(self):
        # (1/(1+1e-6)^0.96 + 2)^0.5 - 2^0.5 evaluated at 50-digit precision
        p = (np.full(3, 0.96), np.full(3, 2.0), np.full(3, 2.0), np.full(3, 0.04))
        out = pcen(np.ones((50, 3)), *p)
        np.testing.assert_allclose(out, 0.31783696806790245, rtol=1e-12)

    def test_scaling_up_never_decreases_output(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(0.0, 3.0, (40, 6))
        p = (
            rng.uniform(0.0, 0.99, 6), rng.uniform(0.0, 3.0, 6),
            rng.uniform(1.0, 4.0, 6), rng.uniform(0.01, 0.9, 6),
        )
        base = pcen(values, *p)
        scaled = pcen(1.7 * values, *p)
        assert np.all(scaled >= base - 1e-12)

    def test_no_nan_inf_for_nonnegative_input(self):
        rng = np.random.default_rng(6)
        values = np.abs(rng.standard_normal((60, 8))) * 1e3
        values[0] = 0.0
        out = pcen(values, *init_pcen(8))
        assert np.all(np.isfinite(out))


class TestFrontendForward:
    def test_zero_waveform_log(self):
        cfg = FrontendConfig(compression="log")
        params = init_params(cfg, 2)
        fm = frontend_forward(Waveform(np.zeros(16000), 16000), params, cfg)
        np.testing.assert_allclose(fm.values, math.log(1e-6), rtol=1e-9)

    def test_output_shape_at_defaults(self):
        params = init_params(CFG, 2)
        fm = frontend_forward(tone(440.0), params, CFG)
        assert fm.values.shape == (100, 40)
        assert fm.frame_rate == 100.0

    def test_tone_peaks_at_nearest_center(self):
        eta = frontend_param_values(CFG)["eta"]
        profile = leaf_pooled(tone(1000.0)).mean(axis=0)
        nearest = int(np.argmin(np.abs(eta * 16000 - 1000.0)))
        assert int(profile.argmax()) == nearest

    def test_deterministic(self):
        params = init_params(CFG, 2)
        x = tone(700.0, duration=0.2)
        a = frontend_forward(x, params, CFG)
        b = frontend_forward(x, params, CFG)
        assert np.array_equal(a.values, b.values)

    def test_nan_parameter_is_non_finite_features(self):
        cfg = variant_config("leaf", n_filters=6, filter_len=65)
        params = dict(init_params(cfg, 2))
        params["pcen_delta"] = np.where(np.arange(6) == 2, np.nan, params["pcen_delta"])
        with pytest.raises(NonFiniteFeatures, match="^feature map contains non-finite values$"):
            frontend_forward(tone(440.0, 0.1), params, cfg)

    def test_shift_quasi_invariance(self):
        # eta = 0.1 tone shifted by up to 8 samples: interior pooled outputs
        # move by < 1% relative
        base = None
        x = synth_tones((1600.0,), (1.0,), (0.0,), 1.2, 16000)
        for shift in (0, 3, 8):
            shifted = Waveform(x.samples[shift: shift + 16000], 16000)
            interior = leaf_pooled(shifted)[10:-10]
            if base is None:
                base = interior
            else:
                rel = np.abs(interior - base) / (np.abs(base).max())
                assert rel.max() < 0.01

    @pytest.mark.parametrize("seconds, mib", [pytest.param(10, 20, id="10"), pytest.param(60, 28, id="60"),
                                              pytest.param(120, 37, id="120")])
    def test_extract_peak_memory_is_independent_of_length(self, monkeypatch, seconds, mib):
        # float64, from cold workspaces: two groups' kernel spectra (3.7
        # MiB), pooling buffers (1.9 MiB) and chunk buffers (3.7 MiB) at
        # the forward-only block, and one block's spectrum, then the frame
        # arrays of pooling and PCEN, which grow with the frames: 10.9-11.8
        # (as the two groups' threads interleave) / 18.4 / 27.5 MiB at 10 /
        # 60 / 120 s, bounded here with ~8 MiB to spare.  Whole-clip
        # full-rate arrays would add ~5 MiB per second.  The groups are fixed
        # at two, as the spare sizes below: each group adds its own chunk
        # buffers
        monkeypatch.setattr(tape, "GROUPS", 2)
        monkeypatch.setattr(tape, "_spare", None)
        params = frontend_param_values(CFG)
        x = Waveform(0.1 * np.random.default_rng(0).standard_normal(16000 * seconds), 16000)
        fm, peak = traced_peak(lambda: frontend_forward(x, params, CFG))
        assert fm.values.shape == (100 * seconds, 40)
        assert peak <= mib * 2 ** 20

    def test_train_step_holds_no_batch_energy(self, monkeypatch):
        # one leaf step, B=16, 1 s, float32, from cold workspaces: two
        # groups' kept correlations of three STREAM_BLOCK blocks a row (87.9
        # MiB), kernel spectra (1.8 MiB), pooling buffers (1.0 MiB) and chunk
        # buffers (3.7 MiB), not the (B, N, T) energy of the batch: a
        # 106.0-106.4 MiB peak, bounded with ~6 MiB to spare
        monkeypatch.setattr(tape, "GROUPS", 2)
        monkeypatch.setattr(tape, "_spare", None)
        cfg = variant_config("leaf")
        batch = sample_batch([make_task("pitch")], 16, seed=0, step=0)
        params = init_multitask_params(cfg, [make_task("pitch").num_classes], dtype=np.float32)
        _, peak = traced_peak(lambda: multitask_loss_and_grad(batch, params, cfg, 1))
        assert peak <= 112 * 2 ** 20

    @staticmethod
    def spare_mib(*names):
        """MiB of the arrays of the spare's workspaces, or of the named ones."""
        return sum(buf.nbytes for ws in tape._spare[1] for name, buf in vars(ws).items()
                   if isinstance(buf, np.ndarray) and (not names or name in names)) / 2 ** 20

    def test_extract_spare_size(self, monkeypatch):
        # the forward-only float64 spare of a 10 s clip in two groups, at
        # STREAM_BLOCK samples a block, as the tape docstring, the README
        # and ROADMAP item 4 state it
        monkeypatch.setattr(tape, "GROUPS", 2)
        monkeypatch.setattr(tape, "_spare", None)
        x = Waveform(0.1 * np.random.default_rng(0).standard_normal(16000 * 10), 16000)
        frontend_forward(x, frontend_param_values(CFG), CFG)
        assert self.spare_mib() == pytest.approx(9.22, abs=0.05)
        assert self.spare_mib("spectra") == pytest.approx(3.66, abs=0.05)
        assert self.spare_mib("held") == pytest.approx(1.89, abs=0.05)
        assert self.spare_mib("prod", "scratch") == pytest.approx(3.66, abs=0.05)

    def test_train_step_spare_size(self, monkeypatch):
        # the spare of a learned B=16, 1 s, float32 two-task step in two
        # groups, as the tape docstring, the README and ROADMAP item 4 state it
        monkeypatch.setattr(tape, "GROUPS", 2)
        monkeypatch.setattr(tape, "_spare", None)
        cfg = variant_config("leaf")
        task_list = [make_task("pitch", task_id=0), make_task("am", task_id=1)]
        batch = sample_batch(task_list, 16, seed=0, step=0)
        params = init_multitask_params(cfg, [t.num_classes for t in task_list], dtype=np.float32)
        multitask_loss_and_grad(batch, params, cfg, 2)
        assert self.spare_mib() == pytest.approx(94.33, abs=0.05)
        assert self.spare_mib("corr") == pytest.approx(87.9, abs=0.05)

    @pytest.mark.parametrize("seconds", [10, 60])
    def test_warm_extract_call_makes_no_channel_wide_buffer(self, monkeypatch, seconds):
        # only the spare holds channel-wide buffers: a warm forward-only call
        # at the extract shape makes its output and one block's
        # temporaries, 1.0-1.9 MiB above its output at 10 and 60 s as the
        # groups' threads interleave; two groups' pooling buffers are 1.9
        # MiB, their chunk buffers 3.7
        monkeypatch.setattr(tape, "GROUPS", 2)
        rng = np.random.default_rng(seconds)
        x = 0.1 * rng.standard_normal((1, 16000 * seconds))
        kernels = rng.standard_normal((2 * CFG.n_filters, CFG.filter_len))
        pool_kernels = rng.uniform(0.1, 1.0, (CFG.n_filters, CFG.pool_len))
        tape.filter_pool(x, kernels, pool_kernels, CFG.pool_stride)
        out, peak = traced_peak(lambda: tape.filter_pool(x, kernels, pool_kernels, CFG.pool_stride).value)
        assert peak - out.nbytes <= 3 * 2 ** 20


class TestMelFrontend:
    def test_zero_input_log(self):
        fm = frontend_forward(Waveform(np.zeros(16000), 16000), init_params(MEL, 2), MEL)
        np.testing.assert_allclose(fm.values, math.log(1e-6), rtol=1e-9)
        assert fm.values.shape == (100, 40)

    @pytest.mark.parametrize("grid, match", [(dict(fmin=-1.0), "fmin"), (dict(fmin=300.0, fmax=300.0), "fmin"),
                                             (dict(fmax=8001.0), "fmax"), (dict(n_fft=500), "n_fft"),
                                             (dict(n_fft=0), "n_fft"), (dict(n_fft=256), "n_fft"),
                                             (dict(pool_len=400), "^pool_len must be odd$"),
                                             (dict(pool_len=3), "^pool_len must be >= 5$"),
                                             (dict(filter_len=1), "^filter_len must be >= 3$"),
                                             (dict(pool_stride=0), "^pool_stride must be >= 1$"),
                                             (dict(compression="sqrt"), "^compression must be one of"),
                                             (dict(filtering="sinc"), "^filtering must be one of")],
                             ids=["fmin<0", "fmin=fmax", "fmax>nyquist", "n_fft=500", "n_fft=0", "n_fft=256",
                                  "pool_len=400", "pool_len=3", "filter_len=1", "pool_stride=0", "compression",
                                  "filtering"])
    def test_bad_design_grid(self, grid, match):
        # n_fft=256 is a power of two, but shorter than the 400-sample analysis window
        with pytest.raises(ValueError, match=match):
            FrontendConfig(**grid)

    def test_tone_argmax_channel(self):
        fm = frontend_forward(tone(1000.0), init_params(MEL, 2), MEL)
        profile = fm.values.mean(axis=0)
        rows = mel_matrix(MEL)
        target_bin = round(1000 / 16000 * 512)
        expected = int(np.argmin(np.abs(rows.argmax(axis=1) - target_bin)))
        assert int(profile.argmax()) == expected

    def test_spcen_compression(self):
        cfg = variant_config("mel-pcen")
        fm = frontend_forward(tone(500.0, 0.5), init_params(cfg, 2), cfg)
        assert fm.values.shape == (50, 40)
        assert np.all(np.isfinite(fm.values))

    def test_bad_rate(self):
        with pytest.raises(BadRate):
            frontend_forward(Waveform(np.zeros(8000), 8000), init_params(MEL, 2), MEL)

    def test_pooled_graph_casts_the_projection_once(self):
        # the samples reach the STFT in float64 uncast; the energies come back
        # (B, N, M), C-ordered, in the batch's dtype
        xs = np.random.default_rng(4).standard_normal((2, 1700)).astype(np.float32)
        out = pooled_graph(xs, {}, MEL).value
        projection = stft_power(xs.astype(np.float64), MEL.n_fft, MEL.pool_stride) @ mel_matrix(MEL).T
        expected = projection.transpose(0, 2, 1).astype(np.float32)
        assert out.dtype == np.float32 and out.flags.c_contiguous
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("threads", [1, 2, 3, 5])
    def test_row_shards_equal_the_whole_batch(self, pool_threads, threads):
        # rows of 11, 1 and 100 frames, and one longer than the 400-frame
        # chunk budget; batches on both sides of the chunk edges (36 rows
        # of 1700 samples or four 1 s rows per chunk); oracle: the whole
        # batch in one STFT and one matmul
        pool_threads(threads)
        rng = np.random.default_rng(threads)
        for n_samples, batches in ((1700, (1, 2, 3, 35, 36, 37, 72, 73)), (100, (7, 8, 9, 16, 17, 65)),
                                   (16000, (3, 4, 5, 7, 8, 9, 16, 17, 65)), (144000, (1, 2, 3))):
            for batch in batches:
                xs = rng.standard_normal((batch, n_samples))
                serial = stft_power(xs, MEL.n_fft, MEL.pool_stride) @ mel_matrix(MEL).T
                assert np.array_equal(mel_power_features(xs, MEL), serial.transpose(0, 2, 1)), (n_samples, batch)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_memory_does_not_grow_with_the_batch(self, pool_threads, threads):
        # one chunk of four 1 s rows peaks at 2.8 MiB of STFT temporaries;
        # on two threads the slack is one chunk more, as the chunks of a
        # B=16 call may or may not overlap
        pool_threads(threads)
        extra = {}
        for batch in (16, 256):
            xs = np.random.default_rng(batch).standard_normal((batch, 16000))
            out, peak = traced_peak(lambda: mel_power_features(xs, MEL))
            extra[batch] = peak - out.nbytes
        assert abs(extra[256] - extra[16]) <= (threads - 1) * 3 * 2 ** 20 + 2 ** 20, extra


class TestParamCount:
    def test_table_values(self):
        leaf64 = FrontendConfig(n_filters=64, filtering="gabor", compression="spcen")
        assert param_count(leaf64) == 448
        melpcen64 = FrontendConfig(n_filters=64, filtering="mel", compression="spcen")
        assert param_count(melpcen64) == 256
        mel = FrontendConfig(n_filters=40, filtering="mel", compression="log")
        assert param_count(mel) == 0

    def test_other_variants(self):
        assert param_count(FrontendConfig(filtering="gabor", compression="log")) == 120
        assert param_count(FrontendConfig(filtering="gabor", compression="pcen")) == 240
        conv = FrontendConfig(filtering="normalized_conv", compression="spcen")
        assert param_count(conv) == 2 * 40 * 401 + 40 + 160


class TestLayout:
    LEAF6 = variant_config("leaf", n_filters=6, filter_len=65)

    def test_a_one_class_head_is_refused(self):
        # a one-class softmax has zero loss and gradient, and its (N, 1)
        # weights would load back from a snapshot as a vector
        with pytest.raises(ValueError, match="^head 0 needs at least 2 classes, got 1$"):
            init_multitask_params(self.LEAF6, [1, 3])
        with pytest.raises(ValueError, match="^head 1 needs at least 2 classes, got 0$"):
            init_multitask_params(self.LEAF6, [3, 0])

    def test_unknown_variant_is_refused(self):
        with pytest.raises(ValueError, match="^unknown frontend variant 'wavelet'; choose from "):
            variant_config("wavelet")

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4)])
    def test_feature_map_must_be_2d(self, shape):
        with pytest.raises(ValueError, match=r"^feature map must be 2-D \(frames x channels\)$"):
            FeatureMap(np.zeros(shape), 100.0)

    def test_class_counts_stop_at_the_first_missing_head(self):
        params = dict(init_multitask_params(self.LEAF6, [3, 4, 2]))
        assert class_counts(params) == (3, 4, 2)
        del params["head1_bias"]
        assert class_counts(params) == (3,)
        assert class_counts(frontend_param_values(self.LEAF6)) == ()

    @pytest.mark.parametrize("edit, problem", [
        (lambda v: v.pop("sigma"), "sigma is missing"),
        (lambda v: v.update(pcen_root=np.zeros(5)), "pcen_root has shape (5,), not (6,)"),
        (lambda v: v.update(head1_bias=np.zeros(2)), "head1_bias is unexpected"),
    ], ids=["missing", "shape", "extra"])
    def test_require_congruent_names_the_key(self, edit, problem):
        layout = init_multitask_params(self.LEAF6, [3])
        values = dict(layout)
        edit(values)
        with pytest.raises(ShapeMismatch) as exc:
            layout.require_congruent(values, what="values")
        assert str(exc.value) == f"values do not match parameter shapes: {problem}"
        layout.require_congruent(dict(layout))


class TestRenormalizeConv:
    def test_scales_to_unit_norm(self):
        out = renormalize_conv(np.array([[3.0, 4.0, 0.0], [0.0, 5.0, 12.0]]))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, rtol=1e-15)
        np.testing.assert_allclose(out[0], [0.6, 0.8, 0.0])

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        once = renormalize_conv(rng.standard_normal((4, 7)))
        np.testing.assert_allclose(renormalize_conv(once), once, atol=1e-12)

    def test_zero_filter(self):
        with pytest.raises(ZeroFilter):
            renormalize_conv(np.zeros((2, 5)))

    @pytest.mark.parametrize("shape", [(6,), (3, 5)], ids=["1-D", "odd-rows"])
    def test_rejects_non_paired_matrix(self, shape):
        with pytest.raises(ValueError, match=r"\(2N, W\)"):
            renormalize_conv(np.ones(shape))

    def test_float32_kernels_normalize_in_float64(self):
        kernels = np.random.default_rng(3).standard_normal((4, 7)).astype(np.float32)
        out = renormalize_conv(kernels)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, renormalize_conv(kernels.astype(np.float64)))

    def test_output_invariant_to_prescaling(self):
        rng = np.random.default_rng(4)
        kernels = rng.standard_normal((4, 101))
        x = tone(900.0, duration=0.05)
        a = squared_modulus(x.samples, renormalize_conv(kernels))
        b = squared_modulus(x.samples, renormalize_conv(10.0 * kernels))
        np.testing.assert_allclose(a, b, rtol=1e-10)


class TestMelEquivalenceAtInit:
    def test_channel_correlations_on_white_noise(self):
        # initialized filterbank tracks the mel pipeline frame by frame
        from leafaudio.cli import mel_equivalence_correlations

        x = Waveform(0.3 * np.random.default_rng(42).standard_normal(16000), 16000)
        corr = mel_equivalence_correlations(CFG, x)
        assert corr.shape == (40,)
        assert corr.min() >= 0.9
