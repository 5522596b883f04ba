"""Unit tests for the reverse-mode engine.

Every operation's vjp is checked against central finite differences on
random inputs; the fused filter-pool primitive is additionally checked
against naive O(T*W) loops and np.correlate, its pooling adjoint against
an np.add.at scatter and its pooling kernels' gradient against a direct
sum, the moving average and its smoothing gradient against frame-by-frame
loops.
"""

import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from leafaudio import tape
from leafaudio.frontend import variant_config
from leafaudio.params import ParamSet, init_multitask_params
from leafaudio.tasks import make_task, sample_batch
from leafaudio.training import multitask_loss_and_grad


def numeric_grad(fn, x, h=1e-6):
    """Central-difference gradient of scalar fn at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = fn(x)
        flat[i] = orig - h
        lo = fn(x)
        flat[i] = orig
        grad.ravel()[i] = (hi - lo) / (2 * h)
    return grad


def tape_grad(fn, x):
    v = tape.leaf(np.asarray(x, dtype=np.float64))
    out = fn(v)
    tape.backward(out)
    return out.value, v.grad


def check_op(fn, x, h=1e-6, rtol=1e-6, atol=1e-8):
    _, analytic = tape_grad(fn, x)
    numeric = numeric_grad(lambda a: float(fn(tape.constant(a)).value), x, h=h)
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


RNG = np.random.default_rng(1234)


class TestElementwise:
    def test_add_sub_mul_div(self):
        x = RNG.standard_normal((3, 4)) + 3.0
        check_op(lambda v: tape.reduce_sum(v + 2.0 * v - v / 3.0 + (1.0 - v) + (2.0 / v)), x)

    def test_scalar_and_array_constants(self):
        x = RNG.standard_normal((4,))
        c = RNG.standard_normal((4,))
        check_op(lambda v: tape.reduce_sum(v * c + (c - v)), x)

    def test_neg_pow_scalar(self):
        x = np.abs(RNG.standard_normal((5,))) + 0.5
        check_op(lambda v: tape.reduce_sum(-(v ** 3) + v ** -0.5), x)

    def test_pow_tensor_exponent(self):
        base = np.abs(RNG.standard_normal((4,))) + 0.5
        expo = RNG.uniform(0.5, 2.0, 4)

        def wrt_base(v):
            return tape.reduce_sum(tape.power(v, expo))

        def wrt_expo(v):
            return tape.reduce_sum(tape.power(tape.constant(base), v))

        check_op(wrt_base, base)
        check_op(wrt_expo, expo)

    def test_pow_var_var(self):
        a = tape.leaf(np.array([2.0, 3.0]))
        b = tape.leaf(np.array([1.5, 0.5]))
        out = tape.reduce_sum(tape.power(a, b))
        tape.backward(out)
        np.testing.assert_allclose(a.grad, b.value * a.value ** (b.value - 1))
        np.testing.assert_allclose(b.grad, a.value ** b.value * np.log(a.value))

    def test_pow_zero_base_grad_is_finite(self):
        a = tape.constant(np.array([0.0, 1.0]))
        b = tape.leaf(np.array([0.5, 0.5]))
        out = tape.reduce_sum(tape.power(a, b))
        tape.backward(out)
        assert np.all(np.isfinite(b.grad))
        assert b.grad[0] == 0.0

    def test_transcendental(self):
        x = np.abs(RNG.standard_normal((6,))) + 0.2
        check_op(lambda v: tape.reduce_sum(tape.exp(-v) + tape.log(v)), x)
        check_op(lambda v: tape.reduce_sum(tape.sin(v) * tape.cos(2.0 * v)), x)

    def test_broadcasting_grads(self):
        col = RNG.standard_normal((3, 1))
        row = RNG.standard_normal((4,))
        check_op(lambda v: tape.reduce_sum(v * row), col)
        check_op(lambda v: tape.reduce_sum(tape.constant(col) * v), row)


class TestShapeOps:
    def test_reduce_sum_axis(self):
        x = RNG.standard_normal((3, 4, 2))
        check_op(lambda v: tape.reduce_sum(tape.reduce_sum(v, axis=1) * 2.0), x)

    def test_reduce_mean(self):
        x = RNG.standard_normal((3, 5))
        check_op(lambda v: tape.reduce_sum(tape.reduce_mean(v, axis=1) ** 2), x)

    def test_reshape(self):
        x = RNG.standard_normal((2, 6))
        check_op(lambda v: tape.reduce_sum(tape.reshape(v, (3, 4)) ** 2), x)

    def test_getitem_slices(self):
        x = RNG.standard_normal((4, 6))
        check_op(lambda v: tape.reduce_sum(v[:, 0::2] * v[:, 1::2]), x)

    def test_getitem_fancy(self):
        x = RNG.standard_normal((5, 3))
        idx = np.array([0, 2, 2, 4])
        check_op(lambda v: tape.reduce_sum(v[idx] ** 2), x)

    def test_stack(self):
        x = RNG.standard_normal((3,))
        check_op(lambda v: tape.reduce_sum(tape.stack([v, 2.0 * v]) ** 2), x)

    def test_matmul(self):
        a = RNG.standard_normal((3, 4))
        b = RNG.standard_normal((4, 2))
        check_op(lambda v: tape.reduce_sum(tape.matmul(v, b) ** 2), a)
        check_op(lambda v: tape.reduce_sum(tape.matmul(tape.constant(a), v) ** 2), b)


def direct_correlate_same(x, k):
    """Naive zero-padded same-length cross-correlation oracle."""
    n, w = len(x), len(k)
    h = (w - 1) // 2
    out = np.zeros(n)
    for t in range(n):
        for j in range(w):
            u = t + j - h
            if 0 <= u < n:
                out[t] += x[u] * k[j]
    return out


def identity_pool(n, dtype=np.float64):
    """Pooling kernels and stride that make filter_pool return |x * phi|^2."""
    return np.ones((n, 1), dtype=dtype), 1


def paired_with_zero(k):
    """(C, W) kernels -> (2C, W) pairs (k_c, 0), so channel c is corr(x, k_c)^2."""
    pairs = np.zeros((2 * k.shape[0], k.shape[1]), dtype=k.dtype)
    pairs[0::2] = k
    return pairs


class TestBankCorrelate:
    """The correlation stage of filter_pool, isolated by identity pooling."""

    def test_matches_direct_oracle(self):
        x = RNG.standard_normal((2, 37))
        k = RNG.standard_normal((3, 9))
        out = tape.filter_pool(tape.constant(x), tape.constant(paired_with_zero(k)), *identity_pool(3)).value
        for b in range(2):
            for c in range(3):
                np.testing.assert_allclose(out[b, c], direct_correlate_same(x[b], k[c]) ** 2, atol=1e-12)

    def test_kernel_gradient(self):
        x = RNG.standard_normal((2, 23))
        k = RNG.standard_normal((4, 7))
        weights = RNG.standard_normal((2, 2, 23))

        def loss(kv):
            return tape.reduce_sum(tape.filter_pool(x, kv, *identity_pool(2)) * weights)

        _, analytic = tape_grad(loss, k)
        numeric = numeric_grad(lambda a: float(loss(tape.constant(a)).value), k)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-8)

    def test_preserves_float32(self):
        x = RNG.standard_normal((1, 50)).astype(np.float32)
        k = RNG.standard_normal((2, 11)).astype(np.float32)
        out = tape.filter_pool(tape.constant(x), tape.constant(k), *identity_pool(1, np.float32))
        assert out.value.dtype == np.float32


def direct_pool(f, k, stride):
    """Naive depthwise same-correlation + decimation oracle."""
    batch, n, t = f.shape
    _, p = k.shape
    h = (p - 1) // 2
    m = -(-t // stride)
    out = np.zeros((batch, n, m))
    for b in range(batch):
        for c in range(n):
            full = direct_correlate_same(f[b, c], k[c])
            out[b, c] = full[::stride][:m]
    return out


UNIT_PAIR = np.array([[1.0], [0.0]])


def pool_via_filter(f, k, stride):
    """Depthwise pooling of f (B, N, T) through filter_pool.

    The width-1 pair (1, 0) applied to sqrt(f) leaves energy f, so each
    channel is one call; pooling is linear, so signed f pools as f+ - f-.
    """
    def nonnegative(part):
        return np.stack([tape.filter_pool(np.sqrt(part[:, c]), UNIT_PAIR, k[c: c + 1], stride).value[:, 0]
                         for c in range(f.shape[1])], axis=1)

    return nonnegative(np.maximum(f, 0.0)) - nonnegative(np.maximum(-f, 0.0))


class TestDepthwisePool:
    """The pooling stage of filter_pool."""

    def test_matches_direct_oracle(self):
        f = RNG.standard_normal((2, 3, 41))
        k = RNG.standard_normal((3, 7))
        out = pool_via_filter(f, k, 5)
        np.testing.assert_allclose(out, direct_pool(f, k, 5), atol=1e-12)

    def test_frame_count(self):
        f = np.zeros((1, 1, 16000))
        k = np.ones((1, 3))
        out = pool_via_filter(f, k, 160)
        assert out.shape == (1, 1, 100)
        out = pool_via_filter(np.zeros((1, 1, 16001)), k, 160)
        assert out.shape == (1, 1, 101)

    def test_gradients(self):
        # energies x^2 and 0.34 x^2 from width-1 pairs; the filter-kernel
        # gradient runs through the transposed pooling
        x = RNG.standard_normal((2, 23))
        pairs = np.array([[1.0], [0.0], [0.5], [0.3]])
        k = RNG.standard_normal((2, 5))
        weights = RNG.standard_normal((2, 2, 5))

        def loss_pairs(pv):
            return tape.reduce_sum(tape.filter_pool(x, pv, tape.constant(k), 5) * weights)

        def loss_k(kv):
            return tape.reduce_sum(tape.filter_pool(x, tape.constant(pairs), kv, 5) * weights)

        _, analytic = tape_grad(loss_pairs, pairs)
        numeric = numeric_grad(lambda a: float(loss_pairs(tape.constant(a)).value), pairs)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-8)

        _, analytic = tape_grad(loss_k, k)
        numeric = numeric_grad(lambda a: float(loss_k(tape.constant(a)).value), k)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-8)


def direct_energy(x, kernels):
    """Plain-numpy oracle of the (B, N, T) energy: np.correlate, square-sum."""
    h = (kernels.shape[1] - 1) // 2
    corr = np.array([[np.correlate(np.pad(row, h), k, "valid") for k in kernels] for row in x])
    return corr[:, 0::2] ** 2 + corr[:, 1::2] ** 2


def direct_filter_pool(x, kernels, pool_kernels, stride):
    """Plain-numpy oracle: the direct energy, pooled at kept frames."""
    hp = (pool_kernels.shape[1] - 1) // 2
    m = -(-x.shape[1] // stride)
    return np.array([[np.correlate(np.pad(e, hp), pk, "valid")[::stride][:m]
                      for e, pk in zip(row, pool_kernels)] for row in direct_energy(x, kernels)])


def direct_pool_kernel_grad(x, kernels, pool_width, stride, g):
    """Plain-numpy oracle of the pooling kernels' gradient for frame
    gradient g: gp[n, p] = sum over b, m of g[b, n, m] E[b, n, m*stride + p - hp],
    with E the direct energy, zero outside the signal."""
    hp = (pool_width - 1) // 2
    padded = np.pad(direct_energy(x, kernels), ((0, 0), (0, 0), (hp, hp)))
    gp = np.zeros((g.shape[1], pool_width))
    for m in range(g.shape[2]):
        gp += np.einsum("bn,bnp->np", g[..., m], padded[..., m * stride: m * stride + pool_width])
    return gp


def unit_rows(rng, shape):
    k = rng.standard_normal(shape)
    return k / np.linalg.norm(k, axis=1, keepdims=True)


def filter_pool_inputs(rng, n_samples, width, pool_width, n=2, batch=2):
    x = 0.1 * rng.standard_normal((batch, n_samples))
    pool_kernels = rng.uniform(0.1, 1.0, (n, pool_width))
    return x, unit_rows(rng, (2 * n, width)), pool_kernels / pool_kernels.sum(axis=1, keepdims=True)


# streaming edge cases at 32-sample blocks and W = 9: spans of 24 samples
STREAMING_EDGES = [
    pytest.param(200, 61, 5, id="window-spans-two-boundaries"),
    # frame 1 is complete after block 2; blocks 1, 3 and 4 pool nothing
    pytest.param(100, 5, 50, id="stride-longer-than-span"),
    # frame 3 reads samples 19..23, the last of block 0
    pytest.param(100, 5, 7, id="window-ends-on-boundary"),
    pytest.param(5, 3, 2, id="shorter-than-kernel"),
]
# (n_samples, pool_width, stride, block): one block, and the streaming edges
ONE_BLOCK_AND_STREAMING_EDGES = [
    pytest.param(300, 5, 3, 16384, id="one-block"),
    *[pytest.param(*case.values, 32, id=case.id) for case in STREAMING_EDGES],
]
# a call that keeps its correlations for an adjoint, and one that does not
LAYOUTS = [pytest.param(True, id="differentiated"), pytest.param(False, id="forward-only")]


def stream_in(monkeypatch, block):
    """Cut every call into ``block``-sample blocks once its signal
    outgrows one block."""
    monkeypatch.setattr(tape, "FFT_BLOCK", block)
    monkeypatch.setattr(tape, "STREAM_BLOCK", block)


class TestFilterPool:
    # at W = 401 a signal of up to FFT_BLOCK - 200 samples is one block; a
    # longer one is cut into spans of STREAM_BLOCK - 400 samples
    FITS = tape.FFT_BLOCK - 200
    SPAN = tape.STREAM_BLOCK - 400

    @pytest.mark.parametrize("live", LAYOUTS)
    @pytest.mark.parametrize("n_samples, blocks", [
        pytest.param(150, 1, id="shorter-than-kernel"),
        pytest.param(16000, 1, id="16000"),
        pytest.param(FITS - 1, 1, id="fits-1"),
        pytest.param(FITS, 1, id="fits"),
        pytest.param(FITS + 1, 3, id="fits+1"),
        pytest.param(3 * SPAN + 1, 4, id="three-spans-and-1"),
        pytest.param(3 * (tape.FFT_BLOCK - 400) + 17, 9, id="47969"),
    ])
    def test_matches_direct_oracle(self, live, n_samples, blocks):
        assert tape._block_layout(n_samples, 401)[2] == blocks
        x, kernels, pool_kernels = filter_pool_inputs(np.random.default_rng(n_samples), n_samples, 401, 401)
        out = tape.filter_pool(x, tape.leaf(kernels) if live else kernels, pool_kernels, 160).value
        assert out.shape == (2, 2, -(-n_samples // 160))
        np.testing.assert_allclose(out, direct_filter_pool(x, kernels, pool_kernels, 160), rtol=0, atol=1e-12)

    def test_block_length_ignores_liveness(self, monkeypatch):
        # a 1 s clip is one block and a longer one streams in shorter
        # blocks, whether the call differentiates a kernel or not (the
        # golden clip lengths at W = 401)
        monkeypatch.setattr(tape, "_spare", None)
        for n_samples, layout in ((16000, (16200, 16000, 1)), (47969, (6000, 5600, 9))):
            assert tape._block_layout(n_samples, 401) == layout
            x, kernels, pool_kernels = filter_pool_inputs(RNG, n_samples, 401, 401, n=1, batch=1)
            expected = direct_filter_pool(x, kernels, pool_kernels, 160)
            for live in (False, True):
                node = tape.filter_pool(x, tape.leaf(kernels) if live else kernels, pool_kernels, 160)
                np.testing.assert_allclose(node.value, expected, rtol=0, atol=1e-12)
                del node  # a live node hands its workspaces back as it dies
                # the recipe's block count and FFT size
                assert tape._spare[0][0][2:4] == (layout[2], layout[0])

    @pytest.mark.parametrize("n_samples, pool_width, stride", [
        pytest.param(300, 5, 3, id="300"),
        # four blocks, the last keeping 17 samples: a stale backward tail shows
        pytest.param(3 * (tape.STREAM_BLOCK - 8) + 17, 5, 3, id="17993"),
        # the haloed signal reaches past the last frame's pooling window
        pytest.param(96, 3, 8, id="pool-narrower-than-stride"),
    ])
    def test_gradients(self, n_samples, pool_width, stride):
        rng = np.random.default_rng(n_samples)
        x, kernels, pool_kernels = filter_pool_inputs(rng, n_samples, 9, pool_width, n=1)
        weights = rng.standard_normal((2, 1, -(-n_samples // stride)))

        def loss_kernels(kv):
            return tape.reduce_sum(tape.filter_pool(x, kv, pool_kernels, stride) * weights)

        def loss_pool(pv):
            return tape.reduce_sum(tape.filter_pool(x, kernels, pv, stride) * weights)

        for loss, value in ((loss_kernels, kernels), (loss_pool, pool_kernels)):
            _, analytic = tape_grad(loss, value)
            numeric = numeric_grad(lambda a: float(loss(tape.constant(a)).value), value)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("live", LAYOUTS)
    @pytest.mark.parametrize("n_samples, pool_width, stride", STREAMING_EDGES)
    def test_streaming_edges(self, monkeypatch, n_samples, pool_width, stride, live):
        # the checked call and the numeric gradients' calls all stream
        stream_in(monkeypatch, 32)
        assert tape._block_layout(1000, 9)[1] == 24
        rng = np.random.default_rng(pool_width + stride)
        x, kernels, pool_kernels = filter_pool_inputs(rng, n_samples, 9, pool_width, n=1)
        out = tape.filter_pool(x, tape.leaf(kernels) if live else kernels, pool_kernels, stride).value
        np.testing.assert_allclose(out, direct_filter_pool(x, kernels, pool_kernels, stride), rtol=0, atol=1e-12)
        weights = rng.standard_normal(out.shape)

        def loss_kernels(kv):
            return tape.reduce_sum(tape.filter_pool(x, kv, pool_kernels, stride) * weights)

        def loss_pool(pv):
            return tape.reduce_sum(tape.filter_pool(x, kernels, pv, stride) * weights)

        for loss, value in ((loss_kernels, kernels), (loss_pool, pool_kernels)):
            _, analytic = tape_grad(loss, value)
            numeric = numeric_grad(lambda a: float(loss(tape.constant(a)).value), value)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("n_samples, pool_width, stride, fft_block", ONE_BLOCK_AND_STREAMING_EDGES)
    def test_pool_kernel_gradient_matches_direct_oracle(self, monkeypatch, n_samples, pool_width, stride,
                                                         fft_block):
        stream_in(monkeypatch, fft_block)
        rng = np.random.default_rng(n_samples + pool_width)
        x, kernels, pool_kernels = filter_pool_inputs(rng, n_samples, 9, pool_width)
        node = tape.filter_pool(x, kernels, tape.leaf(pool_kernels), stride)
        g = rng.standard_normal(node.shape)
        _, _, gp = node.vjp(g)
        np.testing.assert_allclose(gp, direct_pool_kernel_grad(x, kernels, pool_width, stride, g),
                                   rtol=0, atol=1e-12)

    def test_float32_in_float32_out(self):
        x, kernels, pool_kernels = filter_pool_inputs(RNG, 2000, 41, 21)
        out = tape.filter_pool(x.astype(np.float32), tape.leaf(kernels.astype(np.float32)),
                               tape.leaf(pool_kernels.astype(np.float32)), 10)
        assert out.value.dtype == np.float32
        tape.backward(tape.reduce_sum(out))
        assert out.parents[1].grad.dtype == out.parents[2].grad.dtype == np.float32

    @pytest.mark.parametrize("width, pool_width, n_kernels, message", [
        (8, 5, 4, "kernel length must be odd"),
        (9, 4, 4, "kernel length must be odd"),
        (9, 5, 3, "3 filter kernels do not pair with 2 pooling kernels"),
    ], ids=["even-kernel", "even-pool-kernel", "unpaired"])
    def test_malformed_kernels_raise(self, width, pool_width, n_kernels, message):
        x, kernels, pool_kernels = filter_pool_inputs(RNG, 100, width, pool_width)
        with pytest.raises(ValueError, match=f"^{message}$"):
            tape.filter_pool(x, kernels[:n_kernels], pool_kernels, 4)

    @pytest.mark.parametrize("stride", [0, -2])
    def test_stride_below_1_raises(self, stride):
        x, kernels, pool_kernels = filter_pool_inputs(RNG, 100, 9, 5)
        with pytest.raises(ValueError, match=f"^stride must be at least 1, got stride={stride}$"):
            tape.filter_pool(x, kernels, pool_kernels, stride)

    @pytest.mark.parametrize("shape", [(100,), (1, 2, 100)], ids=["1-d", "3-d"])
    def test_signal_that_is_not_2d_raises(self, shape):
        _, kernels, pool_kernels = filter_pool_inputs(RNG, 100, 9, 5)
        message = re.escape(f"filter_pool takes a (batch, samples) signal, got shape {shape}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            tape.filter_pool(np.zeros(shape), kernels, pool_kernels, 4)

    @pytest.mark.parametrize("operand, axes, shape", [
        ("kernels", "(2N, W)", (36,)),
        ("kernels", "(2N, W)", (1, 4, 9)),
        ("pool_kernels", "(N, P)", (10,)),
        ("pool_kernels", "(N, P)", (1, 2, 5)),
    ], ids=["1-d-kernels", "3-d-kernels", "1-d-pool-kernels", "3-d-pool-kernels"])
    def test_bank_that_is_not_2d_raises(self, operand, axes, shape):
        x, kernels, pool_kernels = filter_pool_inputs(RNG, 100, 9, 5)
        bank = {"kernels": kernels, "pool_kernels": pool_kernels}
        bank[operand] = bank[operand].reshape(shape)
        message = re.escape(f"filter_pool takes {axes} {operand}, got shape {shape}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            tape.filter_pool(x, stride=4, **bank)

    @pytest.mark.parametrize("stride", [2.5, 4.0, "4", None])
    def test_non_integer_stride_raises(self, stride):
        x, kernels, pool_kernels = filter_pool_inputs(RNG, 100, 9, 5)
        with pytest.raises(ValueError, match=f"^stride must be an integer, got stride={re.escape(repr(stride))}$"):
            tape.filter_pool(x, kernels, pool_kernels, stride)

    def test_live_signal_raises(self):
        x, kernels, pool_kernels = filter_pool_inputs(RNG, 100, 9, 5)
        with pytest.raises(ValueError):
            tape.filter_pool(tape.leaf(x), kernels, pool_kernels, 4)

    @pytest.mark.parametrize("live_kernels", [True, False], ids=["constant-pool-kernels", "constant-kernels"])
    def test_adjoint_gives_a_constant_kernel_none(self, live_kernels):
        x, kernels, pool_kernels = filter_pool_inputs(RNG, 100, 9, 5)
        wrap = (tape.leaf, tape.constant) if live_kernels else (tape.constant, tape.leaf)
        node = tape.filter_pool(x, wrap[0](kernels), wrap[1](pool_kernels), 4)
        gx, gk, gp = node.vjp(np.ones(node.shape))
        assert gx is None
        assert (gp is None, gk is None) == (live_kernels, not live_kernels)


class TestChannelGroups:
    """filter_pool's values and gradients do not depend on how many channel
    groups it runs, bit for bit."""

    @staticmethod
    def values_and_grads(x, kernels, pool_kernels, stride, weights):
        kv, pv = tape.leaf(kernels), tape.leaf(pool_kernels)
        out = tape.filter_pool(x, kv, pv, stride)
        tape.backward(tape.reduce_sum(out * weights))
        return out.value, kv.grad, pv.grad

    @pytest.mark.parametrize("live", LAYOUTS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_samples, pool_width, stride, fft_block", ONE_BLOCK_AND_STREAMING_EDGES)
    def test_three_channels(self, monkeypatch, dtype, n_samples, pool_width, stride, fft_block, live):
        # N = 3: two groups split it 1 + 2, three or four give one channel each
        stream_in(monkeypatch, fft_block)
        monkeypatch.setattr(tape, "MIN_GROUP_WORK", 1)
        rng = np.random.default_rng(n_samples + stride)
        inputs = [a.astype(dtype) for a in filter_pool_inputs(rng, n_samples, 9, pool_width, n=3)]
        weights = rng.standard_normal((2, 3, -(-n_samples // stride))).astype(dtype)
        results = []
        for groups in (1, 2, 3, 4):
            monkeypatch.setattr(tape, "GROUPS", groups)
            results.append(self.values_and_grads(*inputs, stride, weights) if live
                           else (tape.filter_pool(*inputs, stride).value,))
        for got in results[1:]:
            for a, b in zip(got, results[0]):
                assert a.dtype == b.dtype == dtype
                assert np.array_equal(a, b)

    def test_group_count(self, monkeypatch):
        monkeypatch.setattr(tape, "GROUPS", 2)
        big = 2 * tape.MIN_GROUP_WORK
        assert tape._channel_groups(3, big) == [(0, 1), (1, 3)]
        assert tape._channel_groups(1, big) == [(0, 1)]
        assert tape._channel_groups(3, big - 1) == [(0, 3)]  # too small to share out
        monkeypatch.setattr(tape, "GROUPS", 8)
        assert tape._channel_groups(40, 5 * tape.MIN_GROUP_WORK) == [(0, 8), (8, 16), (16, 24), (24, 32), (32, 40)]

    def test_float32_two_task_step(self, monkeypatch):
        cfg = variant_config("leaf")
        task_list = [make_task("pitch", task_id=0), make_task("am", task_id=1)]
        batch = sample_batch(task_list, 16, seed=0, step=0)
        params = init_multitask_params(cfg, [t.num_classes for t in task_list], dtype=np.float32)
        # the heads start at zero, which would give the frontend no gradient
        rng = np.random.default_rng(0)
        params = ParamSet({name: value + 0.1 * rng.standard_normal(value.shape, dtype=np.float32)
                           if name.endswith("_weights") else value for name, value in params.items()})
        steps = []
        for groups in (1, 2):
            monkeypatch.setattr(tape, "GROUPS", groups)
            steps.append(multitask_loss_and_grad(batch, params, cfg, 2)[:2])
        (loss1, grads1), (loss2, grads2) = steps
        assert loss1 == loss2
        assert grads1.keys() == grads2.keys()
        for name in grads1:
            assert grads1[name].dtype == np.float32
            assert np.any(grads1[name]), name
            assert np.array_equal(grads1[name], grads2[name]), name


class TestChannelChunks:
    """filter_pool's values and gradients do not depend on how many
    channels a chunk of a group holds, bit for bit, whether the signal and
    the bank share a dtype or not."""

    @pytest.mark.parametrize("groups", [1, 2, 3])
    @pytest.mark.parametrize("live", [True, False], ids=["live", "forward-only"])
    @pytest.mark.parametrize("signal_dtype, bank_dtype", [
        pytest.param(np.float32, np.float32, id="float32"),
        pytest.param(np.float64, np.float64, id="float64"),
        pytest.param(np.float64, np.float32, id="float64-float32"),  # extract --model, float32 snapshot
        pytest.param(np.float32, np.float64, id="float32-float64"),  # a float32 batch, float64 parameters
    ])
    @pytest.mark.parametrize("n_samples, pool_width, stride, fft_block", ONE_BLOCK_AND_STREAMING_EDGES)
    def test_one_two_and_all_channels_a_chunk(self, monkeypatch, n_samples, pool_width, stride, fft_block,
                                              signal_dtype, bank_dtype, live, groups):
        # N = 5: chunks of 2 leave a 1-channel chunk in a group of 3 or 5
        stream_in(monkeypatch, fft_block)
        monkeypatch.setattr(tape, "MIN_GROUP_WORK", 1)
        monkeypatch.setattr(tape, "GROUPS", groups)
        rng = np.random.default_rng(n_samples + stride)
        x, kernels, pool_kernels = filter_pool_inputs(rng, n_samples, 9, pool_width, n=5)
        x, kernels, pool_kernels = x.astype(signal_dtype), kernels.astype(bank_dtype), pool_kernels.astype(bank_dtype)
        dtype = np.result_type(signal_dtype, bank_dtype)
        weights = rng.standard_normal((2, 5, -(-n_samples // stride))).astype(dtype)
        chunk_bytes = 2 * tape._block_layout(n_samples, 9)[0] * np.dtype(dtype).itemsize
        results = []
        for channels in (1, 2, 5):
            monkeypatch.setattr(tape, "_CHUNK_BYTES", channels * chunk_bytes)
            monkeypatch.setattr(tape, "_spare", None)
            if live:
                results.append(TestChannelGroups.values_and_grads(x, kernels, pool_kernels, stride, weights))
            else:
                results.append((tape.filter_pool(x, kernels, pool_kernels, stride).value,))
            assert all(ws.scratch.shape[1] == min(channels, len(ws.held)) for ws in tape._spare[1])
        value = results[0][0]
        assert value.dtype == dtype
        # a call transforms in its result dtype: a float64 result is within
        # float64 rounding of the oracle whichever operand was float32
        expected = direct_filter_pool(*(a.astype(np.float64) for a in (x, kernels, pool_kernels)), stride)
        tolerance = 1e-12 if dtype == np.float64 else 1e-6
        assert np.abs(value - expected).max() <= tolerance * np.abs(expected).max()
        for got in results[1:]:
            for a, b in zip(got, results[0]):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)


class TestWorkspaces:
    """filter_pool reuses its buffers from call to call, but a live node
    keeps its own until it dies, so graphs never share them."""

    @staticmethod
    def graph(x, kernels, pool_kernels, weights):
        kv, pv = tape.leaf(kernels), tape.leaf(pool_kernels)
        return tape.reduce_sum(tape.filter_pool(x, kv, pv, 3) * weights), kv, pv

    def test_live_graphs_do_not_share_buffers(self, monkeypatch):
        monkeypatch.setattr(tape, "GROUPS", 2)
        monkeypatch.setattr(tape, "MIN_GROUP_WORK", 1)
        rng = np.random.default_rng(7)
        inputs = [filter_pool_inputs(rng, 300, 9, 5, n=3) for _ in range(2)]
        weights = rng.standard_normal((2, 3, 100))
        isolated = []
        for args in inputs:
            loss, kv, pv = self.graph(*args, weights)
            tape.backward(loss)
            isolated.append((kv.grad, pv.grad))
        graphs = [self.graph(*args, weights) for args in inputs]  # both live at once
        for k in (1, 0, 0, 1):  # interleaved, and each one twice
            loss, kv, pv = graphs[k]
            tape.backward(loss)
            assert np.array_equal(kv.grad, isolated[k][0])
            assert np.array_equal(pv.grad, isolated[k][1])

    def test_concurrent_callers_do_not_share_buffers(self, monkeypatch):
        monkeypatch.setattr(tape, "GROUPS", 2)
        monkeypatch.setattr(tape, "MIN_GROUP_WORK", 1)
        rng = np.random.default_rng(9)
        inputs = [filter_pool_inputs(rng, 300, 9, 5, n=3) for _ in range(4)]
        weights = rng.standard_normal((2, 3, 100))

        def grads(args):
            loss, kv, pv = self.graph(*args, weights)
            tape.backward(loss)
            return kv.grad, pv.grad

        expected = [grads(args) for args in inputs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as callers:
                futures = [callers.submit(grads, args) for args in inputs * 5]
                got = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for k, (gk, gp) in enumerate(got):
            assert np.array_equal(gk, expected[k % 4][0])
            assert np.array_equal(gp, expected[k % 4][1])

    def test_second_step_reuses_the_workspaces(self, monkeypatch):
        # B=16, 1 s, float32: the first step makes the kept correlations
        # (~80 MiB) and the other buffers, the second takes them back
        monkeypatch.setattr(tape, "_spare", None)
        cfg = variant_config("leaf")
        batch = sample_batch([make_task("pitch")], 16, seed=0, step=0)
        params = init_multitask_params(cfg, [make_task("pitch").num_classes], dtype=np.float32)
        peaks = []
        for _ in range(2):
            tracemalloc.start()
            try:
                multitask_loss_and_grad(batch, params, cfg, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] / 4

    def test_other_shapes_leave_one_spare_set(self, monkeypatch):
        monkeypatch.setattr(tape, "GROUPS", 2)
        monkeypatch.setattr(tape, "MIN_GROUP_WORK", 1)
        monkeypatch.setattr(tape, "_spare", None)
        rng = np.random.default_rng(8)
        for n_samples in (300, 420, 300, 96):
            x, kernels, pool_kernels = filter_pool_inputs(rng, n_samples, 9, 5, n=3)
            loss, _, _ = self.graph(x, kernels, pool_kernels, 1.0)
            tape.backward(loss)
            del loss
            tape.filter_pool(x, kernels, pool_kernels, 3)
        size = tape._block_layout(96, 9)[0]
        key, spaces = tape._spare
        assert key[0][2:4] == (2, size)  # the recipe's item count and FFT size
        assert [ws.spectra.shape for ws in spaces] == [(2, 1, size // 2 + 1), (2, 2, size // 2 + 1)]
        assert all(ws.corr is None for ws in spaces)  # the last call had nothing to differentiate
        # a node that dies after a later call hands back the last workspaces
        x, kernels, pool_kernels = filter_pool_inputs(rng, 420, 9, 5, n=3)
        loss, _, _ = self.graph(x, kernels, pool_kernels, 1.0)
        tape.filter_pool(x[:, :96], kernels, pool_kernels, 3)
        del loss
        key, spaces = tape._spare
        size = tape._block_layout(420, 9)[0]
        assert key[0][2:4] == (2, size)
        assert [ws.corr.shape for ws in spaces] == [(2, 2, 1, size), (2, 2, 2, size)]

    def test_a_narrower_kernel_reads_no_taps_of_a_wider_one(self, monkeypatch):
        # W = 9 and W = 7 at 300 samples both take FFT size 320 and span 300,
        # so their calls may share a spare; the W = 7 call must not see the
        # outer taps that the W = 9 call laid out
        monkeypatch.setattr(tape, "_spare", None)
        rng = np.random.default_rng(9)
        for width in (9, 7, 9):
            assert tape._block_layout(300, width)[:2] == (320, 300)
            x, kernels, pool_kernels = filter_pool_inputs(rng, 300, width, 5, n=3)
            got = tape.filter_pool(x, kernels, pool_kernels, 3).value
            np.testing.assert_allclose(got, direct_filter_pool(x, kernels, pool_kernels, 3), atol=1e-12)

    def test_spare_holds_one_workspace_per_group(self, monkeypatch):
        monkeypatch.setattr(tape, "MIN_GROUP_WORK", 1)
        monkeypatch.setattr(tape, "_spare", None)
        x, kernels, pool_kernels = filter_pool_inputs(np.random.default_rng(6), 300, 9, 5, n=3)
        outs, spares = [], []
        for groups in (2, 2, 1, 3):
            monkeypatch.setattr(tape, "GROUPS", groups)
            outs.append(tape.filter_pool(x, kernels, pool_kernels, 3).value)
            spares.append(tape._spare[1])
        assert spares[1] is spares[0] and all(a is b for a, b in zip(*spares[:2]))
        assert [[len(ws.held) for ws in spare] for spare in spares[1:]] == [[1, 2], [3], [1, 1, 1]]
        assert all(np.array_equal(out, outs[0]) for out in outs)


def scatter_transposed_pool(g, pool_kernels, stride, n_samples):
    """np.add.at oracle of the pooling adjoint: frame m's gradient times
    k[p] lands on haloed energy sample m*stride + p."""
    batch, n, n_frames = g.shape
    width = pool_kernels.shape[1]
    d_energy = np.zeros((batch, n, n_samples + width - 1))
    where = np.arange(n_frames)[:, None] * stride + np.arange(width)
    np.add.at(d_energy, (slice(None), slice(None), where), g[..., None] * pool_kernels[:, None, :])
    half = (width - 1) // 2
    return d_energy[..., half: half + n_samples]


class TestTransposedPool:
    """The pooling adjoint inside filter_pool's backward."""

    @pytest.mark.parametrize("pool_width, stride, n_samples", [
        (3, 160, 1600),  # P < stride and T % stride == 0
        (5, 5, 23),
        (11, 3, 40),
        (401, 160, 16000),
    ])
    def test_matches_scatter_oracle(self, pool_width, stride, n_samples):
        # one (N, M) row of frame gradients a call, against the batched oracle
        rng = np.random.default_rng(pool_width)
        g = rng.standard_normal((2, 3, -(-n_samples // stride)))
        k = rng.standard_normal((3, pool_width))
        out = np.stack([tape._transposed_pool(row, k, stride, n_samples, np.float64) for row in g])
        np.testing.assert_allclose(out, scatter_transposed_pool(g, k, stride, n_samples), rtol=0, atol=1e-12)


def ema_loop(f, s):
    """Frame-by-frame moving average, the recurrence written out."""
    out = np.empty_like(f)
    state = f[..., 0]
    out[..., 0] = state
    for t in range(1, f.shape[-1]):
        state = (1.0 - s) * state + s * f[..., t]
        out[..., t] = state
    return out


class TestEma:
    def test_matches_frame_loop(self):
        f = RNG.uniform(0.0, 3.0, (2, 4, 30))
        s = RNG.uniform(0.01, 0.9, 4)
        np.testing.assert_array_equal(tape.ema(f, s).value, ema_loop(f, s))
        f32, s32 = f.astype(np.float32), s.astype(np.float32)
        np.testing.assert_array_equal(tape.ema(f32, s32).value, ema_loop(f32, s32))

    def test_gradients(self):
        f = RNG.uniform(0.0, 3.0, (2, 3, 12))
        s = RNG.uniform(0.05, 0.9, 3)
        weights = RNG.standard_normal((2, 3, 12))
        check_op(lambda v: tape.reduce_sum(tape.ema(v, s) * weights), f)
        check_op(lambda v: tape.reduce_sum(tape.ema(f, v) * weights), s)

    @pytest.mark.parametrize("shape", [(2, 3, 12), (4, 6, 2), (3, 5), (2, 3, 1)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_smoothing_gradient_matches_frame_loop(self, shape, dtype):
        # reference, in float64: d out[t]/ds = f[t] - out[t-1] + (1 - s) d out[t-1]/ds,
        # frame by frame, times g and summed over the batch and the frames
        f = RNG.uniform(0.0, 3.0, shape)
        s = RNG.uniform(0.05, 0.9, shape[-2])
        g = RNG.standard_normal(shape)
        out, d_out = ema_loop(f, s), np.zeros(shape)
        for t in range(1, shape[-1]):
            d_out[..., t] = f[..., t] - out[..., t - 1] + (1.0 - s) * d_out[..., t - 1]
        expected = (g * d_out).reshape(-1, *shape[-2:]).sum(axis=(0, 2))
        _, gs = tape.ema(f.astype(dtype), tape.leaf(s.astype(dtype))).vjp(g.astype(dtype))
        assert gs.dtype == dtype
        if dtype == np.float64:
            np.testing.assert_allclose(gs, expected, rtol=1e-12)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_loss(self):
        logits = np.zeros((4, 5))
        labels = np.array([0, 1, 2, 3])
        out = tape.softmax_cross_entropy(tape.constant(logits), labels)
        np.testing.assert_allclose(out.value, 4 * np.log(5.0), rtol=1e-12)

    def test_gradient(self):
        logits = RNG.standard_normal((3, 4))
        labels = np.array([1, 0, 3])

        def loss(v):
            return tape.softmax_cross_entropy(v, labels)

        _, analytic = tape_grad(loss, logits)
        numeric = numeric_grad(lambda a: float(loss(tape.constant(a)).value), logits)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-9)


def on_both(f):
    """Unary op ``f`` run on each operand, the two results added."""
    return lambda u, v: f(u) + f(v)


# each op on a leaf and a constant operand, in either order
ONE_RULE_OPS = {
    "add": tape.add,
    "sub": tape.sub,
    "mul": tape.mul,
    "div": tape.div,
    "power": tape.power,
    "matmul": tape.matmul,
    "stack": lambda u, v: tape.stack([u, v]),
    "neg": on_both(tape.neg),
    "exp": on_both(tape.exp),
    "log": on_both(tape.log),
    "sin": on_both(tape.sin),
    "cos": on_both(tape.cos),
    "reduce_sum": on_both(lambda a: tape.reduce_sum(a, axis=0)),
    "reshape": on_both(lambda a: tape.reshape(a, (16,))),
    "getitem": on_both(lambda a: tape.getitem(a, (slice(1, None), [0, 2, 2]))),
    "softmax_cross_entropy": on_both(lambda a: tape.softmax_cross_entropy(a, np.array([0, 3, 1, 3]))),
}


class TestOneRule:
    """Every op gives a live parent its rule's gradient and a constant one
    None, without running the constant's rule."""

    def test_a_constant_parents_rule_never_runs(self):
        def refuse(g):
            raise AssertionError("a constant parent's rule ran")

        x = tape.leaf(np.ones((1, 3)))
        for const in (np.ones(3), tape.constant(np.ones(3))):
            node = tape._op(np.ones((2, 3)), (x, const), lambda g: 2.0 * g, refuse)
            gx, gc = node.vjp(np.ones((2, 3)))
            assert gc is None
            np.testing.assert_array_equal(gx, [[4.0, 4.0, 4.0]])  # unbroadcast to x's shape

    @pytest.mark.parametrize("leaf_first", [True, False], ids=["leaf-first", "constant-first"])
    @pytest.mark.parametrize("op", ONE_RULE_OPS.values(), ids=ONE_RULE_OPS.keys())
    def test_a_constant_operand_gets_no_gradient(self, op, leaf_first):
        x, c = np.random.default_rng(3).uniform(0.5, 2.0, (2, 4, 4))
        grads = []
        for const in (c, tape.constant(c)):
            u = tape.leaf(x)
            tape.backward(tape.reduce_sum(op(u, const) if leaf_first else op(const, u)))
            grads.append(u.grad)
        assert const.grad is None
        assert grads[0].tobytes() == grads[1].tobytes()


class TestBackward:
    def test_shared_subexpression_accumulates(self):
        x = tape.leaf(np.array(3.0))
        y = x * x  # reused twice below
        out = y + y
        tape.backward(out)
        np.testing.assert_allclose(x.grad, 12.0)

    def test_constant_branches_are_pruned(self):
        x = tape.constant(np.ones(4))
        y = x * 2.0 + 1.0
        assert not y.requires_grad and y.parents == ()

    def test_diamond_graph(self):
        x = np.array([1.5, -0.5])
        check_op(lambda v: tape.reduce_sum((v + 1.0) * (v * 2.0)), x)

    def test_root_with_nothing_to_differentiate(self):
        x = tape.constant(np.ones(4))
        root = tape.reduce_sum(x * 2.0)
        tape.backward(root)
        assert root.grad is None and x.grad is None

    def test_grad_reset_between_backwards(self):
        x = tape.leaf(np.array(2.0))
        out = x * 3.0
        tape.backward(out)
        first = x.grad.copy()
        tape.backward(out)
        np.testing.assert_allclose(x.grad, first)


class TestPairedSquareSum:
    """The square-sum stage of filter_pool: width-1 kernels w give c = w x."""

    def test_value_and_gradient(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((2, 9))
        w = rng.standard_normal((4, 1))
        c = w[None, :, :] * x[:, None, :]
        out = tape.filter_pool(x, w, *identity_pool(2)).value
        np.testing.assert_allclose(out, c[:, 0::2] ** 2 + c[:, 1::2] ** 2, rtol=1e-12)

        weights = rng.standard_normal((2, 2, 9))

        def loss(v):
            return tape.reduce_sum(tape.filter_pool(x, v, *identity_pool(2)) * weights)

        _, analytic = tape_grad(loss, w)
        numeric = numeric_grad(lambda a: float(loss(tape.constant(a)).value), w)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-8)
