"""Reverse-mode automatic differentiation over numpy arrays.

A computation is recorded as a DAG of :class:`Var` nodes.  Every operation
stores its parent nodes and a vector-Jacobian-product closure; calling
:func:`backward` on a scalar root walks the graph in reverse topological
order and accumulates gradients into each leaf's ``grad`` attribute.

Every operation gives one gradient rule per parent.  A live parent (a Var
that requires a gradient) gets its rule's result, unbroadcast to its shape;
a constant parent gets None, and its rule never runs.  The elementwise,
shape and loss operations are each one :func:`_op` call; the two fused
primitives below follow the same rule in their own adjoints.

Only the operations this package needs exist here.  Operands that are not
``Var`` (python scalars, numpy arrays) are treated as constants and never
become graph nodes, which both keeps graphs small and preserves the float32
dtype of training graphs under NEP-50 promotion rules.

Two fused primitives carry the frontend's cost, each one node with a
hand-written adjoint: :func:`filter_pool` (FFT filterbank, squared modulus
and strided pooling) and :func:`ema` (the PCEN moving average over all
frames).

:func:`filter_pool` streams.  Row by row and block by block, one walk
cuts an overlap-save block from the signal, transforms it, gets the
block's correlations with the bank, squares them into a small haloed
energy buffer, yields the windows of the frames that the block completes
and carries the unfinished tail into the next block.  No full-rate array
outlives its block; the block's correlations are kept only while a kernel
is differentiated, and its spectrum is never kept.  A signal that fits
one block of ``FFT_BLOCK`` samples is one block; a longer one is cut
into shorter blocks of ``STREAM_BLOCK`` samples, whose kernel spectra and
chunk buffers stay in cache, whatever the call (see :func:`_block_layout`).

The forward and the adjoint are two consumers of that walk.  The forward
makes each block's correlations by inverse FFT and pools its frames from
their windows.  The adjoint reads the kept correlations, which the walk
squares again into the same buffer, and adds each block's windows times
their frames' gradient into the pooling-kernel gradient.  Per row, the
frame gradient, times the 2 of d|z|^2, is spread back over the samples by
the transposed pooling, one batched matmul over the channels.  Per block,
``2 g corr`` is written into a reused FFT-length buffer and transformed,
and its product with the block's spectrum, one of them conjugated, is
added into a single (2, N, F) accumulator, whose inverse FFT gives the
kernel gradient.

All of that work is per channel, so :func:`filter_pool` splits the N
channels into ``GROUPS`` contiguous groups, where ``GROUPS`` is the number
of CPUs the process may run on, capped at N and at one group per
``MIN_GROUP_WORK`` channel-samples of FFT work.  Each group is one
independent task on the package's worker pool (``workers``), forward and
backward, and shares nothing with the other groups: in each pass it makes
its own block spectra, runs the walk above and writes its own channels of
the output or its own kernels' gradients.  With one group it runs in the
calling thread.  Inside a block, a group runs its per-channel work, from
the spectrum product to the squared energy forward and from ``d_corr`` to
the spectrum accumulator backward, over chunks of channels whose
correlations take about ``_CHUNK_BYTES`` (1 MiB: 10 channels of a float64
``STREAM_BLOCK``, 8 of a float32 1 s clip), in chunk-sized buffers.  Every
number is computed by the same operations whatever the grouping and the
chunking, so values and gradients depend on neither, bit for bit.

Each group of a call is lent a workspace of its own, which holds every
buffer the group uses: its kernel spectra, which the adjoint reuses as
its accumulator, its pooling buffer, for the adjoint its kept
correlations, and its chunk buffers.  Every buffer is scratch: nothing
in it is read before the call writes it.  A call takes the spare that the
last call with its workspace recipe (the arguments its workspaces are made
from) and grouping left, or makes one; one spare, the last one handed
back, is kept.  A call with nothing to differentiate hands the
workspaces back as it returns.  A differentiable node keeps them, with
their correlations, until it dies: a finalizer on the node's adjoint then
hands them back.  So two live graphs never share a buffer, ``backward``
may run twice on one graph, and each training step reuses the last one's
memory instead of taking fresh pages from the system (90.5 MiB a step at
B=16, 1 s, float32, 79.1 MiB of it correlations; 9.2 MiB for a 10 s
forward-only float64 call, in blocks of ``STREAM_BLOCK`` samples).
"""

from __future__ import annotations

import functools
import operator
import threading
import weakref
from types import SimpleNamespace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as _fft

from . import workers

# filter_pool's overlap-save block lengths.  A signal that fits one
# FFT_BLOCK is one block.  A longer one is cut into STREAM_BLOCK samples,
# whatever the call: at FFT_BLOCK a float64 channel group's kernel spectra
# (~5 MiB) and chunk buffers overflow a 2 MiB per-core L2 cache, and
# shorter blocks cost less per output sample even after their extra
# overlap.  A call that keeps its correlations for an adjoint keeps that
# overlap too, and still holds less: a float32 40-channel forward and
# backward traced a cold peak of 88 MiB against 96 at FFT_BLOCK (10 s,
# B=1), and 61 against 82 (2 s, B=4).  Only long clips were measured, so
# a clip of up to ~1 s (training's, evaluate's) stays one block.  The
# harness sweep (extract-long, a 10 s float64 leaf extract, 2 CPUs, 10 s
# runs; audio_s_per_s over the same round's FFT_BLOCK run, median of 7
# rounds, 3 where marked *; peak RSS, median):
#     block   4000*  4500  4800  5120  6000  6144*  6400  7200  8000  8192*  12000  16384
#     speed   1.07   1.11  1.12  1.08  1.15  1.09   1.18  1.02  1.09  1.06   1.10   1
#     RSS MB  78.5   78.6  78.6  78.7  79.4  79.7   80.2  81.1  81.7  82.1   85.2   90.1
# 6000 and 6400 are within one round's spread of each other (0.98-1.34
# and 0.87-1.43); 6000 holds less
FFT_BLOCK = 16384
STREAM_BLOCK = 6000
# filter_pool runs each group's per-channel work over chunks of channels
# whose correlations take about this many bytes (10 channels of a float64
# STREAM_BLOCK, 8 of a float32 1 s clip), in chunk-sized buffers: channel-wide
# ones would set the memory of every call
_CHUNK_BYTES = 2 ** 20

# filter_pool's channel groups, one per CPU this process may run on, run
# on the shared worker pool.  A group gets at least MIN_GROUP_WORK
# channel-samples of FFT per call: on 2 cores a smaller one spends more on
# handing the interpreter lock between threads than it gains (measured,
# forward and backward: a 6-channel, 0.1 s batch of 2 ran ~1.7x slower in
# two groups, a 40-channel 1 s clip ~1.2x faster)
GROUPS = workers.CPUS
MIN_GROUP_WORK = 2 ** 18
# filter_pool's spare: ((workspace recipe, grouping), group workspaces) of the
# last call that handed them back, or None.  The lock is reentrant: a dying
# node may hand them back in a garbage collection while this thread holds it
_spare = None
_spare_lock = threading.RLock()

__all__ = [
    "Var",
    "leaf",
    "constant",
    "backward",
    "exp",
    "log",
    "sin",
    "cos",
    "power",
    "reduce_sum",
    "reduce_mean",
    "reshape",
    "stack",
    "filter_pool",
    "ema",
    "softmax_cross_entropy",
]


class Var:
    """A node holding a numpy value and, after ``backward``, its gradient."""

    __slots__ = ("value", "parents", "vjp", "requires_grad", "grad")

    # keep numpy from consuming Var operands elementwise
    __array_ufunc__ = None

    def __init__(self, value, parents=(), vjp=None, requires_grad=False):
        self.value = np.asarray(value)
        self.parents = tuple(parents)
        self.vjp = vjp
        self.requires_grad = requires_grad
        self.grad = None

    @property
    def shape(self):
        return self.value.shape

    @property
    def dtype(self):
        return self.value.dtype

    def __repr__(self):
        return f"Var(shape={self.value.shape}, grad={'set' if self.grad is not None else 'none'})"

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, index):
        return getitem(self, index)


def leaf(value) -> Var:
    """Differentiable graph input (a learnable parameter)."""
    return Var(value, requires_grad=True)


def constant(value) -> Var:
    """Non-differentiable graph input."""
    return Var(value)


def _value(x):
    return x.value if isinstance(x, Var) else x


def _node(value, parents, vjp) -> Var:
    if not any(_live(p) for p in parents):
        return Var(value)
    return Var(value, parents, vjp, requires_grad=True)


def _unbroadcast(g, shape):
    """Sum gradient ``g`` down to ``shape`` (undo numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _live(x):
    return isinstance(x, Var) and x.requires_grad


def _op(out, parents, *grads):
    """A node of value ``out`` whose parent i gets ``grads[i](g)``,
    unbroadcast to its shape.  A parent that is not a live Var gets None,
    and its rule never runs."""

    def adjoint(g):
        return tuple(_unbroadcast(grad(g), parent.value.shape) if _live(parent) else None
                     for parent, grad in zip(parents, grads))

    return _node(out, parents, adjoint)


# -- elementwise arithmetic ---------------------------------------------


def add(a, b):
    return _op(_value(a) + _value(b), (a, b), lambda g: g, lambda g: g)


def sub(a, b):
    return _op(_value(a) - _value(b), (a, b), lambda g: g, lambda g: -g)


def mul(a, b):
    va, vb = _value(a), _value(b)
    return _op(va * vb, (a, b), lambda g: g * vb, lambda g: g * va)


def div(a, b):
    va, vb = _value(a), _value(b)
    return _op(va / vb, (a, b), lambda g: g / vb, lambda g: -g * va / (vb * vb))


def neg(a):
    return _op(-_value(a), (a,), lambda g: -g)


def power(a, b):
    """Elementwise ``a ** b``; ``b`` may be a scalar, array, or Var."""
    va, vb = _value(a), _value(b)
    out = va ** vb

    def grad_b(g):
        # d(a^b)/db = a^b * ln a; define the a -> 0 limit as 0.
        la = np.zeros_like(out)
        np.log(va, out=la, where=va > 0)
        return g * out * la

    return _op(out, (a, b), lambda g: g * vb * va ** (vb - 1), grad_b)


def exp(a):
    out = np.exp(_value(a))
    return _op(out, (a,), lambda g: g * out)


def log(a):
    va = _value(a)
    return _op(np.log(va), (a,), lambda g: g / va)


def sin(a):
    va = _value(a)
    return _op(np.sin(va), (a,), lambda g: g * np.cos(va))


def cos(a):
    va = _value(a)
    return _op(np.cos(va), (a,), lambda g: -g * np.sin(va))


# -- reductions and shape ops --------------------------------------------


def reduce_sum(a, axis=None):
    va = _value(a)

    def grad(g):
        g = np.asarray(g)
        if axis is not None:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, va.shape)

    return _op(va.sum(axis=axis), (a,), grad)


def reduce_mean(a, axis=None):
    total = reduce_sum(a, axis=axis)
    return mul(total, 1.0 / float(_value(a).size // total.value.size))


def reshape(a, shape):
    va = _value(a)
    return _op(va.reshape(shape), (a,), lambda g: g.reshape(va.shape))


def getitem(a, index):
    va = _value(a)

    def grad(g):
        acc = np.zeros_like(va)
        np.add.at(acc, index, g)
        return acc

    return _op(va[index], (a,), grad)


def stack(items):
    """The items side by side along a new second axis."""
    out = np.stack([_value(x) for x in items], axis=1)
    return _op(out, tuple(items), *(lambda g, i=i: np.take(g, i, axis=1) for i in range(len(items))))


def matmul(a, b):
    va, vb = _value(a), _value(b)
    return _op(va @ vb, (a, b), lambda g: g @ vb.T, lambda g: va.T @ g)


# -- DSP primitives -------------------------------------------------------


def _block_layout(n_samples, width):
    """(FFT length, output span per block, block count) for overlap-save.

    A signal that fits ``FFT_BLOCK`` is one block at the shortest fast
    length that keeps the circular correlation free of wrap-around.  A
    longer one is cut into blocks of ``STREAM_BLOCK`` samples, in which a
    group's kernel spectra and chunk buffers stay in cache, whose spans of
    valid output tile the signal, each with its own halos.
    """
    half = (width - 1) // 2
    size = _fft.next_fast_len(max(n_samples + half, width), real=True)
    # a kernel wider than half a block gets a longer block, so spans stay > W
    shortest = _fft.next_fast_len(2 * width, real=True)
    if size <= max(FFT_BLOCK, shortest):
        return size, n_samples, 1
    block = max(STREAM_BLOCK, shortest)
    span = block - (width - 1)
    return block, span, -(-n_samples // span)


def filter_pool(x, kernels, pool_kernels, stride):
    """Squared-modulus filterbank followed by depthwise lowpass pooling.

    ``x`` (B, T) is a constant signal batch.  ``kernels`` (2N, W) holds the
    real and imaginary parts of complex filter n in rows 2n and 2n+1, and
    ``pool_kernels`` (N, P) one lowpass kernel per channel; W and P are
    odd.  With h = (W-1)/2, hp = (P-1)/2 and zeros outside the signal::

        corr[b, c, t] = sum_j x[b, t + j - h] * kernels[c, j]
        energy[b, n, t] = corr[b, 2n, t]**2 + corr[b, 2n+1, t]**2
        out[b, n, m] = sum_p energy[b, n, m*stride + p - hp] * pool_kernels[n, p]

    for m < M = ceil(T / stride); the result has shape (B, N, M).  The
    correlation is an FFT product, exact up to rounding, taken block by
    block (overlap-save) in blocks of ``STREAM_BLOCK`` samples when T
    exceeds ``FFT_BLOCK``; each frame is pooled as soon as the block that
    completes its window is made.  The call transforms in its result dtype,
    whatever its operands' dtypes.
    The channels run as up to ``GROUPS`` contiguous groups, each one task
    on the worker pool, forward and backward, that makes the signal's
    block spectra itself, and a group's per-channel work runs over chunks
    of a few channels; the result depends on neither.  Only ``kernels`` and
    ``pool_kernels`` are differentiated; the adjoint computes both
    gradients whenever either is live and returns None for a constant one.
    ``x``, ``kernels`` and ``pool_kernels`` must be 2-D and ``stride`` an
    integer of at least 1, or it raises ``ValueError``.

    Each group works in a workspace of its own, from the spare of the last
    call with the same workspace recipe and grouping or new.  A call with
    nothing live hands the workspaces back as it returns; otherwise the
    node keeps them, with every block's correlations, until the node dies.  The node keeps no
    block spectra: the backward walks the blocks like the forward, in the
    same pooling buffer, and makes them again.
    """
    if _live(x):
        raise ValueError("filter_pool does not differentiate its signal; pass x as a constant")
    vx, vk, vp = _value(x), _value(kernels), _value(pool_kernels)
    for what, value in (("a (batch, samples) signal", vx), ("(2N, W) kernels", vk), ("(N, P) pool_kernels", vp)):
        if value.ndim != 2:
            raise ValueError(f"filter_pool takes {what}, got shape {value.shape}")
    batch, n_samples = vx.shape
    n_kernels, width = vk.shape
    n, pool_width = vp.shape
    if width % 2 != 1 or pool_width % 2 != 1:
        raise ValueError("kernel length must be odd")
    if n_kernels != 2 * n:
        raise ValueError(f"{n_kernels} filter kernels do not pair with {n} pooling kernels")
    try:
        stride = operator.index(stride)
    except TypeError:
        raise ValueError(f"stride must be an integer, got stride={stride!r}") from None
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got stride={stride}")
    dtype = np.result_type(vx.dtype, vk.dtype, np.float32)
    out = np.empty((batch, n, -(-n_samples // stride)), dtype=dtype)
    live = _live(kernels) or _live(pool_kernels)
    layout = size, span, n_blocks = _block_layout(n_samples, width)
    chunk = max(1, _CHUNK_BYTES // (2 * size * dtype.itemsize))
    bounds = _channel_groups(n, batch * n_blocks * size * n)
    recipe = (chunk, dtype, batch * n_blocks, size, span, pool_width, live)
    key = recipe, tuple(bounds)
    spare = _swap_spare(None)
    spaces = spare[1] if spare and spare[0] == key else [_workspace(hi - lo, *recipe) for lo, hi in bounds]
    # the bank as (2, N, W) [real; imaginary] pairs, the layout of the chunk buffers
    pairs = vk.reshape(n, 2, width).swapaxes(0, 1)
    groups = [(ws, vx, pairs[:, lo:hi], vp[lo:hi], stride, layout) for ws, (lo, hi) in zip(spaces, bounds)]
    workers.run([functools.partial(_forward_group, *group, out[:, lo:hi])
                 for group, (lo, hi) in zip(groups, bounds)])
    if not live:
        _swap_spare((key, spaces))
        return constant(out)

    def vjp(g):
        gk, gp = np.empty((n, 2, width), dtype=vk.dtype), np.zeros(vp.shape, dtype=dtype)
        workers.run([functools.partial(_backward_group, *group, g[:, lo:hi], gk.swapaxes(0, 1)[:, lo:hi],
                                       gp[lo:hi]) for group, (lo, hi) in zip(groups, bounds)])
        return None, gk.reshape(vk.shape) if _live(kernels) else None, gp if _live(pool_kernels) else None

    weakref.finalize(vjp, _swap_spare, (key, spaces))
    return _node(out, (x, kernels, pool_kernels), vjp)


def _channel_groups(n, work):
    """[lo, hi) bounds of the contiguous channel groups of a call that
    transforms ``work`` channel-samples: ``GROUPS`` of them, at most one
    per channel and per ``MIN_GROUP_WORK``, and at least one."""
    return workers.bounds(n, max(1, min(GROUPS, n, work // MIN_GROUP_WORK)))


def _workspace(n, chunk, dtype, items, size, span, pool_width, live):
    """Every buffer of one :func:`filter_pool` channel group of ``n``
    channels, in a namespace, for ``items`` blocks of ``size`` samples with
    ``span`` of output each.  None holds a block spectrum: the group makes
    its own, forward and backward.

    Three hold all n channels: ``spectra``, the conjugate kernel spectra,
    which the backward reuses as its spectrum accumulator, ``held``, the
    haloed pooling buffer, and ``corr``, with ``live`` every item's and
    block's correlations, else None.  ``prod`` and ``scratch`` hold one
    chunk of channels (see :func:`_walk`), and ``chunks`` gives the
    [lo, hi) bounds of the chunks, ``chunk`` wide but the last.  Full
    chunks, not even ones: scipy's FFT runs rows a SIMD vector's worth at a
    time, so leftover rows cost more (float32, 16200 samples: 60 us a row
    in a 7-channel chunk, 47 in an 8-channel one).
    """
    chunk = min(chunk, n)
    return SimpleNamespace(
        spectra=np.empty((2, n, size // 2 + 1), dtype=np.result_type(dtype, np.complex64)),
        held=np.empty((n, pool_width - 1 + span + (pool_width - 1) // 2), dtype=dtype),
        corr=np.empty((items, 2, n, size), dtype=dtype) if live else None,
        prod=np.empty((2, chunk, size // 2 + 1), dtype=np.result_type(dtype, np.complex64)),
        scratch=np.empty((2, chunk, size), dtype=dtype),
        chunks=[(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)])


def _swap_spare(new):
    """Leave ``new``, (key, group workspaces) or None, as the spare and
    return the spare it replaces."""
    global _spare
    with _spare_lock:
        old, _spare = _spare, new
    return old


def _taps(width, size):
    """Where tap j of a centered ``width``-tap kernel goes in a circular
    buffer of ``size`` samples: (j - h) mod size."""
    return (np.arange(width) - (width - 1) // 2) % size


def _block_spectrum(row, start, half, block):
    """rfft of the overlap-save block of signal ``row`` that starts at
    ``start``: row[start - h : start + size - h], zeros outside the signal,
    rotated left by h so that output start + r lands at index r against a
    centered kernel.  ``block`` is the size-sample buffer it is laid out
    in."""
    size = len(block)
    body = row[start: start + size - half]
    block[: len(body)] = body
    block[len(body): size - half] = 0.0
    block[size - half:] = row[start - half: start] if start else 0.0
    return _fft.rfft(block)


def _walk(ws, vx, vk, vp, stride, layout, transform):
    """The streaming walk of one channel group, with (2, n, W) ``vk``
    pairs and (n, P) ``vp``, over the rows and blocks of the signal
    ``vx``, cut by the call's ``layout`` (see :func:`_block_layout`), in
    the group's workspace ``ws``.

    The per-channel work runs over the chunks ``ws.chunks`` of the group's
    channels, each in (2, C, ...) chunk buffers, [real; imaginary], whose C
    channels' correlations take about ``_CHUNK_BYTES``: ``prod`` for the
    spectrum product and ``scratch`` for the correlations when they are not
    kept, else for the backward's ``d_corr``; its imaginary half holds the
    square-sum temporary.  Before that, ``scratch`` lays out the padded
    kernels and then each block until its spectrum is made, in the call's
    dtype: a call transforms in its result dtype, whatever the dtypes of
    its signal and bank.

    With ``transform`` it first fills ``ws.spectra`` with the kernels'
    conjugate spectra.  Per block it makes the signal's spectrum and the
    correlations: with ``transform`` by inverse FFT (into ``ws.corr``, kept
    for every block, unless it is None), else it reads the kept ones.  It
    squares them into ``ws.held`` and yields (row, start, keep, spectrum,
    correlations, frames, windows): the block's first sample and length,
    its kept correlations or None, the slice of the frames whose window the
    block completes and their (n, frames, P) windows, valid until the next
    block.  Plain numpy only, so that groups can run on threads of their
    own.
    """
    batch, n_samples = vx.shape
    width, pool_width = vk.shape[-1], vp.shape[1]
    pool_half = (pool_width - 1) // 2
    n_frames = -(-n_samples // stride)
    size, span, n_blocks = layout
    chunks = ws.chunks
    if transform:
        _kernel_spectra(vk, ws.scratch, ws.spectra, chunks)
    kept = ws.corr is not None
    # the haloed energy samples [lo, lo + filled) of one row: the unfinished
    # tail of the last frame window (< P), one block's span and the right halo
    held = ws.held
    every_window = sliding_window_view(held, pool_width, axis=1)
    block = ws.scratch[0, 0]
    for b in range(batch):
        held[:, :pool_half] = 0.0
        lo, filled, done = 0, pool_half, 0
        for i in range(n_blocks):
            start = i * span
            keep = min(span, n_samples - start)
            xf = _block_spectrum(vx[b], start, (width - 1) // 2, block)
            corr = ws.corr[b * n_blocks + i] if kept else None
            for c_lo, c_hi in chunks:
                part = corr[:, c_lo:c_hi] if kept else ws.scratch[:, : c_hi - c_lo]
                if transform:
                    np.fft.irfft(np.multiply(xf, ws.spectra[:, c_lo:c_hi], out=ws.prod[:, : c_hi - c_lo]),
                                 size, axis=-1, out=part)
                energy = held[c_lo:c_hi, filled: filled + keep]
                np.multiply(part[0, :, :keep], part[0, :, :keep], out=energy)
                # the imaginary half squares in place unless it is kept
                energy += np.multiply(part[1, :, :keep], part[1, :, :keep],
                                      out=ws.scratch[1, : c_hi - c_lo, :keep])
            filled += keep
            if i == n_blocks - 1:
                held[:, filled: filled + pool_half] = 0.0
                filled += pool_half
                ready = n_frames
            else:  # frames whose window ends inside what is held
                ready = max(done, min(n_frames, (lo + filled - pool_width) // stride + 1))
            windows = every_window[:, done * stride - lo:: stride][:, : ready - done]
            yield b, start, keep, xf, corr, slice(done, ready), windows
            done = ready
            # carry from the next frame's start on (it may start past all of it)
            cut = min(done * stride - lo, filled)
            held[:, : filled - cut] = held[:, cut: filled]
            lo, filled = lo + cut, filled - cut


def _forward_group(ws, vx, vk, vp, stride, layout, out):
    """:func:`filter_pool`'s forward on one channel group: each frame of
    the (B, n, M) view ``out`` pooled from its window on the walk."""
    for b, _, _, _, _, frames, windows in _walk(ws, vx, vk, vp, stride, layout, transform=True):
        out[b, :, frames] = np.einsum("nmp,np->nm", windows, vp)


def _backward_group(ws, vx, vk, vp, stride, layout, g, gk, gp):
    """:func:`filter_pool`'s adjoint on one channel group: for its (B, n, M)
    frame gradient ``g``, the gradient of its (2, n, W) ``vk`` pairs written
    into ``gk`` and its (n, P) ``vp``'s added into the zeroed ``gp``, on the
    same walk as the forward, over the correlations that it kept."""
    n_samples = vx.shape[1]
    size = layout[0]
    taps = _taps(vk.shape[-1], size)
    chunks = ws.chunks
    d_corr, spec = ws.scratch, ws.spectra
    # the kernel gradient's spectrum is the sum over rows and blocks
    # of xf conj(rfft(d corr)), accumulated as its conjugate:
    # conj(a) b = conj(a conj(b)) exactly
    spec[...] = 0.0
    for b, start, keep, xf, corr, frames, windows in _walk(ws, vx, vk, vp, stride, layout, transform=False):
        if not start:  # d corr = 2 d_energy corr; the 2 is folded into g (exact)
            d_energy = _transposed_pool(2.0 * g[b], vp, stride, n_samples, d_corr.dtype)
        d_corr[..., keep:] = 0.0  # the rfft reads it all: clear what a longer block or an irfft left
        np.conjugate(xf, out=xf)
        for lo, hi in chunks:
            part = d_corr[:, : hi - lo]
            np.multiply(d_energy[lo:hi, start: start + keep], corr[:, lo:hi, :keep], out=part[..., :keep])
            term = _fft.rfft(part, axis=-1)
            term *= xf
            spec[:, lo:hi] += term
        gp += np.einsum("nm,nmp->np", g[b, :, frames], windows)
    for lo, hi in chunks:
        dk = np.fft.irfft(np.conjugate(spec[:, lo:hi], out=spec[:, lo:hi]), size, axis=-1,
                          out=d_corr[:, : hi - lo])
        gk[:, lo:hi] = dk[..., taps]


def _kernel_spectra(kernels, shifted, spectra, chunks):
    """Fill ``spectra`` (2, n, F) with the conjugate spectra of (2, n, W)
    kernel pairs for correlation at the length of ``shifted``, chunk by
    chunk of ``chunks`` in ``shifted``, the (2, C, size) chunk scratch,
    which holds a previous block's correlations, so it is zeroed first.
    Each kernel is laid out circularly with its center at index 0 (see
    :func:`_taps`).
    """
    taps = _taps(kernels.shape[-1], shifted.shape[-1])
    shifted[...] = 0.0  # only the taps are written below
    for lo, hi in chunks:
        shifted[:, : hi - lo, taps] = kernels[:, lo:hi]
        np.conjugate(_fft.rfft(shifted[:, : hi - lo], axis=-1), out=spectra[:, lo:hi])


def _transposed_pool(g, pool_kernels, stride, n_samples, dtype):
    """Adjoint of strided pooling: (N, M) frame grads to (N, T).

    Frame m reads haloed energy m*stride + p, so position c*stride + r
    takes sum_j g[c - j] * k[j*stride + r], with the kernel zero-padded to
    J = ceil(P / stride) panels of ``stride`` taps.  Each stride-wide
    output panel c is the lag window (g[c], g[c-1], ..., g[c-J+1]) times
    the (J, stride) kernel panels: one batched (N, Q, J) @ (N, J, stride)
    matmul.  The Q panels cover both the last frame's reach, M + J - 1,
    and the haloed signal, which is the longer one when P < stride.
    """
    n_channels, n_frames = g.shape
    width = pool_kernels.shape[1]
    half = (width - 1) // 2
    taps = -(-width // stride)
    n_panels = max(n_frames + taps - 1, -(-(n_samples + half) // stride))
    lagged = np.zeros((n_channels, n_panels + taps - 1), dtype=dtype)
    lagged[:, taps - 1: taps - 1 + n_frames] = g
    lags = np.ascontiguousarray(sliding_window_view(lagged, taps, axis=1)[..., ::-1])
    panels = np.zeros((n_channels, taps * stride), dtype=dtype)
    panels[:, :width] = pool_kernels
    d_energy = np.matmul(lags, panels.reshape(n_channels, taps, stride))
    return d_energy.reshape(n_channels, -1)[:, half: half + n_samples]


def ema(feats, smooth):
    """Per-channel exponential moving average along the last axis.

    ``feats`` has shape (..., N, M) and ``smooth`` (N,)::

        out[..., 0] = feats[..., 0]
        out[..., t] = (1 - smooth) * out[..., t-1] + smooth * feats[..., t]

    The adjoint runs the same recurrence backwards in time.
    """
    vf, vs = _value(feats), _value(smooth)
    keep = 1.0 - vs
    n_frames = vf.shape[-1]
    out = np.empty(vf.shape, dtype=np.result_type(vf, vs))
    out[..., 0] = vf[..., 0]
    for t in range(1, n_frames):
        out[..., t] = keep * out[..., t - 1] + vs * vf[..., t]

    def vjp(g):
        adj = np.empty_like(out)  # d root / d out[..., t], all paths summed
        adj[..., -1] = g[..., -1]
        for t in range(n_frames - 1, 0, -1):
            adj[..., t - 1] = g[..., t - 1] + adj[..., t] * keep
        gf = gs = None
        if _live(feats):
            gf = adj * vs[:, None]
            gf[..., 0] = adj[..., 0]
        if _live(smooth):
            gs = _unbroadcast((adj[..., 1:] * (vf[..., 1:] - out[..., :-1])).sum(axis=-1), vs.shape)
        return gf, gs

    return _node(out, (feats, smooth), vjp)


def softmax_cross_entropy(logits, labels):
    """Cross entropy of softmax(logits) against integer labels.

    ``logits`` has shape (B, C), ``labels`` (B,).  Returns a scalar Var,
    the batch sum of per-example losses.
    """
    vz = _value(logits)
    labels = np.asarray(labels)
    rows = np.arange(vz.shape[0])
    shifted = vz - vz.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_norm
    out = (-log_probs[rows, labels]).sum()

    def grad(g):
        probs = np.exp(log_probs)
        probs[rows, labels] -= 1.0
        return g * probs

    return _op(np.asarray(out, dtype=vz.dtype), (logits,), grad)


# -- backward pass --------------------------------------------------------


def _toposort(root):
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if _live(parent) and id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(root: Var) -> None:
    """Accumulate d(root)/d(leaf) into ``grad`` of every reachable Var."""
    if not root.requires_grad:
        return
    order = _toposort(root)
    for node in order:
        node.grad = None
    root.grad = np.ones(root.value.shape, dtype=root.value.dtype)
    for node in reversed(order):
        if node.vjp is None or node.grad is None:
            continue
        for parent, grad in zip(node.parents, node.vjp(node.grad)):
            if grad is None:
                continue
            if parent.grad is None:
                parent.grad = grad
            else:
                parent.grad = parent.grad + grad
