"""Reverse-mode automatic differentiation over numpy arrays.

A computation is recorded as a DAG of :class:`Var` nodes.  Every operation
stores its parent nodes and a vector-Jacobian-product closure; calling
:func:`backward` on a scalar root walks the graph in reverse topological
order and accumulates gradients into each leaf's ``grad`` attribute.

Only the operations this package needs exist here.  Operands that are not
``Var`` (python scalars, numpy arrays) are treated as constants and never
become graph nodes, which both keeps graphs small and preserves the float32
dtype of training graphs under NEP-50 promotion rules.

Two fused primitives carry the frontend's cost, each one node with a
hand-written adjoint: :func:`filter_pool` (FFT filterbank, squared modulus
and strided pooling) and :func:`ema` (the PCEN moving average over all
frames).

:func:`filter_pool` streams.  Row by row and block by block, it cuts an
overlap-save block from the signal, transforms it, correlates it with the
bank, squares it into a small haloed energy buffer, pools every frame
whose window the block completes and carries the unfinished tail into the
next block.  No full-rate array outlives its block; the block's
correlations are kept only while a kernel is differentiated, and its
spectrum is never kept.

The adjoint walks the same rows and blocks.  Per row, the frame gradient,
times the 2 of d|z|^2, is spread back over the samples by the transposed
pooling, one batched matmul over the channels.  Per block, ``2 g corr`` is
written into one reused FFT-length buffer and transformed; the block's
spectrum is made again from the signal, and the product of the two, one
of them conjugated, is added into a single (2, N, F) accumulator, whose
one inverse FFT gives the kernel gradient.  The block's energy is squared
again from its kept correlations into one row's buffer, which the
pooling-kernel gradient reads.

All of that work is per channel, so :func:`filter_pool` splits the N
channels into ``GROUPS`` contiguous groups, where ``GROUPS`` is the number
of CPUs the process may run on, capped at N and at one group per
``MIN_GROUP_WORK`` channel-samples of FFT work.  Each group is one
independent task on the package's worker pool (``workers``), forward and
backward, and shares nothing with the other groups: in each pass it makes
its own block spectra, runs the streaming loop above and writes its own
channels of the output or its own kernels' gradients.  With one group it
runs in the calling thread.  Every number is computed by the same
operations whatever the grouping, so values and gradients do not depend
on ``GROUPS``, bit for bit.

One workspace is lent per call: the padded kernels, the spectrum product,
the correlations, the pooling buffer and, for the adjoint, ``d_corr`` and
``energy``, each holding the channels on one axis, so that a group works
in views of its own.  A call takes the spare that the last call of its
shape left, or makes one; one spare, of the last shape, is kept.  A call
with nothing to differentiate hands the workspace back as it returns.  A
differentiable node keeps it, with its correlations, until it dies: a
finalizer on the node's adjoint then hands it back.  So two live graphs
never share a buffer, ``backward`` may run twice on one graph, and each
training step reuses the last one's memory instead of taking fresh pages
from the system (~100 MB a step at B=16, 1 s, float32).
"""

from __future__ import annotations

import functools
import threading
import weakref
from types import SimpleNamespace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as _fft

from . import workers

FFT_BLOCK = 16384

# filter_pool's channel groups, one per CPU this process may run on, run
# on the shared worker pool.  A group gets at least MIN_GROUP_WORK
# channel-samples of FFT per call: on 2 cores a smaller one spends more on
# handing the interpreter lock between threads than it gains (measured,
# forward and backward: a 6-channel, 0.1 s batch of 2 ran ~1.7x slower in
# two groups, a 40-channel 1 s clip ~1.2x faster)
GROUPS = workers.CPUS
MIN_GROUP_WORK = 2 ** 18
# filter_pool's spare workspace: (call shape, workspace) of the last one
# handed back, or None.  The lock is reentrant: a node may die, and hand its
# workspace back, in a garbage collection while this thread holds it
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

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

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
    live = tuple(p for p in parents if isinstance(p, Var) and p.requires_grad)
    if not live:
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


def _grad_for(x, g):
    """Unbroadcast ``g`` onto operand ``x`` when ``x`` is a live Var."""
    if _live(x):
        return _unbroadcast(g, x.value.shape)
    return None


# -- elementwise arithmetic ---------------------------------------------


def add(a, b):
    va, vb = _value(a), _value(b)
    out = va + vb

    def vjp(g):
        return _grad_for(a, g), _grad_for(b, g)

    return _node(out, (a, b), vjp)


def sub(a, b):
    va, vb = _value(a), _value(b)
    out = va - vb

    def vjp(g):
        return _grad_for(a, g), _grad_for(b, -g)

    return _node(out, (a, b), vjp)


def mul(a, b):
    va, vb = _value(a), _value(b)
    out = va * vb

    def vjp(g):
        ga = _grad_for(a, g * vb) if _live(a) else None
        gb = _grad_for(b, g * va) if _live(b) else None
        return ga, gb

    return _node(out, (a, b), vjp)


def div(a, b):
    va, vb = _value(a), _value(b)
    out = va / vb

    def vjp(g):
        ga = _grad_for(a, g / vb) if _live(a) else None
        gb = _grad_for(b, -g * va / (vb * vb)) if _live(b) else None
        return ga, gb

    return _node(out, (a, b), vjp)


def neg(a):
    def vjp(g):
        return (_grad_for(a, -g),)

    return _node(-_value(a), (a,), vjp)


def power(a, b):
    """Elementwise ``a ** b``; ``b`` may be a scalar, array, or Var."""
    va, vb = _value(a), _value(b)
    out = va ** vb

    def vjp(g):
        ga = _grad_for(a, g * vb * va ** (vb - 1)) if _live(a) else None
        if _live(b):
            # d(a^b)/db = a^b * ln a; define the a -> 0 limit as 0.
            la = np.zeros_like(out)
            np.log(va, out=la, where=va > 0)
            gb = _unbroadcast(g * out * la, vb.shape)
        else:
            gb = None
        return ga, gb

    return _node(out, (a, b), vjp)


def exp(a):
    out = np.exp(_value(a))

    def vjp(g):
        return (_grad_for(a, g * out),)

    return _node(out, (a,), vjp)


def log(a):
    va = _value(a)

    def vjp(g):
        return (_grad_for(a, g / va),)

    return _node(np.log(va), (a,), vjp)


def sin(a):
    va = _value(a)

    def vjp(g):
        return (_grad_for(a, g * np.cos(va)),)

    return _node(np.sin(va), (a,), vjp)


def cos(a):
    va = _value(a)

    def vjp(g):
        return (_grad_for(a, -g * np.sin(va)),)

    return _node(np.cos(va), (a,), vjp)


# -- reductions and shape ops --------------------------------------------


def reduce_sum(a, axis=None):
    va = _value(a)
    out = va.sum(axis=axis)

    def vjp(g):
        g = np.asarray(g)
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, va.shape),)

    return _node(out, (a,), vjp)


def reduce_mean(a, axis=None):
    va = _value(a)
    count = va.size if axis is None else np.prod([va.shape[i] for i in np.atleast_1d(axis)])
    return mul(reduce_sum(a, axis=axis), 1.0 / float(count))


def reshape(a, shape):
    va = _value(a)

    def vjp(g):
        return (g.reshape(va.shape),)

    return _node(va.reshape(shape), (a,), vjp)


def getitem(a, index):
    va = _value(a)
    out = va[index]

    def vjp(g):
        acc = np.zeros_like(va)
        np.add.at(acc, index, g)
        return (acc,)

    return _node(out, (a,), vjp)


def stack(items):
    """The items side by side along a new second axis."""
    out = np.stack([_value(x) for x in items], axis=1)

    def vjp(g):
        return tuple(_grad_for(x, np.take(g, i, axis=1)) for i, x in enumerate(items))

    return _node(out, tuple(items), vjp)


def matmul(a, b):
    va, vb = _value(a), _value(b)
    out = va @ vb

    def vjp(g):
        ga = _grad_for(a, g @ vb.T) if _live(a) else None
        gb = _grad_for(b, va.T @ g) if _live(b) else None
        return ga, gb

    return _node(out, (a, b), vjp)


# -- DSP primitives -------------------------------------------------------


def _block_layout(n_samples, width):
    """(FFT length, output span per block, block count) for overlap-save.

    A signal that fits ``FFT_BLOCK`` is one block at the shortest fast
    length that keeps the circular correlation free of wrap-around.  A
    longer one is cut into blocks of ``FFT_BLOCK`` samples whose spans of
    valid output tile the signal; each block carries its own halos.
    """
    half = (width - 1) // 2
    size = _fft.next_fast_len(max(n_samples + half, width), real=True)
    # a kernel wider than half a block gets a longer block, so spans stay > W
    block = max(FFT_BLOCK, _fft.next_fast_len(2 * width, real=True))
    if size <= block:
        return size, n_samples, 1
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
    block (overlap-save) when T exceeds ``FFT_BLOCK``; each frame is pooled
    as soon as the block that completes its window is made.  The channels
    run as up to ``GROUPS`` contiguous groups, each one task on the worker
    pool, forward and backward, that makes the signal's block spectra
    itself; the result does not depend on the grouping.  Only ``kernels``
    and ``pool_kernels`` are differentiated; the adjoint computes both
    gradients whenever either is live.

    The call works in one workspace, the spare of the last call shape or a
    new one, and each group in the views of its own channels.  A call with
    nothing live hands the workspace back as it returns; otherwise the node
    keeps it, with every block's correlations, until the node dies.  The
    node keeps no block spectra: the backward makes them again.
    """
    if _live(x):
        raise ValueError("filter_pool does not differentiate its signal; pass x as a constant")
    vx, vk, vp = _value(x), _value(kernels), _value(pool_kernels)
    batch, n_samples = vx.shape
    n_kernels, width = vk.shape
    n, pool_width = vp.shape
    if width % 2 != 1 or pool_width % 2 != 1:
        raise ValueError("kernel length must be odd")
    if n_kernels != 2 * n:
        raise ValueError(f"{n_kernels} filter kernels do not pair with {n} pooling kernels")
    dtype = np.result_type(vx.dtype, vk.dtype, np.float32)
    out = np.empty((batch, n, -(-n_samples // stride)), dtype=dtype)
    live = _live(kernels) or _live(pool_kernels)
    size, span, n_blocks = _block_layout(n_samples, width)
    # everything the workspace's shapes and dtypes depend on; FFT_BLOCK
    # enters through size
    key = (vx.shape, vk.shape, vk.dtype, pool_width, stride, dtype, live, size)
    ws = _take_spare(key) or _workspace(n, vk.dtype, dtype, batch, n_samples, width, pool_width, stride, live)
    bounds = _channel_groups(n, batch * n_blocks * size * n)
    # each group works in the views of its own channels of every buffer and
    # lays its blocks out in a row of ``blocks``, made here because an array
    # made and freed in a pool thread costs page faults
    blocks = np.empty((len(bounds), size), dtype=vx.dtype)
    groups = [(SimpleNamespace(**{name: buf[..., lo:hi, :] for name, buf in vars(ws).items()}),
               vx, block, vk[2 * lo: 2 * hi], vp[lo:hi], stride) for block, (lo, hi) in zip(blocks, bounds)]
    workers.run([functools.partial(_forward_group, *group, out[:, lo:hi], live)
                 for group, (lo, hi) in zip(groups, bounds)])
    if not live:
        _give_back(key, ws)
        return constant(out)

    def vjp(g):
        parts = workers.run([functools.partial(_backward_group, *group, g[:, lo:hi])
                             for group, (lo, hi) in zip(groups, bounds)])
        return None, np.concatenate([gk for gk, _ in parts]), np.concatenate([gp for _, gp in parts])

    weakref.finalize(vjp, _give_back, key, ws)
    return _node(out, (x, kernels, pool_kernels), vjp)


def _channel_groups(n, work):
    """[lo, hi) bounds of the contiguous channel groups of a call that
    transforms ``work`` channel-samples: ``GROUPS`` of them, at most one
    per channel and per ``MIN_GROUP_WORK``, and at least one."""
    return workers.bounds(n, max(1, min(GROUPS, n, work // MIN_GROUP_WORK)))


def _workspace(n, kernel_dtype, dtype, batch, n_samples, width, pool_width, stride, live):
    """The buffers of :func:`filter_pool` calls of one shape, in a
    namespace, each with the N channels on its second-last axis.  No
    buffer holds a block spectrum: each group makes its own, forward and
    backward.

    They are the forward's padded kernels and spectrum product, each with
    [real; imaginary] on a leading axis of 2, the correlations (every
    item's when ``live``, else one item's) and the haloed pooling buffer,
    and with ``live`` the backward's ``d_corr`` and ``energy``.  The
    backward accumulates its spectrum in the product's buffer, and
    ``d_corr``'s imaginary half holds the square-sum temporary of both
    passes.  The buffers made zero are written only where their
    nonzero values go, so the rest stays zero from call to call.
    """
    size, span, n_blocks = _block_layout(n_samples, width)
    ws = SimpleNamespace(
        shifted=np.zeros((2, n, size), dtype=kernel_dtype),
        prod=np.empty((2, n, size // 2 + 1), dtype=np.result_type(dtype, np.complex64)),
        corr=np.empty((batch * n_blocks if live else 1, 2, n, size), dtype=dtype),
        held=np.empty((n, pool_width - 1 + span + (pool_width - 1) // 2), dtype=dtype))
    if live:
        ws.d_corr = np.zeros((2, n, size), dtype=dtype)
        lead = -(-pool_width // stride)
        ws.energy = np.zeros((n, lead * stride + n_samples + pool_width - 1), dtype=dtype)
    return ws


def _take_spare(key):
    """The spare workspace if it was made for calls shaped ``key``, else
    None; either way no spare is left."""
    global _spare
    with _spare_lock:
        spare, _spare = _spare, None
    return spare[1] if spare is not None and spare[0] == key else None


def _give_back(key, workspace):
    """Keep ``workspace``, made for calls shaped ``key``, as the spare."""
    global _spare
    with _spare_lock:
        _spare = key, workspace


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


def _forward_group(ws, vx, block, vk, vp, stride, out, live):
    """:func:`filter_pool`'s forward on the n channels of (2n, W) ``vk``
    and (n, P) ``vp``, written into the (B, n, M) view ``out``, in the
    views ``ws`` of those channels of the call's workspace.

    It makes the spectrum of each (row, block) item of the signal ``vx``
    itself, one block at a time, laid out in the buffer ``block``.  With
    ``live`` it keeps every item's correlations in ``ws``.  Plain numpy
    only, so that groups can run on threads of their own.
    """
    batch, n, n_frames = out.shape
    n_samples = vx.shape[1]
    pool_width = vp.shape[1]
    pool_half = (pool_width - 1) // 2
    size, span, n_blocks = _block_layout(n_samples, vk.shape[1])
    kf_conj = _kernel_spectrum(vk, ws.shifted)
    # the haloed energy samples [lo, lo + filled) of one row: the unfinished
    # tail of the last frame window (< P), one block's span and the right halo
    held = ws.held
    for b in range(batch):
        held[:, :pool_half] = 0.0
        lo, filled, done = 0, pool_half, 0
        for i in range(n_blocks):
            start = i * span
            keep = min(span, n_samples - start)
            xf = _block_spectrum(vx[b], start, (vk.shape[1] - 1) // 2, block)
            corr = ws.corr[b * n_blocks + i if live else 0]
            np.fft.irfft(np.multiply(xf, kf_conj, out=ws.prod), size, axis=-1, out=corr)
            # without a backward the imaginary half squares in place
            _square_sum(corr, keep, held[:, filled: filled + keep], ws.d_corr[1] if live else corr[1])
            filled += keep
            if i == n_blocks - 1:
                held[:, filled: filled + pool_half] = 0.0
                filled += pool_half
                ready = n_frames
            else:  # frames whose window ends inside what is held
                ready = min(n_frames, (lo + filled - pool_width) // stride + 1)
            if ready > done:
                windows = sliding_window_view(held[:, done * stride - lo: filled], pool_width, axis=1)
                out[b, :, done:ready] = np.einsum("nmp,np->nm", windows[:, ::stride][:, : ready - done], vp)
                done = ready
            # carry from the next frame's start on (it may start past all of it)
            cut = min(done * stride - lo, filled)
            held[:, : filled - cut] = held[:, cut: filled]
            lo, filled = lo + cut, filled - cut


def _backward_group(ws, vx, block, vk, vp, stride, g):
    """The gradients (gk, gp) of one channel group's (2n, W) ``vk`` and
    (n, P) ``vp`` for its (B, n, M) frame gradient ``g``, from the
    correlations its forward kept in ``ws``.  Like the forward, it makes
    the spectrum of each (row, block) item of ``vx`` itself, in ``block``.
    """
    batch, n, n_frames = g.shape
    n_samples = vx.shape[1]
    width, pool_width = vk.shape[1], vp.shape[1]
    half, pool_half = (width - 1) // 2, (pool_width - 1) // 2
    size, span, n_blocks = _block_layout(n_samples, width)
    dtype = ws.energy.dtype
    # einsum zeroes its output, so the sum over earlier rows enters each
    # row's einsum as a leading frame of weight 1, followed by frames of
    # weight 0 up to the row's haloed energy.  With stride > 1 einsum adds
    # frame after frame, so the terms add in the order of one einsum over
    # the whole batch
    lead = -(-pool_width // stride)
    d_corr, spec, energy = ws.d_corr, ws.prod, ws.energy  # d_corr is zero past ``span``
    # the kernel gradient's spectrum is the sum over rows and blocks
    # of xf conj(rfft(d corr)), accumulated as its conjugate:
    # conj(a) b = conj(a conj(b)) exactly
    spec[...] = 0.0
    frame_weights = np.zeros((n, lead + n_frames), dtype=dtype)
    frame_weights[:, 0] = 1.0
    windows = sliding_window_view(energy, pool_width, axis=1)[:, ::stride][:, : lead + n_frames]
    gp = np.zeros((n, pool_width), dtype=dtype)
    for b in range(batch):
        # d corr = 2 d_energy corr; the 2 is folded into g (exact)
        d_energy = _transposed_pool(2.0 * g[b: b + 1], vp, stride, n_samples, dtype)[0]
        for i in range(n_blocks):
            start = i * span
            keep = min(span, n_samples - start)
            corr = ws.corr[b * n_blocks + i]
            at = lead * stride + pool_half + start
            _square_sum(corr, keep, energy[:, at: at + keep], d_corr[1])
            d_corr[..., keep:span] = 0.0  # a short last block: clear the previous block's tail
            np.multiply(d_energy[:, start: start + keep], corr[..., :keep], out=d_corr[..., :keep])
            term = _fft.rfft(d_corr, axis=-1)
            xf = _block_spectrum(vx[b], start, half, block)
            term *= np.conjugate(xf, out=xf)
            spec += term
        energy[:, :pool_width] = gp
        frame_weights[:, lead:] = g[b]
        gp = np.einsum("nm,nmp->np", frame_weights, windows)
    dk_full = _fft.irfft(np.conjugate(spec, out=spec), size, axis=-1)
    gk = np.empty_like(vk)
    gk[0::2], gk[1::2] = np.concatenate([dk_full[..., size - half:], dk_full[..., : width - half]], axis=-1)
    return gk, gp


def _kernel_spectrum(kernels, shifted):
    """Conjugate spectra of (2n, W) kernels for correlation at the length
    of ``shifted``, a (2, n, size) buffer that is zero but where kernels go.

    The real rows go to ``shifted[0]`` and the imaginary ones to
    ``shifted[1]``, and each kernel is laid out circularly with its center
    at index 0.
    """
    width = kernels.shape[1]
    half = (width - 1) // 2
    size = shifted.shape[-1]
    for rows, part in zip(shifted, (kernels[0::2], kernels[1::2])):
        rows[:, : width - half] = part[:, half:]
        rows[:, size - half:] = part[:, :half]
    spectrum = _fft.rfft(shifted, axis=-1)
    return np.conjugate(spectrum, out=spectrum)


def _square_sum(corr, keep, dest, scratch):
    """dest = energy of the first ``keep`` samples of a (2, n, size)
    correlation block, [real; imaginary] on its first axis.  The imaginary
    squares go through ``scratch``, n rows of at least ``keep`` samples,
    which may be the imaginary half itself."""
    np.multiply(corr[0, :, :keep], corr[0, :, :keep], out=dest)
    dest += np.multiply(corr[1, :, :keep], corr[1, :, :keep], out=scratch[:, :keep])


def _transposed_pool(g, pool_kernels, stride, n_samples, dtype):
    """Adjoint of strided pooling: (B, N, M) frame grads to (B, N, T).

    Frame m reads haloed energy m*stride + p, so position c*stride + r
    takes sum_j g[c - j] * k[j*stride + r], with the kernel zero-padded to
    J = ceil(P / stride) panels of ``stride`` taps.  Each stride-wide
    output panel c is the lag window (g[c], g[c-1], ..., g[c-J+1]) times
    the (J, stride) kernel panels: one batched (B, N, Q, J) @ (N, J, stride)
    matmul.  The Q panels cover both the last frame's reach, M + J - 1,
    and the haloed signal, which is the longer one when P < stride.
    """
    batch, n_channels, n_frames = g.shape
    width = pool_kernels.shape[1]
    half = (width - 1) // 2
    taps = -(-width // stride)
    n_panels = max(n_frames + taps - 1, -(-(n_samples + half) // stride))
    lagged = np.zeros((batch, n_channels, n_panels + taps - 1), dtype=dtype)
    lagged[..., taps - 1: taps - 1 + n_frames] = g
    lags = np.ascontiguousarray(sliding_window_view(lagged, taps, axis=2)[..., ::-1])
    panels = np.zeros((n_channels, taps * stride), dtype=dtype)
    panels[:, :width] = pool_kernels
    d_energy = np.matmul(lags, panels.reshape(n_channels, taps, stride))
    return d_energy.reshape(batch, n_channels, -1)[..., half: half + n_samples]


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
        if _live(smooth) and n_frames > 1:
            # d/d(1 - s) summed late to early, then d/ds early to late: the
            # order of a graph with one node per frame, so float32 gradients
            # keep the bits of that graph
            d_keep = functools.reduce(np.add, (
                _unbroadcast(adj[..., t] * out[..., t - 1], vs.shape) for t in range(n_frames - 1, 0, -1)))
            gs = functools.reduce(np.add, (
                _unbroadcast(adj[..., t] * vf[..., t], vs.shape) for t in range(1, n_frames)), -d_keep)
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

    def vjp(g):
        grad = np.exp(log_probs)
        grad[rows, labels] -= 1.0
        return (_grad_for(logits, g * grad),)

    return _node(np.asarray(out, dtype=vz.dtype), (logits,), vjp)


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
            if isinstance(parent, Var) and parent.requires_grad and id(parent) not in seen:
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
        grads = node.vjp(node.grad)
        for parent, grad in zip(node.parents, grads):
            if grad is None or not isinstance(parent, Var) or not parent.requires_grad:
                continue
            if parent.grad is None:
                parent.grad = grad
            else:
                parent.grad = parent.grad + grad
