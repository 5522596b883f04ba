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

:func:`filter_pool` streams.  It cuts the overlap-save blocks from the
signal and transforms them ``CHUNK`` (row, block) items at a time.  Row by
row and block by block, it then correlates each block with the bank,
squares it into a small haloed energy buffer, pools every frame whose
window the block completes and carries the unfinished tail into the next
block.  No full-rate array outlives its block; the block's correlations
and conjugate spectrum are kept only while a kernel is differentiated.

The adjoint walks the same rows and blocks.  Per row, the frame gradient,
times the 2 of d|z|^2, is spread back over the samples by the transposed
pooling, one batched matmul over the channels.  Per block, ``2 g corr`` is
written into one reused FFT-length buffer and transformed, and its
spectrum times the conjugate block spectrum is added into a single (2N, F)
accumulator, whose one inverse FFT gives the kernel gradient; the block's
energy is squared again from its kept correlations into one row's buffer,
which the pooling-kernel gradient reads.

All of that work is per channel, so :func:`filter_pool` splits the N
channels into ``GROUPS`` contiguous groups, where ``GROUPS`` is the number
of CPUs the process may run on, capped at N and at one group per
``MIN_GROUP_WORK`` channel-samples of FFT work.  Each group runs
the streaming loop above, forward and backward, on a thread of the
package's one worker pool (``workers``)
and writes its own channels of the output and its own kernels'
gradients; with one group it runs in the calling thread.  Every number is
computed by the same operations whatever the grouping, so values and
gradients do not depend on ``GROUPS``, bit for bit.  The groups share one
spectrum of each block.

Each group works in buffers of its own, its workspace: the padded
kernels, the spectrum product, the correlations, the pooling buffer and,
for the adjoint, ``d_corr`` and ``energy``.  A call takes one workspace
per group from the spares that earlier calls of its shape left, or makes
them; one spare set, of the last shape, is kept.  A call with nothing to
differentiate hands its workspaces back as it returns.  A differentiable
node keeps them, with its correlations, until it dies: a finalizer on each
group's adjoint then hands them back.  So two live graphs never share a
buffer, ``backward`` may run twice on one graph, and each training step
reuses the last one's memory instead of taking fresh pages from the
system (~100 MB a step at B=16, 1 s, float32).
"""

from __future__ import annotations

import functools
import threading
import weakref

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
# the spectra of at most CHUNK (row, block) items of the signal are made at
# once and handed to every channel group: one hand-off for a training batch
# of 1 s clips, while a long clip's spectra are never all held at once
CHUNK = 16
# filter_pool's spare workspaces by (call shape, channel group), all of one
# call shape: made on first use and handed back by the calls and nodes done
# with them.  The lock is reentrant because a node may die, and hand its
# workspaces back, in a garbage collection that runs while this thread
# holds it
_spares = {}
_spares_lock = threading.RLock()

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
        return rsub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return rdiv(self, other)

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


def rsub(a, b):
    """``b - a`` with ``a`` a Var and ``b`` a constant."""
    out = _value(b) - _value(a)

    def vjp(g):
        return (_grad_for(a, -g),)

    return _node(out, (a,), vjp)


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


def rdiv(a, b):
    """``b / a`` with ``a`` a Var and ``b`` a constant."""
    va, vb = _value(a), _value(b)
    out = vb / va

    def vjp(g):
        return (_grad_for(a, -g * vb / (va * va)),)

    return _node(out, (a,), vjp)


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
    run as up to ``GROUPS`` contiguous groups, one per thread; the result
    does not depend on the grouping.  Each (row, block) spectrum of the
    signal is made once, ``CHUNK`` items at a time, and handed to every
    group.  Only ``kernels`` and ``pool_kernels`` are differentiated; the
    adjoint computes both gradients whenever either is live.

    Each group works in a workspace of its own, taken from the spares of
    the last call shape or made.  A call with nothing live hands it back
    as it returns; otherwise the node keeps it, with every block's
    correlations, until the node dies.
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
    bounds = _channel_groups(n, batch * n_blocks * size * n)
    # everything the buffers' shapes and dtypes depend on; FFT_BLOCK,
    # GROUPS and MIN_GROUP_WORK enter through size and bounds
    key = (vx.shape, vk.shape, vk.dtype, pool_width, stride, dtype, live, size, tuple(bounds))
    spaces = [_take_workspace(key, group, functools.partial(
        _Workspace, hi - lo, vk.dtype, dtype, batch, n_samples, width, pool_width, stride, live))
        for group, (lo, hi) in enumerate(bounds)]
    groups = [_forward_group(ws, vk[2 * lo: 2 * hi], vp[lo:hi], stride, out[:, lo:hi], n_samples, live)
              for ws, (lo, hi) in zip(spaces, bounds)]
    for group in groups:
        next(group)
    items = [(b, i * span) for b in range(batch) for i in range(n_blocks)]
    spectra = []  # every item's conjugate spectrum, for the kernel gradients
    for c in range(0, len(items), CHUNK):
        xf = _block_spectra(vx, items[c: c + CHUNK], size, (width - 1) // 2)
        workers.run([functools.partial(group.send, xf) for group in groups])
        if live:
            spectra.extend(np.conjugate(xf, out=xf))
    if not live:
        for group, ws in enumerate(spaces):
            _give_back(key, group, ws)
        return constant(out)
    backwards = [_backward_group(ws, spectra, vk[2 * lo: 2 * hi], vp[lo:hi], stride, n_samples)
                 for ws, (lo, hi) in zip(spaces, bounds)]
    for group, (backward, ws) in enumerate(zip(backwards, spaces)):
        weakref.finalize(backward, _give_back, key, group, ws)

    def vjp(g):
        parts = workers.run([functools.partial(backward, g[:, lo:hi])
                             for backward, (lo, hi) in zip(backwards, bounds)])
        return None, np.concatenate([gk for gk, _ in parts]), np.concatenate([gp for _, gp in parts])

    return _node(out, (x, kernels, pool_kernels), vjp)


def _channel_groups(n, work):
    """[lo, hi) bounds of the contiguous channel groups of a call that
    transforms ``work`` channel-samples: ``GROUPS`` of them, at most one
    per channel and per ``MIN_GROUP_WORK``, and at least one."""
    return workers.bounds(n, max(1, min(GROUPS, n, work // MIN_GROUP_WORK)))


class _Workspace:
    """One channel group's buffers for :func:`filter_pool` calls of one shape.

    The forward's: the padded kernels, the spectrum product, the
    correlations (every (row, block) item's when ``live``, else one
    item's) and the haloed pooling buffer.  With ``live``, also the
    backward's ``d_corr`` and ``energy``.  The backward accumulates its
    spectrum in the product's buffer, and ``d_corr``'s imaginary rows hold
    the square-sum temporary of both passes.  The buffers made zero are
    written only where their nonzero values go, so the rest stays zero
    from call to call.
    """

    def __init__(self, n, kernel_dtype, dtype, batch, n_samples, width, pool_width, stride, live):
        size, span, n_blocks = _block_layout(n_samples, width)
        self.shifted = np.zeros((2 * n, size), dtype=kernel_dtype)
        self.prod = np.empty((2 * n, size // 2 + 1), dtype=np.result_type(dtype, np.complex64))
        self.corr = np.empty((batch * n_blocks if live else 1, 2 * n, size), dtype=dtype)
        self.held = np.empty((n, pool_width - 1 + span + (pool_width - 1) // 2), dtype=dtype)
        if live:
            self.d_corr = np.zeros((2 * n, size), dtype=dtype)
            lead = -(-pool_width // stride)
            self.energy = np.zeros((n, lead * stride + n_samples + pool_width - 1), dtype=dtype)


def _take_workspace(key, group, make):
    """``group``'s spare workspace for calls shaped ``key``, else ``make()``."""
    with _spares_lock:
        _drop_other_shapes(key)
        spare = _spares.pop((key, group), None)
    return make() if spare is None else spare


def _give_back(key, group, workspace):
    """Keep ``workspace`` as ``group``'s spare, unless it already has one."""
    with _spares_lock:
        _drop_other_shapes(key)
        _spares.setdefault((key, group), workspace)


def _drop_other_shapes(key):
    """Drop the spares of calls not shaped ``key``; the caller holds
    ``_spares_lock``."""
    for stale in [k for k in _spares if k[0] != key]:
        del _spares[stale]


def _block_spectra(vx, items, size, half):
    """rfft of the overlap-save block of each (row b, start) item:
    x[b, start - h : start + size - h], zeros outside the signal, rotated
    left by h so that output start + r lands at index r against a
    centered kernel."""
    blocks = np.zeros((len(items), size), dtype=vx.dtype)
    for block, (b, start) in zip(blocks, items):
        body = vx[b, start: start + size - half]
        block[: len(body)] = body
        if start:  # the first block's left halo is zeros
            block[size - half:] = vx[b, start - half: start]
    return _fft.rfft(blocks, axis=-1)


def _forward_group(ws, vk, vp, stride, out, n_samples, live):
    """Generator: :func:`filter_pool`'s forward on the n channels of (2n, W)
    ``vk`` and (n, P) ``vp``, written into the (B, n, M) view ``out``.

    Each ``send`` gives it the spectra of the next (row, block) items in
    order; it yields when it has used them.  With ``live`` it keeps every
    item's correlations in ``ws``.  Plain numpy only, so that groups can
    run on threads of their own.
    """
    batch, n, n_frames = out.shape
    pool_width = vp.shape[1]
    pool_half = (pool_width - 1) // 2
    size, span, n_blocks = _block_layout(n_samples, vk.shape[1])
    spectra, j = (yield), 0
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
            corr = ws.corr[b * n_blocks + i if live else 0]
            np.fft.irfft(np.multiply(spectra[j], kf_conj, out=ws.prod), size, axis=-1, out=corr)
            # without a backward the imaginary rows square in place
            _square_sum(corr, keep, held[:, filled: filled + keep], ws.d_corr[n:] if live else corr[n:])
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
            j += 1
            if j == len(spectra):
                spectra, j = (yield), 0


def _backward_group(ws, spectra, vk, vp, stride, n_samples):
    """``backward(g) -> (gk, gp)``: the gradients of one channel group's
    (2n, W) ``vk`` and (n, P) ``vp`` for its (B, n, M) frame gradient
    ``g``, from the correlations kept in ``ws`` and every (row, block)
    item's conjugate signal spectrum."""
    width = vk.shape[1]
    n, pool_width = vp.shape
    half, pool_half = (width - 1) // 2, (pool_width - 1) // 2
    size, span, n_blocks = _block_layout(n_samples, width)
    dtype = ws.energy.dtype
    # einsum zeroes its output, so the sum over earlier rows enters each
    # row's einsum as a leading frame of weight 1, followed by frames of
    # weight 0 up to the row's haloed energy.  With stride > 1 einsum adds
    # frame after frame, so the terms add in the order of one einsum over
    # the whole batch
    lead = -(-pool_width // stride)

    def backward(g):
        batch, _, n_frames = g.shape
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
                _square_sum(corr, keep, energy[:, at: at + keep], d_corr[n:])
                d_corr[:, keep:span] = 0.0  # a short last block: clear the previous block's tail
                d_e = d_energy[:, start: start + keep]
                np.multiply(d_e, corr[:n, :keep], out=d_corr[:n, :keep])
                np.multiply(d_e, corr[n:, :keep], out=d_corr[n:, :keep])
                term = _fft.rfft(d_corr, axis=-1)
                term *= spectra[b * n_blocks + i]
                spec += term
            energy[:, :pool_width] = gp
            frame_weights[:, lead:] = g[b]
            gp = np.einsum("nm,nmp->np", frame_weights, windows)
        dk_full = _fft.irfft(np.conjugate(spec, out=spec), size, axis=-1)
        d_split = np.concatenate([dk_full[:, size - half:], dk_full[:, : width - half]], axis=-1)
        gk = np.empty_like(vk)
        gk[0::2], gk[1::2] = d_split[:n], d_split[n:]
        return gk, gp

    return backward


def _kernel_spectrum(kernels, shifted):
    """Conjugate spectra of (2N, W) kernels for correlation at the length
    of ``shifted``, a (2N, size) buffer that is zero but where kernels go.

    The rows are reordered to [all real; all imaginary], so that the two
    halves are contiguous slabs, and each kernel is laid out circularly
    with its center at index 0.
    """
    n, width = len(kernels) // 2, kernels.shape[1]
    half = (width - 1) // 2
    size = shifted.shape[1]
    for rows, part in ((shifted[:n], kernels[0::2]), (shifted[n:], kernels[1::2])):
        rows[:, : width - half] = part[:, half:]
        rows[:, size - half:] = part[:, :half]
    spectrum = _fft.rfft(shifted, axis=-1)
    return np.conjugate(spectrum, out=spectrum)


def _square_sum(corr, keep, dest, scratch):
    """dest = energy of the first ``keep`` samples of a (2N, size) correlation
    block whose rows are [all real; all imaginary].  The imaginary squares
    go through ``scratch``, N rows of at least ``keep`` samples, which may
    be the imaginary rows themselves."""
    n = len(corr) // 2
    np.multiply(corr[:n, :keep], corr[:n, :keep], out=dest)
    dest += np.multiply(corr[n:, :keep], corr[n:, :keep], out=scratch[:, :keep])


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
