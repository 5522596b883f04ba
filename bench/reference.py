"""Plain-numpy LEAF forward pass, the oracle for the extraction gate.

Every stage is written the direct way, independent of leafaudio's tape:
a time-domain correlation per kernel, the squared modulus of each
real/imaginary kernel pair, pooling evaluated only at the kept frames, and
the PCEN recursion frame by frame.
"""

from __future__ import annotations

import numpy as np


def gaussian_rows(scale, t):
    """exp(-t^2 / (2 s^2)) / (sqrt(2 pi) s) with one row per scale s."""
    s = np.asarray(scale, dtype=np.float64)[:, None]
    return np.exp(-(t * t) / (2.0 * s * s)) / (np.sqrt(2.0 * np.pi) * s)


def gabor_kernels(eta, sigma, filter_len):
    """(N, 2, W): real and imaginary Gabor kernels of every channel."""
    half = (filter_len - 1) // 2
    t = np.arange(-half, half + 1, dtype=np.float64)
    envelope = gaussian_rows(sigma, t)
    phase = 2.0 * np.pi * np.asarray(eta, dtype=np.float64)[:, None] * t
    return np.stack([np.cos(phase) * envelope, np.sin(phase) * envelope], axis=1)


def leaf_features(x, params, filter_len=401, pool_len=401, stride=160, eps=1e-6):
    """(M, N) Gabor + Gaussian pooling + sPCEN features of a 1-D signal."""
    x = np.asarray(x, dtype=np.float64)
    kernels = gabor_kernels(params["eta"], params["sigma"], filter_len)
    n_channels = kernels.shape[0]
    padded = np.pad(x, (filter_len - 1) // 2)
    energy = np.empty((n_channels, x.size))
    for n in range(n_channels):
        real = np.correlate(padded, kernels[n, 0], mode="valid")
        imag = np.correlate(padded, kernels[n, 1], mode="valid")
        energy[n] = real * real + imag * imag

    half = (pool_len - 1) // 2
    t = np.arange(-half, half + 1, dtype=np.float64)
    lowpass = gaussian_rows(np.asarray(params["pool_widths"]) * half, t)
    padded = np.pad(energy, ((0, 0), (half, half)))
    n_frames = -(-x.size // stride)
    pooled = np.empty((n_channels, n_frames))
    for m in range(n_frames):
        start = m * stride
        pooled[:, m] = np.sum(padded[:, start: start + pool_len] * lowpass, axis=1)

    alpha, delta, root, smooth = (np.asarray(params[k], dtype=np.float64)
                                  for k in ("pcen_alpha", "pcen_delta", "pcen_root", "pcen_smooth"))
    out = np.empty_like(pooled)
    ema = pooled[:, 0].copy()
    for m in range(n_frames):
        if m:
            ema = (1.0 - smooth) * ema + smooth * pooled[:, m]
        out[:, m] = (pooled[:, m] / (eps + ema) ** alpha + delta) ** (1.0 / root) - delta ** (1.0 / root)
    return out.T
