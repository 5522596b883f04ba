"""Frontend forward passes: filtering, pooling, and compression.

The learnable frontend is squared-modulus Gabor (or free-kernel) filtering
at the input rate, per-channel Gaussian lowpass pooling with decimation,
and log / PCEN / sPCEN compression.  The first two stages are one tape
op, ``tape.filter_pool``; the PCEN smoother is another, ``tape.ema``.  The
mel baseline replaces the first two stages with an STFT power spectrogram
projected on triangular mel filters.

Every stage is written once, over tape variables, in ``features_graph``;
training differentiates it and ``frontend_forward``, the one eager entry
point, evaluates it on a single waveform.  One ``FrontendConfig`` holds
every setting, the mel design grid included: the mel baseline and the
Gabor initialization read the same fmin, fmax and n_fft.  The input rate
is fixed at ``signal.FRONTEND_RATE``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import tape, workers
from .errors import BadRate, NonFiniteFeatures, ZeroFilter
from .gabor import MEL_ANALYSIS_WIN, MEL_WINDOW, mel_matrix
from .signal import FRONTEND_RATE, Waveform

LOG_FLOOR = 1e-6

PCEN_ALPHA_INIT = 0.96
PCEN_DELTA_INIT = 2.0
PCEN_ROOT_INIT = 2.0
PCEN_SMOOTH_INIT = 0.04
PCEN_EPS = 1e-6

SQRT_2PI = math.sqrt(2.0 * math.pi)

# STFT frames per chunk of mel_power_features: four 1 s rows at hop 160,
# whose stft_power peaks at 2.8 MiB at the default grid
_CHUNK_FRAMES = 400

COMPRESSIONS = ("log", "pcen", "spcen")
FILTERINGS = ("gabor", "normalized_conv", "mel")


@dataclass(frozen=True)
class FrontendConfig:
    """Sizes, variant switches and the mel design grid shared by all
    frontends."""

    n_filters: int = 40
    filter_len: int = 401
    pool_len: int = 401
    pool_stride: int = 160
    compression: str = "spcen"
    filtering: str = "gabor"
    fmin: float = 60.0
    fmax: float = 7800.0
    n_fft: int = 512

    def __post_init__(self):
        for name in ("n_filters", "filter_len", "pool_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.filter_len % 2 != 1:
            raise ValueError("filter_len must be odd")
        if self.pool_len % 2 != 1:
            raise ValueError("pool_len must be odd")
        for name, least in (("filter_len", 3), ("pool_len", 5)):
            if getattr(self, name) < least:  # else sigma's or pool_widths' range is empty
                raise ValueError(f"{name} must be >= {least}")
        if self.pool_stride < 1:
            raise ValueError("pool_stride must be >= 1")
        if self.compression not in COMPRESSIONS:
            raise ValueError(f"compression must be one of {COMPRESSIONS}")
        if self.filtering not in FILTERINGS:
            raise ValueError(f"filtering must be one of {FILTERINGS}")
        if not (0 <= self.fmin < self.fmax <= FRONTEND_RATE / 2):
            raise ValueError(f"need 0 <= fmin < fmax <= {FRONTEND_RATE // 2}")
        if self.n_fft <= 0 or self.n_fft & (self.n_fft - 1):
            raise ValueError("n_fft must be a power of two")
        if self.n_fft < MEL_ANALYSIS_WIN:
            raise ValueError(f"n_fft must be at least the {MEL_ANALYSIS_WIN}-sample analysis "
                             f"window, got n_fft={self.n_fft}")

    @property
    def frame_rate(self) -> float:
        return FRONTEND_RATE / self.pool_stride


@dataclass(frozen=True)
class FeatureMap:
    """Time-major (frames x channels) features at a fixed frame rate."""

    values: np.ndarray
    frame_rate: float

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 2:
            raise ValueError("feature map must be 2-D (frames x channels)")
        if not np.all(np.isfinite(values)):
            raise NonFiniteFeatures("feature map contains non-finite values")
        object.__setattr__(self, "values", values)

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]


def renormalize_conv(kernels: np.ndarray) -> np.ndarray:
    """Free (2N, W) filter kernels, rows 2n and 2n+1 channel n's real/imag
    pair, each scaled to unit l2 norm in float64."""
    kernels = np.asarray(kernels, dtype=np.float64)
    if kernels.ndim != 2 or kernels.shape[0] % 2 != 0:
        raise ValueError("kernels must be a (2N, W) matrix")
    norms = np.linalg.norm(kernels, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ZeroFilter("cannot normalize an all-zero kernel")
    return kernels / norms


# -- graph builders (Var in, Var out; plain arrays act as constants) ------


def _gaussian_rows(centers_scale, t):
    """exp(-t^2 / (2 s^2)) / (sqrt(2 pi) s) for per-row widths s (N, 1)."""
    s = centers_scale
    return tape.exp(-((t * t) / (2.0 * (s * s)))) / (SQRT_2PI * s)


def gabor_kernel_graph(eta, sigma, filter_len):
    """Interleaved (2N, W) real kernels of the complex Gabor bank."""
    n = np.shape(tape._value(eta))[0]
    half = (filter_len - 1) // 2
    dtype = tape._value(eta).dtype
    t = np.arange(-half, half + 1, dtype=dtype)
    s = tape.reshape(sigma, (n, 1))
    envelope = _gaussian_rows(s, t)
    phase = (2.0 * np.pi) * tape.reshape(eta, (n, 1)) * t
    real = tape.cos(phase) * envelope
    imag = tape.sin(phase) * envelope
    return tape.reshape(tape.stack([real, imag]), (2 * n, filter_len))


def pool_kernel_graph(widths, pool_len):
    """(N, P) Gaussian lowpass kernels with sigma_t = w * (P-1)/2."""
    n = np.shape(tape._value(widths))[0]
    dtype = tape._value(widths).dtype
    half = (pool_len - 1) // 2
    t = np.arange(-half, half + 1, dtype=dtype)
    sigma_t = tape.reshape(widths, (n, 1)) * ((pool_len - 1) / 2.0)
    return _gaussian_rows(sigma_t, t)


def log_graph(feats):
    return tape.log(feats + LOG_FLOOR)


def pcen_graph(feats, alpha, delta, root, smooth):
    """PCEN over (B, N, M) features, smoothed by one ``tape.ema`` node."""
    ema = tape.ema(feats, smooth)
    n = np.shape(tape._value(alpha))[0]
    alpha_col = tape.reshape(alpha, (n, 1))
    delta_col = tape.reshape(delta, (n, 1))
    exponent = 1.0 / tape.reshape(root, (n, 1))
    normed = feats / tape.power(PCEN_EPS + ema, alpha_col)
    return tape.power(normed + delta_col, exponent) - tape.power(delta_col, exponent)


def _windowed_frames(xs: np.ndarray, hop: int) -> np.ndarray:
    """Centered ``MEL_WINDOW``-weighted frames in float64, (B, ceil(T/hop), window)."""
    batch, n_samples = xs.shape
    n_frames = -(-n_samples // hop)
    half = MEL_ANALYSIS_WIN // 2
    padded = np.zeros((batch, n_samples + MEL_ANALYSIS_WIN), dtype=np.float64)
    padded[:, half: half + n_samples] = xs
    frames = sliding_window_view(padded, MEL_ANALYSIS_WIN, axis=1)[:, ::hop][:, :n_frames]
    return frames * MEL_WINDOW


def stft_power(xs: np.ndarray, n_fft: int, hop: int) -> np.ndarray:
    """Centered STFT power spectrum over ``MEL_WINDOW``-weighted frames,
    (B, ceil(T/hop), n_fft/2+1).

    The padded samples go before the FFT, the windowed frames once their
    spectrum is made, the spectrum once its modulus is taken, and the
    modulus is squared in place, so at most two of frames, spectrum and
    power are alive at once: a 2.8 MiB peak for four 1 s rows at the
    default grid.
    """
    power = np.abs(np.fft.rfft(_windowed_frames(xs, hop), n=n_fft, axis=-1))
    return np.square(power, out=power)


def mel_power_features(xs: np.ndarray, cfg: FrontendConfig) -> np.ndarray:
    """STFT power at hop ``pool_stride`` projected on the mel filterbank, (B, M, N).

    Every row depends only on its own samples, so contiguous row shards
    run on the worker pool, each writing its rows of the one output. A
    shard runs as consecutive chunks of whole rows, each of at most
    ``_CHUNK_FRAMES`` STFT frames (a longer row is a chunk of its own), so
    the STFT temporaries are bounded by one chunk per shard, not by the
    batch: 2.8 MiB for a chunk of four 1 s rows. The result does not depend on the shard or chunk count, bit for
    bit.
    """
    batch, n_samples = xs.shape
    mel = mel_matrix(cfg).T
    n_frames = -(-n_samples // cfg.pool_stride)
    out = np.empty((batch, n_frames, cfg.n_filters))
    rows = max(1, _CHUNK_FRAMES // max(n_frames, 1))

    def project(lo, hi):
        for start in range(lo, hi, rows):
            stop = min(start + rows, hi)
            np.matmul(stft_power(xs[start:stop], cfg.n_fft, cfg.pool_stride), mel, out=out[start:stop])

    workers.run([functools.partial(project, lo, hi) for lo, hi in workers.shards(batch)])
    return out


def pooled_graph(xs: np.ndarray, leaves: Mapping, cfg: FrontendConfig):
    """Pre-compression energies (B, N, M): filtering and pooling, or the mel
    projection at the same frame rate."""
    if cfg.filtering == "mel":
        feats = mel_power_features(xs, cfg)  # stft_power pads the samples in float64
        return tape.constant(feats.transpose(0, 2, 1).astype(xs.dtype, order="C"))
    if cfg.filtering == "gabor":
        kernels = gabor_kernel_graph(leaves["eta"], leaves["sigma"], cfg.filter_len)
    else:
        kernels = leaves["conv_kernels"]
    pool_kernels = pool_kernel_graph(leaves["pool_widths"], cfg.pool_len)
    return tape.filter_pool(xs, kernels, pool_kernels, cfg.pool_stride)


def features_graph(xs: np.ndarray, leaves: Mapping, cfg: FrontendConfig):
    """Pre-classifier features (B, N, M) for any frontend variant.

    ``leaves`` maps parameter names to Vars (or arrays, treated as
    constants): eta/sigma or conv_kernels, pool_widths, and pcen_* as the
    variant requires.
    """
    pooled = pooled_graph(xs, leaves, cfg)
    if cfg.compression == "log":
        return log_graph(pooled)
    if cfg.compression == "spcen":
        smooth = leaves["pcen_smooth"]
    else:
        smooth = np.full(cfg.n_filters, PCEN_SMOOTH_INIT, dtype=tape._value(pooled).dtype)
    return pcen_graph(pooled, leaves["pcen_alpha"], leaves["pcen_delta"], leaves["pcen_root"], smooth)


def require_frontend_rate(x: Waveform) -> None:
    if x.sample_rate != FRONTEND_RATE:
        raise BadRate(f"frontend requires {FRONTEND_RATE} Hz input, got {x.sample_rate} Hz")


def frontend_forward(x: Waveform, params: Mapping, cfg: FrontendConfig) -> FeatureMap:
    """Full frontend on one waveform: filtering, pooling, compression."""
    require_frontend_rate(x)
    out = features_graph(x.samples[None, :], params, cfg)
    return FeatureMap(out.value[0].T.copy(), cfg.frame_rate)


VARIANT_NAMES = {
    ("gabor", "spcen"): "leaf",
    ("gabor", "log"): "leaf-log",
    ("gabor", "pcen"): "leaf-pcen",
    ("mel", "log"): "mel",
    ("mel", "spcen"): "mel-pcen",
    ("normalized_conv", "spcen"): "convnorm",
}


def variant_name(cfg: FrontendConfig) -> str:
    return VARIANT_NAMES.get((cfg.filtering, cfg.compression),
                             f"{cfg.filtering}/{cfg.compression}")


def variant_config(name: str, **overrides) -> FrontendConfig:
    """FrontendConfig for a named variant (leaf, mel, mel-pcen, ...)."""
    by_name = {v: k for k, v in VARIANT_NAMES.items()}
    if name not in by_name:
        raise ValueError(f"unknown frontend variant {name!r}; choose from {sorted(by_name)}")
    filtering, compression = by_name[name]
    return FrontendConfig(filtering=filtering, compression=compression, **overrides)
