"""Gabor filterbank parametrization and its mel-scale initialization.

A bank holds per-channel center frequencies eta (cycles/sample) and
time-domain widths sigma (samples).  Filters are complex exponentials
under a Gaussian envelope evaluated on the symmetric integer grid
t = -(W-1)/2 ... (W-1)/2, and the frequency response of channel n is a
Gaussian of unit peak centered at eta_n.

Initialization matches a triangular mel filterbank: each channel's center
comes from the triangle's peak bin and its sigma from the triangle's full
width at half maximum on the design grid.  The grid (n_filters, fmin,
fmax, n_fft) and filter_len are read from a ``frontend.FrontendConfig``,
the same config the mel baseline uses; the sample rate is
``signal.FRONTEND_RATE``.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateTriangle
from .signal import FRONTEND_RATE

if TYPE_CHECKING:
    from .frontend import FrontendConfig

SQRT_2LOG2 = math.sqrt(2.0 * math.log(2.0))
# The sigma range [4 sqrt(2 ln 2), 2W sqrt(2 ln 2)] is the image of a nominal
# response FWHM in [1/2, 1/W] under sigma = 2 sqrt(2 ln 2) / fwhm, a convention
# that treats the response's standard deviation as 1/sigma (the physical
# width of the implemented kernel is 2 pi smaller): fwhm = 1/2 gives the
# widest allowed filter, fwhm = 1/W the narrowest.
SIGMA_MIN = 4.0 * SQRT_2LOG2


def sigma_max(filter_len: int) -> float:
    return 2.0 * filter_len * SQRT_2LOG2


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_breakpoints(cfg: FrontendConfig) -> np.ndarray:
    """The N+2 triangle breakpoint frequencies, equally spaced in mel."""
    mels = np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax), cfg.n_filters + 2)
    return mel_to_hz(mels)


@functools.lru_cache(maxsize=16)  # a process uses a few configs; each matrix is ~80 KB
def mel_matrix(cfg: FrontendConfig) -> np.ndarray:
    """Triangular mel filterbank sampled on the FFT-bin grid.

    Returns a read-only (N, n_fft/2+1) matrix, made once per config; each
    row is peak-normalized to 1.  A degenerate grid raises on every call.
    """
    breaks = mel_breakpoints(cfg)
    bin_hz = FRONTEND_RATE / cfg.n_fft
    nearest = np.round(breaks / bin_hz).astype(int)
    if np.any(np.diff(nearest) == 0):
        raise DegenerateTriangle("adjacent mel breakpoints fall on the same FFT bin")
    freqs = np.arange(cfg.n_fft // 2 + 1) * bin_hz
    left, peak, right = breaks[:-2, None], breaks[1:-1, None], breaks[2:, None]
    rows = np.maximum(0.0, np.minimum((freqs - left) / (peak - left), (right - freqs) / (right - peak)))
    top = rows.max(axis=1, keepdims=True)
    if np.any(top == 0.0):
        raise DegenerateTriangle(f"mel filter {np.argmax(top == 0.0)} has no support on the bin grid")
    out = rows / top
    out.flags.writeable = False
    return out


MEL_ANALYSIS_WIN = 400  # Hann analysis window of the mel baseline, samples
MEL_WINDOW = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(MEL_ANALYSIS_WIN) / MEL_ANALYSIS_WIN)
MEL_WINDOW.flags.writeable = False


@functools.cache
def hann_power_fwhm() -> float:
    """FWHM of ``MEL_WINDOW``'s power spectrum, normalized frequency, read
    on a 64x oversampled 1024-point grid."""
    grid = 64 * 1024
    spectrum = np.abs(np.fft.rfft(MEL_WINDOW, grid)) ** 2
    return 2.0 * float((spectrum >= 0.5 * spectrum.max()).sum()) / grid


def gabor_params_from_mels(cfg: FrontendConfig) -> tuple[np.ndarray, np.ndarray]:
    """(eta, sigma) of one Gabor filter per mel triangle, matched so that
    the frontends' pre-compression outputs agree at initialization.

    Centers sit on the triangle peaks.  Widths match the filter's physical
    squared-magnitude response (power FWHM = sqrt(ln 2)/(pi sigma)) to the
    triangle's half-max width combined, in quadrature, with the smearing of
    the mel pipeline's own Hann analysis window; without the window term
    the low channels come out visibly narrower than their mel counterparts.
    """
    mel_matrix(cfg)  # validates grid support / degeneracy
    breaks = mel_breakpoints(cfg)
    centers = breaks[1:-1] / FRONTEND_RATE
    # peak-normalized triangle crosses 1/2 midway up each side
    fwhm_triangle = (breaks[2:] - breaks[:-2]) / (2.0 * FRONTEND_RATE)
    fwhm_effective = np.sqrt(fwhm_triangle ** 2 + hann_power_fwhm() ** 2)
    sigma = np.sqrt(np.log(2.0)) / (np.pi * fwhm_effective)
    sigma = np.clip(sigma, SIGMA_MIN, sigma_max(cfg.filter_len))
    return centers, sigma


def gabor_impulse_response(eta: float, sigma: float, filter_len: int) -> np.ndarray:
    """Complex impulse response of one filter over the symmetric grid."""
    half = (filter_len - 1) // 2
    t = np.arange(-half, half + 1, dtype=np.float64)
    envelope = np.exp(-(t ** 2) / (2.0 * sigma ** 2)) / (math.sqrt(2.0 * math.pi) * sigma)
    return np.exp(2j * np.pi * eta * t) * envelope


def frequency_response(filt: np.ndarray, n_points: int) -> np.ndarray:
    """Squared magnitude of the zero-padded n_points-point DFT."""
    filt = np.asarray(filt)
    if n_points < len(filt):
        raise ValueError("n_points must be at least the filter length")
    spectrum = np.fft.fft(filt, n_points)
    return np.abs(spectrum) ** 2
