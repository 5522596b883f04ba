"""Waveform ingestion, synthetic tones, and SNR-controlled noise injection.

All operations are pure: they return new Waveform values and never mutate
their inputs (a Waveform keeps a read-only copy of its samples).  Gaussian
noise is ``Generator.standard_normal`` on a seeded PCG64 stream, so a seed
gives the same noise bits with the same numpy version on any CPU.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import AliasedFrequency, NotWav, SilentInput, UnsupportedFormat

FRONTEND_RATE = 16000


@dataclass(frozen=True)
class Waveform:
    """Mono audio samples with their sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.array(self.samples, dtype=np.float64)  # a copy: the caller's array stays writeable
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("waveform must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(samples)):
            raise ValueError("waveform contains non-finite samples")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    def power(self) -> float:
        """Mean squared amplitude."""
        return float(np.mean(self.samples ** 2))


def load_wav(path) -> Waveform:
    """Read a RIFF/WAVE file holding 16-bit PCM mono samples.

    Integer samples are scaled to [-1, 1) by dividing by 32768.  Chunks
    other than ``fmt `` and ``data`` are skipped.
    """
    with open(path, "rb") as fh:
        header = fh.read(12)
        if len(header) < 12 or header[:4] != b"RIFF" or header[8:12] != b"WAVE":
            raise NotWav(f"{path}: not a RIFF/WAVE file")
        fmt = None
        data = None
        while True:
            chunk = fh.read(8)
            if len(chunk) < 8:
                break
            chunk_id, chunk_size = chunk[:4], struct.unpack("<I", chunk[4:])[0]
            payload = fh.read(chunk_size)
            if len(payload) < chunk_size:
                raise NotWav(f"{path}: truncated {chunk_id!r} chunk")
            if chunk_size % 2 == 1:
                fh.read(1)  # RIFF chunks are word-aligned
            if chunk_id == b"fmt ":
                fmt = payload
            elif chunk_id == b"data":
                data = payload
    if fmt is None or data is None:
        raise NotWav(f"{path}: missing fmt or data chunk")
    if len(fmt) < 16:
        raise NotWav(f"{path}: malformed fmt chunk")
    audio_format, channels, rate, _, _, bits = struct.unpack("<HHIIHH", fmt[:16])
    if audio_format != 1:
        raise UnsupportedFormat(f"{path}: audio format {audio_format}, expected PCM")
    if channels != 1:
        raise UnsupportedFormat(f"{path}: {channels} channels, expected mono")
    if bits != 16:
        raise UnsupportedFormat(f"{path}: {bits}-bit samples, expected 16")
    if len(data) < 2:
        raise UnsupportedFormat(f"{path}: empty data chunk")
    raw = np.frombuffer(data[: len(data) - len(data) % 2], dtype="<i2")
    return Waveform(raw.astype(np.float64) / 32768.0, int(rate))


def synth_tones(frequencies, amplitudes, phases, duration_s: float, rate: int) -> Waveform:
    """A sum of cosines at the given sample rate, one amplitude and phase
    (radians) per frequency (Hz)."""
    frequencies = [float(f) for f in frequencies]
    if len(frequencies) != len(amplitudes):
        raise ValueError("frequencies and amplitudes must pair up")
    if len(phases) != len(frequencies):
        raise ValueError("phases must pair up with frequencies")
    for f in frequencies:
        if f >= rate / 2:
            raise AliasedFrequency(f"tone at {f} Hz >= Nyquist {rate / 2} Hz")
        if f <= 0:
            raise ValueError(f"tone frequency must be positive, got {f}")
    n = round(duration_s * rate)
    if n <= 0:
        raise ValueError("duration too short for this sample rate")
    t = np.arange(n, dtype=np.float64)
    x = np.zeros(n, dtype=np.float64)
    for f, a, phi in zip(frequencies, amplitudes, phases):
        x += a * np.cos(2.0 * np.pi * f * t / rate + phi)
    return Waveform(x, rate)


def add_noise_snr(x: Waveform, snr_db: float, seed: int | np.random.Generator) -> Waveform:
    """Add ``default_rng(seed).standard_normal`` noise at the requested global SNR.

    The gain g satisfies 10*log10(P_x / g^2) = snr_db with P the mean
    squared amplitude, treating the noise as exactly unit variance.
    ``snr_db = +inf`` returns ``x`` unchanged.
    """
    if math.isinf(snr_db) and snr_db > 0:
        return x
    power = x.power()
    if power == 0.0:
        raise SilentInput("cannot set a finite SNR against a silent signal")
    gain = math.sqrt(power * 10.0 ** (-snr_db / 10.0))
    mixed = np.random.default_rng(seed).standard_normal(len(x.samples))
    mixed *= gain
    mixed += x.samples
    return Waveform(mixed, x.sample_rate)
