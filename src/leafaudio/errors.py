"""Exception types shared across the package."""


class LeafError(Exception):
    """Base class for all domain errors raised by this package."""


class NotWav(LeafError):
    """File is not a RIFF/WAVE container."""


class UnsupportedFormat(LeafError):
    """WAV file is not 16-bit PCM mono."""


class BadRate(LeafError):
    """Waveform sample rate differs from the 16 kHz the frontend requires."""


class AliasedFrequency(LeafError):
    """Requested tone frequency is at or above the Nyquist frequency."""


class SilentInput(LeafError):
    """Cannot scale noise against a zero-power signal."""


class DegenerateTriangle(LeafError):
    """Two mel-filter breakpoints collapsed onto the same FFT bin."""


class ZeroFilter(LeafError):
    """Cannot l2-normalize an all-zero filter kernel."""


class ShapeMismatch(LeafError):
    """Parameter, gradient, or optimizer-state shapes disagree."""


class CorruptSnapshot(LeafError, ValueError):
    """Snapshot directory lacks a file, or a file disagrees with its manifest."""


class UnknownTask(LeafError):
    """Batch example refers to a task id with no matching head."""


class LengthMismatch(LeafError):
    """Paired accuracy lists must have equal length."""


class NonFiniteLoss(LeafError):
    """Loss evaluated to NaN or infinity."""


class NonFiniteFeatures(LeafError, ValueError):
    """A feature map holds NaN or infinity."""
