"""Desk-scale synthetic classification tasks.

Three generators exercise different frontend capabilities: pitch class
(frequency selectivity), amplitude-modulation rate (temporal envelope,
pooling, and PCEN dynamics), and noise color (broadband discrimination).
Every example is deterministic given (task, label, seed): clip-level
randomness (phases, gains, noise realizations) derives from a SeedSequence
over those values.

``scipy.signal`` is imported inside the noise-color generator on purpose:
it is the module's only use, and importing it at the top would cost every
process (``extract``, ``eval`` and training on the other tasks included)
about a second and ~49 MB of start-up.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import workers
from .errors import UnknownTask
from .signal import FRONTEND_RATE, ToneSpec, Waveform, add_noise_snr, gaussian_noise, synth_tones

PITCH_FREQS = (400.0, 800.0, 1600.0, 3200.0)
AM_RATES = (4.0, 16.0, 64.0)
AM_CARRIER = 1000.0
NOISE_COLORS = ("white", "lowpass", "highpass")


@dataclass(frozen=True)
class TaskSpec:
    """One synthetic classification problem at a fixed noise level.

    ``snr_db`` is a finite number of dB, or +inf for clean clips; NaN and
    -inf are refused with a ValueError that names them.
    """

    task_id: int
    name: str
    num_classes: int
    snr_db: float
    duration_s: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.snr_db) or self.snr_db == np.inf):
            raise ValueError(f"SNR must be a finite number of dB or inf, got snr_db={self.snr_db}")

    def with_snr(self, snr_db: float) -> "TaskSpec":
        return replace(self, snr_db=snr_db)


def make_task(name: str, task_id: int = 0, snr_db: float = np.inf) -> TaskSpec:
    classes, _ = _task_entry(name)
    return TaskSpec(task_id, name, len(classes), snr_db)


def _task_entry(name: str):
    """``TASKS[name]``, or ``UnknownTask``."""
    if name not in TASKS:
        raise UnknownTask(f"no task generator named {name!r}")
    return TASKS[name]


def _rng_for(task: TaskSpec, label: int, seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, task.task_id, label]))


def _pitch_example(task: TaskSpec, label: int, rng: np.random.Generator) -> Waveform:
    amp = rng.uniform(0.25, 1.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    spec = ToneSpec((PITCH_FREQS[label],), (amp,), task.duration_s, phases=(phase,))
    return synth_tones(spec, FRONTEND_RATE)


def _am_example(task: TaskSpec, label: int, rng: np.random.Generator) -> Waveform:
    # full-depth modulation so pooling and PCEN dynamics see rate contrast
    n = round(task.duration_s * FRONTEND_RATE)
    t = np.arange(n) / FRONTEND_RATE
    amp = rng.uniform(0.25, 1.0)
    mod_phase = rng.uniform(0.0, 2.0 * np.pi)
    car_phase = rng.uniform(0.0, 2.0 * np.pi)
    envelope = 0.5 * (1.0 + np.cos(2.0 * np.pi * AM_RATES[label] * t + mod_phase))
    carrier = np.cos(2.0 * np.pi * AM_CARRIER * t + car_phase)
    return Waveform(amp * envelope * carrier, FRONTEND_RATE)


def _noise_color_example(task: TaskSpec, label: int, rng: np.random.Generator) -> Waveform:
    n = round(task.duration_s * FRONTEND_RATE)
    white = gaussian_noise(n, seed=int(rng.integers(2 ** 31)))
    color = NOISE_COLORS[label]
    if color == "white":
        shaped = white
    elif color == "lowpass":
        # imported here: scipy.signal costs every process ~1 s and ~49 MB
        from scipy.signal import lfilter

        # one-pole smoother, ~800 Hz corner at 16 kHz
        shaped = lfilter([0.27], [1.0, -0.73], white)
    else:
        shaped = np.diff(white, prepend=0.0)
    shaped = shaped / float(np.sqrt(np.mean(shaped ** 2)))
    amp = rng.uniform(0.25, 1.0)
    return Waveform(amp * shaped, FRONTEND_RATE)


# every task by name: its classes (one per label) and its clean-clip generator
TASKS = {
    "pitch": (PITCH_FREQS, _pitch_example),
    "am": (AM_RATES, _am_example),
    "noisecolor": (NOISE_COLORS, _noise_color_example),
}
TASK_NAMES = tuple(TASKS)


def generate_example(task: TaskSpec, label: int, seed: int) -> Waveform:
    """Deterministic example for (task, label, seed), noise included."""
    if not 0 <= label < task.num_classes:
        raise ValueError(f"label {label} out of range for {task.name}")
    _, example = _task_entry(task.name)
    rng = _rng_for(task, label, seed)
    clean = example(task, label, rng)
    return add_noise_snr(clean, task.snr_db, seed=int(rng.integers(2 ** 31)))


def sample_batch(tasks: list[TaskSpec], batch_size: int, seed: int, step: int):
    """One training mini-batch, tasks drawn uniformly per slot.

    Returns a list of (Waveform, label, task_index) triples, deterministic
    in (seed, step).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, step]))
    batch = []
    for slot in range(batch_size):
        k = int(rng.integers(len(tasks)))
        label = int(rng.integers(tasks[k].num_classes))
        example_seed = int(rng.integers(2 ** 31))
        batch.append((generate_example(tasks[k], label, example_seed), label, k))
    return batch


def test_set(task: TaskSpec, n_examples: int, seed: int, start: int = 0):
    """Balanced held-out clips ``start`` .. ``start + n_examples - 1``, as
    (Waveform, label) pairs; the seed namespace is disjoint from training.

    Clip i depends only on (task, seed, i), so the clips are made in
    contiguous index shards on the worker pool, bit for bit the same for
    any shard count, and a set made in pieces equals the set made whole.
    """
    parts = workers.run([functools.partial(_held_out_examples, task, seed, start + lo, start + hi)
                         for lo, hi in workers.shards(n_examples)])
    return [example for part in parts for example in part]


def _held_out_examples(task: TaskSpec, seed: int, lo: int, hi: int):
    out = []
    for i in range(lo, hi):
        label = i % task.num_classes
        example_seed = int(
            np.random.default_rng(np.random.SeedSequence([seed, 0x7E57, i])).integers(2 ** 31)
        )
        out.append((generate_example(task, label, example_seed), label))
    return out
