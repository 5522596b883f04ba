"""Task generator tests: determinism, class structure, noise application."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from leafaudio import workers
from leafaudio.errors import UnknownTask
from leafaudio.frontend import FrontendConfig, mel_power_features
from leafaudio.signal import FRONTEND_RATE
from leafaudio.tasks import (
    AM_CARRIER,
    AM_RATES,
    PITCH_FREQS,
    TaskSpec,
    _am_example,
    _phasor,
    generate_example,
    make_task,
    sample_batch,
)
from leafaudio.tasks import test_set as held_out_set
from test_golden import simd_targets


class TestMakeTask:
    def test_class_counts(self):
        assert make_task("pitch").num_classes == 4
        assert make_task("am").num_classes == 3
        assert make_task("noisecolor").num_classes == 3

    def test_unknown_name(self):
        with pytest.raises(UnknownTask, match="^no task generator named 'speech'$"):
            make_task("speech")
        with pytest.raises(UnknownTask, match="^no task generator named 'speech'$"):
            generate_example(TaskSpec(0, "speech", 2, np.inf), 1, seed=0)

    def test_more_classes_than_the_generator_are_refused(self):
        with pytest.raises(ValueError, match="^task 'pitch' has 4 classes, got num_classes=7$"):
            TaskSpec(0, "pitch", 7, np.inf)
        assert TaskSpec(0, "pitch", 1, np.inf).num_classes == 1  # train refuses it, not the spec

    def test_with_snr(self):
        task = make_task("pitch").with_snr(5.0)
        assert task.snr_db == 5.0

    @pytest.mark.parametrize("snr", [np.nan, -np.inf])
    def test_snr_nan_or_minus_inf_is_refused(self, snr):
        message = f"^SNR must be a finite number of dB or inf, got snr_db={snr}$"
        with pytest.raises(ValueError, match=message):
            make_task("pitch", snr_db=snr)
        with pytest.raises(ValueError, match=message):
            make_task("pitch").with_snr(snr)


class TestGenerateExample:
    def test_deterministic(self):
        task = make_task("pitch", snr_db=10.0)
        a = generate_example(task, 2, seed=99)
        b = generate_example(task, 2, seed=99)
        assert np.array_equal(a.samples, b.samples)
        c = generate_example(task, 2, seed=100)
        assert not np.array_equal(a.samples, c.samples)

    def test_expected_length_and_rate(self):
        for name in ("pitch", "am", "noisecolor"):
            wav = generate_example(make_task(name), 0, seed=1)
            assert len(wav.samples) == 16000
            assert wav.sample_rate == 16000

    def test_pitch_labels_map_to_frequencies(self):
        task = make_task("pitch")  # no noise
        for label, freq in enumerate(PITCH_FREQS):
            wav = generate_example(task, label, seed=5)
            spectrum = np.abs(np.fft.rfft(wav.samples))
            peak_hz = spectrum.argmax() * 16000 / len(wav.samples)
            assert abs(peak_hz - freq) < 5.0

    def test_am_envelope_rate(self):
        task = make_task("am")
        for label, rate in enumerate(AM_RATES):
            wav = generate_example(task, label, seed=3)
            envelope = np.abs(wav.samples)
            spectrum = np.abs(np.fft.rfft(envelope - envelope.mean()))
            peak_hz = spectrum[1:].argmax() + 1
            assert abs(peak_hz - rate) <= 1.0

    def test_noise_color_spectra_differ(self):
        task = make_task("noisecolor")
        cfg = FrontendConfig()
        profiles = []
        for label in range(3):
            wav = generate_example(task, label, seed=8)
            feats = mel_power_features(wav.samples[None], cfg)[0].mean(axis=-1)
            profiles.append(np.log(feats + 1e-9))
        # lowpass tilts down, highpass tilts up relative to white
        white, low, high = profiles
        assert (low - white)[:10].mean() > (low - white)[-10:].mean()
        assert (high - white)[-10:].mean() > (high - white)[:10].mean()

    @pytest.mark.parametrize("label, digest", [
        (0, "92eec84aa16cbea5e64b613558ac32f03f2a19321e08357d6467117ea35a72ce"),
        (1, "b99cb3cae872786d7fa0280adc5793ec667fe943530887a1f39fafae00f3e62a"),
        (2, "97dcc851f88d20b1a2cdd04e982b7c0aae7acc35495cc42d78d717f6289a5d7e"),
    ], ids=["white", "lowpass", "highpass"])
    def test_noise_color_clips_are_pinned(self, label, digest):
        # sha256 of the float64 samples; any change to a filter's arithmetic moves a bit
        samples = generate_example(make_task("noisecolor"), label, seed=1234).samples
        assert samples.dtype == np.float64
        assert hashlib.sha256(samples.tobytes()).hexdigest() == digest

    def test_noisy_clip_is_pinned(self):
        samples = generate_example(make_task("am", snr_db=5.0), 1, seed=7).samples
        assert hashlib.sha256(samples.tobytes()).hexdigest() == (
            "522e0f23b08da93034e47f254d499d418d0110036755f430c73c34a9ad5e4100")

    @pytest.mark.parametrize("duration_s", [0.1, 0.25, 1.0])
    def test_am_clips_match_the_direct_formula(self, duration_s):
        # a clip rotates cached phasors by its phases; np.cos of the summed
        # argument differs by rounding only, within one spacing of the
        # largest carrier argument: the rounding of that sum itself
        task = TaskSpec(0, "am", 3, np.inf, duration_s=duration_s)
        t = np.arange(round(duration_s * FRONTEND_RATE)) / FRONTEND_RATE
        bound = np.spacing(2 * np.pi * AM_CARRIER * duration_s + 2 * np.pi) + 4 * np.finfo(float).eps
        for label, rate in enumerate(AM_RATES):
            for seed in range(10):
                clip = _am_example(task, label, np.random.default_rng(seed)).samples
                rng = np.random.default_rng(seed)
                amp, mod_phase, car_phase = rng.uniform(0.25, 1.0), *rng.uniform(0.0, 2.0 * np.pi, 2)
                envelope = 0.5 * (1.0 + np.cos(2.0 * np.pi * rate * t + mod_phase))
                direct = amp * envelope * np.cos(2.0 * np.pi * AM_CARRIER * t + car_phase)
                assert np.max(np.abs(clip - direct)) <= bound, (label, seed)
            for table in _phasor(rate, len(t)):
                assert not table.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    table[0] = 0.0
        assert _phasor(AM_CARRIER, len(t))[0] is _phasor(AM_CARRIER, len(t))[0]

    def test_snr_applied(self):
        clean = generate_example(make_task("pitch"), 0, seed=4)
        noisy = generate_example(make_task("pitch", snr_db=0.0), 0, seed=4)
        diff = noisy.samples - clean.samples
        measured = 10 * np.log10(clean.power() / np.mean(diff ** 2))
        assert abs(measured - 0.0) < 0.2

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            generate_example(make_task("pitch"), 7, seed=0)


def noisy_clip_digests():
    """sha256 of a noisecolor clip of each color and of an am and a pitch
    clip at 5 dB, with the SIMD targets numpy dispatches to in this process."""
    clips = [generate_example(make_task("noisecolor"), label, seed=7) for label in range(3)]
    clips += [generate_example(make_task(name, snr_db=5.0), 1, seed=7) for name in ("am", "pitch")]
    return {"digests": [hashlib.sha256(wav.samples.tobytes()).hexdigest() for wav in clips],
            "simd": simd_targets()}


def test_noisy_clips_do_not_depend_on_the_simd_level():
    # a fresh interpreter in which only the baseline loops run: it disables
    # the dispatch targets this process already disables and every other
    # one numpy found on this CPU.  numpy refuses to disable the baseline,
    # and warns about a target the CPU lacks
    here = Path(__file__).parent
    found = np.__config__.CONFIG["SIMD Extensions"].get("found", [])
    disabled = " ".join([os.environ.get("NPY_DISABLE_CPU_FEATURES", ""), *found]).strip()
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled,
           "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    child = subprocess.run(
        [sys.executable, "-W", "error", "-c",
         "import json, test_tasks; print(json.dumps(test_tasks.noisy_clip_digests()))"],
        env=env, capture_output=True, text=True, check=True)
    baseline_only = json.loads(child.stdout)
    assert all(target.startswith("baseline") for target in baseline_only["simd"])
    assert baseline_only["digests"] == noisy_clip_digests()["digests"]


class TestBatchesAndTestSets:
    def test_sample_batch_deterministic(self):
        tasks = [make_task("pitch", task_id=0), make_task("am", task_id=1)]
        a = sample_batch(tasks, 6, seed=2, step=10)
        b = sample_batch(tasks, 6, seed=2, step=10)
        for (xa, ya, ka), (xb, yb, kb) in zip(a, b):
            assert ya == yb and ka == kb
            assert np.array_equal(xa.samples, xb.samples)
        c = sample_batch(tasks, 6, seed=2, step=11)
        assert any(not np.array_equal(xa.samples, xc.samples) for (xa, _, _), (xc, _, _) in zip(a, c))

    def test_batch_draws_all_tasks(self):
        tasks = [make_task("pitch", task_id=0), make_task("am", task_id=1)]
        ks = [k for _, _, k in sample_batch(tasks, 64, seed=0, step=1)]
        assert set(ks) == {0, 1}

    def test_test_set_balanced(self):
        task = make_task("pitch")
        labels = [y for _, y in held_out_set(task, 40, seed=1)]
        assert labels == [i % 4 for i in range(40)]

    def test_test_set_disjoint_from_training(self):
        task = make_task("pitch")
        train_x = sample_batch([task], 8, seed=1, step=1)
        test_x = held_out_set(task, 8, seed=1)
        for xt, _, _ in train_x:
            for xs, _ in test_x:
                assert not np.array_equal(xt.samples, xs.samples)


def serial_test_set(task, n_examples, seed):
    """The held-out set made one clip at a time, in the calling thread."""
    seeds = [int(np.random.default_rng(np.random.SeedSequence([seed, 0x7E57, i])).integers(2 ** 31))
             for i in range(n_examples)]
    return [(generate_example(task, i % task.num_classes, s), i % task.num_classes)
            for i, s in enumerate(seeds)]


class TestTestSetShards:
    @pytest.mark.parametrize("shards", [1, 2, 3, 5])
    def test_equals_serial_bit_for_bit(self, monkeypatch, shards):
        monkeypatch.setattr(workers, "CPUS", shards)
        task = TaskSpec(1, "am", 3, 5.0, 0.1)
        for n in (1, 3, 64, 70):
            made, serial = held_out_set(task, n, seed=4), serial_test_set(task, n, 4)
            assert [y for _, y in made] == [y for _, y in serial]
            for (x, _), (ref, _) in zip(made, serial, strict=True):
                assert np.array_equal(x.samples, ref.samples)

    def test_pieces_equal_the_whole(self, monkeypatch):
        monkeypatch.setattr(workers, "CPUS", 2)
        task = TaskSpec(0, "pitch", 4, 10.0, 0.05)
        whole = held_out_set(task, 70, seed=8)
        pieces = held_out_set(task, 64, seed=8) + held_out_set(task, 6, seed=8, start=64)
        assert [y for _, y in pieces] == [y for _, y in whole]
        assert all(np.array_equal(a.samples, b.samples) for (a, _), (b, _) in zip(pieces, whole))
