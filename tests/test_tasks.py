"""Task generator tests: determinism, class structure, noise application."""

import hashlib

import numpy as np
import pytest

from leafaudio import workers
from leafaudio.errors import UnknownTask
from leafaudio.frontend import FrontendConfig, mel_power_features
from leafaudio.tasks import (
    AM_RATES,
    PITCH_FREQS,
    TaskSpec,
    generate_example,
    make_task,
    sample_batch,
)
from leafaudio.tasks import test_set as held_out_set


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
            feats = mel_power_features(wav.samples[None], cfg)[0].mean(axis=0)
            profiles.append(np.log(feats + 1e-9))
        # lowpass tilts down, highpass tilts up relative to white
        white, low, high = profiles
        assert (low - white)[:10].mean() > (low - white)[-10:].mean()
        assert (high - white)[-10:].mean() > (high - white)[:10].mean()

    @pytest.mark.parametrize("label, digest", [
        (0, "d2e9bace89fcb4f14ad965dd2a073c9b87583745535687d02b3d305a0c362746"),
        (1, "4a6211d22ef4a6e062aa30d414fe6ecd9abb7893eda1425f5694a411e9b7df2d"),
        (2, "f8715520fe2ebb28f24fd8b0b103bc9187f7c1659c01b646fcf3b60e35fe3512"),
    ], ids=["white", "lowpass", "highpass"])
    def test_noise_color_clips_are_pinned(self, label, digest):
        # sha256 of the float64 samples; any change to a filter's arithmetic moves a bit
        samples = generate_example(make_task("noisecolor"), label, seed=1234).samples
        assert samples.dtype == np.float64
        assert hashlib.sha256(samples.tobytes()).hexdigest() == digest

    def test_snr_applied(self):
        clean = generate_example(make_task("pitch"), 0, seed=4)
        noisy = generate_example(make_task("pitch", snr_db=0.0), 0, seed=4)
        diff = noisy.samples - clean.samples
        measured = 10 * np.log10(clean.power() / np.mean(diff ** 2))
        assert abs(measured - 0.0) < 0.2

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            generate_example(make_task("pitch"), 7, seed=0)


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
