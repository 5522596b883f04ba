"""Tests for waveform loading, tone synthesis, and noise injection.

The WAV writer oracle uses the stdlib ``wave`` module so the round-trip
check is independent of the package's own RIFF parser.
"""

import math
import re
import struct
import wave

import numpy as np
import pytest

from leafaudio.errors import AliasedFrequency, NotWav, SilentInput, UnsupportedFormat
from leafaudio.signal import Waveform, add_noise_snr, load_wav, synth_tones


def write_pcm16(path, samples_i16, rate, channels=1):
    """Stdlib-based PCM16 writer used as the round-trip oracle."""
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(channels)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(np.asarray(samples_i16, dtype="<i2").tobytes())


class TestWaveform:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Waveform(np.array([]), 16000)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Waveform(np.array([0.0, np.nan]), 16000)

    def test_samples_are_read_only(self):
        w = Waveform(np.zeros(4), 16000)
        with pytest.raises(ValueError):
            w.samples[0] = 1.0

    def test_callers_array_stays_writeable(self):
        x = np.zeros(10)
        w = Waveform(x, 16000)
        x[0] = 1.0
        assert w.samples[0] == 0.0 and not w.samples.flags.writeable


# a 16 kHz 16-bit PCM mono fmt chunk's payload
FMT = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)


class TestLoadWav:
    def test_zero_file(self, tmp_path):
        path = tmp_path / "zeros.wav"
        write_pcm16(path, np.zeros(16000, dtype=np.int16), 16000)
        w = load_wav(path)
        assert w.sample_rate == 16000
        assert len(w.samples) == 16000
        assert np.all(w.samples == 0.0)

    def test_scaling_definition(self, tmp_path):
        path = tmp_path / "scale.wav"
        write_pcm16(path, np.array([-32768, 16384, 0, 32767], dtype=np.int16), 16000)
        w = load_wav(path)
        np.testing.assert_allclose(w.samples, [-1.0, 0.5, 0.0, 32767 / 32768], rtol=0, atol=0)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        ints = rng.integers(-32768, 32768, size=2048, dtype=np.int64).astype(np.int16)
        path = tmp_path / "rt.wav"
        write_pcm16(path, ints, 16000)
        w = load_wav(path)
        back = np.round(w.samples * 32768.0).astype(np.int16)
        assert np.array_equal(back, ints)

    def test_other_rates_load(self, tmp_path):
        path = tmp_path / "r8k.wav"
        write_pcm16(path, np.ones(8000, dtype=np.int16), 8000)
        assert load_wav(path).sample_rate == 8000

    def test_skips_extra_chunks(self, tmp_path):
        # hand-built RIFF with a junk chunk between fmt and data
        data = np.array([100, -100], dtype="<i2").tobytes()
        fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
        junk = b"JUNKYARD!"  # odd length exercises word alignment
        body = (
            b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"junk" + struct.pack("<I", len(junk)) + junk + b"\x00"
            + b"data" + struct.pack("<I", len(data)) + data
        )
        blob = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
        path = tmp_path / "chunky.wav"
        path.write_bytes(blob)
        w = load_wav(path)
        np.testing.assert_allclose(w.samples, [100 / 32768, -100 / 32768])

    def test_not_wav(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"OggS" + b"\x00" * 64)
        with pytest.raises(NotWav):
            load_wav(path)

    def test_rejects_stereo(self, tmp_path):
        path = tmp_path / "stereo.wav"
        write_pcm16(path, np.zeros(64, dtype=np.int16), 16000, channels=2)
        with pytest.raises(UnsupportedFormat):
            load_wav(path)

    @pytest.mark.parametrize("chunks, error, message", [
        ([(b"fmt ", FMT), (b"data", b"\x00" * 4, 100)], NotWav, "truncated b'data' chunk"),
        ([(b"data", b"\x00" * 4)], NotWav, "missing fmt or data chunk"),
        ([(b"fmt ", FMT)], NotWav, "missing fmt or data chunk"),
        ([(b"fmt ", FMT[:14]), (b"data", b"\x00" * 4)], NotWav, "malformed fmt chunk"),
        ([(b"fmt ", struct.pack("<H", 3) + FMT[2:]), (b"data", b"\x00" * 4)], UnsupportedFormat,
         "audio format 3, expected PCM"),
        ([(b"fmt ", FMT), (b"data", b"")], UnsupportedFormat, "empty data chunk"),
    ], ids=["truncated-chunk", "no-fmt", "no-data", "short-fmt", "float-format", "empty-data"])
    def test_malformed_container(self, chunks, error, message, tmp_path):
        # a chunk is (id, payload) or (id, payload, the size its header claims)
        body = b"".join(cid + struct.pack("<I", (*rest, len(payload))[0]) + payload
                        for cid, payload, *rest in chunks)
        path = tmp_path / "case.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
        with pytest.raises(error, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_wav(path)

    def test_rejects_non_pcm16(self, tmp_path):
        fmt = struct.pack("<HHIIHH", 1, 1, 16000, 64000, 4, 32)
        body = b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", 4) + b"\x00" * 4
        path = tmp_path / "pcm32.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
        with pytest.raises(UnsupportedFormat):
            load_wav(path)


class TestSynthTones:
    def test_closed_form_sample(self):
        w = synth_tones((1000.0,), (1.0,), (0.0,), 1.0, 16000)
        # cos(2*pi*1000*4/16000) = cos(pi/2) = 0
        assert abs(w.samples[4]) < 1e-12
        assert w.samples[0] == 1.0
        assert len(w.samples) == 16000

    def test_empty_spec_is_silence(self):
        w = synth_tones((), (), (), 0.5, 16000)
        assert np.all(w.samples == 0.0)
        assert len(w.samples) == 8000

    def test_antiphase_cancellation(self):
        w = synth_tones((440.0, 440.0), (0.7, 0.7), (0.3, 0.3 + np.pi), 1.0, 16000)
        assert np.max(np.abs(w.samples)) < 1e-12

    def test_aliased_frequency(self):
        with pytest.raises(AliasedFrequency, match=r"^tone at 8000\.0 Hz >= Nyquist 8000\.0 Hz$"):
            synth_tones((8000,), (1.0,), (0.0,), 1.0, 16000)

    @pytest.mark.parametrize("amplitudes, phases, message", [
        ((1.0, 0.5), (0.0,), "frequencies and amplitudes must pair up"),
        ((1.0,), (0.0, 0.1), "phases must pair up with frequencies"),
    ], ids=["amplitudes", "phases"])
    def test_unpaired_lists_are_refused(self, amplitudes, phases, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            synth_tones((440.0,), amplitudes, phases, 1.0, 16000)

    @pytest.mark.parametrize("freq", [0, -5.0])
    def test_non_positive_frequency_is_refused(self, freq):
        with pytest.raises(ValueError, match=f"^tone frequency must be positive, got {float(freq)}$"):
            synth_tones((freq,), (1.0,), (0.0,), 1.0, 16000)

    def test_duration_under_one_sample_is_refused(self):
        with pytest.raises(ValueError, match="^duration too short for this sample rate$"):
            synth_tones((440.0,), (1.0,), (0.0,), 0.4 / 16000, 16000)


class TestAddNoiseSnr:
    def test_infinite_snr_is_identity(self):
        x = synth_tones((1000.0,), (1.0,), (0.0,), 1.0, 16000)
        assert add_noise_snr(x, math.inf, 3) is x

    def test_noise_power_matches_request(self):
        # P_x = 0.5 for a unit cosine; at 0 dB the noise power must match
        x = synth_tones((1000.0,), (1.0,), (0.0,), 1.0, 16000)
        assert abs(x.power() - 0.5) < 1e-6
        y = add_noise_snr(x, 0.0, seed=21)
        noise = y.samples - x.samples
        assert abs(float(np.mean(noise ** 2)) - 0.5) < 0.01  # within 2%

    def test_minus_five_db_gain_relation(self):
        x = synth_tones((800.0,), (1.0,), (0.0,), 1.0, 16000)
        y = add_noise_snr(x, -5.0, seed=5)
        noise = y.samples - x.samples
        ratio = float(np.mean(noise ** 2)) / x.power()
        assert abs(ratio / 10.0 ** 0.5 - 1.0) < 0.05

    def test_empirical_snr_within_tolerance(self):
        x = synth_tones((600.0,), (0.8,), (0.0,), 1.0, 16000)
        for snr in (20.0, 5.0, 0.0, -5.0):
            y = add_noise_snr(x, snr, seed=99)
            noise = y.samples - x.samples
            measured = 10.0 * np.log10(x.power() / float(np.mean(noise ** 2)))
            assert abs(measured - snr) < 0.2

    def test_deterministic_given_seed(self):
        x = synth_tones((600.0,), (0.8,), (0.0,), 0.5, 16000)
        a = add_noise_snr(x, 10.0, seed=4)
        b = add_noise_snr(x, 10.0, seed=4)
        assert np.array_equal(a.samples, b.samples)
        c = add_noise_snr(x, 10.0, seed=5)
        assert not np.array_equal(a.samples, c.samples)

    def test_silent_input(self):
        x = Waveform(np.zeros(100), 16000)
        with pytest.raises(SilentInput):
            add_noise_snr(x, 10.0, seed=0)


    def test_noise_moments(self):
        # at 0 dB against a unit-power clip the gain is 1: the noise itself
        x = Waveform(np.ones(200_000), 16000)
        z = add_noise_snr(x, 0.0, seed=13).samples - 1.0
        assert abs(float(np.mean(z))) < 0.01
        assert abs(float(np.var(z)) - 1.0) < 0.01

    def test_int_seed_is_its_generator(self):
        x = synth_tones((600.0,), (0.8,), (0.0,), 0.1, 16000)
        a = add_noise_snr(x, 5.0, 5)
        b = add_noise_snr(x, 5.0, np.random.default_rng(5))
        assert np.array_equal(a.samples, b.samples)
