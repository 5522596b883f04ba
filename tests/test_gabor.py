"""Tests for the Gabor filterbank and its mel initialization."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafaudio import gabor
from leafaudio.errors import DegenerateTriangle
from leafaudio.gabor import (
    SIGMA_MIN,
    frequency_response,
    gabor_impulse_response,
    gabor_params_from_mels,
    mel_matrix,
    sigma_max,
)
from leafaudio.frontend import FrontendConfig, gabor_kernel_graph
from leafaudio.params import ParamSet, constraint_bounds, project_params


def mel_oracle_breakpoints(n_filters, fmin, fmax):
    """Independent scalar-arithmetic mel breakpoint computation."""
    def to_mel(f):
        return 2595.0 * math.log10(1.0 + f / 700.0)

    def to_hz(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    lo, hi = to_mel(fmin), to_mel(fmax)
    return [to_hz(lo + (hi - lo) * i / (n_filters + 1)) for i in range(n_filters + 2)]


class TestMelMatrix:
    def test_rows_peak_at_exactly_one(self):
        mm = mel_matrix(FrontendConfig())
        np.testing.assert_array_equal(mm.max(axis=1), np.ones(40))

    def test_single_filter_peaks_at_mel_midpoint(self):
        cfg = FrontendConfig(n_filters=1, fmin=0.0, fmax=8000.0)
        mm = mel_matrix(cfg)
        peak_hz = mel_oracle_breakpoints(1, 0.0, 8000.0)[1]
        nearest_bin = round(peak_hz / (16000 / 512))
        assert mm.shape == (1, 257)
        assert mm[0].argmax() == nearest_bin

    def test_argmax_bins_match_oracle(self):
        cfg = FrontendConfig()
        mm = mel_matrix(cfg)
        centers = mel_oracle_breakpoints(40, 60.0, 7800.0)[1:-1]
        bin_hz = 16000 / 512
        for n in range(40):
            # the sampled argmax may sit either side of the continuous peak
            assert abs(mm[n].argmax() - centers[n] / bin_hz) <= 1.0

    def test_degenerate_triangle(self):
        for _ in range(2):  # raised on every call, not only the first
            with pytest.raises(DegenerateTriangle):
                mel_matrix(FrontendConfig(n_filters=40, fmin=60.0, fmax=300.0))

    @pytest.mark.parametrize("cfg", [
        FrontendConfig(), FrontendConfig(n_filters=1, fmin=0.0, fmax=8000.0),
        FrontendConfig(n_filters=6, fmin=100.0, fmax=4000.0, n_fft=1024),
    ], ids=["default", "one-filter", "six-filters-1024"])
    def test_matches_a_per_channel_loop_bit_for_bit(self, cfg):
        breaks = gabor.mel_breakpoints(cfg)
        freqs = np.arange(cfg.n_fft // 2 + 1) * (16000 / cfg.n_fft)
        expected = np.zeros((cfg.n_filters, len(freqs)))
        for n in range(cfg.n_filters):
            left, peak, right = breaks[n], breaks[n + 1], breaks[n + 2]
            row = np.maximum(0.0, np.minimum((freqs - left) / (peak - left), (right - freqs) / (right - peak)))
            expected[n] = row / row.max()
        assert np.array_equal(mel_matrix(cfg), expected)

    def test_one_read_only_matrix_per_config(self):
        mm = mel_matrix(FrontendConfig(n_filters=7))
        assert mel_matrix(FrontendConfig(n_filters=7)) is mm
        assert not mm.flags.writeable
        np.testing.assert_array_equal(mm, mel_matrix.__wrapped__(FrontendConfig(n_filters=7)))


class TestGaborParamsFromMels:
    def test_centers_strictly_increasing(self):
        eta, _ = gabor_params_from_mels(FrontendConfig())
        assert np.all(np.diff(eta) > 0)

    def test_lowest_center_near_100_hz(self):
        eta, _ = gabor_params_from_mels(FrontendConfig())
        bin_hz = 16000 / 512
        assert abs(eta[0] * 16000 - 100.0) <= bin_hz

    def test_sigma_within_bounds(self):
        _, sigma = gabor_params_from_mels(FrontendConfig())
        assert np.all(sigma >= SIGMA_MIN)
        assert np.all(sigma <= sigma_max(401))


class TestImpulseResponse:
    def test_value_at_origin(self):
        phi = gabor_impulse_response(0.1, 1.0, 401)
        center = (401 - 1) // 2
        np.testing.assert_allclose(phi[center], 1.0 / math.sqrt(2.0 * math.pi), rtol=1e-12)
        assert phi[center].imag == 0.0

    def test_even_real_odd_imag(self):
        # kernel rows 2n and 2n+1 are channel n's real and imaginary filters
        kernels = gabor_kernel_graph(np.array([0.123, 0.4]), np.array([12.0, 30.0]), 101).value
        for n in range(2):
            re, im = kernels[2 * n], kernels[2 * n + 1]
            np.testing.assert_allclose(re, re[::-1], atol=1e-15)
            np.testing.assert_allclose(im, -im[::-1], atol=1e-15)

    def test_dft_peak_at_center_frequency(self):
        phi = gabor_impulse_response(0.25, 20.0, 401)
        spectrum = np.abs(np.fft.fft(phi, 1024))
        assert spectrum.argmax() == round(0.25 * 1024)


def project_bank(eta, sigma, filter_len=401):
    """(eta, sigma) after the optimizer's constraint projection."""
    cfg = FrontendConfig(filter_len=filter_len)
    out = project_params(ParamSet({"eta": np.asarray(eta, dtype=float),
                                   "sigma": np.asarray(sigma, dtype=float)}), cfg)
    return out["eta"], out["sigma"]


class TestProjectConstraints:
    def test_eta_clamp(self):
        eta, _ = project_bank([0.7, -0.2], [100.0, 100.0])
        np.testing.assert_array_equal(eta, [0.5, 0.0])

    def test_sigma_clamp_lower(self):
        _, sigma = project_bank([0.1], [1.0])
        np.testing.assert_allclose(sigma[0], 4.0 * math.sqrt(2.0 * math.log(2.0)))

    def test_in_range_bank_unchanged_bit_exact(self):
        eta, sigma = np.array([0.1, 0.3]), np.array([50.0, 200.0])
        out_eta, out_sigma = project_bank(eta, sigma)
        assert np.array_equal(out_eta, eta)
        assert np.array_equal(out_sigma, sigma)

    def test_idempotent(self):
        once = project_bank([-3.0, 9.9], [0.01, 1e6])
        twice = project_bank(*once)
        assert np.array_equal(once[0], twice[0])
        assert np.array_equal(once[1], twice[1])

    @given(
        st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=1, max_size=8),
        st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=1, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_invariants_hold_for_arbitrary_input(self, eta, sigma):
        n = min(len(eta), len(sigma))
        out_eta, out_sigma = project_bank(eta[:n], sigma[:n])
        assert np.all((out_eta >= 0.0) & (out_eta <= 0.5))
        assert np.all((out_sigma >= SIGMA_MIN) & (out_sigma <= sigma_max(401)))

    @pytest.mark.parametrize("field", ["filter_len", "pool_len"])
    def test_config_accepts_exactly_the_lengths_with_non_empty_ranges(self, field):
        # constraint_bounds reads only the two kernel lengths
        for length in (*range(1, 42, 2), 401):
            lengths = {"filter_len": 401, "pool_len": 401, field: length}
            non_empty = all(high is None or low <= high
                            for low, high in constraint_bounds(SimpleNamespace(**lengths)).values())
            try:
                FrontendConfig(**lengths)
            except ValueError as error:
                assert not non_empty, length
                assert re.fullmatch(f"{field} must be >= [35]", str(error)), error
            else:
                assert non_empty, length


class TestFrequencyResponse:
    def test_zero_filter(self):
        assert np.all(frequency_response(np.zeros(31), 64) == 0.0)

    def test_unit_impulse_is_flat(self):
        filt = np.zeros(31)
        filt[15] = 1.0
        np.testing.assert_allclose(frequency_response(filt, 128), 1.0, rtol=1e-12)

    def test_half_maximum_width_matches_analytic_gaussian(self):
        # squared-magnitude response of a Gabor filter is a Gaussian with
        # power FWHM = sqrt(ln 2) / (pi * sigma) in normalized frequency
        sigma = 50.0
        n_points = 4096
        resp = frequency_response(gabor_impulse_response(0.1, sigma, 401), n_points)
        measured = int((resp >= 0.5 * resp.max()).sum())
        analytic = math.sqrt(math.log(2.0)) / (math.pi * sigma) * n_points
        assert abs(measured - analytic) / analytic < 0.10

    def test_rejects_short_grid(self):
        with pytest.raises(ValueError):
            frequency_response(np.zeros(64), 32)


class TestSpectralProperties:
    def test_quasi_analyticity(self):
        # negative-frequency image mass < 1% of total.  Verified domain:
        # eta in [0.05, 0.45] and sigma in [8, 400]; outside it either the
        # sigma clamp floor (wide filters at low centers) or envelope
        # truncation sidelobes (large sigma near Nyquist) break the bound.
        n_points = 4096
        freqs = np.arange(n_points) / n_points
        image = (freqs > 0.5) & (freqs < 1.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            eta = rng.uniform(0.05, 0.45)
            sigma = rng.uniform(8.0, 400.0)
            resp = frequency_response(gabor_impulse_response(eta, sigma, 401), n_points)
            assert resp[image].sum() / resp.sum() < 0.01, (eta, sigma)

    def test_mel_approximation_at_init(self):
        cfg = FrontendConfig()
        eta, sigma = gabor_params_from_mels(cfg)
        rows = mel_matrix(cfg)
        for n in range(cfg.n_filters):
            resp = frequency_response(gabor_impulse_response(eta[n], sigma[n], cfg.filter_len), cfg.n_fft)
            assert abs(int(resp.argmax()) - int(rows[n].argmax())) <= 1

    def test_ordering_at_init(self):
        eta, _ = gabor_params_from_mels(FrontendConfig())
        assert np.all(eta[:-1] < eta[1:])
