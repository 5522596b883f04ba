"""CLI contract tests: exit codes, output formats, reproducibility, start-up."""

import json
import os
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest

import leafaudio
from leafaudio import cli, training
from leafaudio.cli import main
from leafaudio.frontend import FrontendConfig, frontend_forward, variant_config
from leafaudio.gabor import frequency_response, gabor_impulse_response, gabor_params_from_mels
from leafaudio.io import load_params, read_feature_file, save_params
from leafaudio.params import ParamSet, frontend_param_values, init_params
from leafaudio.signal import load_wav, synth_tones
from test_golden import skip_off_the_golden_platform


DATA = Path(__file__).parent / "data"


@pytest.fixture
def tone_wav(tmp_path):
    x = synth_tones((1000.0,), (0.5,), (0.0,), 1.0, 16000)
    ints = np.round(x.samples * 32767).astype("<i2")
    path = tmp_path / "tone.wav"
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(16000)
        fh.writeframes(ints.tobytes())
    return path


class TestExtract:
    def test_happy_path_writes_magic(self, tone_wav, tmp_path, capsys):
        out = tmp_path / "tone.leaf"
        code = main(["extract", "--input", str(tone_wav), "--frontend", "leaf",
                     "--out", str(out)])
        assert code == 0
        assert out.read_bytes()[:4] == b"LEAF"
        assert "frontend=leaf" in capsys.readouterr().out

    def test_param_count_report_mel_pcen_64(self, tone_wav, capsys):
        code = main(["extract", "--input", str(tone_wav), "--frontend", "mel-pcen",
                     "--filters", "64"])
        assert code == 0
        assert "learnable_params=256" in capsys.readouterr().out

    def test_reproducible_output_bytes(self, tone_wav, tmp_path):
        a, b = tmp_path / "a.leaf", tmp_path / "b.leaf"
        assert main(["extract", "--input", str(tone_wav), "--out", str(a), "--seed", "3"]) == 0
        assert main(["extract", "--input", str(tone_wav), "--out", str(b), "--seed", "3"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_compare_prints_correlations(self, tone_wav, capsys):
        code = main(["extract", "--input", str(tone_wav), "--compare"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "channel,correlation"
        assert len(out) == 41

    @pytest.mark.parametrize("flags", [["--model"], ["--out"], ["--model", "--out"]],
                             ids=["model", "out", "both"])
    def test_compare_excludes_model_and_out(self, flags, tone_wav, tmp_path, capsys):
        paths = {"--model": tmp_path / "no-such-model", "--out": tmp_path / "c.leaf"}
        with pytest.raises(SystemExit) as exc:
            main(["extract", "--input", str(tone_wav), "--compare"]
                 + [arg for flag in flags for arg in (flag, str(paths[flag]))])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "leafaudio: error: extract --compare cannot be combined with --model or --out")
        assert not paths["--out"].exists()

    def test_out_refuses_a_frame_rate_that_is_not_whole_hz(self, tone_wav, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "frontend_forward", no_frontend)
        out = tmp_path / "f.leaf"
        code = main(["extract", "--input", str(tone_wav), "--stride", "150", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"ValueError: {out}: frame rate 106.66666666666667 Hz is not a whole number; "
            "a feature file stores whole Hz\n")
        assert not out.exists()

    @pytest.mark.parametrize("where", ["a-directory", "in-a-missing-directory"])
    def test_out_that_cannot_be_written_exits_1_before_the_frontend(self, where, tone_wav, tmp_path,
                                                                    monkeypatch, capsys):
        monkeypatch.setattr(cli, "frontend_forward", no_frontend)
        out = tmp_path if where == "a-directory" else tmp_path / "missing" / "x.leaf"
        assert main(["extract", "--input", str(tone_wav), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ValueError: extract --out must be a file in an existing directory, got {out}\n"
        assert sorted(tmp_path.iterdir()) == [tone_wav]

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        code = main(["extract", "--input", str(tmp_path / "nope.wav")])
        assert code == 1
        err = capsys.readouterr().err
        assert "FileNotFoundError" in err

    def test_non_wav_reports_error_name(self, tmp_path, capsys):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"not a wav at all")
        code = main(["extract", "--input", str(path)])
        assert code == 1
        assert "NotWav" in capsys.readouterr().err


class TestSnapshots:
    LEAF6 = ["--frontend", "leaf", "--filters", "6", "--filter-len", "65"]

    @pytest.fixture
    def leaf6(self, tmp_path):
        path = tmp_path / "leaf6"
        save_params(path, init_params(variant_config("leaf", n_filters=6, filter_len=65), 3))
        return path

    def test_extract_uses_mel_pcen_snapshot(self, tone_wav, tmp_path):
        cfg = variant_config("mel-pcen")
        values = dict(init_params(cfg, 2))
        values["pcen_alpha"] = values["pcen_alpha"] - 0.08
        save_params(tmp_path / "m", ParamSet(values))
        init_out, model_out = tmp_path / "init.leaf", tmp_path / "model.leaf"
        args = ["extract", "--input", str(tone_wav), "--frontend", "mel-pcen"]
        assert main(args + ["--out", str(init_out)]) == 0
        assert main(args + ["--model", str(tmp_path / "m"), "--out", str(model_out)]) == 0
        assert model_out.read_bytes() != init_out.read_bytes()
        expected = frontend_forward(load_wav(tone_wav), load_params(tmp_path / "m"), cfg).values
        np.testing.assert_array_equal(read_feature_file(model_out).values, expected.astype(np.float32))

    def test_matching_snapshot_evaluates(self, leaf6, capsys):
        code = main(["eval", "--model", str(leaf6), "--n", "4", "--task", "am"] + self.LEAF6)
        assert code == 0
        assert "accuracy=" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, error", [
        (["--task", "pitch"], "ShapeMismatch: head 0 has 3 classes, task 'pitch' has 4"),
        (["--task", "am", "--task-index", "1"],
         "UnknownTask: task index 1 has no head; the model's head count is 1"),
        (["--task", "am", "--task-index", "-1"],
         "UnknownTask: task index -1 has no head; the model's head count is 1"),
    ], ids=["class-count", "index-past-last-head", "negative-index"])
    def test_eval_head_misuse_is_named(self, leaf6, flags, error, capsys):
        code = main(["eval", "--model", str(leaf6), "--n", "4"] + flags + self.LEAF6)
        assert code == 1
        assert capsys.readouterr().err == error + "\n"

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_eval_without_clips_is_named(self, tmp_path, count, capsys):
        save_params(tmp_path / "mp", init_params(variant_config("mel-pcen"), 3))
        code = main(["eval", "--model", str(tmp_path / "mp"), "--frontend", "mel-pcen",
                     "--task", "am", "--n", count])
        assert code == 1
        assert capsys.readouterr().err == (
            f"ValueError: evaluation needs at least 1 clip, got n_examples={count}\n")

    @pytest.mark.parametrize("flags", [
        ["--frontend", "mel"],
        ["--frontend", "leaf-log"],
        ["--frontend", "mel-pcen"],
        ["--frontend", "convnorm"],
        ["--frontend", "leaf", "--filters", "8"],
    ], ids=["mel", "leaf-log", "mel-pcen", "convnorm", "filters"])
    def test_mismatched_snapshot_is_shape_mismatch(self, leaf6, flags, capsys):
        code = main(["eval", "--model", str(leaf6), "--n", "4", "--filters", "6",
                     "--filter-len", "65"] + flags)
        assert code == 1
        assert capsys.readouterr().err.startswith("ShapeMismatch:")

    def test_mel_snapshot_head_rows_are_checked(self, tmp_path, capsys):
        save_params(tmp_path / "mel8", init_params(variant_config("mel", n_filters=8), 3))
        code = main(["eval", "--model", str(tmp_path / "mel8"), "--n", "4", "--frontend", "mel",
                     "--filters", "6"])
        assert code == 1
        assert capsys.readouterr().err.startswith("ShapeMismatch:")

    @pytest.mark.parametrize("command", ["extract", "eval", "inspect"])
    def test_nan_parameter_is_corrupt_snapshot(self, command, leaf6, tone_wav, monkeypatch, capsys):
        monkeypatch.setattr(cli, "load_wav", no_wav)  # extract refuses the snapshot before reading the clip
        values = dict(load_params(leaf6))
        values["pcen_delta"] = np.where(np.arange(6) == 2, np.nan, values["pcen_delta"])
        save_params(leaf6, ParamSet(values))
        flags = {"extract": ["--input", str(tone_wav)], "eval": ["--n", "4", "--task", "am"], "inspect": []}
        code = main([command, "--model", str(leaf6), *flags[command]] + self.LEAF6)
        assert code == 1
        assert capsys.readouterr().err == f"CorruptSnapshot: {leaf6 / 'pcen_delta.leaf'}: non-finite value\n"

    def test_extract_and_inspect_share_the_check(self, leaf6, tone_wav, capsys):
        assert main(["extract", "--input", str(tone_wav), "--model", str(leaf6),
                     "--frontend", "leaf"]) == 1
        assert main(["inspect", "--model", str(leaf6), "--frontend", "convnorm",
                     "--filters", "6", "--filter-len", "65"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("ShapeMismatch:") for line in err)

    def _save_leaf6(self, path, heads):
        """A leaf6 snapshot with heads ``{index: (weights shape, bias length)}``."""
        values = frontend_param_values(variant_config("leaf", n_filters=6, filter_len=65))
        for k, (shape, n_classes) in heads.items():
            values[f"head{k}_weights"] = np.zeros(shape)
            values[f"head{k}_bias"] = np.zeros(n_classes)
        save_params(path, ParamSet(values))
        return path

    def test_gap_in_head_numbering_is_shape_mismatch(self, tmp_path, capsys):
        path = self._save_leaf6(tmp_path / "gap", {0: ((6, 3), 3), 2: ((6, 3), 3)})
        code = main(["eval", "--model", str(path), "--n", "4", "--task", "am",
                     "--task-index", "2"] + self.LEAF6)
        assert code == 1
        assert capsys.readouterr().err == (
            f"ShapeMismatch: parameters in {path} (--frontend leaf, --filters 6) do not match "
            "parameter shapes: head2_weights is unexpected\n")

    def test_head_columns_must_match_bias_length(self, tmp_path, capsys):
        path = self._save_leaf6(tmp_path / "cols", {0: ((6, 4), 3)})
        code = main(["eval", "--model", str(path), "--n", "4", "--task", "am"] + self.LEAF6)
        assert code == 1
        assert capsys.readouterr().err == (
            f"ShapeMismatch: parameters in {path} (--frontend leaf, --filters 6) do not match "
            "parameter shapes: head0_weights has shape (6, 4), not (6, 3)\n")

    def test_snapshot_without_heads_extracts(self, tone_wav, tmp_path, capsys):
        path = self._save_leaf6(tmp_path / "frontend-only", {})
        assert main(["extract", "--input", str(tone_wav), "--model", str(path)] + self.LEAF6) == 0
        assert "learnable_params=42 frames=100 channels=6" in capsys.readouterr().out

    @pytest.mark.parametrize("damage", ["missing block", "flipped byte"])
    def test_damaged_snapshot_is_corrupt_snapshot(self, leaf6, damage, capsys):
        block = leaf6 / "eta.leaf"
        if damage == "missing block":
            block.unlink()
        else:
            blob = bytearray(block.read_bytes())
            blob[-1] ^= 0xFF
            block.write_bytes(bytes(blob))
        code = main(["inspect", "--model", str(leaf6)] + self.LEAF6)
        assert code == 1
        assert capsys.readouterr().err.startswith("CorruptSnapshot:")


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self, tone_wav):
        with pytest.raises(SystemExit) as exc:
            main(["extract", "--input", str(tone_wav), "--explode"])
        assert exc.value.code == 2

    def test_bad_frontend_choice_exits_2(self, tone_wav):
        with pytest.raises(SystemExit) as exc:
            main(["extract", "--input", str(tone_wav), "--frontend", "wavelet"])
        assert exc.value.code == 2


class TestBootstrapCommand:
    def test_inline_lists(self, capsys):
        code = main(["bootstrap", "--a", "0.9,0.8,0.7,0.6", "--b", "0.5,0.4,0.3,0.2",
                     "--iters", "1000", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean_diff=0.4" in out
        assert "p=0.0" in out

    def test_file_input(self, tmp_path, capsys):
        fa = tmp_path / "a.txt"
        fb = tmp_path / "b.txt"
        fa.write_text("0.9\n0.8\n0.7\n")
        fb.write_text("0.9\n0.8\n0.7\n")
        code = main(["bootstrap", "--a", str(fa), "--b", str(fb), "--iters", "100"])
        assert code == 0
        assert "p=1.0" in capsys.readouterr().out

    def test_length_mismatch_exit_code(self, capsys):
        code = main(["bootstrap", "--a", "1,2", "--b", "1"])
        assert code == 1
        assert "LengthMismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("a, b, message", [
        ("nan,0.8,0.7", "0.5,0.4,0.3", "accuracy list a holds a non-finite value, nan"),
        ("0.9,0.8,0.7", "0.5,inf,0.3", "accuracy list b holds a non-finite value, inf"),
        ("-inf,0.8,0.7", "-inf,0.4,0.3", "accuracy list a holds a non-finite value, -inf"),
    ], ids=["nan", "inf", "-inf"])
    def test_non_finite_accuracy_exits_1_and_names_it(self, a, b, message, capsys):
        code = main(["bootstrap", f"--a={a}", f"--b={b}", "--iters", "100"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ValueError: {message}\n"

    @pytest.mark.parametrize("iters", ["0", "-5"])
    def test_iters_below_1_exits_1_and_names_it(self, iters, capsys):
        code = main(["bootstrap", "--a", "0.9,0.8", "--b", "0.8,0.7", "--iters", iters])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ValueError: bootstrap needs at least 1 resample, got iters={iters}\n"


class TestInspect:
    def test_filters_view_header(self, capsys):
        code = main(["inspect", "--frontend", "leaf", "--what", "filters"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "channel,center_hz,sigma,fwhm_hz"
        assert len(lines) == 41

    def test_fwhm_is_the_half_power_width_in_hz(self, capsys):
        assert main(["inspect", "--frontend", "leaf", "--what", "filters"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
        n_points = 2 ** 18
        for ch, center_hz, sigma, fwhm_hz in rows:
            filt = gabor_impulse_response(float(center_hz) / 16000, float(sigma), 401)
            power = frequency_response(filt, n_points)
            measured_hz = (power >= 0.5 * power.max()).sum() * 16000 / n_points
            np.testing.assert_allclose(float(fwhm_hz), measured_hz, rtol=0.02, err_msg=f"channel {ch}")

    def test_params_view_header(self, capsys):
        code = main(["inspect", "--frontend", "leaf", "--what", "params"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "channel,center_hz,sigma,pool_width,alpha,delta,root,smooth"
        first = lines[1].split(",")
        assert len(first) == 8
        assert float(first[3]) == 0.4  # pooling width init
        assert float(first[4]) == 0.96  # alpha init

    def test_mel_variant_leaves_filter_columns_empty(self, capsys):
        code = main(["inspect", "--frontend", "mel-pcen", "--what", "params"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        first = lines[1].split(",")
        assert first[1] == "" and first[2] == "" and first[3] == ""
        assert float(first[4]) == 0.96


class TestGradcheckCommand:
    def test_seed_0_output_is_unchanged(self, gradcheck_seed0):
        # relative errors of 1e-10 to 1e-7 are rounding noise, and their 4th
        # digit moves with numpy's SIMD loops: compare bytes where golden does
        skip_off_the_golden_platform("the stored gradcheck rows")
        assert gradcheck_seed0.code == 0
        assert gradcheck_seed0.out == (DATA / "gradcheck_seed0.csv").read_text()
        assert gradcheck_seed0.err == "# worst 6.307e-04\n"

    def test_frontend_flags_are_rejected(self):
        # gradcheck uses its own small config; a size flag would be ignored
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--filters", "6"])
        assert exc.value.code == 2

    def test_csv_format_and_tolerance(self, gradcheck_seed0):
        assert gradcheck_seed0.code == 0
        lines = gradcheck_seed0.out.strip().splitlines()
        assert lines[0] == "variant,param_group,max_rel_err,n_params"
        assert len(lines) > 30
        for line in lines[1:]:
            assert float(line.split(",")[2]) < 1e-3


# --steps or --batch below 1, and the refusal that names it
STEPS_OR_BATCH_BELOW_1 = [
    pytest.param("--steps", "0", "training needs at least 1 step, got steps=0", id="steps-0"),
    pytest.param("--batch", "0", "a batch needs at least 1 clip, got batch_size=0", id="batch-0"),
    pytest.param("--batch", "-3", "a batch needs at least 1 clip, got batch_size=-3", id="batch--3"),
]


def no_batch(*args, **kwargs):
    raise AssertionError("a batch was drawn before the refusal")


def no_frontend(*args, **kwargs):
    raise AssertionError("the frontend ran before the refusal")


def no_wav(*args, **kwargs):
    raise AssertionError("the WAV was read before the refusal")


def no_training(*args, **kwargs):
    raise AssertionError("training ran before the refusal")


# an SNR of NaN or -inf, and the refusal that names it
SNR_NAN_OR_MINUS_INF = [
    pytest.param(value, f"ValueError: SNR must be a finite number of dB or inf, got snr_db={value}\n", id=value)
    for value in ("nan", "-inf")
]


class TestTrainEvalCommands:
    def test_train_writes_artifacts_and_eval_loads(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--task", "pitch", "--steps", "4", "--batch", "4",
                     "--lr", "0.001", "--seed", "5", "--out", str(out),
                     "--frontend", "leaf", "--filters", "6", "--filter-len", "65",
                     "--snr-db", "30"])
        assert code == 0
        assert (out / "metrics.csv").exists()
        assert (out / "final" / "manifest.txt").exists()
        assert (out / "snap_000000").is_dir()
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "step,task_id,loss,accuracy"

        code = main(["eval", "--model", str(out / "final"), "--task", "pitch",
                     "--frontend", "leaf", "--filters", "6", "--filter-len", "65",
                     "--n", "20", "--seed", "9", "--snr-db", "30"])
        assert code == 0
        assert "accuracy=" in capsys.readouterr().out

    def test_metrics_reproducible(self, tmp_path):
        args = ["train", "--task", "pitch", "--steps", "4", "--batch", "4",
                "--lr", "0.001", "--seed", "5", "--frontend", "leaf",
                "--filters", "6", "--filter-len", "65", "--snr-db", "30"]
        assert main(args + ["--out", str(tmp_path / "r1")]) == 0
        assert main(args + ["--out", str(tmp_path / "r2")]) == 0
        m1 = (tmp_path / "r1" / "metrics.csv").read_bytes()
        m2 = (tmp_path / "r2" / "metrics.csv").read_bytes()
        assert m1 == m2
        s1 = (tmp_path / "r1" / "final" / "manifest.txt").read_bytes()
        s2 = (tmp_path / "r2" / "final" / "manifest.txt").read_bytes()
        assert s1 == s2

    @pytest.mark.parametrize("lr", ["-1", "nan"])
    def test_learning_rate_not_above_0_exits_1_and_names_it(self, lr, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--task", "pitch", "--steps", "1", "--batch", "2", "--lr", lr,
                     "--frontend", "mel", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"ValueError: learning rate must be a finite number above 0, got lr={float(lr)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", STEPS_OR_BATCH_BELOW_1)
    def test_steps_or_batch_below_1_exits_1_and_names_it(self, flag, value, message, tmp_path,
                                                          monkeypatch, capsys):
        monkeypatch.setattr(training, "sample_batch", no_batch)
        out = tmp_path / "run"
        code = main(["train", "--task", "pitch", "--steps", "1", "--batch", "2", flag, value,
                     "--frontend", "mel", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"ValueError: {message}\n"
        assert not out.exists()


    def test_empty_task_list_exits_1_and_names_it(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(training, "sample_batch", no_batch)
        out = tmp_path / "run"
        code = main(["train", "--task", ",", "--steps", "1", "--batch", "2", "--frontend", "mel",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "ValueError: training needs at least 1 task, got tasks=[]\n"
        assert not out.exists()

    @pytest.mark.parametrize("snr, error", SNR_NAN_OR_MINUS_INF)
    def test_snr_nan_or_minus_inf_exits_1_before_training(self, snr, error, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(training, "sample_batch", no_batch)
        monkeypatch.setattr(cli, "train", no_training)
        out = tmp_path / "run"
        code = main(["train", "--task", "pitch", "--steps", "1", "--batch", "2", f"--snr-db={snr}",
                     "--frontend", "mel", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == error
        assert not out.exists()

    @pytest.mark.parametrize("where", ["a-file", "under-a-file"])
    def test_out_that_cannot_be_a_directory_exits_1_before_training(self, where, tmp_path, monkeypatch,
                                                                    capsys):
        monkeypatch.setattr(cli, "train", no_training)
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken if where == "a-file" else taken / "run"
        code = main(["train", "--task", "pitch", "--steps", "1", "--batch", "2", "--frontend", "mel",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"ValueError: train --out must be a directory, got {out}: {taken} is not one\n")


class TestConfigPrecedence:
    def test_flags_override_config_file(self, tone_wav, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n_filters=10\ncompression=log\npool_stride=80\n")
        code = main(["extract", "--input", str(tone_wav), "--config", str(cfg),
                     "--frontend", "leaf-log", "--filters", "12", "--stride", "200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "n_filters=12" in out  # flag wins over config file
        assert "learnable_params=36" in out  # 3N for gabor+log
        assert "frames=80 " in out  # 16000 samples at stride 200, not 80

    @pytest.mark.parametrize("variant", ["mel", "mel-pcen"])
    def test_filters_flag_sets_the_mel_grid(self, variant, tone_wav, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n_filters=10\nfmax=7000\n")
        out = tmp_path / "mel.leaf"
        code = main(["extract", "--input", str(tone_wav), "--config", str(cfg),
                     "--frontend", variant, "--filters", "12", "--out", str(out)])
        assert code == 0
        assert "n_filters=12" in capsys.readouterr().out
        assert read_feature_file(out).n_channels == 12

    def test_frontend_flag_overrides_config_variant(self, tone_wav, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("filtering=mel\ncompression=log\n")
        assert main(["extract", "--input", str(tone_wav), "--config", str(cfg), "--frontend", "leaf"]) == 0
        assert "frontend=leaf " in capsys.readouterr().out
        assert main(["extract", "--input", str(tone_wav), "--config", str(cfg)]) == 0
        assert "frontend=mel " in capsys.readouterr().out  # without the flag the file holds


class TestConfigFile:
    """The mel design grid in a config file reaches the Gabor init too."""

    @pytest.fixture
    def fmin300(self, tmp_path):
        path = tmp_path / "fmin.txt"
        path.write_text("fmin = 300\n")
        return path

    def test_inspect_filters_use_the_file_grid(self, fmin300, capsys):
        assert main(["inspect", "--frontend", "leaf", "--what", "filters"]) == 0
        default = capsys.readouterr().out
        assert main(["inspect", "--frontend", "leaf", "--what", "filters", "--config", str(fmin300)]) == 0
        out = capsys.readouterr().out
        assert out != default
        eta, sigma = gabor_params_from_mels(FrontendConfig(fmin=300.0))
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 40
        for ch, center_hz, sigma_text, _ in rows:
            assert float(center_hz) == eta[int(ch)] * 16000
            assert float(sigma_text) == sigma[int(ch)]

    def test_extract_leaf_uses_the_file_grid(self, fmin300, tone_wav, tmp_path):
        default, moved = tmp_path / "default.leaf", tmp_path / "fmin.leaf"
        assert main(["extract", "--input", str(tone_wav), "--frontend", "leaf", "--out", str(default)]) == 0
        assert main(["extract", "--input", str(tone_wav), "--frontend", "leaf", "--config", str(fmin300),
                     "--out", str(moved)]) == 0
        assert default.read_bytes() != moved.read_bytes()
        cfg = FrontendConfig(fmin=300.0)
        expected = frontend_forward(load_wav(tone_wav), init_params(cfg, 2), cfg).values
        np.testing.assert_array_equal(read_feature_file(moved).values, expected.astype(np.float32))

    @pytest.mark.parametrize("line", ["sample_rate=16000", "stride=80"])
    def test_unknown_key_exits_1_and_names_it(self, line, tone_wav, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(line + "\n")
        assert main(["extract", "--input", str(tone_wav), "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ValueError:")
        assert repr(line.split("=")[0]) in err

    def test_bad_value_exits_1_and_names_key_and_value(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("n_filters = ten\n")
        assert main(["inspect", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "ValueError: config key 'n_filters': cannot parse 'ten' as int\n"


class TestSizeSettings:
    """A channel count, kernel length or stride below 1 is refused by name."""

    @pytest.mark.parametrize("flags, name", [
        (["--filters", "0"], "n_filters"),
        (["--filters", "-3"], "n_filters"),
        (["--filter-len", "-1"], "filter_len"),
        (["--stride", "0"], "pool_stride"),
    ])
    def test_flag_below_1_exits_1_and_names_it(self, flags, name, tone_wav, tmp_path, capsys):
        out = tmp_path / "out.leaf"
        assert main(["extract", "--input", str(tone_wav), *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"ValueError: {name} must be >= 1\n"
        assert not out.exists()

    def test_config_pool_len_below_1_exits_1_and_names_it(self, tone_wav, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("pool_len=-1\n")
        assert main(["extract", "--input", str(tone_wav), "--config", str(path)]) == 1
        assert capsys.readouterr().err == "ValueError: pool_len must be >= 1\n"

    # below these lengths pool_widths' or sigma's constraint range is empty
    @pytest.mark.parametrize("pool_len", [1, 3])
    def test_config_pool_len_below_5_exits_1_and_names_it(self, pool_len, tone_wav, tmp_path, capsys):
        path, out = tmp_path / "short.txt", tmp_path / "out.leaf"
        path.write_text(f"pool_len={pool_len}\n")
        assert main(["extract", "--input", str(tone_wav), "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", "ValueError: pool_len must be >= 5\n")
        assert not out.exists()

    def test_filter_len_1_exits_1_and_names_it(self, tone_wav, tmp_path, capsys):
        out = tmp_path / "out.leaf"
        assert main(["extract", "--input", str(tone_wav), "--filter-len", "1", "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", "ValueError: filter_len must be >= 3\n")
        assert not out.exists()


class TestNoiseSweepConfig:
    """noise-sweep builds each variant from --config and the size flags."""

    # a sweep that wrongly starts stays short
    TINY = ["--snr-db", "inf", "--steps", "1", "--batch", "2", "--eval-clips", "2", "--seeds", "1"]

    def test_unknown_config_key_exits_1_and_names_it(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("stride=80\n")
        assert main(["noise-sweep", "--config", str(path), *self.TINY]) == 1
        assert "'stride'" in capsys.readouterr().err

    def test_size_flags_reach_every_variant(self, capsys):
        # an even kernel length is refused before any training starts
        assert main(["noise-sweep", "--frontends", "leaf,leaf-log", "--filter-len", "64", *self.TINY]) == 1
        assert capsys.readouterr().err == "ValueError: filter_len must be odd\n"

    def test_learning_rate_0_exits_1_and_names_it(self, capsys):
        assert main(["noise-sweep", "--frontends", "mel", "--lr", "0", *self.TINY]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "ValueError: learning rate must be a finite number above 0, got lr=0.0\n"

    def test_seeds_below_1_exits_1_and_names_it(self, capsys):
        # the last --seeds wins over TINY's
        assert main(["noise-sweep", "--frontends", "mel", *self.TINY, "--seeds", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "ValueError: noise sweep needs at least 1 seed, got n_seeds=0\n"

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_eval_clips_below_1_exits_1_before_training(self, value, monkeypatch, capsys):
        runs = []
        monkeypatch.setattr(training, "train", lambda *args, **kwargs: runs.append(args))
        # the last --eval-clips wins over TINY's
        assert main(["noise-sweep", "--frontends", "mel", *self.TINY, "--eval-clips", value]) == 1
        captured = capsys.readouterr()
        assert runs == []
        assert captured.out == ""
        assert captured.err == (f"ValueError: noise sweep needs at least 1 evaluation clip, "
                                f"got eval_clips={value}\n")

    @pytest.mark.parametrize("snr, error", SNR_NAN_OR_MINUS_INF)
    def test_snr_nan_or_minus_inf_exits_1_before_training(self, snr, error, monkeypatch, capsys):
        monkeypatch.setattr(training, "sample_batch", no_batch)
        monkeypatch.setattr(training, "train", no_training)
        # the last --snr-db wins over TINY's; the inf run would train first
        assert main(["noise-sweep", "--frontends", "mel", *self.TINY, f"--snr-db=inf,{snr}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == error

    @pytest.mark.parametrize("flag, value, message", STEPS_OR_BATCH_BELOW_1)
    def test_steps_or_batch_below_1_exits_1_and_names_it(self, flag, value, message, monkeypatch, capsys):
        monkeypatch.setattr(training, "sample_batch", no_batch)
        # the last flag wins over TINY's
        assert main(["noise-sweep", "--frontends", "mel", *self.TINY, flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ValueError: {message}\n"

    @pytest.mark.parametrize("where", ["a-directory", "in-a-missing-directory"])
    def test_out_that_cannot_be_written_exits_1_before_the_sweep(self, where, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "noise_sweep", no_training)
        out = tmp_path if where == "a-directory" else tmp_path / "missing" / "x.csv"
        assert main(["noise-sweep", "--frontends", "mel", *self.TINY, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"ValueError: noise-sweep --out must be a file in an existing directory, got {out}\n")

    def test_negative_snr_list_after_equals_sign_runs(self, capsys):
        # after a space argparse reads "-5,0" as a flag; after "=" it is the value
        assert main(["noise-sweep", "--frontends", "mel", "--filters", "8", *self.TINY, "--snr-db=-5,0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [["mel", "-5.0"], ["mel", "0.0"]]

    def test_csv_has_one_row_per_variant_and_snr(self, tmp_path, capsys):
        args = ["noise-sweep", "--frontends", "mel,mel-pcen", "--filters", "8", *self.TINY,
                "--snr-db", "inf,0", "--seeds", "2"]
        assert main(args) == 0
        text = capsys.readouterr().out
        lines = text.splitlines()
        assert lines[0] == "variant,snr_db,acc_seed0,acc_seed1,mean_accuracy"
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["mel", "inf"], ["mel", "0.0"], ["mel-pcen", "inf"], ["mel-pcen", "0.0"]]
        for line in lines[1:]:
            *accs, mean = map(float, line.split(",")[2:])
            assert len(accs) == 2
            assert mean == pytest.approx(np.mean(accs), abs=1e-6)
        path = tmp_path / "sweep.csv"
        assert main(args + ["--out", str(path)]) == 0
        assert capsys.readouterr().out == f"wrote {path}\n"
        assert path.read_text() == text


class TestStartup:
    """``scipy.signal`` pulls in ``scipy.stats``, ``scipy.interpolate`` and
    ``scipy.optimize``, about a second and ~49 MB per process; only the
    noise-color generator may load it.  The check runs in a fresh
    interpreter, because this process may hold the modules already."""

    HEAVY = ("scipy.signal", "scipy.stats", "scipy.interpolate", "scipy.optimize")
    SCRIPT = """
import json, sys
import leafaudio, leafaudio.cli
from leafaudio import tasks

def loaded():
    return [name for name in {heavy!r} if name in sys.modules]

wav, out = sys.argv[1:3]
if leafaudio.cli.main(["extract", "--input", wav, "--out", out]) != 0:
    raise SystemExit("extract failed")
tasks.generate_example(tasks.make_task("pitch"), 1, seed=3)
tasks.generate_example(tasks.make_task("am"), 2, seed=3)
before = loaded()
tasks.generate_example(tasks.make_task("noisecolor"), 1, seed=3)
print(json.dumps({{"before": before, "after": loaded()}}))
""".format(heavy=HEAVY)

    def test_only_the_noise_color_generator_loads_scipy_signal(self, tone_wav, tmp_path):
        src = str(Path(leafaudio.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, str(tone_wav), str(tmp_path / "tone.leaf")],
                              env=env, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["before"] == []
        assert "scipy.signal" in result["after"]
